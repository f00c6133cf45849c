"""Component inventories and the affected-components metric.

A component is a node or stream (dataflow builds) or an API or data
routine (service builds). Each gets a fingerprint over its structural
signature (wiring and schemas, or wire field sets) combined with the
author-declared logic_version tag of a node or API (a routine's reads
"v1"), so pure logic edits are visible even when wiring is unchanged.
Diffing two inventories yields added, removed, and changed sets; their
total size is how intrusive a change was.
"""

from __future__ import annotations

from typing import NamedTuple

from . import apps
from .canon import fingerprint

# Fixed build context for inventories: fingerprints depend only on
# structure and version tags, never on what a scenario produced.
MANIFEST_TICKS = 100
MANIFEST_SEED = 11


class ComponentManifest(NamedTuple):
    version_key: str
    components: dict  # component id -> fingerprint

    def ids(self) -> set[str]:
        return set(self.components)


class ComponentDiff(NamedTuple):
    added: frozenset
    removed: frozenset
    changed: frozenset

    @property
    def affected_count(self) -> int:
        return len(self.added) + len(self.removed) + len(self.changed)


def _schema_doc(schema) -> dict:
    return {"fields": [[n, t] for n, t in schema.fields], "name": schema.name}


def fbp_manifest(graph, version_key: str) -> ComponentManifest:
    """Inventory a graph whose edges name only its own streams and nodes
    (as in any graph `validate` passes)."""
    components: dict[str, str] = {}
    schemas: dict[str, dict] = {}  # stream id -> schema doc
    wiring = graph.wiring()
    for s in graph.streams:
        schemas[s.id] = _schema_doc(s.schema)
        components[f"stream/{s.id}"] = fingerprint(
            {"category": wiring.roles[s.id].value, "kind": "stream", "schema": schemas[s.id]}
        )
    # A node's ports are its edges' ports, each with its stream's schema.
    for n in graph.nodes:
        ins = {e.port: {"schema": schemas[e.stream], "stream": e.stream} for e in wiring.ins[n.id]}
        outs = {e.port: {"schema": schemas[e.stream], "stream": e.stream} for e in wiring.outs[n.id]}
        components[f"node/{n.id}"] = fingerprint(
            {"in": ins, "kind": "node", "logic_version": n.logic_version, "out": outs}
        )
    return ComponentManifest(version_key, components)


def soa_manifest(registry, version_key: str) -> ComponentManifest:
    components: dict[str, str] = {}
    for spec in registry.service_specs():
        for api in spec.apis:
            components[f"api/{spec.id}.{api.name}"] = fingerprint(
                {
                    "kind": "api",
                    "logic_version": api.logic_version,
                    "name": api.name,
                    "request": sorted(api.request_fields),
                    "response": sorted(api.response_fields),
                    "service": spec.id,
                }
            )
        for routine in spec.routines:
            components[f"routine/{spec.id}.{routine.name}"] = fingerprint(
                {
                    "kind": "routine",
                    "logic_version": "v1",
                    "name": routine.name,
                    "service": spec.id,
                }
            )
    return ComponentManifest(version_key, components)


def manifest(version, scenario: apps.Scenario | None = None) -> ComponentManifest:
    """Inventory one app version from its `apps.build_app` build (nothing
    trains or simulates), under a fixed default scenario unless one is
    supplied."""
    if scenario is None:
        scenario = apps.make_scenario(version.app, MANIFEST_TICKS, MANIFEST_SEED)
    built = apps.build_app(version, scenario)
    if version.paradigm == "fbp":
        return fbp_manifest(built.graph, version.key)
    return soa_manifest(built.registry, version.key)


def diff(a: ComponentManifest, b: ComponentManifest) -> ComponentDiff:
    added = frozenset(b.ids() - a.ids())
    removed = frozenset(a.ids() - b.ids())
    changed = frozenset(
        cid for cid in a.ids() & b.ids() if a.components[cid] != b.components[cid]
    )
    return ComponentDiff(added, removed, changed)
