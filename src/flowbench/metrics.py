"""Component inventories and the affected-components metric.

A component is a node or stream (dataflow builds) or an API or data
routine (service builds). Each gets a fingerprint over its structural
signature (wiring and schemas, or wire field sets) combined with the
author-declared logic_version tag, so pure logic edits are visible even
when wiring is unchanged. Diffing two inventories yields added, removed,
and changed sets; their total size is how intrusive a change was.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import fingerprint
from .sim import Scenario

# Fixed build context for inventories: fingerprints depend only on
# structure and version tags, never on what a scenario produced.
MANIFEST_TICKS = 100
MANIFEST_SEED = 11


@dataclass(frozen=True)
class ComponentManifest:
    version_key: str
    components: dict  # component id -> fingerprint

    def ids(self) -> set[str]:
        return set(self.components)


@dataclass(frozen=True)
class ComponentDiff:
    added: frozenset
    removed: frozenset
    changed: frozenset

    @property
    def affected_count(self) -> int:
        return len(self.added) + len(self.removed) + len(self.changed)


def _schema_doc(schema) -> dict:
    return {"fields": [[n, t] for n, t in schema.fields], "name": schema.name}


def fbp_manifest(graph, version_key: str) -> ComponentManifest:
    components: dict[str, str] = {}
    for s in graph.streams:
        components[f"stream/{s.id}"] = fingerprint(
            {"category": s.category.value, "kind": "stream", "schema": _schema_doc(s.schema)}
        )
    in_wiring: dict[str, dict] = {}
    out_wiring: dict[str, dict] = {}
    for e in graph.in_edges:
        in_wiring.setdefault(e.node, {})[e.port] = e.stream
    for e in graph.out_edges:
        out_wiring.setdefault(e.node, {})[e.port] = e.stream
    for n in graph.nodes:
        components[f"node/{n.id}"] = fingerprint(
            {
                "in": {
                    p.name: {"schema": _schema_doc(p.schema), "stream": in_wiring.get(n.id, {}).get(p.name)}
                    for p in n.in_ports
                },
                "kind": "node",
                "logic_version": n.logic_version,
                "out": {
                    p.name: {"schema": _schema_doc(p.schema), "stream": out_wiring.get(n.id, {}).get(p.name)}
                    for p in n.out_ports
                },
            }
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
                    "logic_version": routine.logic_version,
                    "name": routine.name,
                    "service": spec.id,
                }
            )
    return ComponentManifest(version_key, components)


def manifest(version, scenario: Scenario | None = None) -> ComponentManifest:
    """Inventory one app version from its structure-only build
    (`apps.build_structure`: nothing trains or simulates), under a fixed
    default scenario unless one is supplied."""
    from . import apps

    if scenario is None:
        scenario = apps.make_scenario(version.app, MANIFEST_TICKS, MANIFEST_SEED)
    built = apps.build_structure(version, scenario)
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
