"""Seeded discrete-event harness that drives an application version.

A scenario fixes everything about the outside world: the app, the tick
count, the seed, and generator parameters. Each tick the world emits
events (exogenous arrivals plus reactions to what the app produced
earlier), the harness delivers them (injection for dataflow builds,
API calls for service builds) and then observes the app's outputs.

The world is deliberately stage-blind: it always reports everything that
"happens" (pickups, polls, ...), and events whose kind has no route in
the running version are simply not deliverable to it. That keeps event
sequences identical across paradigms and stages, which the equivalence
and monotonicity checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import canonical_json, sha256_hex
from .collection import DatasetRow, collect, publish_rows
from .runtime import start


@dataclass(frozen=True)
class Event:
    tick: int
    kind: str
    payload: dict


@dataclass(frozen=True)
class Scenario:
    """World configuration. Same scenario, same event sequence.

    Seeds are full 64-bit values; anything outside [0, 2**64) is refused
    rather than masked, so two seed labels never name the same run.
    """

    app: str
    ticks: int
    seed: int
    params: dict = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self):
        if self.ticks < 0:
            raise ValueError("ticks must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


class World:
    """Base for per-app worlds: exogenous arrivals plus reactions."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def generate_events(self, tick: int) -> list[Event]:
        raise NotImplementedError

    def observe(self, tick: int, docs: list[dict]) -> None:
        """Called once per tick with the app's sorted observation batch."""


@dataclass(frozen=True)
class RunReport:
    app: str
    paradigm: str
    stage: str
    ticks: int
    seed: int
    counts: dict
    digests: dict
    dataset_rows: int | None

    def to_doc(self) -> dict:
        return {
            "app": self.app,
            "counts": self.counts,
            "dataset_rows": self.dataset_rows,
            "digests": self.digests,
            "paradigm": self.paradigm,
            "seed": self.seed,
            "stage": self.stage,
            "ticks": self.ticks,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_doc())


@dataclass
class ExecutionResult:
    scenario: Scenario
    built: object
    instance: object | None  # RuntimeInstance for dataflow builds
    registry: object | None  # ServiceRegistry for service builds
    observations: dict[str, list[dict]]
    dataset_rows: list[DatasetRow] | None


def execute(scenario: Scenario, version) -> ExecutionResult:
    """Run the full tick loop and keep the live app around for inspection."""
    from . import apps  # local import: the apps import this module

    built = apps.build_app(version, scenario)
    world = apps.make_world(scenario)
    observations: dict[str, list[dict]] = {}

    if version.paradigm == "fbp":
        instance = start(built.graph)
        stream_fields = {
            s.id: s.schema.field_names for s in built.graph.streams
        }
        read_pos = {sid: 0 for sid in built.obs_kinds}
        for tick in range(scenario.ticks):
            batch: list[dict] = []
            for ev in world.generate_events(tick):
                route = built.routes.get(ev.kind)
                if route is None:
                    continue
                values = {f: ev.payload[f] for f in stream_fields[route.stream_id]}
                instance.inject(route.stream_id, values)
            instance.step()
            for sid in sorted(built.obs_kinds):
                kind = built.obs_kinds[sid]
                for rec in instance.read(sid, read_pos[sid]):
                    batch.append({"data": rec.as_dict(), "kind": kind, "tick": tick})
                read_pos[sid] = instance.length(sid)
            batch.sort(key=canonical_json)
            for doc in batch:
                observations.setdefault(doc["kind"], []).append(doc)
            world.observe(tick, batch)
        rows = None
        if built.collection is not None:
            rows = collect(instance, built.collection)
            publish_rows(instance, built.collection, rows)
        return ExecutionResult(scenario, built, instance, None, observations, rows)

    registry = built.registry
    api_fields = {
        (spec.id, api.name): api.request_fields
        for spec in registry.service_specs()
        for api in spec.apis
    }
    for tick in range(scenario.ticks):
        registry.set_tick(tick)
        batch = []
        for ev in world.generate_events(tick):
            route = built.routes.get(ev.kind)
            if route is None:
                continue
            request = {f: ev.payload[f] for f in api_fields[(route.service, route.api)]}
            response = registry.call("sim", route.service, route.api, request)
            if route.obs_kind is None:
                continue
            if route.observe_when is not None and not response.get(route.observe_when):
                continue
            batch.append({"data": response, "kind": route.obs_kind, "tick": tick})
        batch.sort(key=canonical_json)
        for doc in batch:
            observations.setdefault(doc["kind"], []).append(doc)
        world.observe(tick, batch)
    rows = None
    if built.export_dataset is not None:
        rows = built.export_dataset(registry)
    return ExecutionResult(scenario, built, None, registry, observations, rows)


def observation_digests(observations: dict[str, list[dict]]) -> dict[str, str]:
    return {
        kind: sha256_hex("\n".join(canonical_json(d) for d in docs))
        for kind, docs in sorted(observations.items())
    }


def run_scenario(scenario: Scenario, version) -> RunReport:
    """Execute and summarize: per-stream/per-api counts plus output digests."""
    result = execute(scenario, version)
    if version.paradigm == "fbp":
        counts = {
            f"stream/{sid}": result.instance.length(sid)
            for sid in result.instance.stream_ids()
        }
    else:
        counts = {}
        for entry in result.registry.trace:
            key = f"api/{entry.callee}.{entry.api}"
            counts[key] = counts.get(key, 0) + 1
        counts = dict(sorted(counts.items()))
    return RunReport(
        app=scenario.app,
        paradigm=version.paradigm,
        stage=version.stage,
        ticks=scenario.ticks,
        seed=scenario.seed,
        counts=counts,
        digests=observation_digests(result.observations),
        dataset_rows=None if result.dataset_rows is None else len(result.dataset_rows),
    )


def training_rows(app: str, paradigm: str, scenario: Scenario) -> list[DatasetRow]:
    """Collect the offline dataset a model stage trains on.

    Runs the same app's data stage on a sibling scenario whose seed is
    derived from the serving seed, so training is deterministic but does
    not replay the exact serving workload. Called by the apps' `train`
    steps, which `apps.build_app` runs before building a model stage;
    structure-only builds never call it.
    """
    from . import apps
    from .rng import derive_seed

    train = Scenario(
        app=app,
        ticks=scenario.ticks,
        seed=derive_seed(scenario.seed, "train"),
        params=dict(scenario.params),
    )
    result = execute(train, apps.app_version(app, paradigm, "data"))
    return result.dataset_rows or []
