"""Seeded discrete-event harness that drives an application version.

A scenario fixes everything about the outside world: the app, the tick
count, the seed, and generator parameters. Each tick the world emits
events (exogenous arrivals plus reactions to what the app produced
earlier), the harness delivers them and then observes the app's outputs.

One tick loop drives both paradigms through a small driver: `tick(tick,
events)` delivers a tick's events and returns its observation batch, and
`finish()` returns the dataset rows and the report counts. The loop sorts
each batch, files it and shows it to the world. The rows are the row
documents `collection.join` built, in both paradigms: the service twin's
`export_dataset` response carries them as they are.

Each observation is encoded as canonical JSON exactly once: that text is
the batch's sort key and is folded into a running per-kind SHA-256 as the
run goes, so the report digests need neither a second encoding nor a
joined copy of every text.

The world is deliberately stage-blind: it always reports everything that
"happens" (pickups, polls, ...), and events whose kind has no route in
the running version are simply not deliverable to it. That keeps event
sequences identical across paradigms and stages, which the equivalence
and monotonicity checks rely on.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import asdict, dataclass, field
from operator import itemgetter

from .canon import canonical_json
from .collection import collect, publish_rows
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

    def to_json(self) -> str:
        return canonical_json(asdict(self))


@dataclass
class ExecutionResult:
    built: object
    instance: object | None  # RuntimeInstance for dataflow builds
    observations: dict[str, list[dict]]
    dataset_rows: list[dict] | None  # `collection` row documents
    counts: dict  # the report counts: stream lengths or per-API calls
    digests: dict[str, str]  # per observation kind, see `observation_digests`


class _FbpDriver:
    """Delivers by injection into input streams, steps the runtime once per
    tick and observes the records each output stream gained."""

    def __init__(self, built):
        self.built = built
        self.instance = start(built.graph)
        self._fields = {s.id: s.schema.field_names for s in built.graph.streams}
        self._read_pos = {sid: 0 for sid in built.obs_kinds}

    def tick(self, tick: int, events: list[Event]) -> list[dict]:
        routes, instance = self.built.routes, self.instance
        for ev in events:
            route = routes.get(ev.kind)
            if route is not None:
                values = {f: ev.payload[f] for f in self._fields[route.stream_id]}
                instance.inject(route.stream_id, values)
        instance.step()
        batch = []
        for sid, kind in sorted(self.built.obs_kinds.items()):
            for rec in instance.read(sid, self._read_pos[sid]):
                batch.append({"data": rec.as_dict(), "kind": kind, "tick": tick})
            self._read_pos[sid] = instance.length(sid)
        return batch

    def finish(self) -> tuple[list[dict] | None, dict]:
        instance, spec = self.instance, self.built.collection
        rows = None
        if spec is not None:
            rows = collect(instance, spec)
            publish_rows(instance, spec, rows)
        return rows, {f"stream/{sid}": instance.length(sid) for sid in instance.stream_ids()}


class _SoaDriver:
    """Delivers each event as one API call and observes the responses of
    routes that name an observation kind."""

    instance = None

    def __init__(self, built):
        self.built = built
        self.registry = built.registry
        self._fields = {
            (spec.id, api.name): api.request_fields
            for spec in self.registry.service_specs()
            for api in spec.apis
        }

    def tick(self, tick: int, events: list[Event]) -> list[dict]:
        routes, registry = self.built.routes, self.registry
        registry.tick = tick
        batch = []
        for ev in events:
            route = routes.get(ev.kind)
            if route is None:
                continue
            request = {f: ev.payload[f] for f in self._fields[(route.service, route.api)]}
            response = registry.call("sim", route.service, route.api, request)
            if route.obs_kind is None:
                continue
            if route.observe_when is not None and not response.get(route.observe_when):
                continue
            batch.append({"data": response, "kind": route.obs_kind, "tick": tick})
        return batch

    def finish(self) -> tuple[list[dict] | None, dict]:
        rows = None
        service = self.built.dataset_service
        if service is not None:
            rows = self.registry.call("sim", service, "export_dataset", {})["rows"]
        counts = Counter(f"api/{entry.callee}.{entry.api}" for entry in self.registry.trace)
        return rows, dict(sorted(counts.items()))


def execute(scenario: Scenario, version) -> ExecutionResult:
    """Run the full tick loop and keep the live app around for inspection.

    Per tick, each observation is encoded once; the batch is sorted by that
    text (ties keep their order) and each text is folded into its kind's
    running hash, so `digests` is ready when the loop ends.
    """
    from . import apps  # local import: the apps import this module

    built = apps.build_app(version, scenario)
    world = apps.make_world(scenario)
    driver = _FbpDriver(built) if version.paradigm == "fbp" else _SoaDriver(built)
    observations: dict[str, list[dict]] = {}
    hashes: dict[str, hashlib._Hash] = {}
    for tick in range(scenario.ticks):
        batch = driver.tick(tick, world.generate_events(tick))
        encoded = sorted(((canonical_json(doc), doc) for doc in batch), key=itemgetter(0))
        for text, doc in encoded:
            kind = doc["kind"]
            running = hashes.get(kind)
            if running is None:
                hashes[kind] = hashlib.sha256(text.encode())
                observations[kind] = [doc]
            else:
                running.update(b"\n" + text.encode())
                observations[kind].append(doc)
        world.observe(tick, [doc for _, doc in encoded])
    rows, counts = driver.finish()
    return ExecutionResult(
        built, driver.instance, observations, rows, counts, observation_digests(hashes)
    )


def observation_digests(hashes: dict[str, hashlib._Hash]) -> dict[str, str]:
    """Hex digest per kind, in kind order. Each running hash has seen the
    kind's texts joined by newlines, so a digest equals
    `sha256_hex("\n".join(canonical_json(d) for d in docs))`."""
    return {kind: running.hexdigest() for kind, running in sorted(hashes.items())}


def run_scenario(scenario: Scenario, version) -> RunReport:
    """Execute and summarize: per-stream/per-api counts plus output digests."""
    result = execute(scenario, version)
    return RunReport(
        app=scenario.app,
        paradigm=version.paradigm,
        stage=version.stage,
        ticks=scenario.ticks,
        seed=scenario.seed,
        counts=result.counts,
        digests=result.digests,
        dataset_rows=None if result.dataset_rows is None else len(result.dataset_rows),
    )


def training_rows(app: str, paradigm: str, scenario: Scenario) -> list[dict]:
    """Collect the offline dataset a model stage trains on.

    Runs the same app's data stage on a sibling scenario whose seed is
    derived from the serving seed, so training is deterministic but does
    not replay the exact serving workload. `apps.build_app` calls it, and
    fits the app's `fit_model` to the rows, before building a model stage;
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
