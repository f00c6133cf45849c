"""Seeded discrete-event harness that drives an application version.

A scenario fixes everything about the outside world: the app, the tick
count, the seed, and generator parameters. Each tick the world emits
events (exogenous arrivals plus reactions to what the app produced
earlier), the harness delivers them and then observes the app's outputs.

One tick loop drives both paradigms through a small driver: `tick(tick,
events)` delivers a tick's events and returns its observation batch, and
`finish()` returns the dataset rows and the report counts. The loop sorts
each batch, hashes it and shows it to the world, the one reader of a run's
observations. The rows are the row documents `collection.join` built, in
both paradigms: the service twin's `export_dataset` response carries them.
Value records (`RunReport`, `ExecutionResult`, a build's routes) are
NamedTuples, whose field reads cost about twice an attribute read, so each
driver unpacks `built.routes` into per-kind tuples when it starts and its
`tick` reads no record field; mutable holders are plain classes.

Each observation is encoded as canonical JSON exactly once: that text is
the batch's sort key and is folded into a running per-kind SHA-256 as the
run goes, so the digests keep no document, no text and no second encoding.

A training run (`training_rows`) needs only the dataset rows, so it runs
the same loop rows-only: each batch keeps only the kinds the world reacts
to (`World.observes`), nothing is hashed, and `finish` collects or exports
the rows without counting or publishing them.

The world is deliberately stage-blind: it always reports everything that
"happens" (pickups, polls, ...), and events whose kind has no route in
the running version are simply not deliverable to it. That keeps event
sequences identical across paradigms and stages, which the equivalence
and monotonicity checks rely on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .canon import canonical_json
from .collection import collect, publish_rows
from .rng import checked_seed, derive_seed
from .runtime import start


class Event(NamedTuple):
    tick: int
    kind: str
    payload: dict


@dataclass(frozen=True)
class Scenario:
    """World configuration. Same scenario, same event sequence.

    Seeds are full 64-bit values; anything outside [0, 2**64) is refused
    rather than masked, so two seed labels never name the same run. Ticks
    must be an int >= 0; a bool or a float is refused, not run.
    """

    app: str
    ticks: int
    seed: int
    params: dict = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self):
        if isinstance(self.ticks, bool) or not isinstance(self.ticks, int) or self.ticks < 0:
            raise ValueError(f"ticks must be an int >= 0, got {self.ticks!r}")
        checked_seed(self.seed)


class World:
    """Base for per-app worlds: exogenous arrivals plus reactions."""

    observes: tuple[str, ...] = ()
    """The observation kinds whose content and order `observe` uses. A
    rows-only run shows the world only these, so a world that reacts to a
    kind it does not declare here trains on different rows."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def generate_events(self, tick: int) -> list[Event]:
        raise NotImplementedError

    def observe(self, tick: int, docs: list[dict]) -> None:
        """Called once per tick with the app's sorted observation batch: the
        whole batch in a serving run, only the kinds in `observes` in a
        rows-only run."""


class RunReport(NamedTuple):
    app: str
    paradigm: str
    stage: str
    ticks: int
    seed: int
    counts: dict
    digests: dict
    dataset_rows: int | None

    def to_json(self) -> str:
        return canonical_json(self._asdict())


class ExecutionResult(NamedTuple):
    """A run's live app, rows, counts and digests: no observation documents."""

    built: object
    instance: object | None  # RuntimeInstance for dataflow builds
    dataset_rows: list[dict] | None  # `collection` row documents
    counts: dict  # the report counts: stream lengths or per-API calls; empty rows-only
    digests: dict[str, str]  # per observation kind, see `observation_digests`; empty rows-only


class _FbpDriver:
    """Delivers by injection into input streams, steps the runtime once per
    tick and observes the records each output stream gained."""

    def __init__(self, built):
        self.built = built
        self.instance = start(built.graph)
        fields = {s.id: s.schema.field_names for s in built.graph.streams}
        # event kind -> (input stream id, its field names)
        self._routes = {kind: (r.stream_id, fields[r.stream_id]) for kind, r in built.routes.items()}
        self._observed = sorted(built.obs_kinds.items())  # (output stream id, kind)
        self._read_pos = {sid: 0 for sid in built.obs_kinds}

    def tick(self, tick: int, events: list[Event]) -> list[dict]:
        routes, instance, read_pos = self._routes, self.instance, self._read_pos
        for _, kind, payload in events:
            route = routes.get(kind)
            if route is not None:
                sid, fields = route
                instance.inject(sid, {f: payload[f] for f in fields})
        instance.step()
        batch = []
        for sid, kind in self._observed:
            new = instance.read(sid, read_pos[sid])
            batch += [{"data": rec.as_dict(), "kind": kind, "tick": tick} for rec in new]
            read_pos[sid] += len(new)
        return batch

    def finish(self, rows_only: bool) -> tuple[list[dict] | None, dict]:
        """The collected rows and the stream counts; rows-only: the rows
        alone, neither counted nor published."""
        instance, spec = self.instance, self.built.collection
        rows = None if spec is None else collect(instance, spec)
        if rows_only:
            return rows, {}
        if rows is not None:
            publish_rows(instance, spec, rows)
        return rows, {f"stream/{sid}": instance.length(sid) for sid in instance.stream_ids()}


class _SoaDriver:
    """Delivers each event as one API call and observes the responses of
    routes that name an observation kind."""

    instance = None

    def __init__(self, built):
        self.built = built
        self.registry = built.registry
        fields = {(s.id, a.name): a.request_fields for s in self.registry.service_specs() for a in s.apis}
        # event kind -> (service, api, request fields, obs_kind, observe_when)
        self._routes = {
            kind: (r.service, r.api, fields[(r.service, r.api)], r.obs_kind, r.observe_when)
            for kind, r in built.routes.items()
        }

    def tick(self, tick: int, events: list[Event]) -> list[dict]:
        routes, registry = self._routes, self.registry
        registry.tick = tick
        batch = []
        for _, kind, payload in events:
            route = routes.get(kind)
            if route is None:
                continue
            service, api, fields, obs_kind, observe_when = route
            response = registry.call("sim", service, api, {f: payload[f] for f in fields})
            if obs_kind is None:
                continue
            if observe_when is not None and not response.get(observe_when):
                continue
            batch.append({"data": response, "kind": obs_kind, "tick": tick})
        return batch

    def finish(self, rows_only: bool) -> tuple[list[dict] | None, dict]:
        """The exported rows and the registry's per-API call counts, the
        export included, as `api/<service>.<api>` in key order; rows-only:
        the rows alone."""
        service = self.built.dataset_service
        rows = None
        if service is not None:
            rows = self.registry.call("sim", service, "export_dataset", {})["rows"]
        if rows_only:
            return rows, {}
        counts = {f"api/{callee}.{api}": n for (callee, api), n in self.registry.call_counts.items()}
        return rows, dict(sorted(counts.items()))


def execute(scenario: Scenario, version, *, rows_only: bool = False) -> ExecutionResult:
    """Run the full tick loop and keep the live app around for inspection.

    Per tick, each observation is encoded once; the batch is sorted by that
    text (ties keep their order), each text is folded into its kind's
    running hash, so `digests` is ready at the end, and the batch is shown
    to the world. No document is kept beyond its tick.

    `rows_only` is for runs that need only `dataset_rows` (training,
    `flowbench collect`): each batch keeps only the kinds in
    `world.observes` and is sorted and shown to the world as above, but
    nothing is hashed and `finish` neither counts nor publishes. `counts`
    and `digests` are then empty.
    """
    from . import apps  # local import: the apps import this module

    built = apps.build_app(version, scenario)
    world = apps.make_world(scenario)
    kinds = frozenset(world.observes) if rows_only else None
    driver = _FbpDriver(built) if version.paradigm == "fbp" else _SoaDriver(built)
    hashes: dict[str, hashlib._Hash] = {}
    for tick in range(scenario.ticks):
        batch = driver.tick(tick, world.generate_events(tick))
        if rows_only:
            batch = [doc for doc in batch if doc["kind"] in kinds]
        encoded = sorted(((canonical_json(doc), doc) for doc in batch), key=itemgetter(0))
        if not rows_only:
            for text, doc in encoded:
                kind = doc["kind"]
                running = hashes.get(kind)
                if running is None:
                    hashes[kind] = hashlib.sha256(text.encode())
                else:
                    running.update(b"\n" + text.encode())
        world.observe(tick, [doc for _, doc in encoded])
    rows, counts = driver.finish(rows_only)
    return ExecutionResult(built, driver.instance, rows, counts, observation_digests(hashes))


def observation_digests(hashes: dict[str, hashlib._Hash]) -> dict[str, str]:
    """Hex digest per kind, in kind order. Each running hash has seen the
    texts of the docs `observe` got, joined by newlines: a digest equals
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
    not replay the exact serving workload. The run is rows-only (see
    `execute`): it returns the rows the full run would collect, without
    the digests, counts and published dataset stream of a serving run.
    `apps.build_app` calls it, and fits the app's `fit_model` to the rows,
    before building a model stage; structure-only builds never call it.
    """
    from . import apps

    train = Scenario(
        app=app,
        ticks=scenario.ticks,
        seed=derive_seed(scenario.seed, "train"),
        params=dict(scenario.params),
    )
    result = execute(train, apps.app_version(app, paradigm, "data"), rows_only=True)
    return result.dataset_rows or []
