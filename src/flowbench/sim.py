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
Every doc is `{"data": ..., "kind": ..., "tick": ...}`, keys already in
canonical order, so only its `data` is encoded; the rest is an envelope
made once per kind (`_Envelope`) and once per tick. The `data` goes
through an encoder compiled for the shape of its kind's first doc
(`canon.flat_encoder`), and through the C encoder when it has another
shape; either way the text is the same.

A run of an ml version that trains offline first fits its model (`train`)
to the rows of a data-stage run (`training_rows`). That run needs only the
rows, so it runs the same loop rows-only: the drivers make docs only of
the kinds the world reacts to (`World.observes`), nothing is hashed, and
`finish` collects or exports the rows without counting or publishing them.

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

from . import canon
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
    """A run's live app, rows, counts, digests and model: no observation documents."""

    built: object
    instance: object | None  # RuntimeInstance for dataflow builds
    dataset_rows: list[dict] | None  # `collection` row documents
    counts: dict  # the report counts: stream lengths or per-API calls; empty rows-only
    digests: dict[str, str]  # per observation kind, see `observation_digests`; empty rows-only
    model: object | None  # what `train` fitted, None for a version that trains nothing


class _FbpDriver:
    """Delivers by injection into input streams, steps the runtime once per
    tick and observes the records each output stream of a kept kind gained
    (`keep`: the kinds to observe, None for all)."""

    def __init__(self, built, keep: frozenset[str] | None):
        self.built = built
        self.instance = start(built.graph)
        fields = {s.id: s.schema.field_names for s in built.graph.streams}
        # event kind -> (input stream id, its field names)
        self._routes = {kind: (sid, fields[sid]) for kind, sid in built.routes.items()}
        # (output stream id, kind) of each kept kind
        self._observed = sorted(
            (sid, kind) for sid, kind in built.obs_kinds.items() if keep is None or kind in keep
        )
        self._read_pos = {sid: 0 for sid, _ in self._observed}

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
    routes that name a kept observation kind (`keep`: the kinds to observe,
    None for all); every call is made either way. The dataset exporter is
    the service with an `export_dataset` API; a build where two have one is
    refused with `ValueError` before any tick."""

    instance = None

    def __init__(self, built, keep: frozenset[str] | None):
        self.built = built
        self.registry = built.registry
        fields = {(s.id, a.name): a.request_fields for s in self.registry.service_specs() for a in s.apis}
        exporters = [sid for sid, api in fields if api == "export_dataset"]
        if len(exporters) > 1:
            raise ValueError(f"services {exporters} each have an export_dataset API; a build exports one dataset")
        self._exporter = exporters[0] if exporters else None
        # event kind -> (service, api, request fields, obs_kind or None if not kept, observe_when)
        self._routes = {
            kind: (
                r.service, r.api, fields[(r.service, r.api)],
                r.obs_kind if keep is None or r.obs_kind in keep else None, r.observe_when,
            )
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
        """The rows the one service with an `export_dataset` API exports and
        the registry's per-API call counts, the export included, as
        `api/<service>.<api>` in key order; rows-only: the rows alone."""
        rows = None
        if self._exporter is not None:
            rows = self.registry.call("sim", self._exporter, "export_dataset", {})["rows"]
        if rows_only:
            return rows, {}
        counts = {f"api/{callee}.{api}": n for (callee, api), n in self.registry.call_counts.items()}
        return rows, dict(sorted(counts.items()))


class _Envelope(dict):
    """Encodes a tick's observation docs with one `canonical_json` call
    each; maps each kind to its entry: the envelope text between a doc's
    data and its tick, and the encoder compiled for that kind's data.

    A doc `{"data": d, "kind": k, "tick": t}` has its keys in canonical
    order, so its text is `'{"data":' + canonical_json(d) + text +
    str(t) + "}"`, where `text` is `',"kind":' + canonical_json(k) +
    ',"tick":'`. Both parts of an entry are made from the kind's first doc
    in the run: the encoder is `canon.flat_encoder` of that doc's data,
    None for data that is not flat, and `canonical_json` falls back to the
    C encoder for any later data of another shape. The kind is encoded
    through `canon`, not the `canonical_json` name this module binds, so
    that name is called once per observation (the benchmark's tracer
    counts and times its calls, which run the compiled encoders; compiling
    one happens here, outside them).
    """

    def sorted_texts(self, batch: list[dict], tick: int) -> list[tuple[str, dict]]:
        """(text, doc) for each doc of tick `tick`'s batch, sorted by text;
        ties keep their order."""
        end = f"{tick}}}"
        encoded = []
        for doc in batch:
            data, kind = doc["data"], doc["kind"]
            entry = self.get(kind)
            if entry is None:
                entry = self[kind] = (f',"kind":{canon.canonical_json(kind)},"tick":', canon.flat_encoder(data))
            text, flat = entry
            encoded.append((f'{{"data":{canonical_json(data, flat)}{text}{end}', doc))
        encoded.sort(key=itemgetter(0))
        return encoded


def execute(scenario: Scenario, version, *, rows_only: bool = False) -> ExecutionResult:
    """Train (`train`), build and run the full tick loop; keep the live app for inspection.

    Per tick, each observation is encoded once: its `data` is encoded and
    wrapped in its kind's and tick's envelope (`_Envelope`), which gives
    the text `canonical_json` gives the whole doc. The batch is sorted by
    that text (ties keep their order), each text is folded into its kind's
    running hash, so `digests` is ready at the end, and the batch is shown
    to the world. No document is kept beyond its tick.

    `rows_only` is for runs that need only `dataset_rows` (training,
    `flowbench collect`): the drivers make docs only of the kinds in
    `world.observes` (every API call is still made), which are sorted and
    shown to the world as above, but nothing is hashed and `finish`
    neither counts nor publishes. `counts` and `digests` are then empty.
    """
    from . import apps  # local import: the apps import this module

    model = train(scenario, version)
    built = apps.build_app(version, scenario, model)
    world = apps.make_world(scenario)
    keep = frozenset(world.observes) if rows_only else None
    driver = _FbpDriver(built, keep) if version.paradigm == "fbp" else _SoaDriver(built, keep)
    envelope = _Envelope()
    hashes: dict[str, hashlib._Hash] = {}
    for tick in range(scenario.ticks):
        encoded = envelope.sorted_texts(driver.tick(tick, world.generate_events(tick)), tick)
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
    return ExecutionResult(built, driver.instance, rows, counts, observation_digests(hashes), model)


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
    `train` is its one caller outside tests.
    """
    from . import apps

    sibling = Scenario(app, scenario.ticks, derive_seed(scenario.seed, "train"), dict(scenario.params))
    result = execute(sibling, apps.app_version(app, paradigm, "data"), rows_only=True)
    return result.dataset_rows or []


def train(scenario: Scenario, version):
    """The model `version` serves under `scenario`: the app's `fit_model`
    over `training_rows`, or None for a version that trains nothing. A run
    that collects no rows raises `NoTrainingRowsError`; a scenario of
    another app raises `ValueError` before anything runs."""
    from . import apps

    fit_model = apps.trainer(version, scenario)
    if fit_model is None:
        return None
    rows = training_rows(version.app, version.paradigm, scenario)
    if not rows:
        raise apps.NoTrainingRowsError(
            f"{version.app} {version.paradigm} ml: the training run collected no rows"
            f" (ticks={scenario.ticks}, seed={scenario.seed}); run more ticks to train"
        )
    return fit_model(rows)
