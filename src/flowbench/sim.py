"""Seeded discrete-event harness that drives an application version.

A scenario, its world and their events are the apps' (`apps.base`). Each
tick the world emits events (exogenous arrivals plus reactions to what
the app produced earlier), the harness delivers them and then observes
the app's outputs.

One tick loop drives both paradigms through a small driver: `tick(tick,
events)` delivers a tick's events and returns its `(kind, data)`
observations, and `finish()` returns the dataset rows and the report
counts. The loop owns the clock: no event or observation holds its tick.
It sorts each tick's observations, hashes them and shows them to the
world, the one reader of a run's observations. The rows are the row
documents `collection.join` built, in both paradigms: the service twin's
`export_dataset` response carries them. The fbp routes are the started
runtime's input streams, keyed by their schemas' names. Value records
(`RunReport`, `ExecutionResult`, `ApiRoute`) are NamedTuples, whose field
reads cost about twice an attribute read, so each driver unpacks its
routes into per-kind tuples when it starts and its `tick` reads no record
field. A build naming a stream, an API or a field it lacks is refused
with `ValueError` before any tick.

Each observation is encoded as canonical JSON exactly once: its text is
that of a document of its data, kind and tick, which exists only as this
text. The text is the sort key and is folded into a running per-kind
SHA-256 as the run goes, so the digests keep no document, no text and no
second encoding. Only the `data` is encoded; the rest is an envelope made
once per kind (`_Envelope`) and once per tick. The `data` goes through an
encoder compiled for the shape of its kind's first observation
(`canon.flat_encoder`), and through the C encoder when it has another
shape; either way the text is the same.

A run of an ml version that trains offline first fits its model (`train`)
to the rows of a data-stage run (`training_rows`). That run needs only the
rows, so it runs the same loop rows-only: the drivers observe only the
kinds the world reacts to (`World.observes`), nothing is hashed, and
`finish` collects or exports the rows without counting or publishing them.

The world is deliberately stage-blind: it always reports everything that
"happens" (pickups, polls, ...), and events whose kind has no route in
the running version are simply not deliverable to it. That keeps event
sequences identical across paradigms and stages, which the equivalence
and monotonicity checks rely on.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from typing import NamedTuple

from . import apps, canon
from .canon import canonical_json
from .collection import collect, publish_rows
from .rng import derive_seed
from .runtime import start


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
    """A run's live app, rows, counts, digests and model: no observations."""

    built: object
    instance: object | None  # RuntimeInstance for dataflow builds
    dataset_rows: list[dict] | None  # `collection` row documents
    counts: dict  # the report counts: stream lengths or per-API calls; empty rows-only
    digests: dict[str, str]  # per observation kind, see `observation_digests`; empty rows-only
    model: object | None  # what `train` fitted, None for a version that trains nothing


class _FbpDriver:
    """Delivers each event by injection into the input stream whose schema
    is named after its kind, steps the runtime once per tick and observes
    the records each output stream of a kept kind gained (`keep`: the kinds
    to observe, None for all). A graph where two input streams have one
    schema name, or that lacks an observed stream, is refused."""

    def __init__(self, built, keep: frozenset[str] | None):
        self.built = built
        self.instance = instance = start(built.graph)
        inputs = instance.input_schemas()
        kinds = [schema.name for schema in inputs.values()]
        shared = [sid for sid, kind in zip(inputs, kinds) if kinds.count(kind) > 1]
        if shared:
            raise ValueError(f"input streams {shared} share a schema name; an event kind routes to one input stream")
        missing = sorted(set(built.obs_kinds).difference(instance.stream_ids()))
        if missing:
            raise ValueError(f"observed streams {missing} are not streams of the graph")
        # event kind -> (input stream id, its field names)
        self._routes = {schema.name: (sid, schema.field_names) for sid, schema in inputs.items()}
        # (output stream id, kind) of each kept kind
        self._observed = sorted(
            (sid, kind) for sid, kind in built.obs_kinds.items() if keep is None or kind in keep
        )
        self._read_pos = {sid: 0 for sid, _ in self._observed}

    def tick(self, tick: int, events: list[apps.Event]) -> list[tuple[str, dict]]:
        routes, instance, read_pos = self._routes, self.instance, self._read_pos
        for kind, payload in events:
            route = routes.get(kind)
            if route is not None:
                sid, fields = route
                instance.inject(sid, {f: payload[f] for f in fields})
        instance.step()
        batch = []
        for sid, kind in self._observed:
            new = instance.read(sid, read_pos[sid])
            batch += [(kind, rec.as_dict()) for rec in new]
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
    the service with an `export_dataset` API. A build where two have one,
    or a route to a missing API or response field, is refused."""

    instance = None

    def __init__(self, built, keep: frozenset[str] | None):
        self.built = built
        self.registry = built.registry
        specs = {(s.id, a.name): a for s in self.registry.service_specs() for a in s.apis}
        exporters = [sid for sid, api in specs if api == "export_dataset"]
        if len(exporters) > 1:
            raise ValueError(f"services {exporters} each have an export_dataset API; a build exports one dataset")
        self._exporter = exporters[0] if exporters else None
        # event kind -> (service, api, request fields, obs_kind or None if not kept, observe_when)
        self._routes = {}
        for kind, r in built.routes.items():
            spec = specs.get((r.service, r.api))
            if spec is None:
                raise ValueError(f"route {kind!r} calls {r.service}.{r.api}, an API no service has")
            if r.observe_when is not None and r.observe_when not in spec.response_fields:
                raise ValueError(f"route {kind!r} observes when {r.observe_when!r}, not a field {r.api} responds with")
            kept = r.obs_kind if keep is None or r.obs_kind in keep else None
            self._routes[kind] = (r.service, r.api, spec.request_fields, kept, r.observe_when)

    def tick(self, tick: int, events: list[apps.Event]) -> list[tuple[str, dict]]:
        routes, registry = self._routes, self.registry
        registry.tick = tick
        batch = []
        for kind, payload in events:
            route = routes.get(kind)
            if route is None:
                continue
            service, api, fields, obs_kind, observe_when = route
            response = registry.call("sim", service, api, {f: payload[f] for f in fields})
            if obs_kind is None:
                continue
            if observe_when is not None and not response.get(observe_when):
                continue
            batch.append((obs_kind, response))
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
    """Encodes each `(kind, data)` observation of a tick with one
    `canonical_json` call; maps each kind to its entry: the envelope text
    between the data and the tick, and the encoder for that kind's data.

    An observation's text is that of the document `{"data": d, "kind": k,
    "tick": t}`. Its keys are in canonical order, so the text is
    `'{"data":' + canonical_json(d) + text + str(t) + "}"`, where `text` is
    `',"kind":' + canonical_json(k) + ',"tick":'`. Both parts of an entry
    are made from the kind's first observation in the run: the encoder is
    `canon.flat_encoder` of its data, None for data that is not flat, and
    `canonical_json` falls back to the C encoder for any later data of
    another shape. The kind is encoded through `canon`, not the
    `canonical_json` name this module binds, so that name is called once
    per observation (the benchmark's tracer counts and times its calls,
    which run the compiled encoders; compiling happens here, outside them).
    """

    def sorted_texts(self, batch: list[tuple[str, dict]], tick: int) -> list[tuple[str, str, dict]]:
        """(text, kind, data) for each observation of tick `tick`, sorted by
        text; ties keep their order."""
        end = f"{tick}}}"
        encoded = []
        for kind, data in batch:
            entry = self.get(kind)
            if entry is None:
                entry = self[kind] = (f',"kind":{canon.canonical_json(kind)},"tick":', canon.flat_encoder(data))
            text, flat = entry
            encoded.append((f'{{"data":{canonical_json(data, flat)}{text}{end}', kind, data))
        encoded.sort(key=itemgetter(0))
        return encoded


def execute(scenario: apps.Scenario, version, *, rows_only: bool = False) -> ExecutionResult:
    """Train (`train`), build and run the full tick loop; keep the live app for inspection.

    Per tick, each `(kind, data)` observation is encoded once: its `data`
    is encoded and wrapped in its kind's and tick's envelope (`_Envelope`).
    The observations are sorted by that text (ties keep their order), each
    text is folded into its kind's running hash, so `digests` is ready at
    the end, and the pairs are shown to the world. No observation is kept
    beyond its tick.

    `rows_only` is for runs that need only `dataset_rows` (training,
    `flowbench collect`): the drivers observe only the kinds in
    `world.observes` (every API call is still made), which are sorted and
    shown to the world as above, but nothing is hashed and `finish`
    neither counts nor publishes. `counts` and `digests` are then empty.
    """
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
            for text, kind, _ in encoded:
                running = hashes.get(kind)
                if running is None:
                    hashes[kind] = hashlib.sha256(text.encode())
                else:
                    running.update(b"\n" + text.encode())
        world.observe(tick, [(kind, data) for _, kind, data in encoded])
    rows, counts = driver.finish(rows_only)
    return ExecutionResult(built, driver.instance, rows, counts, observation_digests(hashes), model)


def observation_digests(hashes: dict[str, hashlib._Hash]) -> dict[str, str]:
    """Hex digest per kind, in kind order. Each running hash has seen the
    texts (`_Envelope`) of the observations `observe` got, joined by
    newlines: a digest is `sha256_hex` of those texts so joined."""
    return {kind: running.hexdigest() for kind, running in sorted(hashes.items())}


def run_scenario(scenario: apps.Scenario, version) -> RunReport:
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


def training_rows(scenario: apps.Scenario, paradigm: str) -> list[dict]:
    """Collect the offline dataset a model stage trains on.

    Runs the scenario's app's data stage on a sibling scenario whose seed is
    derived from the serving seed, so training is deterministic but does
    not replay the exact serving workload. The run is rows-only (see
    `execute`): it returns the rows the full run would collect, without
    the digests, counts and published dataset stream of a serving run.
    `train` is its one caller outside tests.
    """
    sibling = apps.Scenario(scenario.app, scenario.ticks, derive_seed(scenario.seed, "train"), dict(scenario.params))
    result = execute(sibling, apps.app_version(scenario.app, paradigm, "data"), rows_only=True)
    return result.dataset_rows or []


def train(scenario: apps.Scenario, version):
    """The model `version` serves under `scenario`: the app's `fit_model`
    over `training_rows`, or None for a version that trains nothing. A run
    that collects no rows raises `NoTrainingRowsError`; a scenario of
    another app raises `ValueError` before anything runs."""
    fit_model = apps.trainer(version, scenario)
    if fit_model is None:
        return None
    rows = training_rows(scenario, version.paradigm)
    if not rows:
        raise apps.NoTrainingRowsError(
            f"{version.app} {version.paradigm} ml: the training run collected no rows"
            f" (ticks={scenario.ticks}, seed={scenario.seed}); run more ticks to train"
        )
    return fit_model(rows)
