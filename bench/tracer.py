"""Outside-in tracing of flowbench's layers for the benchmark's traced run.

`Tracer` keeps spans (name, start_ns, end_ns, parent, run id) and counts in
memory; `install` patches each layer's public functions where their
callers look them up, so nothing under `src/` changes. Self time of a span
is its duration minus the union of its children's intervals.

Run ids: every `sim.execute` call opens a new run; spans and counts outside
any run carry run id 0. `layer_metrics` reports the serving loop (runs not
nested in `sim.training_rows`, plus run 0) separately from work that the
build and training do wherever it happens.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Span and count recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, run]
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.active = True
        self._open: list[int] = []
        self._runs: list[int] = [0]
        self._run_spans: list[int] = []  # spans that opened the runs above 0
        self._last_run = 0

    @property
    def run(self) -> int:
        return self._runs[-1]

    def begin(self, name: str, new_run: bool = False) -> int:
        idx = len(self.spans)
        if new_run:
            self._last_run += 1
            self._runs.append(self._last_run)
            self._run_spans.append(idx)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]!r} closed out of order")
        if self._run_spans and self._run_spans[-1] == idx:
            self._run_spans.pop()
            self._runs.pop()

    def count(self, name: str, n: int = 1) -> None:
        if self.active:
            self.counts[(name, self.run)] += n

    def wrap(self, name: str, fn, after=None, new_run: bool = False):
        """Span every call of `fn`; `after(result, args)` runs after the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.begin(name, new_run)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result, args)
            return result

        return traced

    def counted(self, name: str, fn, amount=None):
        """Count calls of `fn` (or `amount(result)` per call) without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count(name, 1 if amount is None else amount(result))
            return result

        return counted

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"end_ns": end, "id": i, "name": name, "parent": parent,
                     "run": run, "start_ns": start},
                    sort_keys=True, separators=(",", ":"),
                ))
                fh.write("\n")


def self_times(spans: list[list]) -> list[int]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, s[START]), min(end, s[END])
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s[END] - s[START] - covered)
    return out


# ----------------------------------------------------------------------
# Wrapper placement
# ----------------------------------------------------------------------


def install(tracer: Tracer, world_cls, patch=setattr) -> None:
    """Patch every traced name in the imported flowbench modules.

    `world_cls` is the serving app's `World` subclass (None: no world).
    `patch(obj, name, value)` does each replacement; a test passes one
    that can be undone.

    Names are patched where the caller looks them up: `sim` binds
    `canonical_json`, `collect` and `publish_rows` at import, and the apps
    bind their `fit_*` learner, so those module globals are replaced.
    """
    from flowbench import apps, graph, metrics, mlkit, runtime, services, sim
    from flowbench.apps import insurance_claims, mblogger, ride_allocation

    t = tracer
    patch(sim, "execute", t.wrap("sim.execute", sim.execute, new_run=True))
    patch(sim, "training_rows", t.wrap("sim.training_rows", sim.training_rows))
    patch(sim, "observation_digests", t.wrap("sim.observation_digests", sim.observation_digests))
    patch(sim, "canonical_json", t.wrap("canon.canonical_json", sim.canonical_json))
    patch(apps, "build_app", t.wrap("apps.build_app", apps.build_app))

    if world_cls is not None:
        patch(world_cls, "generate_events", t.wrap(
            "sim.world", world_cls.generate_events,
            after=lambda events, args: t.count("sim.events", len(events)),
        ))
        patch(world_cls, "observe", t.wrap("sim.world", world_cls.observe))

    rt = runtime.RuntimeInstance
    patch(rt, "inject", t.wrap(
        "runtime.inject", rt.inject, after=lambda rec, args: t.count("runtime.records_appended"),
    ))
    patch(rt, "append_collected", t.counted("runtime.records_appended", rt.append_collected))
    patch(rt, "step", t.wrap("runtime.step", rt.step, after=lambda summary, args: t.count(
        "runtime.records_appended", sum(summary.produced.values()))))
    patch(rt, "read", t.wrap("runtime.read", rt.read))

    class PortView(runtime.PortView):
        __slots__ = ()

        def __init__(self, records, new_from):
            super().__init__(records, new_from)
            t.count("runtime.history_records_viewed", len(records))
            t.count("runtime.new_records_viewed", len(records) - new_from)

    patch(runtime, "PortView", PortView)

    patch(graph.Schema, "coerce_row", t.wrap("graph.coerce_row", graph.Schema.coerce_row))
    patch(graph.Record, "__getitem__", t.counted("graph.field_reads", graph.Record.__getitem__))

    builder_node = graph.GraphBuilder.node

    def node(self, node_id, transform, inputs, outputs, logic_version="v1"):
        traced = t.wrap(f"apps.node.{node_id}", transform, after=lambda result, args: t.count(
            f"apps.node.{node_id}.records_out",
            sum(len(rows) for rows in (result or {}).values() if hasattr(rows, "__len__")),
        ))
        return builder_node(self, node_id, traced, inputs, outputs, logic_version)

    patch(graph.GraphBuilder, "node", node)

    reg = services.ServiceRegistry
    register = reg.register

    def register_traced(self, spec):
        apis = tuple(
            dataclasses.replace(api, handler=t.wrap(f"apps.api.{spec.id}.{api.name}", api.handler))
            for api in spec.apis
        )
        return register(self, dataclasses.replace(spec, apis=apis))

    patch(reg, "register", register_traced)
    patch(reg, "call", t.wrap("services.call", reg.call))
    ctx = services.ServiceContext
    patch(ctx, "store_table", t.counted("services.store_rows_copied", ctx.store_table, amount=len))

    def collected(rows, args):
        instance, spec = args[0], args[1]
        t.count("collection.label_rows", instance.length(spec.label.stream_id))
        t.count("collection.rows_joined", len(rows))

    patch(sim, "collect", t.wrap("collection.collect", sim.collect, after=collected))
    patch(sim, "publish_rows", t.wrap("collection.publish_rows", sim.publish_rows))

    def fitted(model, args):
        t.count("mlkit.train_rows", len(args[0]))

    for module, fname in (
        (ride_allocation, "fit_linear"),
        (insurance_claims, "fit_tree"),
        (mblogger, "fit_bigram"),
        (mlkit, "fit_linear"),
        (mlkit, "fit_tree"),
        (mlkit, "fit_bigram"),
    ):
        patch(module, fname, t.wrap("mlkit.fit", getattr(module, fname), after=fitted))

    patch(metrics, "manifest", t.wrap("metrics.manifest", metrics.manifest))
    patch(metrics, "diff", t.wrap("metrics.diff", metrics.diff))


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over everything the tracer recorded while active.

    Serving-loop metrics skip runs nested in `sim.training_rows`; training
    shows up whole in `sim.training_s`.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    training_runs = set()
    for i, s in enumerate(spans):
        if s[NAME] == "sim.execute" and _has_ancestor(spans, i, "sim.training_rows"):
            training_runs.add(s[RUN])

    sums: dict[str, float] = defaultdict(float)
    ns = 1e-9

    def add(key, value):
        sums[key] += value

    for i, (name, start, end, parent, run) in enumerate(spans):
        serving = run not in training_runs
        incl = (end - start) * ns
        own = selfs[i] * ns
        # Setup-side layers: counted wherever they run.
        if name == "sim.training_rows":
            add("sim.training_s", incl)
        elif name == "collection.collect":
            add("collection.collect_s", incl)
        elif name == "collection.publish_rows":
            add("collection.publish_s", incl)
        elif name == "mlkit.fit":
            add("mlkit.fit_s", incl)
            add("mlkit.fit_calls", 1)
        elif name == "metrics.manifest":
            add("metrics.manifest_self_s", own)
            add("metrics.manifest_calls", 1)
        elif name == "metrics.diff":
            add("metrics.diff_s", incl)
        if not serving:
            continue
        # Serving-loop layers.
        if name == "sim.world":
            add("sim.world_s", own)
        elif name == "sim.observation_digests":
            add("sim.digest_s", incl)
        elif name == "canon.canonical_json":
            add("canon.json_s", incl)
            add("canon.json_calls", 1)
        elif name == "apps.build_app":
            add("apps.build_self_s", own)
        elif name == "runtime.inject":
            add("runtime.inject_s", incl)
            add("runtime.inject_calls", 1)
        elif name == "runtime.step":
            add("runtime.step_self_s", own)
        elif name == "runtime.read":
            if parent >= 0 and spans[parent][NAME] == "sim.execute":
                add("runtime.read_s", incl)
        elif name == "graph.coerce_row":
            add("graph.coerce_s", incl)
            add("graph.coerce_calls", 1)
        elif name == "services.call":
            add("services.call_self_s", own)
            add("services.calls", 1)
        elif name.startswith(("apps.node.", "apps.api.")):
            add(f"{name}.s", own)
            add(f"{name}.calls", 1)

    for (name, run), n in tracer.counts.items():
        if name in ("collection.label_rows", "collection.rows_joined", "mlkit.train_rows"):
            add(name, n)
        elif run not in training_runs:
            add(name, n)
    viewed = sums.get("runtime.history_records_viewed", 0)
    sums["runtime.new_share"] = sums.get("runtime.new_records_viewed", 0) / viewed if viewed else 0.0
    return dict(sums)


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
