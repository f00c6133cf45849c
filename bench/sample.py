"""One benchmark sample, run by run.py in a fresh single-threaded interpreter.

usage: python3 bench/sample.py <workload> <seed> <ticks> <plain|traced> [SPANS.jsonl]

With `src/` on PYTHONPATH, times the set-up (import flowbench and build
the workload's app version) and one `sim.run_scenario` call, or for
`manifest-sweep` the import and one pass of `metrics.manifest` +
`metrics.diff`. Prints one JSON object with the timings and a hash of the
outputs, and the times of a fixed reference task run before set-up,
between set-up and run, and after the run (`ref_s`). A plain sample reads
the clock twice per tick of the serving run and nothing else; a traced
sample patches every layer (see tracer.py), reports per-layer totals and
writes its spans to SPANS.jsonl afterwards.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time

import tracer as tracing
from workloads import STAGE_PAIRS, WORKLOADS, tail_index


def reference_s() -> float:
    """Wall time of a fixed pure-Python task that never touches flowbench.

    Timed next to the measured regions so run.py can express them at a
    fixed host speed: on a shared host the speed of the same code drifts
    by up to 2x over minutes, and the drift cancels in the ratio.
    """
    started = time.perf_counter()
    acc = 0
    for _ in range(36):
        table = {}
        for i in range(4000):
            k = (i * 7919) % 1000
            table[str(k)] = (k, i * 0.5, i % 3 == 0)
        rows = sorted(table.values(), key=lambda r: (r[1], r[0]))
        acc += sum(1 for r in rows if r[2])
        acc += len(json.dumps([list(r) for r in rows[:500]], sort_keys=True))
        acc += int(sum(math.sqrt(r[1]) for r in rows))
    if acc != 1904508:
        raise RuntimeError(f"reference task computed {acc}")
    return time.perf_counter() - started


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tick_stats(latencies_ns: list[int], events: int) -> dict:
    ordered = sorted(latencies_ns)
    return {
        "events_per_s": events / (sum(ordered) * 1e-9),
        "tick_n": len(ordered),
        "tick_p50_ms": statistics.median(ordered) * 1e-6,
        "tick_tail_ms": ordered[tail_index(len(ordered))] * 1e-6,
    }


def _serving_tick_clock(apps, scenario, latencies: list[int], events: list[int]) -> None:
    """Time each serving tick from `generate_events` entry to `observe` entry.

    Only the world built for `scenario` itself is timed; ml builds create a
    second world inside `build_app` for training.
    """
    make_world = apps.make_world
    clock = time.perf_counter_ns

    def make_world_timed(sc):
        world = make_world(sc)
        if sc is not scenario:
            return world
        generate, observe = world.generate_events, world.observe
        started = [0]

        def generate_events(tick):
            started[0] = clock()
            evs = generate(tick)
            events[0] += len(evs)
            return evs

        def observe_timed(tick, docs):
            latencies.append(clock() - started[0])
            return observe(tick, docs)

        world.generate_events = generate_events
        world.observe = observe_timed
        return world

    apps.make_world = make_world_timed


def run_app(workload, seed: int, ticks: int, tracer) -> dict:
    refs = [reference_s()]
    t0 = time.perf_counter()
    from flowbench import apps, sim

    scenario = apps.make_scenario(workload.app, ticks, seed)
    version = apps.app_version(workload.app, workload.paradigm, workload.stage)
    if tracer is not None:
        tracing.install(tracer, type(apps.make_world(scenario)))
        tracer.active = False
    apps.build_app(version, scenario)
    setup_s = time.perf_counter() - t0
    refs.append(reference_s())

    latencies: list[int] = []
    events = [0]
    if tracer is None:
        _serving_tick_clock(apps, scenario, latencies, events)
    else:
        tracer.active = True
        root = tracer.begin("run")
    t1 = time.perf_counter()
    report = sim.run_scenario(scenario, version)
    run_s = time.perf_counter() - t1
    if tracer is not None:
        tracer.end(root)
        tracer.active = False
    refs.append(reference_s())

    out = {"ref_s": refs, "sha256": _sha256(report.to_json()), "setup_s": setup_s, "run_s": run_s}
    if tracer is None:
        out.update(_tick_stats(latencies, events[0]))
    return out


def run_manifest_sweep(workload, seed: int, ticks: int, tracer) -> dict:
    refs = [reference_s()]
    t0 = time.perf_counter()
    from flowbench import apps, metrics

    setup_s = time.perf_counter() - t0
    refs.append(reference_s())
    if tracer is not None:
        tracing.install(tracer, None)
        root = tracer.begin("run")

    clock = time.perf_counter_ns
    latencies: list[int] = []
    components = 0
    manifests: dict[str, dict] = {}
    affected: dict[str, int] = {}
    t1 = time.perf_counter()
    for app in apps.APP_NAMES:
        scenario = apps.make_scenario(app, ticks, seed)
        for paradigm in apps.PARADIGMS:
            by_stage = {}
            for stage in apps.APP_STAGES:
                started = clock()
                by_stage[stage] = metrics.manifest(apps.app_version(app, paradigm, stage), scenario)
                latencies.append(clock() - started)
            for a, b in STAGE_PAIRS:
                affected[f"{app}/{paradigm}/{a}->{b}"] = metrics.diff(by_stage[a], by_stage[b]).affected_count
            for m in by_stage.values():
                manifests[m.version_key] = m.components
                components += len(m.components)
    run_s = time.perf_counter() - t1
    if tracer is not None:
        tracer.end(root)
        tracer.active = False
    refs.append(reference_s())

    out = {
        "affected": affected,
        "ref_s": refs,
        "sha256": _sha256(json.dumps(manifests, sort_keys=True)),
        "setup_s": setup_s,
        "run_s": run_s,
    }
    if tracer is None:
        out.update(_tick_stats(latencies, components))
    return out


def main(argv: list[str]) -> int:
    name, seed, ticks, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    workload = WORKLOADS[name]
    tracer = tracing.Tracer() if mode == "traced" else None
    run = run_manifest_sweep if workload.app is None else run_app
    out = run(workload, seed, ticks, tracer)
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        if len(argv) > 4:
            tracer.write_jsonl(argv[4])
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
