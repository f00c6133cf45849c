"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("b", 30, 50, 0),  # overlaps a: union 10..50 covers 40
        _span("c", 15, 20, 1),
        _span("d", 90, 120, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [100 - 40 - 10, 30 - 5, 20, 5, 30]


def test_nested_service_call_self_times_sum_to_root(monkeypatch):
    from flowbench import apps

    t = tracing.Tracer()
    tracing.install(t, None, patch=monkeypatch.setattr)
    scenario = apps.make_scenario("ride_allocation", 5, 1)
    registry = apps.build_app(apps.app_version("ride_allocation", "soa", "min"), scenario).registry
    registry.call("sim", "drivers", "register", {"driver_id": 0, "x": 1.0, "y": 1.0})
    first = len(t.spans)
    registry.call("sim", "rides", "request_ride", {"ride_id": 0, "rider_x": 2.0, "rider_y": 2.0})

    spans = t.spans[first:]
    names = [s[tracing.NAME] for s in spans]
    chain = ["services.call", "apps.api.rides.request_ride", "services.call",
             "apps.api.allocator.allocate", "services.call", "apps.api.drivers.list_available"]
    assert names[: len(chain)] == chain
    for i in range(1, len(chain)):
        assert spans[i][tracing.PARENT] == first + i - 1
    root = spans[0]
    own = tracing.self_times(t.spans)[first:]
    assert sum(own) == root[tracing.END] - root[tracing.START]
    assert all(x >= 0 for x in own)


def _sample(name, seed, ticks, mode):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "sample.py"), name, str(seed), str(ticks), mode],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name,ticks", [
    ("ride-fbp-ml", 40), ("ride-soa-ml", 200), ("claims-fbp-ml", 200), ("manifest-sweep", 20),
])
def test_traced_counts_repeat_and_outputs_match_plain(name, ticks):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    plain = _sample(name, 5, ticks, "plain")
    first = _sample(name, 5, ticks, "traced")
    second = _sample(name, 5, ticks, "traced")
    assert first["sha256"] == plain["sha256"] == second["sha256"]
    assert {c: first["layers"].get(c) for c in counts} == {c: second["layers"].get(c) for c in counts}
    exercised = {"ride-fbp-ml": "graph.field_reads", "ride-soa-ml": "services.calls",
                 "claims-fbp-ml": "graph.coerce_calls", "manifest-sweep": "metrics.manifest_calls"}
    assert first["layers"][exercised[name]] > 0
    assert set(first["layers"]) <= {m["name"] for m in spec["per_layer"]}


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("args", [
    ["--seed", "-1"],
    ["--seed", str(2**64)],
    ["--ticks", "0"],
    ["--ticks", "-5"],
    ["--seconds", "0"],
])
def test_runner_rejects_bad_input_as_usage_error(args):
    proc = _run(["--workload", "ride-fbp-ml", *args])
    assert proc.returncode == 1
    assert proc.stdout == ""


def test_runner_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "ride-fbp-ml", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
