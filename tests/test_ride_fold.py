"""Ride allocation's fold nodes against a full-history replay oracle.

The allocator and the pickup tracker keep their state in runtime-owned
folds and read only each tick's delta. The oracle below is the form they
replace: it keeps its own copy of every record it has been shown, and
every tick it re-sorts and replays that whole history since tick 0. Both
must emit the same records at every tick.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowbench import apps
from flowbench.apps import ride_allocation
from flowbench.runtime import start
from flowbench.sim import execute
from util_graphs import with_oracles


def _merged_replay(logs):
    """All registrations, completions and requests, in world order."""
    entries = []
    for rec in logs["drivers"]:
        entries.append((rec.tick, 0, rec.seq, "driver", rec))
    for rec in logs["completions"]:
        entries.append((rec.tick, 1, rec.seq, "completion", rec))
    for rec in logs["requests"]:
        entries.append((rec.tick, 2, rec.seq, "request", rec))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return entries


def replay_allocator(logs, new_from):
    first_new = new_from["requests"]
    positions = {}
    busy = set()
    ride_driver = {}
    out = []
    for tick, _, seq, kind, rec in _merged_replay(logs):
        if kind == "driver":
            positions[rec["driver_id"]] = (rec["x"], rec["y"])
        elif kind == "completion":
            driver = ride_driver.pop(rec["ride_id"], None)
            if driver is not None:
                busy.discard(driver)
        else:
            available = [
                (driver_id, xy[0], xy[1])
                for driver_id, xy in sorted(positions.items())
                if driver_id not in busy
            ]
            alloc = ride_allocation.allocate_ride(
                rec["ride_id"], rec["rider_x"], rec["rider_y"], tick, available
            )
            if alloc["matched"]:
                busy.add(alloc["driver_id"])
                ride_driver[alloc["ride_id"]] = alloc["driver_id"]
            if seq >= first_new:
                out.append(alloc)
    return {"allocations": out}


def replay_tracker(logs, new_from):
    by_ride = {r["ride_id"]: r for r in logs["allocations"]}
    out = []
    for pickup in logs["pickups"][new_from["pickups"]:]:
        alloc = by_ride.get(pickup["ride_id"])
        if alloc is None or not alloc["matched"]:
            continue
        out.append(
            {
                "ride_id": pickup["ride_id"],
                "wait_time": pickup["pickup_time"] - alloc["request_tick"],
            }
        )
    return {"waits": out}


ORACLES = {"allocator": replay_allocator, "pickup_tracker": replay_tracker}


def _graphs():
    scenario = apps.make_scenario("ride_allocation", 1, 0)
    graph = ride_allocation.build_fbp("min", scenario).graph
    return graph, with_oracles(graph, ORACLES)


FOLD_GRAPH, ORACLE_GRAPH = _graphs()
COMPARED = ("allocations", "assignments", "pickup_waits")

_coord = st.integers(0, 4).map(float)
_tick = st.fixed_dictionaries(
    {
        "drivers": st.lists(st.tuples(st.integers(0, 3), _coord, _coord), max_size=3),
        "completions": st.lists(st.integers(0, 12), max_size=3),
        "requests": st.lists(st.tuples(_coord, _coord), max_size=3),
        "pickups": st.lists(st.tuples(st.integers(0, 12), _coord), max_size=2),
    }
)
_EMPTY = {"drivers": [], "completions": [], "requests": [], "pickups": []}


def _drive(ticks):
    """Feed both graphs the same world; return each one's per-tick output logs."""
    runs = []
    for graph in (FOLD_GRAPH, ORACLE_GRAPH):
        inst = start(graph)
        per_tick = []
        next_ride = 0
        for tick in ticks:
            for driver_id, x, y in tick["drivers"]:
                inst.inject("driver_events", {"driver_id": driver_id, "x": x, "y": y})
            for ride_id in tick["completions"]:
                inst.inject("ride_completions", {"ride_id": ride_id})
            for x, y in tick["requests"]:
                inst.inject("ride_requests", {"ride_id": next_ride, "rider_x": x, "rider_y": y})
                next_ride += 1
            for ride_id, time in tick["pickups"]:
                inst.inject("raw_pickups", {"ride_id": ride_id, "pickup_time": time})
            before = {sid: inst.length(sid) for sid in COMPARED}
            inst.step()
            per_tick.append(
                {sid: [r.values for r in inst.read(sid, before[sid])] for sid in COMPARED}
            )
        runs.append(per_tick)
    return runs


class TestFoldAllocatorMatchesReplay:
    @given(st.lists(_tick, max_size=15))
    @settings(max_examples=80, deadline=None)
    # Zero drivers: every request goes unmatched, and completing an
    # unmatched ride frees nobody.
    @example([{**_EMPTY, "requests": [(1.0, 1.0)]}, {**_EMPTY, "completions": [0], "requests": [(2.0, 0.0)]}])
    # A completion and a request in one tick: the completion frees its driver first.
    @example(
        [
            {**_EMPTY, "drivers": [(0, 0.0, 0.0)], "requests": [(1.0, 1.0)]},
            {**_EMPTY, "completions": [0], "requests": [(3.0, 3.0)], "pickups": [(0, 2.0)]},
        ]
    )
    # Empty ticks between busy ones.
    @example([_EMPTY, {**_EMPTY, "drivers": [(1, 2.0, 2.0)]}, _EMPTY, {**_EMPTY, "requests": [(0.0, 0.0)]}, _EMPTY])
    def test_per_tick_outputs_equal_full_replay(self, ticks):
        fold, oracle = _drive(ticks)
        assert fold == oracle


class TestAllocatorScaling:
    @pytest.mark.parametrize("ticks", [100, 200])
    def test_one_allocation_per_delivered_request(self, ticks, monkeypatch):
        # A full-history replay would call allocate_ride once per request
        # per later tick, quadratic in ticks.
        calls = []
        allocate = ride_allocation.allocate_ride

        def counted(*args):
            calls.append(args[0])
            return allocate(*args)

        monkeypatch.setattr(ride_allocation, "allocate_ride", counted)
        scenario = apps.make_scenario("ride_allocation", ticks, 5)
        result = execute(scenario, apps.app_version("ride_allocation", "fbp", "min"))
        requests = result.instance.length("ride_requests")
        assert requests > ticks // 2
        assert len(calls) == requests
