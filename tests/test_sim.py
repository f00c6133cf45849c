"""Simulation harness: event generation, the tick loop, reports."""

import json

import pytest

from flowbench import apps
from flowbench.apps import ride_allocation
from flowbench.canon import canonical_json, sha256_hex
from flowbench.runtime import TickSummary
from flowbench.sim import Event, Scenario, run_scenario
from util_runs import observed


def _collect_events(scenario, observation_feed=None):
    """Replay the world alone, feeding it recorded observation batches."""
    world = apps.make_world(scenario)
    all_events = []
    for tick in range(scenario.ticks):
        all_events.extend(world.generate_events(tick))
        world.observe(tick, (observation_feed or {}).get(tick, []))
    return all_events


class TestGenerateEvents:
    def test_zero_arrival_rate_means_zero_events(self):
        scenario = apps.make_scenario("insurance_claims", 20, 3, {"claim_rate": 0.0})
        assert _collect_events(scenario) == []

    def test_pickup_scheduled_at_round_of_wait(self):
        # One allocation observed at tick t with zero noise schedules
        # exactly one pickup at t + round(2*distance + 1), carrying the
        # exact wait as a precise timestamp.
        scenario = apps.make_scenario(
            "ride_allocation", 30, 3, {"noise": 0.0, "request_rate": 0.0, "n_drivers": 1}
        )
        world = ride_allocation.RideWorld(scenario)
        world.generate_events(0)  # registers the fleet
        world.rider_pos[77] = (0.0, 0.0, 4)
        driver_id = 0
        dx, dy = world.driver_pos[driver_id]
        distance = (dx * dx + dy * dy) ** 0.5
        world.observe(
            4,
            [{"kind": "assignment", "tick": 4,
              "data": {"ride_id": 77, "driver_id": driver_id, "matched": True}}],
        )
        wait = 2.0 * distance + 1.0
        expected_tick = 4 + max(1, int(wait + 0.5))
        pickups = [
            ev for evs in world.pending.values() for ev in evs if ev.kind == "raw_pickup"
        ]
        assert len(pickups) == 1
        assert pickups[0].tick == expected_tick
        assert pickups[0].payload["pickup_time"] == 4 + wait

    def test_same_scenario_same_event_sequence(self):
        scenario = apps.make_scenario("mblogger", 40, 9)
        assert _collect_events(scenario) == _collect_events(scenario)

    def test_unroutable_kinds_are_skipped_not_fatal(self):
        # The world always emits bot polls; the min stage has no route for
        # them in either paradigm, and the run must not care.
        scenario = apps.make_scenario("mblogger", 10, 9)
        events = _collect_events(scenario)
        assert any(ev.kind == "bot_poll" for ev in events)
        run_scenario(scenario, apps.app_version("mblogger", "fbp", "min"))
        run_scenario(scenario, apps.app_version("mblogger", "soa", "min"))


class TestScenario:
    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            Scenario("mblogger", 1, 2**64)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            Scenario("mblogger", 1, -1)

    @pytest.mark.parametrize("seed", [True, 1.0])
    def test_rejects_seed_that_is_not_an_int(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            Scenario("mblogger", 1, seed)

    def test_tick_bound(self):
        # Zero ticks is a valid, empty run; only negative counts are refused.
        assert Scenario("mblogger", 0, 2**64 - 1).ticks == 0
        with pytest.raises(ValueError, match="ticks"):
            Scenario("mblogger", -1, 0)

    def test_unknown_param_key_refused(self):
        # A misspelt override must not silently run with the default.
        with pytest.raises(ValueError, match=r"\['n_driver'\]"):
            apps.make_scenario("ride_allocation", 20, 1, {"n_driver": 5})

    @pytest.mark.parametrize(
        "call",
        [
            lambda: apps.make_scenario("nope", 10, 1),
            lambda: apps.default_params("nope"),
            lambda: apps.make_world(Scenario("nope", 10, 1)),
            lambda: apps.app_version("nope", "fbp", "min"),
        ],
        ids=["make_scenario", "default_params", "make_world", "app_version"],
    )
    def test_unknown_app_refused_by_name(self, call):
        with pytest.raises(ValueError, match="unknown app 'nope'"):
            call()


@pytest.mark.parametrize(
    "cls,fields,other",
    [
        (Event, (3, "ride_request", {"ride_id": 1}), (3, "ride_request", {"ride_id": 2})),
        (TickSummary, (3, {"allocations": 2}), (3, {"allocations": 1})),
    ],
)
def test_tuple_backed_objects_are_frozen_and_compare_by_fields(cls, fields, other):
    obj = cls(*fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert tuple(getattr(obj, name) for name in cls._fields) == fields
    assert obj == cls(*json.loads(json.dumps(fields)))
    assert obj != cls(*other)


class TestRunScenario:
    def test_zero_ticks_is_empty_report(self):
        scenario = apps.make_scenario("playlist_builder", 0, 1)
        report = run_scenario(scenario, apps.app_version("playlist_builder", "fbp", "min"))
        assert report.digests == {}
        assert all(count == 0 for count in report.counts.values())

    def test_ride_paradigms_agree_at_min(self):
        scenario = apps.make_scenario("ride_allocation", 100, 7)
        fbp = run_scenario(scenario, apps.app_version("ride_allocation", "fbp", "min"))
        soa = run_scenario(scenario, apps.app_version("ride_allocation", "soa", "min"))
        assert fbp.digests == soa.digests

    def test_repeat_runs_are_byte_identical(self):
        scenario = apps.make_scenario("insurance_claims", 50, 2)
        version = apps.app_version("insurance_claims", "soa", "min")
        assert run_scenario(scenario, version).to_json() == run_scenario(scenario, version).to_json()

    def test_report_serialization_is_canonical(self):
        scenario = apps.make_scenario("playlist_builder", 15, 2)
        report = run_scenario(scenario, apps.app_version("playlist_builder", "fbp", "data"))
        text = report.to_json()
        assert text == canonical_json(json.loads(text))
        assert sorted(json.loads(text)) == [
            "app", "counts", "dataset_rows", "digests", "paradigm", "seed", "stage", "ticks"
        ]
        assert '"app":"playlist_builder"' in text

    def test_rejects_negative_ticks(self):
        with pytest.raises(ValueError):
            Scenario("mblogger", -1, 0)

    @pytest.mark.parametrize("ticks", [True, False, 2.5, 3.0, "5", None])
    def test_rejects_ticks_that_are_not_an_int(self, ticks):
        # A bool would run as 0 or 1 tick and report "ticks":true; a float
        # would fail late inside the tick loop.
        with pytest.raises(ValueError, match="ticks"):
            Scenario("ride_allocation", ticks, 1)


class TestRunningDigests:
    @pytest.mark.parametrize("seed", (4, 9))
    @pytest.mark.parametrize("stage", ("min", "ml"))
    @pytest.mark.parametrize("paradigm", ("fbp", "soa"))
    @pytest.mark.parametrize("app", apps.APP_NAMES)
    def test_digests_equal_a_recompute_from_the_observations(self, app, paradigm, stage, seed):
        scenario = apps.make_scenario(app, 12, seed)
        version = apps.app_version(app, paradigm, stage)
        result, observations = observed(scenario, version)
        recomputed = {
            kind: sha256_hex("\n".join(canonical_json(d) for d in docs))
            for kind, docs in sorted(observations.items())
        }
        assert result.digests == recomputed
        assert list(result.digests) == sorted(result.digests)
        assert run_scenario(scenario, version).digests == recomputed

    def test_each_tick_files_its_batch_in_canonical_order(self):
        scenario = apps.make_scenario("mblogger", 30, 5)
        _, observations = observed(scenario, apps.app_version("mblogger", "soa", "ml"))
        assert sum(map(len, observations.values())) > 0
        for docs in observations.values():
            keys = [(d["tick"], canonical_json(d)) for d in docs]
            assert keys == sorted(keys)


class TestConservation:
    def test_every_routable_event_is_delivered_exactly_once(self):
        # Replay the world against the recorded observation batches and
        # compare per-kind event counts with what actually landed in the
        # input streams.
        scenario = apps.make_scenario("ride_allocation", 60, 6)
        result, observations = observed(scenario, apps.app_version("ride_allocation", "fbp", "min"))

        by_tick: dict[int, list] = {}
        for docs in observations.values():
            for doc in docs:
                by_tick.setdefault(doc["tick"], []).append(doc)
        for tick in by_tick:
            by_tick[tick].sort(key=canonical_json)

        events = _collect_events(scenario, by_tick)
        routable = {}
        for ev in events:
            route = result.built.routes.get(ev.kind)
            if route is not None and ev.tick < scenario.ticks:
                routable[route.stream_id] = routable.get(route.stream_id, 0) + 1
        for stream_id, expected in routable.items():
            assert result.instance.length(stream_id) == expected
