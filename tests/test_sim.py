"""Simulation harness: event generation, the tick loop, reports."""

import pytest

from flowbench import apps
from flowbench.apps import ride_allocation
from flowbench.canon import canonical_json
from flowbench.sim import Scenario, execute, run_scenario


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

    def test_tick_bound(self):
        # Zero ticks is a valid, empty run; only negative counts are refused.
        assert Scenario("mblogger", 0, 2**64 - 1).ticks == 0
        with pytest.raises(ValueError, match="ticks"):
            Scenario("mblogger", -1, 0)


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
        assert text == canonical_json(report.to_doc())
        assert '"app":"playlist_builder"' in text

    def test_rejects_negative_ticks(self):
        with pytest.raises(ValueError):
            Scenario("mblogger", -1, 0)


class TestConservation:
    def test_every_routable_event_is_delivered_exactly_once(self):
        # Replay the world against the recorded observation batches and
        # compare per-kind event counts with what actually landed in the
        # input streams.
        scenario = apps.make_scenario("ride_allocation", 60, 6)
        result = execute(scenario, apps.app_version("ride_allocation", "fbp", "min"))

        by_tick: dict[int, list] = {}
        for docs in result.observations.values():
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
