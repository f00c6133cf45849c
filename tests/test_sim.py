"""Simulation harness: event generation, the tick loop, reports."""

import json

import pytest

from flowbench import apps, metrics, sim
from flowbench.apps import Event, FbpBuild, Scenario, insurance_claims, ride_allocation
from flowbench.canon import canonical_json, sha256_hex
from flowbench.graph import Category, FlowGraph, GraphBuilder
from flowbench.rng import SplitMix64, derive_seed
from flowbench.runtime import TickSummary
from flowbench.sim import run_scenario
from util_runs import observed


def _collect_events(scenario, observation_feed=None):
    """Replay the world alone, feeding it recorded `(kind, data)` batches."""
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
        world.observe(4, [("assignment", {"ride_id": 77, "driver_id": driver_id, "matched": True})])
        wait = 2.0 * distance + 1.0
        expected_tick = 4 + max(1, int(wait + 0.5))
        pickups = [
            (tick, ev) for tick, evs in world.pending.items() for ev in evs if ev.kind == "raw_pickup"
        ]
        assert len(pickups) == 1
        assert pickups[0][0] == expected_tick
        assert pickups[0][1].payload["pickup_time"] == 4 + wait
        assert world.rider_pos == {}  # the request is forgotten once assigned

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

    def test_equality_covers_params_and_the_hash_leaves_them_out(self):
        scenario = apps.make_scenario("ride_allocation", 20, 1)
        same = apps.make_scenario("ride_allocation", 20, 1)
        other = apps.make_scenario("ride_allocation", 20, 1, {"noise": 0.0})
        assert scenario == same and hash(scenario) == hash(same)
        assert scenario != other and hash(scenario) == hash(other)  # a dict has no hash
        assert len({scenario, same, other}) == 2

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
        "call",
        [apps.build_app, apps.trainer, lambda version, scenario: run_scenario(scenario, version), metrics.manifest],
        ids=["build_app", "trainer", "run_scenario", "manifest"],
    )
    def test_a_directly_built_version_of_an_unknown_app_is_refused_by_name(self, call):
        with pytest.raises(ValueError, match="unknown app 'nope'"):
            call(apps.AppVersion("nope", "fbp", "min"), Scenario("nope", 10, 1))


@pytest.mark.parametrize(
    "cls,fields,other",
    [
        (Event, ("ride_request", {"ride_id": 1}), ("ride_request", {"ride_id": 2})),
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

    @pytest.mark.parametrize("stage", apps.APP_STAGES)
    def test_refuses_a_version_of_another_app(self, stage):
        scenario = apps.make_scenario("ride_allocation", 20, 1)
        version = apps.app_version("insurance_claims", "fbp", stage)
        with pytest.raises(ValueError, match="'ride_allocation'.*'insurance_claims'"):
            run_scenario(scenario, version)


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


@pytest.mark.parametrize("app", apps.APP_NAMES)
def test_each_world_draws_from_its_own_seeded_generator(app):
    world, expected = apps.make_world(apps.make_scenario(app, 10, 4)), SplitMix64(derive_seed(4, "world", app))
    assert [world.rng.random() for _ in range(3)] == [expected.random() for _ in range(3)]


# Oracle for the fbp routes of every stage: event kind -> the input stream
# its events must land in.
FBP_ROUTES = {
    "insurance_claims": {"claim": "claims"},
    "mblogger": {"follow": "follows", "post": "posts", "timeline_request": "timeline_requests"},
    "playlist_builder": {"movie": "movies", "playlist_request": "playlist_requests"},
    "ride_allocation": {
        "driver_event": "driver_events",
        "raw_pickup": "raw_pickups",
        "ride_completion": "ride_completions",
        "ride_request": "ride_requests",
    },
}


class TestConservation:
    @pytest.mark.parametrize("stage", apps.APP_STAGES)
    @pytest.mark.parametrize("app", apps.APP_NAMES)
    def test_every_routable_event_is_delivered_exactly_once(self, app, stage):
        # Replay the world against the recorded observation batches and
        # compare per-kind event counts with what actually landed in the
        # input streams.
        scenario = apps.make_scenario(app, 60, 6)
        result, observations = observed(scenario, apps.app_version(app, "fbp", stage))
        routes = FBP_ROUTES[app]
        roles = result.built.graph.wiring().roles
        assert sorted(sid for sid, role in roles.items() if role is Category.INPUT) == sorted(routes.values())

        by_tick: dict[int, list] = {}
        for doc in sorted((doc for docs in observations.values() for doc in docs), key=canonical_json):
            by_tick.setdefault(doc["tick"], []).append((doc["kind"], doc["data"]))

        events = _collect_events(scenario, by_tick)  # of the run's ticks only
        routable = dict.fromkeys(routes.values(), 0)
        for ev in events:
            stream_id = routes.get(ev.kind)
            if stream_id is not None:
                routable[stream_id] += 1
        assert all(routable.values())
        assert {sid: result.instance.length(sid) for sid in routable} == routable

    def test_two_input_streams_of_one_schema_are_refused_before_any_tick(self, monkeypatch):
        def two_claim_inputs(stage, scenario, model=None):
            b = GraphBuilder().stream("claims", insurance_claims.CLAIM).stream("more_claims", insurance_claims.CLAIM)
            b.stream("decisions", insurance_claims.SCREENED)
            b.node("merge", lambda ins: {}, inputs={"a": "claims", "b": "more_claims"}, outputs={"out": "decisions"})
            return FbpBuild(b.build(), {"decisions": "decision"})

        def tick(self, tick):
            raise AssertionError("a refused build ticked")

        monkeypatch.setattr(insurance_claims, "build_fbp", two_claim_inputs)
        monkeypatch.setattr(insurance_claims.ClaimsWorld, "generate_events", tick)
        version = apps.app_version("insurance_claims", "fbp", "min")
        with pytest.raises(ValueError, match=r"input streams \['claims', 'more_claims'\] share a schema name"):
            sim.execute(apps.make_scenario("insurance_claims", 20, 1), version)


class TestDriversRefuseWhatABuildLacks:
    """Each case fails in the driver's start, before the world makes tick 0."""

    @pytest.fixture(autouse=True)
    def no_tick(self, monkeypatch):
        def tick(self, tick):
            raise AssertionError("a refused build ticked")

        monkeypatch.setattr(ride_allocation.RideWorld, "generate_events", tick)

    def test_a_soa_route_to_a_missing_api(self, monkeypatch):
        def change(built):
            built.routes["ride_request"] = apps.ApiRoute("rides", "request_rid", obs_kind="assignment")

        with pytest.raises(ValueError, match=r"route 'ride_request' calls rides\.request_rid"):
            self.execute(monkeypatch, "soa", change)

    def test_a_soa_route_observed_when_a_field_its_api_lacks(self, monkeypatch):
        def change(built):
            built.routes["ride_request"] = apps.ApiRoute("rides", "request_ride", "assignment", "matchd")

        with pytest.raises(ValueError, match=r"route 'ride_request' observes when 'matchd'"):
            self.execute(monkeypatch, "soa", change)

    def test_an_observed_stream_the_graph_lacks(self, monkeypatch):
        def change(built):
            built.obs_kinds["asignments"] = "assignment"

        with pytest.raises(ValueError, match=r"observed streams \['asignments'\]"):
            self.execute(monkeypatch, "fbp", change)

    @staticmethod
    def execute(monkeypatch, paradigm, change):
        build = getattr(ride_allocation, f"build_{paradigm}")

        def changed(*args):
            built = build(*args)
            change(built)
            return built

        monkeypatch.setattr(ride_allocation, f"build_{paradigm}", changed)
        sim.execute(apps.make_scenario("ride_allocation", 20, 1), apps.app_version("ride_allocation", paradigm, "min"))


@pytest.mark.parametrize("stage", apps.APP_STAGES)
@pytest.mark.parametrize("app", apps.APP_NAMES)
def test_an_fbp_run_indexes_its_graph_wiring_once(app, stage, monkeypatch):
    # The runtime indexes the wiring when it starts; the driver reads its
    # routes off the started instance. An ml run also starts its training run's graph.
    wiring, indexed = FlowGraph.wiring, []

    def counted(graph):
        indexed.append(graph)
        return wiring(graph)

    monkeypatch.setattr(FlowGraph, "wiring", counted)
    scenario, version = apps.make_scenario(app, 30, 3), apps.app_version(app, "fbp", stage)
    result = sim.execute(scenario, version)
    runs = 1 if apps.trainer(version, scenario) is None else 2
    assert indexed[-1] is result.built.graph
    assert len(indexed) == len({id(graph) for graph in indexed}) == runs


def _checked(world, checks: list[str]):
    """`world`, checking each event it emits and each batch it is shown and
    appending to `checks` what it checked."""
    generate, observe = world.generate_events, world.observe

    def generate_events(tick):
        events = generate(tick)
        for ev in events:
            assert type(ev) is Event and len(ev) == 2 and isinstance(ev.kind, str) and isinstance(ev.payload, dict)
        checks.extend("event" for _ in events)
        return events

    def observed(tick, observations):
        for pair in observations:
            assert type(pair) is tuple and len(pair) == 2
            assert isinstance(pair[0], str) and isinstance(pair[1], dict)
        texts = [canonical_json({"data": data, "kind": kind, "tick": tick}) for kind, data in observations]
        assert texts == sorted(texts)
        checks.extend("observation" for _ in observations)
        return observe(tick, observations)

    world.generate_events, world.observe = generate_events, observed
    return world


@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
@pytest.mark.parametrize("app", apps.APP_NAMES)
def test_worlds_emit_kind_payload_events_and_are_shown_sorted_kind_data_pairs(app, paradigm, monkeypatch):
    scenario, checks = apps.make_scenario(app, 40, 2), []
    make_world = apps.make_world
    monkeypatch.setattr(apps, "make_world", lambda sc: _checked(make_world(sc), checks) if sc is scenario else make_world(sc))
    sim.execute(scenario, apps.app_version(app, paradigm, "ml"))
    assert Event._fields == ("kind", "payload")
    assert {"event", "observation"} <= set(checks)


@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
def test_the_ride_world_forgets_each_request_once_it_is_assigned(paradigm, monkeypatch):
    # Every request gets one assignment, matched or not, in the tick it is
    # made, so no rider position outlives its run; the goldens pin the rest.
    scenario, worlds = apps.make_scenario("ride_allocation", 200, 3), []
    make_world = apps.make_world
    monkeypatch.setattr(apps, "make_world", lambda sc: worlds.append(make_world(sc)) or worlds[-1])
    sim.execute(scenario, apps.app_version("ride_allocation", paradigm, "ml"))
    assert len(worlds) == 2  # the training run's world and the serving run's
    assert all(world.next_ride_id > 0 and world.rider_pos == {} for world in worlds)
