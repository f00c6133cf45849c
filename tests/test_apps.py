"""Per-app behavioral contracts, exercised on the shared logic and on the
built graphs/services."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench import apps
from flowbench.apps import insurance_claims, mblogger, playlist_builder, ride_allocation
from flowbench.canon import canonical_json
from flowbench.graph import upstream_closure, validate
from flowbench.rng import SplitMix64, derive_seed
from flowbench.sim import execute


class TestRideAllocate:
    def test_single_available_driver_wins(self):
        alloc = ride_allocation.allocate_ride(1, 0.0, 0.0, 0, [(4, 3.0, 4.0)])
        assert alloc["driver_id"] == 4
        assert alloc["matched"] is True
        assert alloc["distance"] == 5.0

    def test_distance_tie_goes_to_lowest_driver_id(self):
        available = [(2, 3.0, 0.0), (1, 0.0, 3.0)]
        alloc = ride_allocation.allocate_ride(1, 0.0, 0.0, 0, available)
        assert alloc["driver_id"] == 1

    def test_no_driver_yields_no_match(self):
        alloc = ride_allocation.allocate_ride(9, 1.0, 1.0, 5, [])
        assert alloc["matched"] is False
        assert alloc["driver_id"] == -1
        assert alloc["n_available"] == 0

    def test_matches_brute_force_scan(self):
        rng = SplitMix64(derive_seed(31, "scan"))
        for trial in range(25):
            drivers = [
                (d, rng.uniform(0, 10), rng.uniform(0, 10)) for d in range(5)
            ]
            rx, ry = rng.uniform(0, 10), rng.uniform(0, 10)
            alloc = ride_allocation.allocate_ride(trial, rx, ry, 0, drivers)
            # Exhaustive oracle: smallest (distance, id) pair wins.
            best = min(
                ((((rx - x) ** 2 + (ry - y) ** 2) ** 0.5), d) for d, x, y in drivers
            )
            assert alloc["driver_id"] == best[1]

    def test_features_capture_request_context(self):
        alloc = ride_allocation.allocate_ride(3, 0.0, 0.0, 49, [(0, 1.0, 0.0)])
        assert alloc["request_tick"] == 49
        assert alloc["tod"] == 49 % 24
        assert alloc["n_available"] == 1

    def test_soa_allocate_response_does_not_alias_stored_allocation(self):
        scenario = apps.make_scenario("ride_allocation", 10, 1)
        registry = ride_allocation.build_soa("data", scenario).registry
        registry.call("sim", "drivers", "register", {"driver_id": 4, "x": 3.0, "y": 4.0})
        response = registry.call(
            "sim", "allocator", "allocate",
            {"ride_id": 1, "rider_x": 0.0, "rider_y": 0.0, "request_tick": 0},
        )
        stored = dict(response)
        response["driver_id"] = -1
        response["matched"] = False
        listed = registry.call("sim", "allocator", "list_allocations", {})["allocations"]
        assert listed == [stored]

    def test_soa_list_allocations_hands_out_copies(self):
        scenario = apps.make_scenario("ride_allocation", 10, 1)
        registry = ride_allocation.build_soa("data", scenario).registry
        registry.call("sim", "drivers", "register", {"driver_id": 4, "x": 3.0, "y": 4.0})
        registry.call(
            "sim", "allocator", "allocate",
            {"ride_id": 1, "rider_x": 0.0, "rider_y": 0.0, "request_tick": 0},
        )
        first = registry.call("sim", "allocator", "list_allocations", {})["allocations"]
        stored = [dict(a) for a in first]
        first[0]["driver_id"] = 77
        again = registry.call("sim", "allocator", "list_allocations", {})["allocations"]
        assert again == stored


class TestClaimRoute:
    def test_flagged_always_rejected(self):
        for amount in (10.0, 500.0, 99999.0):
            claim = {"kind": "home", "amount": amount, "prior_claims": 0, "flagged": True}
            assert insurance_claims.claim_route(claim) == "reject"

    def test_small_auto_claim_fast_tracked(self):
        claim = {"kind": "auto", "amount": 500.0, "prior_claims": 0, "flagged": False}
        assert insurance_claims.claim_route(claim) == "fast_track"

    def test_large_claim_reviewed(self):
        claim = {"kind": "home", "amount": 20000.0, "prior_claims": 0, "flagged": False}
        assert insurance_claims.claim_route(claim) == "manual_review"

    def test_everything_else_standard(self):
        claim = {"kind": "health", "amount": 5000.0, "prior_claims": 1, "flagged": False}
        assert insurance_claims.claim_route(claim) == "standard"

    def test_unknown_kind_rejected(self):
        claim = {"kind": "marine", "amount": 10.0, "prior_claims": 0, "flagged": False}
        with pytest.raises(ValueError, match="unknown claim kind"):
            insurance_claims.claim_route(claim)

    def test_chain_matches_rule_composition(self):
        # The chained per-rule functions and the one-shot router must agree.
        rng = SplitMix64(derive_seed(17, "chain"))
        for _ in range(200):
            claim = {
                "kind": ("auto", "home", "health")[rng.randrange(3)],
                "amount": rng.uniform(0, 30000),
                "prior_claims": rng.randrange(6),
                "flagged": rng.random() < 0.2,
            }
            chained = (
                insurance_claims.rule_flagged(claim)
                or insurance_claims.rule_amount(claim)
                or insurance_claims.rule_kind(claim)
            )
            assert chained == insurance_claims.claim_route(claim)

    def test_soa_list_decisions_hands_out_copies(self):
        scenario = apps.make_scenario("insurance_claims", 10, 1)
        registry = insurance_claims.build_soa("data", scenario).registry
        registry.call(
            "sim", "intake", "submit_claim",
            {"claim_id": 1, "kind": "auto", "amount": 500.0, "prior_claims": 0, "flagged": False},
        )
        first = registry.call("sim", "payout", "list_decisions", {})["decisions"]
        assert first == [{"claim_id": 1, "decision": "fast_track"}]
        first[0]["decision"] = "reject"
        again = registry.call("sim", "payout", "list_decisions", {})["decisions"]
        assert again == [{"claim_id": 1, "decision": "fast_track"}]


def _nested_scan_timeline(user_id, edges, posts, limit):
    """Reference: scan every edge for every post."""
    selected = []
    for post_id, author, post_tick in posts:
        followed = any(
            follower == user_id and followee == author and tick <= post_tick
            for follower, followee, tick in edges
        )
        if followed:
            selected.append((post_tick, post_id))
    selected.sort(reverse=True)
    return [post_id for _, post_id in selected[:limit]]


USERS = st.sampled_from(["u0", "u1", "u2", "u3"])
TICKS = st.integers(0, 6)


@st.composite
def timeline_inputs(draw):
    edges = draw(st.lists(st.tuples(USERS, USERS, TICKS), max_size=12))
    # Some pairs are followed again, at an earlier, equal or later tick.
    edges += [(f, fe, draw(TICKS)) for f, fe, _ in edges if draw(st.booleans())]
    # A post by each followee at the very tick of the follow, plus free posts.
    slots = [(fe, t) for _, fe, t in edges] + draw(st.lists(st.tuples(USERS, TICKS), max_size=12))
    ids = draw(st.permutations(range(len(slots))))
    posts = [(pid, author, tick) for pid, (author, tick) in zip(ids, slots)]
    return (
        draw(USERS),
        draw(st.permutations(edges)),
        draw(st.permutations(posts)),
        draw(st.integers(1, 8)),
    )


class TestTimeline:
    @given(timeline_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_nested_scan_on_repeat_and_same_tick_follows(self, case):
        user, edges, posts, limit = case
        expected = _nested_scan_timeline(user, edges, posts, limit)
        assert mblogger.build_timeline(user, edges, posts, limit) == expected

    def test_following_nobody_is_empty(self):
        posts = [(1, "alice", 0), (2, "bob", 1)]
        assert mblogger.build_timeline("carol", [], posts) == []

    def test_single_followee_single_post(self):
        edges = [("carol", "alice", 0)]
        posts = [(1, "alice", 2)]
        assert mblogger.build_timeline("carol", edges, posts) == [1]

    def test_matches_nested_loop_oracle(self):
        rng = SplitMix64(derive_seed(23, "timeline"))
        users = [f"u{i}" for i in range(5)]
        edges = []
        posts = []
        for tick in range(30):
            if rng.random() < 0.4:
                edges.append((users[rng.randrange(5)], users[rng.randrange(5)], tick))
            posts.append((tick, users[rng.randrange(5)], tick))
        user = "u0"
        expected = sorted(
            (
                (post_tick, post_id)
                for post_id, author, post_tick in posts
                if any(
                    f == user and fe == author and t <= post_tick for f, fe, t in edges
                )
            ),
            reverse=True,
        )
        expected_ids = [pid for _, pid in expected][:50]
        assert mblogger.build_timeline(user, edges, posts) == expected_ids

    def test_follow_after_post_does_not_backfill(self):
        edges = [("carol", "alice", 5)]
        posts = [(1, "alice", 2), (2, "alice", 5), (3, "alice", 9)]
        assert mblogger.build_timeline("carol", edges, posts) == [3, 2]

    def test_truncates_to_fifty(self):
        edges = [("x", "a", 0)]
        posts = [(i, "a", i) for i in range(80)]
        ids = mblogger.build_timeline("x", edges, posts)
        assert len(ids) == 50
        assert ids[0] == 79 and ids[-1] == 30


class TestPlaylist:
    MOVIES = [("m1", "action", 10.0), ("m2", "action", 20.0),
              ("m3", "action", 30.0), ("m4", "action", 40.0),
              ("m5", "drama", 99.0)]

    def test_single_match_small_pool(self):
        rng = SplitMix64(1)
        titles = playlist_builder.sample_playlist("drama", self.MOVIES, 3, rng)
        assert titles == ["m5"]

    def test_quantile_filter_pool(self):
        # Nearest-rank Q(0.75) of [10,20,30,40] is the 3rd value, 30; the
        # eligible pool is exactly the titles grossing 30 and 40.
        threshold = playlist_builder.gross_threshold([10.0, 20.0, 30.0, 40.0])
        assert threshold == 30.0
        rng = SplitMix64(1)
        titles = playlist_builder.sample_playlist("action", self.MOVIES, 10, rng, threshold)
        assert sorted(titles) == ["m3", "m4"]

    def test_same_seed_same_playlist(self):
        a = playlist_builder.sample_playlist(
            "action", self.MOVIES, 2, playlist_builder.request_rng(9, 4)
        )
        b = playlist_builder.sample_playlist(
            "action", self.MOVIES, 2, playlist_builder.request_rng(9, 4)
        )
        assert a == b

    def test_no_match_is_empty(self):
        rng = SplitMix64(1)
        assert playlist_builder.sample_playlist("comedy", self.MOVIES, 2, rng) == []


class TestSoaStatsCopies:
    """The soa stats APIs answer with fresh documents: a caller mutating a
    response must not reach the catalog's stored stats."""

    @pytest.mark.parametrize("api", ("genre_stats", "genre_quantile"))
    def test_mutating_a_response_leaves_the_next_answer_unchanged(self, api):
        scenario = apps.make_scenario("playlist_builder", 5, 1)
        registry = apps.build_app(apps.app_version("playlist_builder", "soa", "ml"), scenario).registry
        for title, gross in (("m1", 10.0), ("m2", 20.0)):
            registry.call("sim", "catalog", "add_movie", {"title": title, "genre": "action", "gross": gross})
        first = registry.call("sim", "catalog", api, {"genre": "action"})
        expected = dict(first)
        first["q75"] = -1.0
        first["n_movies"] = 0
        for other in ("genre_stats", "genre_quantile"):
            assert registry.call("sim", "catalog", other, {"genre": "action"}) == expected


class TestSoaServedModel:
    @pytest.mark.parametrize("app,service", (("ride_allocation", "allocator"), ("insurance_claims", "rules")))
    def test_store_serves_the_fitted_model_itself(self, app, service):
        scenario = apps.make_scenario(app, 40, 3)
        built = apps.build_app(apps.app_version(app, "soa", "ml"), scenario)
        assert built.registry.context_for(service).routine("get_model") is built.extras["model"]


class TestBotText:
    def test_single_bigram_corpus_regenerates_itself(self):
        for seed in range(10):
            assert mblogger.bot_text(["a b"], seed) == "a b"

    def test_same_corpus_same_seed_same_text(self):
        corpus = ["amber breeze drift", "amber cobalt"]
        assert mblogger.bot_text(corpus, 5) == mblogger.bot_text(corpus, 5)


class TestGraphValidity:
    @pytest.mark.parametrize("app", apps.APP_NAMES)
    @pytest.mark.parametrize("stage", ("min", "data", "ml"))
    def test_every_fbp_version_validates(self, app, stage):
        scenario = apps.make_scenario(app, 60, 11)
        built = apps.build_app(apps.app_version(app, "fbp", stage), scenario)
        assert validate(built.graph) == []


class TestStageSurfaceMonotonicity:
    @pytest.mark.parametrize("app", apps.APP_NAMES)
    def test_fbp_output_streams_never_disappear(self, app):
        scenario = apps.make_scenario(app, 40, 11)
        outputs = {}
        for stage in ("min", "data", "ml"):
            built = apps.build_app(apps.app_version(app, "fbp", stage), scenario)
            outputs[stage] = {
                s.id for s in built.graph.streams if s.category.value == "output"
            }
        assert outputs["min"] <= outputs["data"] <= outputs["ml"]

    @pytest.mark.parametrize("app", apps.APP_NAMES)
    def test_soa_world_facing_apis_never_disappear(self, app):
        scenario = apps.make_scenario(app, 40, 11)
        surface = {}
        for stage in ("min", "data", "ml"):
            built = apps.build_app(apps.app_version(app, "soa", stage), scenario)
            surface[stage] = {
                (r.service, r.api) for r in built.routes.values()
            }
            for service, api in surface[stage]:
                assert built.registry.has_api(service, api)
        assert surface["min"] <= surface["data"] <= surface["ml"]


class TestCrossParadigmDatasets:
    @pytest.mark.parametrize("app", ("ride_allocation", "insurance_claims"))
    def test_offline_rows_agree_across_paradigms(self, app):
        scenario = apps.make_scenario(app, 60, 4)
        fbp = execute(scenario, apps.app_version(app, "fbp", "data"))
        soa = execute(scenario, apps.app_version(app, "soa", "data"))
        assert fbp.dataset_rows == soa.dataset_rows
        assert len(fbp.dataset_rows) > 10

    @pytest.mark.parametrize("paradigm", apps.PARADIGMS)
    @pytest.mark.parametrize("app", ("ride_allocation", "insurance_claims"))
    def test_rows_are_plain_wire_documents(self, app, paradigm):
        # Rows pass through the file and the service wire unchanged: plain
        # dicts of JSON values with exactly the three row keys.
        scenario = apps.make_scenario(app, 60, 4)
        rows = execute(scenario, apps.app_version(app, paradigm, "data")).dataset_rows
        assert rows == json.loads(canonical_json(rows))
        assert {tuple(sorted(row)) for row in rows} == {("features", "key", "label")}

    @pytest.mark.parametrize("app", ("mblogger", "playlist_builder"))
    def test_online_apps_write_no_offline_dataset(self, app):
        scenario = apps.make_scenario(app, 20, 4)
        result = execute(scenario, apps.app_version(app, "fbp", "data"))
        assert result.dataset_rows is None


class TestFeatureDiscoverability:
    @pytest.mark.parametrize("app", ("ride_allocation", "insurance_claims"))
    def test_used_feature_streams_are_discoverable_from_label(self, app):
        # The collection spec may only draw features from streams the
        # traversal tool would have suggested for its label stream.
        scenario = apps.make_scenario(app, 10, 1)
        built = apps.build_app(apps.app_version(app, "fbp", "data"), scenario)
        from flowbench.collection import discover_sources

        sources = discover_sources(built.graph, built.collection.label.stream_id)
        closure = upstream_closure(built.graph, built.collection.label.stream_id)
        assert set(sources) <= closure
        for sel in built.collection.features:
            assert sel.stream_id in sources


class TestDatasetDeclarationStream:
    def test_collected_rows_land_in_declared_stream(self):
        scenario = apps.make_scenario("insurance_claims", 40, 4)
        result = execute(scenario, apps.app_version("insurance_claims", "fbp", "data"))
        rows = result.instance.read("claims_dataset", 0)
        assert len(rows) == len(result.dataset_rows)
        first = rows[0].as_dict()
        assert first["claim_id"] == result.dataset_rows[0]["key"]
        assert first["decision"] == result.dataset_rows[0]["label"]["decision"]
