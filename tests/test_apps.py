"""Per-app behavioral contracts, exercised on the shared logic and on the
built graphs/services."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowbench import apps, sim
from flowbench.apps import insurance_claims, mblogger, playlist_builder, ride_allocation
from flowbench.canon import canonical_json
from flowbench.graph import upstream_closure, validate
from flowbench.mlkit import fit_bigram, nearest_rank
from flowbench.rng import SplitMix64, derive_seed
from flowbench.runtime import start
from flowbench.sim import execute
from util_claims import claim_route
from util_graphs import nested_scan_timeline
from util_runs import observed


RIDE_COORDS = st.one_of(st.sampled_from([0.0, 1.0, 3.0, -3.0, 4.0]), st.floats(-50.0, 50.0))


@st.composite
def ride_fleets(draw):
    """(driver_id, x, y) drivers in any id order, each a tuple or a list,
    in a list or a tuple: the shapes the fbp fold and the soa wire pass."""
    ids = draw(st.lists(st.integers(0, 40), max_size=8))
    drivers = [(d, draw(RIDE_COORDS), draw(RIDE_COORDS)) for d in ids]
    drivers = [list(d) if draw(st.booleans()) else d for d in drivers]
    return tuple(drivers) if draw(st.booleans()) else drivers


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

    @given(fleet=ride_fleets(), rx=RIDE_COORDS, ry=RIDE_COORDS, tick=st.integers(0, 100))
    @example(fleet=[], rx=0.0, ry=0.0, tick=0)
    @example(fleet=(), rx=1.0, ry=1.0, tick=30)
    @example(fleet=[[7, 3.0, 0.0], (2, 0.0, 3.0), (5, -3.0, 0.0)], rx=0.0, ry=0.0, tick=1)
    @settings(max_examples=200, deadline=None)
    def test_matches_nested_min_oracle(self, fleet, rx, ry, tick):
        # Equal distances and duplicate positions come from the small
        # coordinate grid; ids are unsorted and may repeat; drivers and the
        # fleet are lists or tuples, as the fbp fold and the soa wire pass them.
        alloc = ride_allocation.allocate_ride(11, rx, ry, tick, fleet)
        best = min(
            ((ride_allocation.euclid(rx, ry, x, y), driver_id) for driver_id, x, y in fleet),
            default=(0.0, -1),
        )
        assert alloc == {
            "ride_id": 11,
            "driver_id": best[1],
            "matched": bool(fleet),
            "distance": best[0],
            "n_available": len(fleet),
            "request_tick": tick,
            "tod": tick % 24,
        }

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
            assert claim_route(claim) == "reject"

    def test_small_auto_claim_fast_tracked(self):
        claim = {"kind": "auto", "amount": 500.0, "prior_claims": 0, "flagged": False}
        assert claim_route(claim) == "fast_track"

    def test_large_claim_reviewed(self):
        claim = {"kind": "home", "amount": 20000.0, "prior_claims": 0, "flagged": False}
        assert claim_route(claim) == "manual_review"

    def test_everything_else_standard(self):
        claim = {"kind": "health", "amount": 5000.0, "prior_claims": 1, "flagged": False}
        assert claim_route(claim) == "standard"

    def test_unknown_kind_rejected(self):
        claim = {"kind": "marine", "amount": 10.0, "prior_claims": 0, "flagged": False}
        with pytest.raises(ValueError, match="unknown claim kind"):
            claim_route(claim)

    def test_chain_matches_rule_composition(self):
        # The chained per-rule functions and the one-shot router must agree,
        # on unknown kinds too: equal results, or the same `ValueError`.
        def outcome(route, claim):
            try:
                return route(claim)
            except ValueError as exc:
                return ("ValueError", str(exc))

        def chained(claim):
            return (
                insurance_claims.rule_flagged(claim)
                or insurance_claims.rule_amount(claim)
                or insurance_claims.rule_kind(claim)
            )

        rng = SplitMix64(derive_seed(17, "chain"))
        for _ in range(400):
            claim = {
                "kind": ("auto", "home", "health", "boat")[rng.randrange(4)],
                "amount": rng.uniform(0, 30000),
                "prior_claims": rng.randrange(6),
                "flagged": rng.random() < 0.2,
            }
            assert outcome(chained, claim) == outcome(claim_route, claim)
        boat = {"kind": "boat", "amount": 500.0, "prior_claims": 0, "flagged": True}
        assert claim_route(boat) == "reject"
        with pytest.raises(ValueError, match="unknown claim kind 'boat'"):
            claim_route({**boat, "flagged": False})

    def test_both_paradigms_reject_a_flagged_unknown_kind(self):
        claim = {"claim_id": 1, "kind": "boat", "amount": 500.0, "prior_claims": 0, "flagged": True}
        scenario = apps.make_scenario("insurance_claims", 10, 1)
        inst = start(insurance_claims.build_fbp("min", scenario).graph)
        inst.inject("claims", claim)
        inst.step()
        assert [r.as_dict() for r in inst.read("decisions")] == [{"claim_id": 1, "decision": "reject"}]
        registry = insurance_claims.build_soa("min", scenario).registry
        assert registry.call("sim", "intake", "submit_claim", claim) == {"claim_id": 1, "decision": "reject"}

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
        expected = nested_scan_timeline(user, edges, posts, limit)
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


class TestSoaInterests:
    def test_each_user_reads_their_texts_in_put_order(self):
        scenario = apps.make_scenario("mblogger", 10, 1)
        ctx = mblogger.build_soa("data", scenario).registry.context_for("timeline")
        for user, text in (("u1", "a"), ("u2", "b"), ("u1", "c"), ("u2", "d"), ("u2", "e"), ("u1", "f")):
            ctx.routine("put_interest", user, text)
        assert ctx.routine("get_interests", "u1") == ["a", "c", "f"]
        assert ctx.routine("get_interests", "u2") == ["b", "d", "e"]
        assert ctx.routine("get_interests", "u3") == []


class TestPlaylist:
    ACTION = [("m1", 10.0), ("m2", 20.0), ("m3", 30.0), ("m4", 40.0)]

    def test_single_match_small_pool(self):
        rng = SplitMix64(1)
        titles = playlist_builder.sample_playlist([("m5", 99.0)], 3, rng)
        assert titles == ["m5"]

    def test_quantile_filter_pool(self):
        # Nearest-rank Q(0.75) of [10,20,30,40] is the 3rd value, 30; the
        # eligible pool is exactly the titles grossing 30 and 40.
        threshold = nearest_rank([10.0, 20.0, 30.0, 40.0], playlist_builder.GROSS_QUANTILE)
        assert threshold == 30.0
        rng = SplitMix64(1)
        titles = playlist_builder.sample_playlist(self.ACTION, 10, rng, threshold)
        assert sorted(titles) == ["m3", "m4"]

    def test_same_seed_same_playlist(self):
        a = playlist_builder.sample_playlist(self.ACTION, 2, playlist_builder.request_rng(9, 4))
        b = playlist_builder.sample_playlist(self.ACTION, 2, playlist_builder.request_rng(9, 4))
        assert a == b

    def test_no_match_is_empty(self):
        rng = SplitMix64(1)
        assert playlist_builder.sample_playlist((), 2, rng) == []
        assert playlist_builder.sample_playlist(self.ACTION, 2, rng, 50.0) == []

    @given(
        st.lists(st.tuples(st.sampled_from("abcdef"), st.sampled_from([-0.0, 0.0, 1.0, 5.0, 5.0])), max_size=12),
        st.sampled_from([None, 0.0, 1.0, 5.0, 9.0]),
        st.integers(0, 5),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_pool_is_the_filtered_catalog_in_arrival_order(self, catalog, min_gross, k, seed):
        # The C-level pool draws what a Python filter over the catalog
        # draws: the same titles in the same order, so the same playlist.
        pool = [title for title, gross in catalog if min_gross is None or gross >= min_gross]
        expected = SplitMix64(seed).sample(pool, k)
        assert playlist_builder.sample_playlist(catalog, k, SplitMix64(seed), min_gross) == expected


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
        version = apps.app_version(app, "soa", "ml")
        model = sim.train(scenario, version)
        built = apps.build_app(version, scenario, model)
        assert built.registry.context_for(service).routine("get_model") is model


def _bot_state():
    return {"counts": {}, "seen": 0}


class TestBotText:
    def test_single_bigram_corpus_regenerates_itself(self):
        for seed in range(10):
            assert mblogger.bot_text(_bot_state(), ["a b"], seed) == "a b"

    def test_same_corpus_same_seed_same_text(self):
        corpus = ["amber breeze drift", "amber cobalt"]
        assert mblogger.bot_text(_bot_state(), corpus, 5) == mblogger.bot_text(_bot_state(), corpus, 5)

    def test_no_new_text_is_empty_and_leaves_the_state(self):
        state = _bot_state()
        mblogger.bot_text(state, ["a b"], 5)
        assert mblogger.bot_text(state, [], 5) == ""
        assert state == {"counts": fit_bigram([["a", "b"]]).counts, "seen": 1}


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
                sid for sid, role in built.graph.wiring().roles.items() if role.value == "output"
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
            registered = {(s.id, a.name) for s in built.registry.service_specs() for a in s.apis}
            assert surface[stage] <= registered
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


class TestCrossParadigmDigests:
    """Ride assignments and pickup waits, mblogger timelines and bot posts:
    the same digests from both paradigms at the data and ml stages."""

    KINDS = {"ride_allocation": ("assignment", "pickup_wait"), "mblogger": ("timeline", "bot_post")}

    @pytest.mark.parametrize("stage", ("data", "ml"))
    @pytest.mark.parametrize("app", sorted(KINDS))
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_fbp_and_soa_digests_agree(self, app, stage, seed):
        scenario = apps.make_scenario(app, 120, seed)
        fbp = execute(scenario, apps.app_version(app, "fbp", stage)).digests
        soa = execute(scenario, apps.app_version(app, "soa", stage)).digests
        kinds = [k for k in self.KINDS[app] if k != "bot_post" or stage == "ml"]
        assert {k: fbp[k] for k in kinds} == {k: soa[k] for k in kinds}


class TestRecordParity:
    """Each record both twins emit has its schema's fields, in order, at
    every stage that emits it, in both paradigms."""

    # kind -> (app, its schema, the stages that emit it)
    RECORDS = {
        "assignment": ("ride_allocation", ride_allocation.ASSIGNMENT, apps.APP_STAGES),
        "pickup_wait": ("ride_allocation", ride_allocation.PICKUP_WAIT, apps.APP_STAGES),
        "wait_estimate": ("ride_allocation", ride_allocation.WAIT_ESTIMATE, ("ml",)),
        "decision": ("insurance_claims", insurance_claims.DECISION, apps.APP_STAGES),
        "timeline": ("mblogger", mblogger.TIMELINE, apps.APP_STAGES),
        "bot_post": ("mblogger", mblogger.BOT_POST, ("ml",)),
        "playlist": ("playlist_builder", playlist_builder.PLAYLIST, apps.APP_STAGES),
    }
    NOT_SHARED = {
        "corpus": "fbp only: the soa twin publishes no interest corpora (the data-discovery gap)",
        "genre_stats": "another protocol: soa answers every poll and adds n_movies",
    }

    @pytest.mark.parametrize("paradigm", apps.PARADIGMS)
    @pytest.mark.parametrize("stage", apps.APP_STAGES)
    @pytest.mark.parametrize("app", apps.APP_NAMES)
    def test_each_record_has_its_schema_fields(self, app, stage, paradigm):
        _, docs = observed(apps.make_scenario(app, 120, 1), apps.app_version(app, paradigm, stage))
        expected = {kind for kind, (a, _, stages) in self.RECORDS.items() if a == app and stage in stages}
        assert docs.keys() - self.NOT_SHARED.keys() == expected
        for kind in expected:
            schema = self.RECORDS[kind][1]
            assert {tuple(doc["data"]) for doc in docs[kind]} == {schema.field_names}, kind


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
