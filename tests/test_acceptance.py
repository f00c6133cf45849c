"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints a single PASS line (visible with -s; pytest -v shows the
per-criterion verdict either way). Timing bounds are asserted where the
criterion states one.
"""

import math
import time

import pytest

from flowbench import apps, metrics, sim
from flowbench.apps import insurance_claims, mblogger
from flowbench.collection import collect, write_dataset
from flowbench.graph import Category, topological_order, upstream_closure, downstream_closure, validate
from flowbench.mlkit import predict_tree
from flowbench.sim import execute, run_scenario
from util_graphs import brute_force_closure, node_edges, random_dag
from util_runs import observed

ALL_APPS = apps.APP_NAMES
OFFLINE_APPS = ("insurance_claims", "ride_allocation")
TRANSITIONS = (("min", "data"), ("data", "ml"))


def _affected(app, paradigm, stage_a, stage_b):
    a = metrics.manifest(apps.app_version(app, paradigm, stage_a))
    b = metrics.manifest(apps.app_version(app, paradigm, stage_b))
    return metrics.diff(a, b).affected_count


def test_c01_offline_collection_affects_one_component():
    # Offline-dataset apps: adding collection touches exactly one component
    # of the dataflow build.
    for app in OFFLINE_APPS:
        started = time.perf_counter()
        count = _affected(app, "fbp", "min", "data")
        elapsed = time.perf_counter() - started
        assert count == 1, f"{app}: expected 1 affected component, got {count}"
        assert elapsed < 1.0, f"{app}: diff took {elapsed:.2f}s"
    print("PASS 01: offline-data apps change exactly 1 dataflow component")


def test_c02_dataflow_never_more_intrusive_than_services():
    started = time.perf_counter()
    counts = {}
    for app in ALL_APPS:
        for paradigm in ("fbp", "soa"):
            manifests = {
                stage: metrics.manifest(apps.app_version(app, paradigm, stage))
                for stage in ("min", "data", "ml")
            }
            for stage_a, stage_b in TRANSITIONS:
                counts[(app, paradigm, stage_a, stage_b)] = metrics.diff(
                    manifests[stage_a], manifests[stage_b]
                ).affected_count
    elapsed = time.perf_counter() - started
    for app in ALL_APPS:
        strict = False
        for stage_a, stage_b in TRANSITIONS:
            fbp = counts[(app, "fbp", stage_a, stage_b)]
            soa = counts[(app, "soa", stage_a, stage_b)]
            assert fbp <= soa, f"{app} {stage_a}->{stage_b}: fbp={fbp} > soa={soa}"
            strict = strict or fbp < soa
        assert strict, f"{app}: no strictly smaller transition"
    assert elapsed < 5.0, f"manifest sweep took {elapsed:.2f}s"
    print("PASS 02: affected components fbp <= soa on all transitions, strict per app")


def test_c03_min_stage_paradigm_equivalence():
    started = time.perf_counter()
    for app in ALL_APPS:
        for seed in (1, 2, 3):
            scenario = apps.make_scenario(app, 100, seed)
            fbp = run_scenario(scenario, apps.app_version(app, "fbp", "min"))
            soa = run_scenario(scenario, apps.app_version(app, "soa", "min"))
            assert fbp.digests == soa.digests, f"{app} seed={seed}: digests diverge"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"equivalence sweep took {elapsed:.2f}s"
    print("PASS 03: min-stage outputs identical across paradigms, seeds 1-3")


def test_c04_runs_and_collections_are_deterministic(tmp_path):
    for app in ALL_APPS:
        scenario = apps.make_scenario(app, 60, 5)
        version = apps.app_version(app, "fbp", "data")
        assert run_scenario(scenario, version).to_json() == run_scenario(scenario, version).to_json()
    scenario = apps.make_scenario("ride_allocation", 60, 5)
    version = apps.app_version("ride_allocation", "soa", "ml")
    assert run_scenario(scenario, version).to_json() == run_scenario(scenario, version).to_json()

    for app in OFFLINE_APPS:
        scenario = apps.make_scenario(app, 60, 5)
        paths = [tmp_path / f"{app}_{i}.jsonl" for i in (0, 1)]
        for path in paths:
            rows = execute(scenario, apps.app_version(app, "fbp", "data")).dataset_rows
            write_dataset(rows, path)
        assert paths[0].read_bytes() == paths[1].read_bytes(), app
    print("PASS 04: repeated runs and collections are byte-identical")


def _nested_loop_join(instance, spec):
    """Independent oracle: scan every feature stream per label record."""
    rows = []
    for label_rec in instance.read(spec.label.stream_id, 0):
        key = label_rec[spec.label.key_field]
        features = {}
        complete = True
        for sel in spec.features:
            matches = [
                rec for rec in instance.read(sel.stream_id, 0) if rec[sel.key_field] == key
            ]
            assert len(matches) <= 1, f"duplicate key {key} in {sel.stream_id}"
            if not matches:
                complete = False
                break
            for field in sel.fields:
                features[field] = matches[0][field]
        if complete:
            label = {f: label_rec[f] for f in spec.label.fields}
            rows.append({"features": features, "key": key, "label": label})
    return rows


def test_c05_collection_matches_nested_loop_join():
    for app in OFFLINE_APPS:
        scenario = apps.make_scenario(app, 80, 9)
        result = execute(scenario, apps.app_version(app, "fbp", "data"))
        instance = result.instance
        total_records = sum(instance.length(sid) for sid in instance.stream_ids())
        assert total_records <= 10_000
        spec = result.built.collection
        assert collect(instance, spec) == _nested_loop_join(instance, spec)
    print("PASS 05: collect() equals the brute-force nested-loop join, row for row")


def test_c06_traversal_matches_brute_force_on_random_dags():
    started = time.perf_counter()
    for seed in range(200):
        graph = random_dag(seed, max_nodes=20)
        elements = sorted({s.id for s in graph.streams} | {n.id for n in graph.nodes})

        # Full-coverage independent BFS over raw edge lists.
        succ: dict[str, list[str]] = {e: [] for e in elements}
        pred: dict[str, list[str]] = {e: [] for e in elements}
        for edge in graph.in_edges:
            succ[edge.stream].append(edge.node)
            pred[edge.node].append(edge.stream)
        for edge in graph.out_edges:
            succ[edge.node].append(edge.stream)
            pred[edge.stream].append(edge.node)

        def reach(start, adjacency):
            seen = {start}
            queue = [start]
            while queue:
                for nxt in adjacency[queue.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            return seen

        for element in elements:
            assert upstream_closure(graph, element) == reach(element, pred)
            assert downstream_closure(graph, element) == reach(element, succ)

        # Spot-check with the slow fixpoint oracle as well.
        for element in elements[:: max(1, len(elements) // 3)]:
            assert upstream_closure(graph, element) == brute_force_closure(
                graph, element, forward=False
            )

        order = topological_order(graph)
        assert sorted(order) == sorted(n.id for n in graph.nodes)
        position = {nid: i for i, nid in enumerate(order)}
        for u, v in node_edges(graph):
            assert position[u] < position[v]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"traversal sweep took {elapsed:.2f}s"
    print("PASS 06: closures and ordering match brute force on 200 random DAGs")


def test_c07_wait_regression_recovery():
    started = time.perf_counter()
    overrides = {"noise": 0.0, "request_rate": 1.4, "n_drivers": 25}
    scenario = apps.make_scenario("ride_allocation", 200, 5, overrides)
    result = execute(scenario, apps.app_version("ride_allocation", "fbp", "ml"))
    model = result.model
    coefficients = dict(zip(("distance", "n_available", "tod"), model.coefficients))
    assert abs(coefficients["distance"] - 2.0) < 1e-6
    assert abs(coefficients["n_available"]) < 1e-6
    assert abs(coefficients["tod"]) < 1e-6
    assert abs(model.intercept - 1.0) < 1e-6

    estimates = {r["ride_id"]: r["estimated_wait"] for r in result.instance.read("wait_estimates", 0)}
    realized = {r["ride_id"]: r["wait_time"] for r in result.instance.read("pickup_waits", 0)}
    joined = [(estimates[k], realized[k]) for k in realized if k in estimates]
    assert len(joined) >= 200
    assert all(abs(est - real) < 1e-6 for est, real in joined)

    noisy = apps.make_scenario(
        "ride_allocation", 200, 5, {"noise": 1.0, "request_rate": 1.4, "n_drivers": 25}
    )
    noisy_result = execute(noisy, apps.app_version("ride_allocation", "fbp", "ml"))
    assert len(sim.training_rows(noisy, "fbp")) >= 200
    est = {r["ride_id"]: r["estimated_wait"] for r in noisy_result.instance.read("wait_estimates", 0)}
    real = {r["ride_id"]: r["wait_time"] for r in noisy_result.instance.read("pickup_waits", 0)}
    errors = [abs(est[k] - real[k]) for k in real if k in est]
    assert len(errors) >= 200
    assert sum(errors) / len(errors) <= 0.75
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"regression criterion took {elapsed:.2f}s"
    print("PASS 07: wait model recovers (2, 1) noiselessly; noisy MAE within 0.75")


def test_c08_classifier_reproduces_rule_chain():
    started = time.perf_counter()
    scenario = apps.make_scenario("insurance_claims", 200, 5)
    result = execute(scenario, apps.app_version("insurance_claims", "fbp", "ml"))
    model = result.model
    training = sim.training_rows(scenario, "fbp")
    assert len(training) >= 500
    for row in training:
        predicted = predict_tree(model, insurance_claims.claim_features(row["features"]))
        assert predicted == row["label"]["decision"]

    fresh = insurance_claims.sample_claims(seed=977, count=1000)
    agree = sum(
        predict_tree(model, insurance_claims.claim_features(c)) == insurance_claims.claim_route(c)
        for c in fresh
    )
    assert agree >= 950, f"fresh agreement {agree}/1000"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"classifier criterion took {elapsed:.2f}s"
    print(f"PASS 08: classifier matches the rule chain (training 100%, fresh {agree/10:.1f}%)")


def _movie_timeline(scenario):
    world = apps.make_world(scenario)
    movies = []
    for tick in range(scenario.ticks):
        for ev in world.generate_events(tick):
            if ev.kind == "movie":
                movies.append((tick, ev.payload["title"], ev.payload["genre"], ev.payload["gross"]))
        world.observe(tick, [])
    return movies


def test_c09_quantile_filter_on_every_playlist():
    checked = 0
    for seed in (1, 6):
        scenario = apps.make_scenario("playlist_builder", 100, seed)
        movies = _movie_timeline(scenario)
        gross_of = {title: gross for _, title, _, gross in movies}
        for paradigm in ("fbp", "soa"):
            _, observations = observed(scenario, apps.app_version("playlist_builder", paradigm, "ml"))
            for doc in observations.get("playlist", ()):
                genre = doc["data"]["genre"]
                tick = doc["tick"]
                grosses = sorted(
                    g for t, _, movie_genre, g in movies if movie_genre == genre and t <= tick
                )
                titles = [t for t in doc["data"]["titles"].split("|") if t]
                if not titles:
                    continue
                # Independent nearest-rank computation.
                threshold = grosses[max(1, math.ceil(0.75 * len(grosses))) - 1]
                for title in titles:
                    assert gross_of[title] >= threshold
                checked += 1
    assert checked > 20
    print(f"PASS 09: {checked} playlists contain only top-quartile grossers")


def test_c10_bot_generation_sampling_sanity():
    started = time.perf_counter()
    hits = 0
    n = 10_000
    for seed in range(n):
        text = mblogger.bot_text({"counts": {}, "seen": 0}, ["a b", "a c"], seed)
        tokens = text.split()
        assert tokens[0] == "a"
        if len(tokens) > 1 and tokens[1] == "b":
            hits += 1
    frequency = hits / n
    assert abs(frequency - 0.5) <= 0.02, f"second-token frequency {frequency}"
    for seed in range(50):
        assert mblogger.bot_text({"counts": {}, "seen": 0}, ["a b"], seed) == "a b"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"generation criterion took {elapsed:.2f}s"
    print(f"PASS 10: bot sampling frequency {frequency:.3f} within 0.5 +/- 0.02")


def test_c11_every_dataflow_version_is_valid():
    for app in ALL_APPS:
        for stage in ("min", "data", "ml"):
            scenario = apps.make_scenario(app, 60, 11)
            built = apps.build_app(apps.app_version(app, "fbp", stage), scenario)
            graph = built.graph
            assert validate(graph) == [], f"{app}/{stage} has violations"
            wiring = graph.wiring()
            for sid, role in wiring.roles.items():
                producers = wiring.writers[sid]
                consumers = wiring.readers[sid]
                if role is Category.INPUT:
                    assert producers == [] and len(consumers) >= 1
                elif role is Category.OUTPUT:
                    assert consumers == []
                else:
                    assert len(producers) == 1 and len(consumers) >= 1
    print("PASS 11: all dataflow versions validate cleanly, categories respected")


def test_c12_collection_stage_does_not_alter_business_outputs():
    for app in ALL_APPS:
        for paradigm in ("fbp", "soa"):
            scenario = apps.make_scenario(app, 100, 1)
            base = run_scenario(scenario, apps.app_version(app, paradigm, "min"))
            extended = run_scenario(scenario, apps.app_version(app, paradigm, "data"))
            for kind, digest in base.digests.items():
                assert extended.digests.get(kind) == digest, f"{app}/{paradigm}: {kind} changed"
    print("PASS 12: data-stage builds reproduce min-stage output digests")
