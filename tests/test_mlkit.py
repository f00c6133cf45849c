"""Learners: regression, tree, bigram, quantiles."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench import apps, sim
from flowbench.apps import insurance_claims
from flowbench.canon import sha256_hex
from flowbench.mlkit import (
    END,
    START,
    LinearModel,
    TreeLeaf,
    TreeModel,
    TreeSplit,
    _normal_equations,
    add_bigrams,
    fit_bigram,
    fit_linear,
    fit_tree,
    generate,
    predict_linear,
    nearest_rank,
    predict_tree,
)
from flowbench.rng import SplitMix64, derive_seed


# Feature values and labels for the normal equations: ints, and floats of
# every magnitude, so that the order of the additions shows in the bits.
FEATURES = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150),
    st.sampled_from([0.1, 1e16, 1.0, -0.0, 5e-324, 1 / 3]),
)


def tree_depth(node) -> int:
    """Splits on the longest path from `node` (a model's root) to a leaf."""
    if isinstance(node, TreeLeaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


class TestFitLinear:
    def test_exact_line(self):
        model = fit_linear([((0.0,), 1.0), ((1.0,), 3.0), ((2.0,), 5.0)])
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-9)
        assert model.intercept == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_labels(self):
        model = fit_linear([((0.0,), 0.0), ((1.0,), 0.0), ((2.0,), 0.0)])
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-9)
        assert model.intercept == pytest.approx(0.0, abs=1e-9)

    def test_recovers_plane(self):
        # y = 3a - 2b + 0.5 on a full-rank sample; residuals must vanish.
        pts = [(1.0, 0.0), (0.0, 1.0), (2.0, 1.0), (3.0, 5.0), (4.0, 2.0)]
        rows = [((a, b), 3.0 * a - 2.0 * b + 0.5) for a, b in pts]
        model = fit_linear(rows)
        assert model.coefficients[0] == pytest.approx(3.0, abs=1e-6)
        assert model.coefficients[1] == pytest.approx(-2.0, abs=1e-6)
        assert model.intercept == pytest.approx(0.5, abs=1e-6)
        for (a, b), y in rows:
            assert predict_linear(model, (a, b)) == pytest.approx(y, abs=1e-6)

    def test_rank_deficiency_falls_back_to_ridge(self):
        # Duplicate column: XtX singular, ridge still produces a fit.
        rows = [((x, x), 2.0 * x) for x in (0.0, 1.0, 2.0, 3.0)]
        model = fit_linear(rows)
        for (a, b), y in rows:
            assert predict_linear(model, (a, b)) == pytest.approx(y, abs=1e-3)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([])

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([((1.0,), 1.0), ((1.0, 2.0), 1.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_rejected_naming_the_row(self, bad):
        rows = [((0.0, 1.0), 1.0), ((1.0, 2.0), 3.0), ((2.0, bad), 5.0)]
        with pytest.raises(ValueError, match=r"fit_linear\(\) row 2 has a non-finite feature"):
            fit_linear(rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_label_rejected_naming_the_row(self, bad):
        rows = [((0.0,), 1.0), ((1.0,), bad), ((2.0,), 5.0)]
        with pytest.raises(ValueError, match=r"fit_linear\(\) row 1 has a non-finite label"):
            fit_linear(rows)

    @given(
        st.integers(1, 6).flatmap(lambda d: st.lists(
            st.tuples(st.lists(FEATURES, min_size=d, max_size=d).map(tuple), FEATURES), min_size=1, max_size=40,
        ))
    )
    @settings(max_examples=200, deadline=None)
    def test_normal_equations_are_bit_equal_to_the_row_by_row_loop(self, rows):
        n = len(rows[0][0]) + 1
        xtx, xty = [[0.0] * n for _ in range(n)], [0.0] * n
        for features, label in rows:
            x = (1.0,) + tuple(float(v) for v in features)
            for i in range(n):
                xty[i] += x[i] * float(label)
                for j in range(n):
                    xtx[i][j] += x[i] * x[j]
        got_xtx, got_xty = _normal_equations(rows, n - 1)
        assert [list(map(float.hex, row)) for row in got_xtx] == [list(map(float.hex, row)) for row in xtx]
        assert list(map(float.hex, got_xty)) == list(map(float.hex, xty))

    @given(st.integers(min_value=0, max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_gradient_vanishes_at_solution(self, seed):
        # Independent check via finite differences of the SSE.
        rng = SplitMix64(derive_seed(seed, "grad"))
        d = 1 + rng.randrange(3)
        rows = [
            (tuple(rng.uniform(-5, 5) for _ in range(d)), rng.uniform(-10, 10))
            for _ in range(d + 4)
        ]
        model = fit_linear(rows)

        def sse(theta):
            total = 0.0
            for x, y in rows:
                pred = theta[0] + sum(c * v for c, v in zip(theta[1:], x))
                total += (pred - y) ** 2
            return total

        theta = [model.intercept, *model.coefficients]
        eps = 1e-6
        for i in range(len(theta)):
            hi = theta[:]
            lo = theta[:]
            hi[i] += eps
            lo[i] -= eps
            grad = (sse(hi) - sse(lo)) / (2 * eps)
            assert abs(grad) < 1e-4


class TestPredictLinear:
    def test_at_origin(self):
        assert predict_linear(LinearModel((2.0,), 1.0), (0.0,)) == 1.0

    def test_at_ten(self):
        assert predict_linear(LinearModel((2.0,), 1.0), (10.0,)) == 21.0

    @given(st.integers(min_value=0, max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_matches_manual_summation(self, seed):
        rng = SplitMix64(derive_seed(seed, "dot"))
        d = 1 + rng.randrange(4)
        model = LinearModel(tuple(rng.uniform(-3, 3) for _ in range(d)), rng.uniform(-3, 3))
        x = tuple(rng.uniform(-3, 3) for _ in range(d))
        manual = model.intercept
        for i in range(d):
            manual += model.coefficients[i] * x[i]
        assert predict_linear(model, x) == pytest.approx(manual, rel=1e-12)


# The split search as it was before `fit_tree` fitted grouped rows, kept
# word for word as the reference the grouped fit must reproduce exactly.


def _gini(labels: list) -> float:
    total = len(labels)
    counts: dict = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    return 1.0 - sum((c / total) ** 2 for c in counts.values())


def _majority(labels: list):
    counts: dict = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    best_count = max(counts.values())
    return min(y for y, c in counts.items() if c == best_count)


def reference_fit_tree(rows: list[tuple[tuple[float, ...], object]], max_depth: int) -> TreeModel:
    """Greedy top-down Gini splitting.

    Candidate thresholds are midpoints between consecutive distinct values
    of each feature; ties between equally good splits go to the lowest
    feature index, then the lowest threshold. Leaves take the majority
    class (lexicographic on ties). Growth stops at purity, at max_depth,
    or when no split improves impurity.
    """
    if not rows:
        raise ValueError("fit_tree() needs at least one row")
    d = len(rows[0][0])
    for features, _ in rows:
        if len(features) != d:
            raise ValueError("inconsistent feature dimensions")

    def build(indices: list[int], depth: int):
        labels = [rows[i][1] for i in indices]
        if depth >= max_depth or len(set(labels)) == 1:
            return TreeLeaf(_majority(labels))
        parent = _gini(labels)
        total = len(indices)
        best = None  # (gain, feature, threshold, left, right)
        for f in range(d):
            values = sorted({rows[i][0][f] for i in indices})
            for a, b in zip(values, values[1:]):
                thr = (a + b) / 2.0
                left = [i for i in indices if rows[i][0][f] < thr]
                right = [i for i in indices if rows[i][0][f] >= thr]
                weighted = (
                    len(left) / total * _gini([rows[i][1] for i in left])
                    + len(right) / total * _gini([rows[i][1] for i in right])
                )
                gain = parent - weighted
                if best is None or gain > best[0] + 1e-15:
                    best = (gain, f, thr, left, right)
        if best is None or best[0] <= 1e-15:
            return TreeLeaf(_majority(labels))
        _, f, thr, left, right = best
        return TreeSplit(f, thr, build(left, depth + 1), build(right, depth + 1))

    return TreeModel(build(list(range(len(rows))), 0), max_depth)


def assert_same_tree(rows, max_depth):
    # repr, not ==: equal floats of opposite sign would compare equal.
    assert repr(fit_tree(rows, max_depth)) == repr(reference_fit_tree(rows, max_depth))


ONE_UP = math.nextafter(1.0, 2.0)
ONE_DOWN = math.nextafter(1.0, 0.0)
# Small pools: duplicates, both zeros, 1.0 and its neighbours, ints beside
# equal floats.
VALUE_POOLS = (
    (0.0, -0.0, 1.0, 2.0),
    (1.0, ONE_UP, ONE_DOWN, 0.5),
    (0, 1, 2, 1.0, 2.0, -0.0),
    (-1.0, -0.0, 0.0, 1, 3.5),
)
LABEL_POOLS = (("a", "b", "c", "d"), (1, 0.0, 2, 1.0, -0.0, 3))


@st.composite
def tree_problems(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    columns = []
    for _ in range(d):
        pool = draw(st.sampled_from(VALUE_POOLS + (None,)))
        if pool is None:
            columns.append(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
        else:
            columns.append(st.sampled_from(pool))
    labels = st.sampled_from(draw(st.sampled_from(LABEL_POOLS))[: draw(st.integers(1, 6))])
    rows = draw(st.lists(st.tuples(st.tuples(*columns), labels), min_size=1, max_size=40))
    return rows, draw(st.integers(min_value=0, max_value=6))


class TestFitTreeMatchesReference:
    @given(tree_problems())
    @settings(max_examples=400, deadline=None)
    def test_same_tree_as_the_row_by_row_search(self, problem):
        rows, max_depth = problem
        assert_same_tree(rows, max_depth)

    def test_midpoint_of_adjacent_floats_rounds_to_the_left_value(self):
        # (1.0 + ONE_UP) / 2.0 == 1.0, so no row lies left of the only
        # threshold: no split, where splitting by position would separate
        # the classes.
        rows = [((1.0,), "a"), ((ONE_UP,), "b")]
        assert_same_tree(rows, 2)
        assert fit_tree(rows, 2).root == TreeLeaf("a")

    def test_classes_add_up_in_first_row_order_of_each_side(self):
        # A gain of about 1.04e-15 that, up to Python 3.11, only the
        # reference's order of adding classes puts above the 1e-15 stop
        # rule: the left side (x = 0)
        # first meets a, c, b, while the node and the right side meet a, b, c.
        # Adding the classes of every side in one fixed order (by label, by
        # count up or by count down) gives a leaf here.
        groups = [
            ((1.0,), "a", 278),
            ((0.0,), "a", 131),
            ((1.0,), "b", 278),
            ((1.0,), "c", 7975),
            ((0.0,), "c", 3758),
            ((0.0,), "b", 131),
        ]
        rows = [(x, y) for x, y, count in groups for _ in range(count)]
        assert_same_tree(rows, 1)
        # From Python 3.12, sum() compensates its rounding, and this gain
        # falls below the stop rule.
        if sys.version_info < (3, 12):
            expected = TreeSplit(0, 0.5, TreeLeaf("c"), TreeLeaf("c"))
        else:
            expected = TreeLeaf("c")
        assert fit_tree(rows, 1).root == expected

    @pytest.mark.parametrize("seed", [3, 7])
    def test_real_claims_training_rows(self, seed):
        scenario = apps.make_scenario("insurance_claims", 1500, seed)
        rows = sim.training_rows(scenario, "fbp")
        data = [(insurance_claims.claim_features(r["features"]), r["label"]["decision"]) for r in rows]
        model = fit_tree(data, insurance_claims.TREE_DEPTH)
        assert repr(model) == repr(reference_fit_tree(data, insurance_claims.TREE_DEPTH))
        # Both seeds learn the same rule chain, so they pin the same tree.
        assert sha256_hex(repr(model)) == (
            "d80cfd4ed00562f4505cb1839ca37797b5126a56b709668eb663dbefab4217da"
        )


class TestFitTree:
    def test_pure_input_gives_depth_zero_leaf(self):
        model = fit_tree([((1.0,), "A"), ((2.0,), "A")], max_depth=3)
        assert tree_depth(model.root) == 0
        assert predict_tree(model, (5.0,)) == "A"

    def test_one_dimensional_boundary(self):
        # Candidates by hand: midpoints of {1,2,8,9} are 1.5, 5.0, 8.5.
        # Splitting at 5.0 is the only one that separates A from B fully.
        rows = [((1.0,), "A"), ((2.0,), "A"), ((8.0,), "B"), ((9.0,), "B")]
        model = fit_tree(rows, max_depth=3)
        assert model.root.threshold == 5.0
        for x, y in rows:
            assert predict_tree(model, x) == y

    def test_tie_break_prefers_lowest_feature_and_threshold(self):
        # Both features separate the classes equally well; feature 0 wins.
        rows = [((0.0, 0.0), "A"), ((1.0, 1.0), "B")]
        model = fit_tree(rows, max_depth=2)
        assert model.root.feature == 0

    def test_leaf_majority_tie_is_lexicographic(self):
        model = fit_tree([((0.0,), "B"), ((0.0,), "A")], max_depth=2)
        assert predict_tree(model, (0.0,)) == "A"

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_tree([], max_depth=2)

    @pytest.mark.parametrize("max_depth", [-1, 2.5, True, "3", None])
    def test_max_depth_that_is_not_a_non_negative_int_rejected(self, max_depth):
        with pytest.raises(ValueError, match="max_depth must be a non-negative int"):
            fit_tree([((0.0,), "A"), ((1.0,), "B")], max_depth=max_depth)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_rejected_naming_the_row(self, bad):
        rows = [((0.0, 1.0), "A"), ((1.0, 1.0), "B"), ((2.0, bad), "A"), ((3.0, bad), "B")]
        with pytest.raises(ValueError, match=r"fit_tree\(\) row 2 has a non-finite feature"):
            fit_tree(rows, max_depth=2)

    def test_respects_max_depth(self):
        rng = SplitMix64(7)
        rows = [
            ((rng.uniform(0, 1), rng.uniform(0, 1)), "A" if rng.random() < 0.5 else "B")
            for _ in range(64)
        ]
        model = fit_tree(rows, max_depth=3)
        assert tree_depth(model.root) <= 3

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_perfect_fit_when_labels_are_separable(self, seed):
        rng = SplitMix64(derive_seed(seed, "tree"))
        rows = []
        for _ in range(40):
            x = rng.uniform(0, 10)
            y = rng.uniform(0, 10)
            rows.append(((x, y), "hi" if x >= 5 else "lo"))
        model = fit_tree(rows, max_depth=4)
        assert all(predict_tree(model, x) == label for x, label in rows)


class TestBigram:
    def test_single_document_counts(self):
        model = fit_bigram([["a", "b"]])
        assert model.counts == {START: {"a": 1}, "a": {"b": 1}, "b": {END: 1}}

    def test_empty_corpus(self):
        model = fit_bigram([])
        assert model.counts == {}

    def test_repeated_pairs_counted(self):
        # "a b a b": pairs are a->b (x2) and b->a (x1), by manual count.
        model = fit_bigram([["a", "b", "a", "b"]])
        assert model.counts["a"]["b"] == 2
        assert model.counts["b"]["a"] == 1

    @given(st.lists(st.lists(st.sampled_from("abcd"), max_size=6), max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_brute_force(self, docs):
        model = fit_bigram(docs)
        brute: dict = {}
        for doc in docs:
            chain = [START, *doc, END]
            for u, v in zip(chain, chain[1:]):
                brute[(u, v)] = brute.get((u, v), 0) + 1
        flattened = {
            (u, v): c for u, nxt in model.counts.items() for v, c in nxt.items()
        }
        assert flattened == brute

    @given(st.lists(st.lists(st.sampled_from("abcd"), max_size=6), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_add_bigrams_one_document_at_a_time_equals_a_full_fit(self, docs):
        # The bot's running counts after each document equal a refit over
        # every document so far, insertion order of the keys included.
        counts: dict = {}
        for i, doc in enumerate(docs):
            add_bigrams(counts, doc)
            fitted = fit_bigram(docs[: i + 1]).counts
            assert counts == fitted
            assert list(counts) == list(fitted)
            assert all(list(counts[k]) == list(fitted[k]) for k in counts)

    def test_deterministic_corpus_always_regenerates_itself(self):
        model = fit_bigram([["a", "b"]])
        for seed in range(20):
            assert generate(model, SplitMix64(seed), 10) == ["a", "b"]

    def test_empty_model_generates_nothing(self):
        assert generate(fit_bigram([]), SplitMix64(1), 10) == []

    def test_sampling_proportions(self):
        # Monte-Carlo: after "a", both "b" and "c" carry count 1, so the
        # second token should be "b" about half the time.
        model = fit_bigram([["a", "b"], ["a", "c"]])
        hits = 0
        n = 10_000
        for i in range(n):
            out = generate(model, SplitMix64(derive_seed(11, i)), 10)
            assert out[0] == "a"
            if out[1] == "b":
                hits += 1
        assert abs(hits / n - 0.5) <= 0.02

    def test_same_seed_same_output(self):
        model = fit_bigram([["x", "y"], ["x", "z", "y"]])
        assert generate(model, SplitMix64(42), 8) == generate(model, SplitMix64(42), 8)


class TestNearestRank:
    def test_median_of_four(self):
        # Nearest rank: ceil(0.5 * 4) = 2nd value.
        assert nearest_rank([1, 2, 3, 4], 0.5) == 2

    def test_upper_quartile_of_four(self):
        # ceil(0.75 * 4) = 3rd value.
        assert nearest_rank([1, 2, 3, 4], 0.75) == 3

    def test_singleton(self):
        for q in (0.0, 0.3, 1.0):
            assert nearest_rank([7.5], q) == 7.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)

    @pytest.mark.parametrize("q", [-0.1, 1.5, math.nan])
    def test_q_outside_unit_interval_rejected(self, q):
        with pytest.raises(ValueError, match="q"):
            nearest_rank([1.0, 2.0], q)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40),
        st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_q(self, values, qs):
        values = sorted(values)
        qs = sorted(qs)
        results = [nearest_rank(values, q) for q in qs]
        assert results == sorted(results)
