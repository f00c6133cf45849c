"""Learners: regression, tree, bigram, quantiles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench.mlkit import (
    END,
    START,
    LinearModel,
    QuantileSketch,
    fit_bigram,
    fit_linear,
    fit_tree,
    generate,
    predict_linear,
    predict_tree,
    quantile,
)
from flowbench.rng import SplitMix64, derive_seed


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


class TestFitTree:
    def test_pure_input_gives_depth_zero_leaf(self):
        model = fit_tree([((1.0,), "A"), ((2.0,), "A")], max_depth=3)
        assert model.depth() == 0
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

    def test_respects_max_depth(self):
        rng = SplitMix64(7)
        rows = [
            ((rng.uniform(0, 1), rng.uniform(0, 1)), "A" if rng.random() < 0.5 else "B")
            for _ in range(64)
        ]
        model = fit_tree(rows, max_depth=3)
        assert model.depth() <= 3

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


class TestQuantile:
    def test_median_of_four(self):
        # Nearest rank: ceil(0.5 * 4) = 2nd value.
        assert quantile(QuantileSketch.from_values([1, 2, 3, 4]), 0.5) == 2

    def test_upper_quartile_of_four(self):
        # ceil(0.75 * 4) = 3rd value.
        assert quantile(QuantileSketch.from_values([1, 2, 3, 4]), 0.75) == 3

    def test_singleton(self):
        sk = QuantileSketch.from_values([7.5])
        for q in (0.0, 0.3, 1.0):
            assert quantile(sk, q) == 7.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile(QuantileSketch.from_values([]), 0.5)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40),
        st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_q(self, values, qs):
        sk = QuantileSketch.from_values(values)
        qs = sorted(qs)
        results = [quantile(sk, q) for q in qs]
        assert results == sorted(results)
