"""The deterministic generator: its draws follow the splitmix64 chain of
`_mix64`, seeds and int seed label parts outside [0, 2**64) are refused,
and Poisson draws refuse rates they cannot sample."""

import math
import re
from itertools import cycle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowbench import apps
from flowbench.rng import _GAMMA, MASK64, SplitMix64, _mix64, checked_rate, derive_seed
from flowbench.sim import execute, run_scenario
from util_claims import sample_claims

EDGE_SEEDS = [0, 1, 2**64 - 1]


def _reference_chain(seed):
    """The splitmix64 outputs for `seed`, built from `_mix64` alone."""
    state = seed
    while True:
        state = (state + _GAMMA) & MASK64
        yield _mix64(state)


def _unit(u64):
    return (u64 >> 11) / 2**53


class _ScalarOracle:
    """The generator's methods written over `_reference_chain`, one draw at
    a time, with the state stepped by `_GAMMA` per draw: the oracle of the
    batched `SplitMix64`."""

    def __init__(self, seed):
        self.state, self.draws, self._chain = seed, 0, _reference_chain(seed)

    def next_u64(self):
        self.state = (self.state + _GAMMA) & MASK64
        self.draws += 1
        return next(self._chain)

    def random(self):
        return _unit(self.next_u64())

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random()

    def randrange(self, n):
        return self.next_u64() % n

    def sample(self, seq, k):
        pool = list(seq)
        return [pool.pop(self.randrange(len(pool))) for _ in range(min(k, len(pool)))]

    def poisson(self, lam):
        k, p = 0, 1.0
        if lam == 0:
            return 0
        while True:
            p *= self.random()
            if p <= math.exp(-lam):
                return k
            k += 1


SEEDS = st.integers(0, MASK64)
CALLS = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    st.tuples(st.just("randrange"), st.integers(1, 2**70)),
    st.tuples(st.just("poisson"), st.one_of(st.floats(0.0, 40.0), st.integers(0, 12))),
    st.tuples(st.just("sample"), st.integers(0, 12).map(range), st.integers(0, 15)),
)
# Past the 4-, 16- and 64-lane batches and two 128-lane ones, so every
# batch size is computed and the largest one refilled.
CROSSES_EVERY_BATCH = 4 + 16 + 64 + 2 * 128


class TestBatchesMatchScalarOracle:
    @given(seed=SEEDS, calls=st.lists(CALLS, min_size=1, max_size=40))
    @example(seed=0, calls=[("random",)])
    @example(seed=1, calls=[("next_u64",), ("poisson", 0.0), ("sample", range(3), 0)])
    @example(seed=MASK64, calls=[("sample", range(12), 15), ("poisson", 3.5)])
    @settings(max_examples=60, deadline=None)
    def test_interleaved_calls_give_the_scalar_outputs_and_states(self, seed, calls):
        rng, oracle = SplitMix64(seed), _ScalarOracle(seed)
        assert rng.state == seed
        # The calls repeat in order until the draws cross every batch size; a
        # plain draw ends each round so that a round always draws.
        for name, *args in cycle([*calls, ("next_u64",)]):
            got, want = getattr(rng, name)(*args), getattr(oracle, name)(*args)
            assert (type(got), got) == (type(want), want), (name, args, oracle.draws)
            assert rng.state == oracle.state, (name, args, oracle.draws)
            if oracle.draws > CROSSES_EVERY_BATCH:
                break

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_batches_grow_from_four_lanes(self, seed):
        # Lanes computed so far, read off the state after the current
        # batch's last lane: a generator drawing once computes four.
        rng, per_gamma = SplitMix64(seed), pow(_GAMMA, -1, 2**64)
        computed = []
        for _ in range(CROSSES_EVERY_BATCH):
            rng.next_u64()
            computed.append((rng._end - seed) * per_gamma & MASK64)
        assert computed[0] == 4
        assert sorted(set(computed)) == [4, 20, 84, 212, 340]

    def test_state_is_read_only(self):
        with pytest.raises(AttributeError):
            SplitMix64(1).state = 2


class TestBadArgumentsAreRefused:
    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, "3", None, 0, -1])
    def test_randrange_n(self, n):
        rng = SplitMix64(1)
        with pytest.raises(ValueError, match=r"randrange\(\) n must be"):
            rng.randrange(n)
        assert rng.state == 1

    @pytest.mark.parametrize("k", [-1, -5, 1.0, True, "2", None])
    def test_sample_k(self, k):
        rng = SplitMix64(1)
        with pytest.raises(ValueError, match=r"sample\(\) k must be"):
            rng.sample([1, 2, 3], k)
        assert rng.state == 1


class TestDrawsMatchReferenceChain:
    def test_first_output_of_seed_zero_is_splitmix64s(self):
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_next_u64_random_uniform_randrange(self, seed):
        rng, ref = SplitMix64(seed), _reference_chain(seed)
        for _ in range(64):
            assert rng.next_u64() == next(ref)
            assert rng.random() == _unit(next(ref))
            assert rng.uniform(-2.0, 5.0) == -2.0 + 7.0 * _unit(next(ref))
            assert rng.randrange(7) == next(ref) % 7
            assert rng.randrange(2**64) == next(ref)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_poisson(self, seed):
        rng, ref = SplitMix64(seed), _reference_chain(seed)
        for lam in (0.5, 3.5, 40.0) * 20:
            k, p = 0, _unit(next(ref))
            while p > math.exp(-lam):
                k += 1
                p *= _unit(next(ref))
            assert rng.poisson(lam) == k


class TestSeedRange:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edges_are_accepted(self, seed):
        assert SplitMix64(seed).state == seed
        assert 0 <= derive_seed(seed, "x", 3) <= MASK64

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, -(2**64), True, False, 1.0, "1", None])
    def test_outside_or_not_an_int_is_refused(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SplitMix64(seed)
        with pytest.raises(ValueError, match="seed"):
            derive_seed(seed, "x")

    @pytest.mark.parametrize("part", [True, False, -1, 2**64, 2**64 + 5, -(2**64), 1.0, None, b"x", ("a",)])
    def test_label_part_outside_or_not_an_int_or_str_is_refused(self, part):
        with pytest.raises(ValueError, match=re.escape(repr(part))):
            derive_seed(1, "x", part)

    def test_label_parts_at_the_edges_are_accepted_and_do_not_alias(self):
        assert len({derive_seed(1, part) for part in (0, 1, 5, MASK64, "1", "")}) == 6

    def test_no_seed_aliases_another(self):
        with pytest.raises(ValueError, match="seed"):
            sample_claims(2**64 + 1, 3)
        assert sample_claims(1, 3) == sample_claims(1, 3)


class TestPoisson:
    def test_zero_rate_is_zero_and_draws_nothing(self):
        rng = SplitMix64(5)
        assert rng.poisson(0.0) == 0
        assert rng.state == SplitMix64(5).state

    def test_largest_accepted_rate_is_not_capped(self):
        rng = SplitMix64(5)
        mean = sum(rng.poisson(700.0) for _ in range(40)) / 40
        assert abs(mean - 700.0) < 30.0

    @pytest.mark.parametrize("lam", [1000.0, 700.5, -1.0, math.inf, -math.inf, math.nan, True, "1.2", None])
    def test_rate_it_cannot_sample_is_refused(self, lam):
        with pytest.raises(ValueError, match="lam"):
            SplitMix64(5).poisson(lam)

    def test_an_int_rate_is_widened_and_runs_as_its_float(self):
        assert type(checked_rate("claim_rate", 4)) is float
        version = apps.app_version("insurance_claims", "fbp", "min")
        as_int, as_float = (
            run_scenario(apps.make_scenario("insurance_claims", 30, 1, {"claim_rate": rate}), version)
            for rate in (4, 4.0)
        )
        assert as_int == as_float

    @pytest.mark.parametrize("rate", [1000.0, math.nan])
    def test_world_with_such_a_rate_fails_the_run(self, rate):
        scenario = apps.make_scenario("insurance_claims", 5, 1, {"claim_rate": rate})
        with pytest.raises(ValueError, match="claim_rate"):
            execute(scenario, apps.app_version("insurance_claims", "fbp", "min"))
