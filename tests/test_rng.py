"""The deterministic generator: Poisson draws refuse rates they cannot sample."""

import math

import pytest

from flowbench import apps
from flowbench.rng import SplitMix64
from flowbench.sim import execute


class TestPoisson:
    def test_zero_rate_is_zero_and_draws_nothing(self):
        rng = SplitMix64(5)
        assert rng.poisson(0.0) == 0
        assert rng.state == SplitMix64(5).state

    def test_largest_accepted_rate_is_not_capped(self):
        rng = SplitMix64(5)
        mean = sum(rng.poisson(700.0) for _ in range(40)) / 40
        assert abs(mean - 700.0) < 30.0

    @pytest.mark.parametrize("lam", [1000.0, 700.5, -1.0, math.inf, -math.inf, math.nan])
    def test_rate_it_cannot_sample_is_refused(self, lam):
        with pytest.raises(ValueError, match="lam"):
            SplitMix64(5).poisson(lam)

    @pytest.mark.parametrize("rate", [1000.0, math.nan])
    def test_world_with_such_a_rate_fails_the_run(self, rate):
        scenario = apps.make_scenario("insurance_claims", 5, 1, {"claim_rate": rate})
        with pytest.raises(ValueError, match="claim_rate"):
            execute(scenario, apps.app_version("insurance_claims", "fbp", "min"))
