"""Fuzzed scenario params: both paradigms run and agree at the min stage.

For each app, random world params (zero and large rates, zero to three
drivers, tiny catalogues) must neither crash the fbp nor the soa build,
and their observation digests must be equal, which is what `flowbench
equiv` checks. Params a world cannot generate from are refused at
construction with a `ValueError` naming the parameter, and so are counts
that are not ints and scales that are not finite: nothing is truncated.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench import apps
from flowbench.sim import run_scenario

RATES = st.one_of(st.sampled_from([0.0, 0.05, 1.0]), st.floats(0.0, 20.0))
TICKS = st.integers(0, 25)
SEEDS = st.integers(0, 2**64 - 1)

PARAMS = {
    "insurance_claims": st.fixed_dictionaries({"claim_rate": st.one_of(RATES, st.just(50.0))}),
    "mblogger": st.fixed_dictionaries(
        {
            "n_users": st.integers(1, 4),
            "follow_rate": RATES,
            "post_rate": RATES,
            "request_rate": RATES,
            "bot_user": st.sampled_from(["u0", "u3", "nobody"]),
        }
    ),
    "playlist_builder": st.fixed_dictionaries(
        {
            "genres": st.lists(
                st.sampled_from(["action", "comedy", "drama", "noir"]), min_size=1, max_size=3
            ).map(tuple),
            "movie_rate": RATES,
            "request_rate": RATES,
        }
    ),
    "ride_allocation": st.fixed_dictionaries(
        {
            "n_drivers": st.integers(0, 3),
            "request_rate": RATES,
            "noise": st.sampled_from([0.0, 1.0, 3.0]),
            "world_size": st.sampled_from([0.0, 1.0, 8.0]),
        }
    ),
}


@pytest.mark.parametrize("app", apps.APP_NAMES)
def test_paradigms_agree_at_min_on_random_params(app):
    @settings(max_examples=25, deadline=None)
    @given(params=PARAMS[app], ticks=TICKS, seed=SEEDS)
    def check(params, ticks, seed):
        scenario = apps.make_scenario(app, ticks, seed, params)
        fbp = run_scenario(scenario, apps.app_version(app, "fbp", "min"))
        soa = run_scenario(scenario, apps.app_version(app, "soa", "min"))
        assert fbp.digests == soa.digests

    check()


@pytest.mark.parametrize(
    "app,params,name",
    [
        ("mblogger", {"n_users": 0}, "n_users"),
        ("playlist_builder", {"genres": ()}, "genres"),
    ]
    + [("ride_allocation", {"n_drivers": bad}, "n_drivers") for bad in (-3, 2.7, True)]
    + [("mblogger", {"n_users": bad}, "n_users") for bad in (2.5, True)]
    + [
        ("ride_allocation", {param: bad}, param)
        for param in ("noise", "world_size")
        for bad in (-1.0, math.nan, math.inf, -math.inf, True, "1e3")
    ]
    + [
        (app, {param: rate}, param)
        for app, param in (
            ("insurance_claims", "claim_rate"),
            ("ride_allocation", "request_rate"),
            ("mblogger", "follow_rate"),
            ("mblogger", "post_rate"),
            ("mblogger", "request_rate"),
            ("playlist_builder", "movie_rate"),
            ("playlist_builder", "request_rate"),
        )
        for rate in (-1.0, math.nan, math.inf, -math.inf, 700.5)
    ],
)
def test_world_refuses_params_it_cannot_draw_from(app, params, name):
    scenario = apps.make_scenario(app, 5, 1, params)
    with pytest.raises(ValueError, match=name):
        apps.make_world(scenario)
    with pytest.raises(ValueError, match=name):
        run_scenario(scenario, apps.app_version(app, "fbp", "min"))
