"""The rows-only training run against the full data-stage run it replaces,
and the fit that `sim.train` makes of its rows.

`sim.training_rows` runs the data stage rows-only: the world is shown only
the observation kinds it declares in `World.observes`, and nothing is
hashed, counted or published. Its rows must equal those of the full run
on the same derived-seed scenario, which hashes and shows the world every
observation. Both paradigms collect the same rows, so they train the same
model.
"""

import pytest

from flowbench import apps, sim
from flowbench.apps import Scenario, ride_allocation
from flowbench.canon import canonical_json
from flowbench.rng import derive_seed
from flowbench.sim import execute

TRAINED_APPS = tuple(app for app in apps.APP_NAMES if hasattr(getattr(apps, app), "fit_model"))


def counted(calls: list):
    """`canonical_json`, recording each document it is given in `calls`."""

    def encode(obj, flat=None):
        calls.append(obj)
        return canonical_json(obj, flat)

    return encode


def full_rows(app: str, paradigm: str, scenario: Scenario) -> list[dict]:
    """The rows of the full data-stage run on the training scenario."""
    train = Scenario(app, scenario.ticks, derive_seed(scenario.seed, "train"), dict(scenario.params))
    return execute(train, apps.app_version(app, paradigm, "data")).dataset_rows


@pytest.mark.parametrize("ticks", (0, 5, 300))
@pytest.mark.parametrize("seed", (1, 3, 7))
@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
@pytest.mark.parametrize("app", TRAINED_APPS)
def test_training_rows_equal_the_full_run(app, paradigm, seed, ticks):
    scenario = apps.make_scenario(app, ticks, seed)
    assert sim.training_rows(scenario, paradigm) == full_rows(app, paradigm, scenario)


@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
def test_ride_rows_depend_on_the_declared_kinds(paradigm, monkeypatch):
    # The ride world schedules pickups and completions from the assignments
    # it observes; shown none, it trains on different rows.
    scenario = apps.make_scenario("ride_allocation", 300, 3)
    expected = full_rows("ride_allocation", paradigm, scenario)
    assert expected
    monkeypatch.setattr(ride_allocation.RideWorld, "observes", ())
    assert sim.training_rows(scenario, paradigm) != expected


@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
@pytest.mark.parametrize("app", TRAINED_APPS)
def test_rows_only_run_keeps_only_the_rows(app, paradigm, monkeypatch):
    def refuse(*args):
        raise AssertionError("a rows-only run published its dataset")

    monkeypatch.setattr(sim, "publish_rows", refuse)
    scenario = apps.make_scenario(app, 60, 3)
    result = execute(scenario, apps.app_version(app, paradigm, "data"), rows_only=True)
    assert result.dataset_rows
    assert (result.counts, result.digests) == ({}, {})


@pytest.mark.parametrize(
    "rows_only, kinds",
    ((True, {"assignment"}), (False, {"assignment", "pickup_wait", "wait_estimate"})),
)
@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
def test_rows_only_run_shows_the_world_only_declared_kinds(paradigm, rows_only, kinds, monkeypatch):
    # Each observation the world is shown is encoded once, and no other is made.
    shown, encoded = [], []
    observe = ride_allocation.RideWorld.observe

    def recorded(self, tick, observations):
        shown.extend(kind for kind, _ in observations)
        return observe(self, tick, observations)

    monkeypatch.setattr(ride_allocation.RideWorld, "observe", recorded)
    monkeypatch.setattr(sim, "canonical_json", counted(encoded))
    scenario = apps.make_scenario("ride_allocation", 60, 3)
    execute(scenario, apps.app_version("ride_allocation", paradigm, "ml"), rows_only=rows_only)
    assert set(shown) == kinds
    assert len(encoded) == len(shown)


@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
def test_a_rows_only_claims_run_encodes_no_observation(paradigm, monkeypatch):
    # The claims world observes nothing, so the drivers observe no decision.
    encoded = []
    monkeypatch.setattr(sim, "canonical_json", counted(encoded))
    scenario = apps.make_scenario("insurance_claims", 60, 3)
    result = execute(scenario, apps.app_version("insurance_claims", paradigm, "data"), rows_only=True)
    assert result.dataset_rows
    assert encoded == []


@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
@pytest.mark.parametrize("app", TRAINED_APPS)
def test_no_training_rows_is_a_value_error_naming_the_run(app, paradigm):
    scenario = apps.make_scenario(app, 0, 5)
    with pytest.raises(apps.NoTrainingRowsError, match="collected no rows") as info:
        sim.train(scenario, apps.app_version(app, paradigm, "ml"))
    assert isinstance(info.value, ValueError)
    for part in (app, paradigm, "ticks=0", "seed=5"):
        assert part in str(info.value)


@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
@pytest.mark.parametrize("app", TRAINED_APPS)
def test_a_run_with_no_training_rows_refuses(app, paradigm):
    scenario = apps.make_scenario(app, 0, 5)
    with pytest.raises(apps.NoTrainingRowsError, match="collected no rows"):
        sim.run_scenario(scenario, apps.app_version(app, paradigm, "ml"))


@pytest.mark.parametrize("seed", (1, 5, 9))
@pytest.mark.parametrize("app", TRAINED_APPS)
def test_both_paradigms_train_equal_models_from_equal_rows(app, seed):
    scenario = apps.make_scenario(app, 200, seed)
    rows = {p: sim.training_rows(scenario, p) for p in apps.PARADIGMS}
    models = {p: sim.train(scenario, apps.app_version(app, p, "ml")) for p in apps.PARADIGMS}
    assert rows["fbp"] and rows["fbp"] == rows["soa"]
    assert models["fbp"] is not None and models["fbp"] == models["soa"]


@pytest.mark.parametrize("app", apps.APP_NAMES)
def test_only_the_ml_stage_of_an_offline_app_trains(app):
    scenario = apps.make_scenario(app, 30, 5)
    for paradigm in apps.PARADIGMS:
        for stage in apps.APP_STAGES:
            fit_model = apps.trainer(apps.app_version(app, paradigm, stage), scenario)
            assert (fit_model is not None) == (stage == "ml" and app in TRAINED_APPS)
