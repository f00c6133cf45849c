"""The rows-only training run against the full data-stage run it replaces.

`sim.training_rows` runs the data stage rows-only: the world is shown only
the observation kinds it declares in `World.observes`, and nothing is
hashed, counted or published. Its rows must equal those of the full run
on the same derived-seed scenario, which hashes and shows the world every
observation.
"""

import pytest

from flowbench import apps, sim
from flowbench.apps import ride_allocation
from flowbench.rng import derive_seed
from flowbench.sim import Scenario, execute

TRAINED_APPS = tuple(app for app in apps.APP_NAMES if hasattr(getattr(apps, app), "fit_model"))


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
    assert sim.training_rows(app, paradigm, scenario) == full_rows(app, paradigm, scenario)


@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
def test_ride_rows_depend_on_the_declared_kinds(paradigm, monkeypatch):
    # The ride world schedules pickups and completions from the assignments
    # it observes; shown none, it trains on different rows.
    scenario = apps.make_scenario("ride_allocation", 300, 3)
    expected = full_rows("ride_allocation", paradigm, scenario)
    assert expected
    monkeypatch.setattr(ride_allocation.RideWorld, "observes", ())
    assert sim.training_rows("ride_allocation", paradigm, scenario) != expected


@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
@pytest.mark.parametrize("app", TRAINED_APPS)
def test_rows_only_run_keeps_only_the_rows(app, paradigm, monkeypatch):
    def refuse(*args):
        raise AssertionError("a rows-only run published its dataset")

    monkeypatch.setattr(sim, "publish_rows", refuse)
    scenario = apps.make_scenario(app, 60, 3)
    result = execute(scenario, apps.app_version(app, paradigm, "data"), rows_only=True)
    assert result.dataset_rows
    assert (result.observations, result.counts, result.digests) == ({}, {}, {})


@pytest.mark.parametrize(
    "rows_only, kinds",
    ((True, {"assignment"}), (False, {"assignment", "pickup_wait", "wait_estimate"})),
)
@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
def test_rows_only_run_shows_the_world_only_declared_kinds(paradigm, rows_only, kinds, monkeypatch):
    shown = set()
    observe = ride_allocation.RideWorld.observe

    def recorded(self, tick, docs):
        shown.update(doc["kind"] for doc in docs)
        return observe(self, tick, docs)

    monkeypatch.setattr(ride_allocation.RideWorld, "observe", recorded)
    scenario = apps.make_scenario("ride_allocation", 60, 3)
    execute(scenario, apps.app_version("ride_allocation", paradigm, "ml"), rows_only=rows_only)
    assert shown == kinds


@pytest.mark.parametrize("paradigm", apps.PARADIGMS)
@pytest.mark.parametrize("app", TRAINED_APPS)
def test_no_training_rows_is_a_value_error_naming_the_run(app, paradigm):
    scenario = apps.make_scenario(app, 0, 5)
    with pytest.raises(apps.NoTrainingRowsError, match="collected no rows") as info:
        apps.build_app(apps.app_version(app, paradigm, "ml"), scenario)
    assert isinstance(info.value, ValueError)
    for part in (app, paradigm, "ticks=0", "seed=5"):
        assert part in str(info.value)
