"""Building never simulates; training is a step of the run.

`apps.build_app` gives the graph or registry of a version without running
any simulation; the ml stage of an app that trains offline serves the
model it is given, and without one refuses to run. `sim.train` fits that
model, and `sim.execute` trains, then builds, once per run.
"""

import pytest

from flowbench import apps, metrics, sim
from flowbench.apps import UntrainedModelError
from flowbench.cli import main
from flowbench.runtime import NodeError
from flowbench.services import HandlerError
from util_runs import forbid_simulation

OFFLINE_APPS = ("insurance_claims", "ride_allocation")
VERSIONS = [
    (app, paradigm, stage)
    for app in apps.APP_NAMES
    for paradigm in apps.PARADIGMS
    for stage in apps.APP_STAGES
]


@pytest.mark.parametrize("app,paradigm,stage", VERSIONS)
def test_structure_manifest_equals_trained_build_manifest(app, paradigm, stage):
    version = apps.app_version(app, paradigm, stage)
    scenario = apps.make_scenario(app, metrics.MANIFEST_TICKS, metrics.MANIFEST_SEED)
    built = apps.build_app(version, scenario, sim.train(scenario, version))
    if paradigm == "fbp":
        trained = metrics.fbp_manifest(built.graph, version.key)
    else:
        trained = metrics.soa_manifest(built.registry, version.key)
    assert metrics.manifest(version) == trained


class TestNoSimulation:
    @pytest.mark.parametrize("app,paradigm,stage", VERSIONS)
    def test_build_app(self, monkeypatch, app, paradigm, stage):
        forbid_simulation(monkeypatch)
        built = apps.build_app(apps.app_version(app, paradigm, stage), apps.make_scenario(app, 30, 5))
        assert built.graph.streams if paradigm == "fbp" else built.routes

    @pytest.mark.parametrize("app,paradigm,stage", VERSIONS)
    def test_manifest(self, monkeypatch, app, paradigm, stage):
        forbid_simulation(monkeypatch)
        assert metrics.manifest(apps.app_version(app, paradigm, stage)).components

    @pytest.mark.parametrize("app", OFFLINE_APPS)
    @pytest.mark.parametrize("paradigm", apps.PARADIGMS)
    def test_cli_diff(self, monkeypatch, capsys, app, paradigm):
        forbid_simulation(monkeypatch)
        assert main(["diff", app, "data", "ml", "--paradigm", paradigm]) == 0
        assert "affected_count" in capsys.readouterr().out

    @pytest.mark.parametrize("app", OFFLINE_APPS)
    def test_cli_graph(self, monkeypatch, capsys, app):
        forbid_simulation(monkeypatch)
        assert main(["graph", app, "ml"]) == 0
        assert capsys.readouterr().out.startswith("digraph flow {")


class TestGivenModel:
    # Only a version that trains offline is built with a given model; any
    # other refuses it, naming itself, instead of failing in its builder or
    # dropping the model.
    @pytest.mark.parametrize("app,paradigm,stage", VERSIONS)
    def test_build_app(self, monkeypatch, app, paradigm, stage):
        forbid_simulation(monkeypatch)
        version, scenario = apps.app_version(app, paradigm, stage), apps.make_scenario(app, 30, 5)
        trains = stage == "ml" and app in OFFLINE_APPS
        assert (apps.trainer(version, scenario) is not None) == trains
        model = object()
        if trains:
            built = apps.build_app(version, scenario, model)
            assert built.graph.streams if paradigm == "fbp" else built.routes
        else:
            with pytest.raises(ValueError, match=f"^{version.key} trains no model and cannot be given one$"):
                apps.build_app(version, scenario, model)


class TestTraining:
    @pytest.mark.parametrize("stage", apps.APP_STAGES)
    @pytest.mark.parametrize("app", OFFLINE_APPS)
    @pytest.mark.parametrize("paradigm", apps.PARADIGMS)
    def test_execute_trains_an_ml_run_once(self, monkeypatch, app, paradigm, stage):
        calls, returned = [], []
        training_rows = sim.training_rows

        def counted(*args):
            calls.append(args)
            returned.append(training_rows(*args))
            return returned[-1]

        monkeypatch.setattr(sim, "training_rows", counted)
        scenario = apps.make_scenario(app, 30, 5)
        result = sim.execute(scenario, apps.app_version(app, paradigm, stage))
        if stage != "ml":
            assert calls == [] and result.model is None
            return
        assert calls == [(scenario, paradigm)]
        assert returned[0]
        # The run keeps the model, not the rows it was fitted to.
        assert result.model is not None
        assert all(value is not returned[0] for value in (*result, *vars(result.built).values()))

    @pytest.mark.parametrize("app", OFFLINE_APPS)
    @pytest.mark.parametrize("paradigm", apps.PARADIGMS)
    def test_running_a_build_without_a_model_refuses(self, monkeypatch, app, paradigm):
        # Drive the model-less build through the ordinary tick loop.
        monkeypatch.setattr(sim, "train", lambda scenario, version: None)
        scenario = apps.make_scenario(app, 20, 5)
        wrapper = NodeError if paradigm == "fbp" else HandlerError
        with pytest.raises(wrapper, match=f"{app} {paradigm} ml was built without a model") as err:
            sim.run_scenario(scenario, apps.app_version(app, paradigm, "ml"))
        assert isinstance(err.value.cause, UntrainedModelError)
        assert "sim.run_scenario" in str(err.value.cause)


class TestAppMismatch:
    # A scenario of one app builds or trains no version of another, on any
    # path, and the check comes before anything trains.
    CASES = [
        (("insurance_claims", "fbp", "min"), "ride_allocation"),
        (("mblogger", "fbp", "ml"), "ride_allocation"),
        (("ride_allocation", "soa", "ml"), "insurance_claims"),
    ]
    CALLS = {
        "build_app": apps.build_app,
        "trainer": apps.trainer,
        "train": lambda version, scenario: sim.train(scenario, version),
    }

    @pytest.mark.parametrize("version,other", CASES)
    def test_manifest_refuses(self, monkeypatch, version, other):
        forbid_simulation(monkeypatch)
        with pytest.raises(ValueError, match=f"a scenario of '{other}' cannot run a version of '{version[0]}'"):
            metrics.manifest(apps.app_version(*version), apps.make_scenario(other, 20, 1))

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("version,other", CASES)
    def test_builds_refuse_before_training(self, monkeypatch, call, version, other):
        forbid_simulation(monkeypatch)
        with pytest.raises(ValueError, match=f"a scenario of '{other}' cannot run a version of '{version[0]}'"):
            self.CALLS[call](apps.app_version(*version), apps.make_scenario(other, 20, 1))
