"""Structure-only builds: manifests, diffs and graph export never train.

`apps.build_structure` gives the graph or registry of a version without
running any simulation; the ml stage of an app that trains offline gets
no model and refuses to run. `apps.build_app` trains first and is the
oracle for the structure.
"""

import pytest

from flowbench import apps, metrics, sim
from flowbench.apps import UntrainedModelError
from flowbench.cli import main
from flowbench.runtime import NodeError
from flowbench.services import HandlerError

OFFLINE_APPS = ("insurance_claims", "ride_allocation")
VERSIONS = [
    (app, paradigm, stage)
    for app in apps.APP_NAMES
    for paradigm in apps.PARADIGMS
    for stage in apps.APP_STAGES
]


def _forbid_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a structure-only path simulated")

    monkeypatch.setattr(sim, "training_rows", refuse)
    monkeypatch.setattr(sim, "execute", refuse)


@pytest.mark.parametrize("app,paradigm,stage", VERSIONS)
def test_structure_manifest_equals_trained_build_manifest(app, paradigm, stage):
    version = apps.app_version(app, paradigm, stage)
    scenario = apps.make_scenario(app, metrics.MANIFEST_TICKS, metrics.MANIFEST_SEED)
    built = apps.build_app(version, scenario)
    if paradigm == "fbp":
        trained = metrics.fbp_manifest(built.graph, version.key)
    else:
        trained = metrics.soa_manifest(built.registry, version.key)
    assert metrics.manifest(version) == trained


class TestNoSimulation:
    @pytest.mark.parametrize("app,paradigm,stage", VERSIONS)
    def test_manifest(self, monkeypatch, app, paradigm, stage):
        _forbid_simulation(monkeypatch)
        assert metrics.manifest(apps.app_version(app, paradigm, stage)).components

    @pytest.mark.parametrize("app", OFFLINE_APPS)
    @pytest.mark.parametrize("paradigm", apps.PARADIGMS)
    def test_cli_diff(self, monkeypatch, capsys, app, paradigm):
        _forbid_simulation(monkeypatch)
        assert main(["diff", app, "data", "ml", "--paradigm", paradigm]) == 0
        assert "affected_count" in capsys.readouterr().out

    @pytest.mark.parametrize("app", OFFLINE_APPS)
    def test_cli_graph(self, monkeypatch, capsys, app):
        _forbid_simulation(monkeypatch)
        assert main(["graph", app, "ml"]) == 0
        assert capsys.readouterr().out.startswith("digraph flow {")


class TestTraining:
    @pytest.mark.parametrize("app", OFFLINE_APPS)
    @pytest.mark.parametrize("paradigm", apps.PARADIGMS)
    def test_build_app_trains_once(self, monkeypatch, app, paradigm):
        calls, returned = [], []
        training_rows = sim.training_rows

        def counted(*args):
            calls.append(args)
            returned.append(training_rows(*args))
            return returned[-1]

        monkeypatch.setattr(sim, "training_rows", counted)
        scenario = apps.make_scenario(app, 30, 5)
        built = apps.build_app(apps.app_version(app, paradigm, "ml"), scenario)
        assert calls == [(app, paradigm, scenario)]
        assert returned[0]
        # The build carries the model, not the rows it was fitted to.
        assert built.model is not None
        assert all(value is not returned[0] for value in vars(built).values())

    @pytest.mark.parametrize("app", OFFLINE_APPS)
    @pytest.mark.parametrize("paradigm", apps.PARADIGMS)
    def test_running_a_structure_only_build_refuses(self, monkeypatch, app, paradigm):
        # Drive the structure-only build through the ordinary tick loop.
        monkeypatch.setattr(apps, "build_app", apps.build_structure)
        scenario = apps.make_scenario(app, 20, 5)
        wrapper = NodeError if paradigm == "fbp" else HandlerError
        with pytest.raises(wrapper, match=f"{app} {paradigm} ml was built for structure only") as err:
            sim.run_scenario(scenario, apps.app_version(app, paradigm, "ml"))
        assert isinstance(err.value.cause, UntrainedModelError)
