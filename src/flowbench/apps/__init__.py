"""Application catalog: four domains, two paradigms, three stages each."""

from __future__ import annotations

from .. import sim
from ..sim import Scenario
from . import insurance_claims, mblogger, playlist_builder, ride_allocation
from .base import APP_STAGES, PARADIGMS, ApiRoute, AppVersion, FbpBuild, NoTrainingRowsError, SoaBuild, UntrainedModelError

_MODULES = {
    "insurance_claims": insurance_claims,
    "mblogger": mblogger,
    "playlist_builder": playlist_builder,
    "ride_allocation": ride_allocation,
}

_WORLDS = {
    "insurance_claims": insurance_claims.ClaimsWorld,
    "mblogger": mblogger.BloggerWorld,
    "playlist_builder": playlist_builder.PlaylistWorld,
    "ride_allocation": ride_allocation.RideWorld,
}

APP_NAMES = tuple(sorted(_MODULES))


def _known(app: str) -> str:
    """`app` if the catalog has it, else `ValueError` naming it."""
    if app not in _MODULES:
        raise ValueError(f"unknown app {app!r}")
    return app


def app_version(app: str, paradigm: str, stage: str) -> AppVersion:
    return AppVersion(_known(app), paradigm, stage)


def default_params(app: str) -> dict:
    return dict(_MODULES[_known(app)].DEFAULT_PARAMS)


def make_scenario(app: str, ticks: int, seed: int, overrides: dict | None = None) -> Scenario:
    params = default_params(app)
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(params))
    if unknown:
        raise ValueError(f"unknown {app} scenario params {unknown}")
    params.update(overrides)
    return Scenario(app=app, ticks=ticks, seed=seed, params=params)


def _builder(version: AppVersion, scenario: Scenario):
    if version.app != scenario.app:
        raise ValueError(f"a scenario of {scenario.app!r} cannot run a version of {version.app!r}")
    module = _MODULES[version.app]
    return module.build_fbp if version.paradigm == "fbp" else module.build_soa


def build_app(version: AppVersion, scenario: Scenario):
    """A runnable build of one version under `scenario`.

    The ml stage of an app that trains offline (one with a `fit_model`)
    trains here, before building: a data-stage simulation plus a fit.
    Its build carries only the model, as `built.model`: `sim.training_rows`
    gives the rows again. A run that collects none raises `NoTrainingRowsError`.
    A scenario of one app with a version of another raises `ValueError`.
    """
    build = _builder(version, scenario)
    fit_model = getattr(_MODULES[version.app], "fit_model", None)
    if version.stage != "ml" or fit_model is None:
        return build(version.stage, scenario)
    rows = sim.training_rows(version.app, version.paradigm, scenario)
    if not rows:
        raise NoTrainingRowsError(
            f"{version.app} {version.paradigm} ml: the training run collected no rows"
            f" (ticks={scenario.ticks}, seed={scenario.seed}); run more ticks to train"
        )
    model = fit_model(rows)
    built = build(version.stage, scenario, model)
    built.model = model
    return built


def build_structure(version: AppVersion, scenario: Scenario):
    """The build of one version for inspection only; never simulates.

    Same graph or registry as `build_app`, but an ml stage that trains
    offline gets no model: its model-serving node or API raises
    `UntrainedModelError` when run. A scenario of another app raises
    `ValueError`, as in `build_app`.
    """
    return _builder(version, scenario)(version.stage, scenario)


def make_world(scenario: Scenario):
    return _WORLDS[_known(scenario.app)](scenario)


__all__ = [
    "APP_NAMES",
    "APP_STAGES",
    "PARADIGMS",
    "ApiRoute",
    "AppVersion",
    "FbpBuild",
    "NoTrainingRowsError",
    "SoaBuild",
    "UntrainedModelError",
    "app_version",
    "build_app",
    "build_structure",
    "default_params",
    "make_scenario",
    "make_world",
]
