"""Application catalog: four domains, two paradigms, three stages each."""

from __future__ import annotations

from ..sim import Scenario
from . import insurance_claims, mblogger, playlist_builder, ride_allocation
from .base import APP_STAGES, PARADIGMS, ApiRoute, AppVersion, FbpBuild, SoaBuild, StreamRoute, UntrainedModelError

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


def app_version(app: str, paradigm: str, stage: str) -> AppVersion:
    if app not in _MODULES:
        raise ValueError(f"unknown app {app!r}")
    return AppVersion(app, paradigm, stage)


def default_params(app: str) -> dict:
    return dict(_MODULES[app].DEFAULT_PARAMS)


def make_scenario(app: str, ticks: int, seed: int, overrides: dict | None = None) -> Scenario:
    params = default_params(app)
    params.update(overrides or {})
    return Scenario(app=app, ticks=ticks, seed=seed, params=params)


def _builder(version: AppVersion):
    module = _MODULES[version.app]
    return module.build_fbp if version.paradigm == "fbp" else module.build_soa


def build_app(version: AppVersion, scenario: Scenario):
    """A runnable build of one version under `scenario`.

    The ml stage of an app that trains offline (one with a `train` step)
    trains here, before building: a data-stage simulation plus a fit.
    Its build then carries `extras["model"]` and `extras["training_rows"]`.
    """
    train = getattr(_MODULES[version.app], "train", None)
    if version.stage != "ml" or train is None:
        return _builder(version)(version.stage, scenario)
    model, rows = train(version.paradigm, scenario)
    built = _builder(version)(version.stage, scenario, model)
    built.extras.update(model=model, training_rows=rows)
    return built


def build_structure(version: AppVersion, scenario: Scenario):
    """The build of one version for inspection only; never simulates.

    Same graph or registry as `build_app`, but an ml stage that trains
    offline gets no model: its model-serving node or API raises
    `UntrainedModelError` when run.
    """
    return _builder(version)(version.stage, scenario)


def make_world(scenario: Scenario):
    return _WORLDS[scenario.app](scenario)


__all__ = [
    "APP_NAMES",
    "APP_STAGES",
    "PARADIGMS",
    "ApiRoute",
    "AppVersion",
    "FbpBuild",
    "SoaBuild",
    "StreamRoute",
    "UntrainedModelError",
    "app_version",
    "build_app",
    "build_structure",
    "default_params",
    "make_scenario",
    "make_world",
]
