"""Application catalog: four domains, two paradigms, three stages each."""

from __future__ import annotations

from . import insurance_claims, mblogger, playlist_builder, ride_allocation
from .base import (
    APP_STAGES, PARADIGMS, ApiRoute, AppVersion, Event, FbpBuild, NoTrainingRowsError, Scenario, SoaBuild,
    UntrainedModelError,
)

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


def _module(version: AppVersion, scenario: Scenario):
    if version.app != scenario.app:
        raise ValueError(f"a scenario of {scenario.app!r} cannot run a version of {version.app!r}")
    return _MODULES[_known(version.app)]


def build_app(version: AppVersion, scenario: Scenario, model=None):
    """A build of one version under `scenario`; never simulates.

    The ml stage of an app that trains offline serves `model` (see
    `sim.train`); given none, its model-serving node or API is `untrained`
    and raises `UntrainedModelError` when run. A `model` for any other
    version, or a scenario of another app, raises `ValueError`.
    """
    module = _module(version, scenario)
    if model is not None and trainer(version, scenario) is None:
        raise ValueError(f"{version.key} trains no model and cannot be given one")
    build = module.build_fbp if version.paradigm == "fbp" else module.build_soa
    return build(version.stage, scenario) if model is None else build(version.stage, scenario, model)


def trainer(version: AppVersion, scenario: Scenario):
    """The app's `fit_model` if `version` is the ml stage of an app that
    trains offline, else None. A scenario of another app raises
    `ValueError`, as in `build_app`."""
    fit_model = getattr(_module(version, scenario), "fit_model", None)
    return fit_model if version.stage == "ml" else None


def make_world(scenario: Scenario):
    return _WORLDS[_known(scenario.app)](scenario)


__all__ = [
    "APP_NAMES",
    "APP_STAGES",
    "PARADIGMS",
    "ApiRoute",
    "AppVersion",
    "Event",
    "FbpBuild",
    "NoTrainingRowsError",
    "Scenario",
    "SoaBuild",
    "UntrainedModelError",
    "app_version",
    "build_app",
    "default_params",
    "make_scenario",
    "make_world",
    "trainer",
]
