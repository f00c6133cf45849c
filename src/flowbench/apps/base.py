"""Common shapes for application versions.

Every application ships six builds (two paradigms, three stages). A build
bundles the artifact itself (graph or service registry) with the routing
tables the simulation needs: which event kinds it can deliver and which
outputs are observable. A data or ml build also names its dataset: a
`CollectionSpec` (fbp), or the service whose `export_dataset` API returns
the rows (soa). Business logic lives in per-app shared functions so the
two paradigms differ only in architecture.

The model stage of an app that trains offline takes its fitted model as a
build argument. Built without one (for structure only: manifests, diffs,
graph export), the model-serving node or API is `untrained` and refuses
to run. Worlds check their count and scale params at construction with
`checked_count` and `checked_scale`; neither converts what it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

APP_STAGES = ("min", "data", "ml")
PARADIGMS = ("fbp", "soa")

_KEY_PREFIX = {"fbp": "fb", "soa": "soa"}


class UntrainedModelError(RuntimeError):
    """A structure-only build of a model stage was asked to serve."""


class NoTrainingRowsError(ValueError):
    """The training run of a model stage collected no rows: the scenario
    is too short to train on, so it names no runnable model build."""


def untrained(app: str, paradigm: str) -> Callable:
    """Stand-in for the model-serving node transform or API handler of a
    build made without a model: every call raises `UntrainedModelError`."""

    def refuse(*args):
        raise UntrainedModelError(
            f"{app} {paradigm} ml was built for structure only and has no trained model;"
            " build it with apps.build_app to run it"
        )

    return refuse


def checked_count(name: str, value, minimum: int) -> int:
    """World param `value` if it is an int (not a bool) >= `minimum`, else `ValueError` naming `name`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
    return value


def checked_scale(name: str, value) -> float:
    """World param `value` as a float if it is a finite int or float >= 0, else `ValueError` naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")  # NaN fails the range too
    return float(value)


@dataclass(frozen=True)
class AppVersion:
    app: str
    paradigm: str
    stage: str

    def __post_init__(self):
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"unknown paradigm {self.paradigm!r}")
        if self.stage not in APP_STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")

    @property
    def key(self) -> str:
        return f"{_KEY_PREFIX[self.paradigm]}_{self.app}_{self.stage}"


class StreamRoute(NamedTuple):
    """Deliver an event kind by injecting into an input stream."""

    stream_id: str


class ApiRoute(NamedTuple):
    """Deliver an event kind as a service call.

    `obs_kind` names the observation the response becomes (None: the
    response is a plumbing ack and is not observed). `observe_when`
    optionally names a response field that must be truthy to observe,
    for poll-style APIs that frequently answer "nothing new".
    """

    service: str
    api: str
    obs_kind: str | None = None
    observe_when: str | None = None


class FbpBuild:
    def __init__(self, graph, routes: dict[str, StreamRoute], obs_kinds: dict[str, str], collection=None):
        self.graph = graph
        self.routes = routes
        self.obs_kinds = obs_kinds  # output stream id -> observation kind
        self.collection = collection
        self.model = None  # the fitted model, if `apps.build_app` trained one


class SoaBuild:
    def __init__(self, registry, routes: dict[str, ApiRoute], dataset_service: str | None = None):
        self.registry = registry
        self.routes = routes
        self.dataset_service = dataset_service  # service with an `export_dataset` API
        self.model = None  # the fitted model, if `apps.build_app` trained one
