"""Common shapes for application versions.

Every application ships six builds (two paradigms, three stages). A build
bundles the artifact itself (graph or service registry) with the routing
tables the simulation needs: which event kinds it can deliver and which
outputs are observable. Business logic lives in per-app shared functions
so the two paradigms differ only in architecture.

The model stage of an app that trains offline takes its fitted model as a
build argument. Built without one (for structure only: manifests, diffs,
graph export), the model-serving node or API is `untrained` and refuses
to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

APP_STAGES = ("min", "data", "ml")
PARADIGMS = ("fbp", "soa")

_KEY_PREFIX = {"fbp": "fb", "soa": "soa"}


class UntrainedModelError(RuntimeError):
    """A structure-only build of a model stage was asked to serve."""


def untrained(app: str, paradigm: str) -> Callable:
    """Stand-in for the model-serving node transform or API handler of a
    build made without a model: every call raises `UntrainedModelError`."""

    def refuse(*args):
        raise UntrainedModelError(
            f"{app} {paradigm} ml was built for structure only and has no trained model;"
            " build it with apps.build_app to run it"
        )

    return refuse


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


@dataclass(frozen=True)
class StreamRoute:
    """Deliver an event kind by injecting into an input stream."""

    stream_id: str


@dataclass(frozen=True)
class ApiRoute:
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


@dataclass
class FbpBuild:
    graph: object
    routes: dict[str, StreamRoute]
    obs_kinds: dict[str, str]  # output stream id -> observation kind
    collection: object | None = None
    extras: dict = field(default_factory=dict)


@dataclass
class SoaBuild:
    registry: object
    routes: dict[str, ApiRoute]
    export_dataset: Callable | None = None
    extras: dict = field(default_factory=dict)
