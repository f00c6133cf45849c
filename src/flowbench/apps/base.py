"""Common shapes for application versions and the worlds that drive them.

A `Scenario` fixes the outside world; each app's `World` turns it into
`Event`s, drawn from a generator the base seeds, and is shown what the
app observed. Neither carries a tick: an event belongs to the tick it was
generated for, and an observation, a `(kind, data)` pair, to the tick it
is shown at. `sim` drives a world against a build and reads what the
build declares; nothing here imports it.

Every application ships six builds (two paradigms, three stages). An fbp
build's routes are its input streams: an event is injected into the one
whose schema is named after its kind. A soa build routes each event kind
to an API (`ApiRoute`). A data or ml build also has its dataset. An fbp
build names only its `CollectionSpec`: `FbpBuild` adds the dataset stream
the spec derives (`collection.with_dataset`), and refuses a spec that
does not fit the graph with a `CollectionError`. A soa build's exporter
is the one service with an `export_dataset` API, which returns the rows.
Business logic lives in per-app shared functions so the two paradigms
differ only in architecture; shared functions also build each record both
twins emit, which the fbp node and the soa handler both call, and an API
carrying such a record (or a world event) declares its schema's
`field_names` as its wire fields.

The model stage of an app that trains offline takes its fitted model as a
build argument; `sim.train` fits it as a step of the run. Built without
one (set-up, manifests, diffs, graph export), the model-serving node or
API is `untrained` and refuses to run. Worlds check their count and
scale params at construction with `checked_count` and `checked_scale`;
neither converts what it is given.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from ..collection import with_dataset
from ..rng import SplitMix64, checked_seed, derive_seed
from ..value import Value

APP_STAGES = ("min", "data", "ml")
PARADIGMS = ("fbp", "soa")

_KEY_PREFIX = {"fbp": "fb", "soa": "soa"}


class UntrainedModelError(RuntimeError):
    """A model stage built without a model was asked to serve."""


class NoTrainingRowsError(ValueError):
    """The training run of a model stage collected no rows: the scenario
    is too short to train on, so it names no runnable model build."""


class Event(NamedTuple):
    kind: str
    payload: dict


class Scenario(Value):
    """World configuration. Same scenario, same event sequence.

    Equality covers the params; the hash leaves them out (a dict has none).
    Seeds are full 64-bit values; anything outside [0, 2**64) is refused
    rather than masked, so two seed labels never name the same run. Ticks
    must be an int >= 0; a bool or a float is refused, not run. Given no
    params, a scenario gets a fresh empty dict.
    """

    _fields = ("app", "ticks", "seed", "params")

    def __init__(self, app: str, ticks: int, seed: int, params: dict | None = None):
        object.__setattr__(self, "app", app)
        object.__setattr__(self, "ticks", ticks)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "params", {} if params is None else params)
        if isinstance(self.ticks, bool) or not isinstance(self.ticks, int) or self.ticks < 0:
            raise ValueError(f"ticks must be an int >= 0, got {self.ticks!r}")
        checked_seed(self.seed)

    def __hash__(self):
        return hash((self.app, self.ticks, self.seed))


class World:
    """Base for per-app worlds: exogenous arrivals plus reactions, drawn
    from `rng`, seeded from the scenario's seed and app."""

    observes: tuple[str, ...] = ()
    """The observation kinds whose content and order `observe` uses. A
    rows-only run shows the world only these, so a world that reacts to a
    kind it does not declare here trains on different rows."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rng = SplitMix64(derive_seed(scenario.seed, "world", scenario.app))

    def generate_events(self, tick: int) -> list[Event]:
        raise NotImplementedError

    def observe(self, tick: int, observations: list[tuple[str, dict]]) -> None:
        """Called once per tick with the app's observations of that tick as
        `(kind, data)` pairs, sorted by their canonical text: all of them in
        a serving run, only the kinds in `observes` in a rows-only run."""


def untrained(app: str, paradigm: str) -> Callable:
    """Stand-in for the model-serving node transform or API handler of a
    build made without a model: every call raises `UntrainedModelError`."""

    def refuse(*args):
        raise UntrainedModelError(
            f"{app} {paradigm} ml was built without a model;"
            " run it with sim.execute or sim.run_scenario, which train it first"
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


class AppVersion(Value):
    _fields = ("app", "paradigm", "stage")

    def __init__(self, app: str, paradigm: str, stage: str):
        object.__setattr__(self, "app", app)
        object.__setattr__(self, "paradigm", paradigm)
        object.__setattr__(self, "stage", stage)
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"unknown paradigm {self.paradigm!r}")
        if self.stage not in APP_STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")

    @property
    def key(self) -> str:
        return f"{_KEY_PREFIX[self.paradigm]}_{self.app}_{self.stage}"


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
    def __init__(self, graph, obs_kinds: dict[str, str], collection=None):
        self.graph = graph if collection is None else with_dataset(graph, collection)
        self.obs_kinds = obs_kinds  # output stream id -> observation kind
        self.collection = collection


class SoaBuild:
    def __init__(self, registry, routes: dict[str, ApiRoute]):
        self.registry = registry
        self.routes = routes
