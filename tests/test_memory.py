"""A finished run frees itself by reference counting.

A service context holds its registry weakly, the tree fit recurses
through module-level functions, the graph is checked and ordered by one
iterative pass, and the tick loop keeps no observation documents. So a
run, a manifest and a rows-only run leave no reference cycles behind:
with the collector off, the next collection finds nothing, and a dropped
build is freed at once.
"""

import gc
import weakref

import pytest

from flowbench import apps, canon, metrics, sim
from flowbench.graph import Record, Schema
from flowbench.services import ApiSpec, RoutineSpec, ServiceRegistry, ServiceSpec

TICKS, SEED = 40, 3
TRAINED_APPS = tuple(app for app in apps.APP_NAMES if hasattr(getattr(apps, app), "fit_model"))
VERSIONS = [
    apps.app_version(app, paradigm, stage)
    for app in apps.APP_NAMES
    for paradigm in apps.PARADIGMS
    for stage in apps.APP_STAGES
]


def cyclic_garbage(fn) -> int:
    """How many objects only the cycle collector could free after `fn()`.

    Starts from a clean collection and runs `fn` with the collector off;
    `DEBUG_SAVEALL` keeps what the next collection finds in `gc.garbage`,
    which is emptied again afterwards.
    """
    gc.collect()
    saved = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        return gc.collect()
    finally:
        gc.set_debug(0)
        del gc.garbage[saved:]
        gc.enable()


@pytest.mark.parametrize("version", VERSIONS, ids=lambda v: v.key)
def test_run_scenario_leaves_no_cycles(version):
    scenario = apps.make_scenario(version.app, TICKS, SEED)
    assert cyclic_garbage(lambda: sim.run_scenario(scenario, version)) == 0


@pytest.mark.parametrize("version", VERSIONS, ids=lambda v: v.key)
def test_manifest_leaves_no_cycles(version):
    assert cyclic_garbage(lambda: metrics.manifest(version)) == 0


@pytest.mark.parametrize(
    "version", [v for v in VERSIONS if v.stage == "data"], ids=lambda v: v.key
)
def test_rows_only_run_leaves_no_cycles(version):
    scenario = apps.make_scenario(version.app, TICKS, SEED)
    assert cyclic_garbage(lambda: sim.execute(scenario, version, rows_only=True)) == 0


@pytest.fixture
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("stage", apps.APP_STAGES)
@pytest.mark.parametrize("app", apps.APP_NAMES)
def test_a_dropped_soa_run_frees_its_registry_at_once(app, stage, collector_off):
    result = sim.execute(apps.make_scenario(app, TICKS, SEED), apps.app_version(app, "soa", stage))
    registry = weakref.ref(result.built.registry)
    assert registry().call_counts
    del result
    assert registry() is None


@pytest.mark.parametrize("app", TRAINED_APPS)
def test_an_ml_run_keeps_only_its_serving_registry(app, collector_off, monkeypatch):
    # The training run's registry is gone by the time the run returns.
    made: list[weakref.ref] = []
    register = ServiceRegistry.register

    def recorded(self, spec):
        if not any(ref() is self for ref in made):
            made.append(weakref.ref(self))
        register(self, spec)

    monkeypatch.setattr(ServiceRegistry, "register", recorded)
    result = sim.execute(apps.make_scenario(app, TICKS, SEED), apps.app_version(app, "soa", "ml"))
    alive = [ref() for ref in made if ref() is not None]
    assert len(made) == 2
    assert len(alive) == 1 and alive[0] is result.built.registry


def test_a_context_without_its_registry_keeps_its_store_but_cannot_call(collector_off):
    def count(ctx, key):
        ctx.store_put("seen", key, (ctx.store_get("seen", key) or 0) + 1)

    spec = ServiceSpec(
        "svc",
        (ApiSpec("ping", lambda request, ctx: {}, (), ()),),
        (RoutineSpec("count", count),),
    )
    registry = ServiceRegistry()
    registry.register(spec)
    ctx = registry.context_for("svc")
    assert ctx.call("svc", "ping", {}) == {}
    ctx.routine("count", "a")
    del registry

    ctx.routine("count", "a")
    ctx.store_put("notes", "b", {"n": 1})
    assert ctx.store_get("seen", "a") == 2
    assert dict(ctx.store_table("notes")) == {"b": {"n": 1}}
    with pytest.raises(ReferenceError):
        ctx.call("svc", "ping", {})


def test_a_schema_that_checked_rows_is_no_cycle(collector_off):
    # A per-build schema (a derived dataset stream's) dies with its build:
    # its compiled checker must not lead back to it.
    def check_rows():
        schema = Schema("s", (("n", "int"), ("f", "float")))
        assert schema.coerce_row({"n": 1, "f": 2.0}) == (1, 2.0)  # exact: the compiled checker
        assert schema.coerce_row({"n": 1, "f": 2}) == (1, 2.0)  # widened: the full checks
        return weakref.ref(schema)

    assert cyclic_garbage(check_rows) == 0
    assert check_rows()() is None


def test_a_schema_that_made_a_dict_is_no_cycle(collector_off):
    # Nor may its compiled record-to-dict maker.
    def make_dict():
        schema = Schema("s", (("n", "int"), ("f", "float")))
        assert Record(schema, (1, 2.0), 0).as_dict() == {"n": 1, "f": 2.0}
        return weakref.ref(schema)

    assert cyclic_garbage(make_dict) == 0
    assert make_dict()() is None


def test_a_flat_encoder_is_no_cycle(collector_off):
    # An observation kind's encoder lives as long as its run's envelope.
    def encode():
        encoder = canon.flat_encoder({"a": 1, "b": "x"})
        assert encoder({"a": 2, "b": "y"}) == '{"a":2,"b":"y"}'
        return weakref.ref(encoder)

    assert cyclic_garbage(encode) == 0
    assert encode()() is None
