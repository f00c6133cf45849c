"""Which classes are still dataclasses, and the holders that replaced the rest.

Generating a dataclass's methods was most of what importing the apps and
the metrics cost, so value records are NamedTuples, checked or
per-prediction values are `Value` classes, and mutable holders are plain
classes. A dataclass stays only where `dataclasses.replace` is called on
it: `ApiSpec` and `ServiceSpec`, whose handlers the benchmark's tracer
wraps. The guard imports the package in a fresh interpreter with
`dataclasses.dataclass` wrapped, so it holds with no timing in it. Each
`Value` class is checked against a frozen dataclass of the same fields.
"""

import dataclasses
import json
import os
import subprocess
import sys
from unittest import mock

import pytest

import flowbench
from flowbench import apps
from flowbench.apps import AppVersion, Scenario
from flowbench.collection import CollectionSpec, StreamSelect
from flowbench.graph import Schema
from flowbench.mlkit import LinearModel, TreeLeaf, TreeModel, TreeSplit

KEPT_DATACLASSES = [
    "flowbench.services.ApiSpec",
    "flowbench.services.ServiceSpec",
]

_LIST_DATACLASSES = """
import dataclasses, json

real, decorated = dataclasses.dataclass, []

def spy(cls=None, /, **kwargs):
    def wrap(c):
        decorated.append(f"{c.__module__}.{c.__qualname__}")
        return real(c, **kwargs)
    return wrap if cls is None else wrap(cls)

dataclasses.dataclass = spy
import flowbench.apps, flowbench.metrics
print(json.dumps(sorted(name for name in decorated if name.startswith("flowbench."))))
"""


def test_importing_the_apps_and_metrics_decorates_only_the_kept_dataclasses():
    src = os.path.dirname(os.path.dirname(flowbench.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _LIST_DATACLASSES],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert json.loads(proc.stdout) == KEPT_DATACLASSES


def test_a_fresh_build_has_no_model():
    scenario = apps.make_scenario("ride_allocation", 10, 1)
    for paradigm in apps.PARADIGMS:
        for stage in apps.APP_STAGES:
            version = apps.app_version("ride_allocation", paradigm, stage)
            assert not hasattr(apps.build_app(version, scenario), "model")


_APPROVE, _REJECT = TreeLeaf("approve"), TreeLeaf("reject")
_LABEL = StreamSelect("decisions", ("decision",), "claim_id")
_CLAIMS = StreamSelect("claims", ("amount", "kind"), "claim_id")

# Per class, argument tuples to build instances from: equal ones (1 and
# 1.0, -0.0 and 0.0), ones that differ in each field, nested values.
VALUE_ARGS = {
    Schema: [
        ("claim", (("claim_id", "int"),)),
        ("claim", (("claim_id", "int"), ("amount", "float"))),
        ("decision", (("claim_id", "int"),)),
    ],
    Scenario: [
        ("ride_allocation", 10, 1, {"n_drivers": 3}),
        ("ride_allocation", 10, 1, {"n_drivers": 3.0}),
        ("ride_allocation", 10, 1, {"n_drivers": 4}),
        ("ride_allocation", 11, 1, {"n_drivers": 3}),
        ("ride_allocation", 10, 2, {"n_drivers": 3}),
        ("mblogger", 10, 1, {}),
    ],
    AppVersion: [("ride_allocation", "fbp", "ml"), ("ride_allocation", "soa", "ml"), ("mblogger", "fbp", "min")],
    CollectionSpec: [(_LABEL, (_CLAIMS,), "rows"), (_LABEL, (), "rows"), (_LABEL, (_CLAIMS,), "other")],
    LinearModel: [((1.0, 2.0), 0.5), ((1, 2), 0.5), ((1.0, 2.0), -0.5), ((1.0,), 0.5), ((), -0.0), ((), 0.0)],
    TreeLeaf: [("approve",), ("reject",), (1,), (1.0,), (True,)],
    TreeSplit: [(0, 1.5, _APPROVE, _REJECT), (0, 1.5, _REJECT, _APPROVE), (1, 1.5, _APPROVE, _REJECT), (0, 2.5, _APPROVE, _REJECT)],
    TreeModel: [(_APPROVE, 2), (_REJECT, 2), (_APPROVE, 3), (TreeSplit(0, 1.5, _APPROVE, _REJECT), 3)],
}


def _reference(cls):
    """A frozen dataclass of `cls`'s fields and name; `Scenario`'s params
    default to a fresh dict and are compared but not hashed."""
    fields = [
        (name, object, dataclasses.field(default_factory=dict, compare=True, hash=False))
        if (cls, name) == (Scenario, "params") else name
        for name in cls._fields
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


@pytest.mark.parametrize("cls", VALUE_ARGS, ids=lambda cls: cls.__name__)
def test_a_value_class_compares_hashes_and_shows_as_its_frozen_dataclass(cls):
    ref = _reference(cls)
    sub, ref_sub = type(cls.__name__, (cls,), {}), type(cls.__name__, (ref,), {})
    # Plain tuples of the fields, an instance of each other class, and an
    # object equal to anything, which sees `==` only if the class declines.
    others = [tuple(args) for args in VALUE_ARGS[cls]]
    others += [other(*args[0]) for other, args in VALUE_ARGS.items() if other is not cls]
    others.append(mock.ANY)
    for a in VALUE_ARGS[cls]:
        value, expected = cls(*a), ref(*a)
        assert repr(value) == repr(expected)
        assert hash(value) == hash(expected)
        for b in VALUE_ARGS[cls]:
            assert (value == cls(*b)) is (expected == ref(*b)), (a, b)
            assert (value != cls(*b)) is (expected != ref(*b)), (a, b)
        assert (value == sub(*a), value != sub(*a)) == (expected == ref_sub(*a), expected != ref_sub(*a))
        for other in others:
            assert (value == other, value != other) == (expected == other, expected != other), other


@pytest.mark.parametrize("cls", VALUE_ARGS, ids=lambda cls: cls.__name__)
def test_a_value_class_is_built_as_its_frozen_dataclass_and_refuses_changes(cls):
    ref = _reference(cls)
    for args in VALUE_ARGS[cls]:
        by_name = dict(zip(cls._fields, args))
        for value, expected in ((cls(*args), ref(*args)), (cls(**by_name), ref(**by_name))):
            assert [getattr(value, name) for name in cls._fields] == [getattr(expected, name) for name in cls._fields]
            for name in (*cls._fields, "extra"):
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
                with pytest.raises(AttributeError):
                    delattr(value, name)
            assert [getattr(value, name) for name in cls._fields] == list(args)


def test_a_scenario_given_no_params_gets_a_fresh_dict_as_its_frozen_dataclass_does():
    ref = _reference(Scenario)
    built = [Scenario("mblogger", 10, 1), Scenario(app="mblogger", ticks=10, seed=1)]
    expected = [ref("mblogger", 10, 1), ref(app="mblogger", ticks=10, seed=1)]
    assert [s.params for s in built] == [e.params for e in expected] == [{}, {}]
    assert built[0].params is not built[1].params and expected[0].params is not expected[1].params
    assert built[0] == built[1] and hash(built[0]) == hash(built[1])
