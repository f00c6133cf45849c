"""Which classes are still dataclasses, and the holders that replaced the rest.

Generating a dataclass's methods was most of what importing the apps and
the metrics cost, so value records are NamedTuples and mutable holders are
plain classes. A dataclass stays only where something relies on it:
`dataclasses.replace` on `ApiSpec` and `ServiceSpec` (the benchmark's
tracer), a `__post_init__` check, or a model that `predict_*` reads per
prediction. The guard imports the package in a fresh interpreter with
`dataclasses.dataclass` wrapped, so it holds with no timing in it.
"""

import json
import os
import subprocess
import sys

import flowbench
from flowbench import apps

KEPT_DATACLASSES = [
    "flowbench.apps.base.AppVersion",
    "flowbench.apps.base.Scenario",
    "flowbench.collection.CollectionSpec",
    "flowbench.graph.Schema",
    "flowbench.mlkit.LinearModel",
    "flowbench.mlkit.TreeLeaf",
    "flowbench.mlkit.TreeModel",
    "flowbench.mlkit.TreeSplit",
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
