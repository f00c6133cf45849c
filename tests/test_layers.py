"""The import layers: the apps and the metrics stand below the harness.

`flowbench.apps` defines the scenario, its world and its events, and
imports nothing from `flowbench.sim`; `sim` and `metrics` import the
catalog at module level. Each check runs in a fresh interpreter, so no
module that another test imported hides an import cycle or a warning.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import flowbench

SRC = os.path.dirname(os.path.dirname(flowbench.__file__))
MODULES = ["flowbench", *sorted(m.name for m in pkgutil.walk_packages(flowbench.__path__, "flowbench."))]


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_importing_the_apps_and_metrics_leaves_the_harness_out():
    proc = _python("-c", "import sys, flowbench.apps, flowbench.metrics; print('flowbench.sim' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_and_alone_with_warnings_as_errors(module):
    proc = _python("-W", "error", "-c", f"import {module}")
    assert proc.returncode == 0, proc.stderr
