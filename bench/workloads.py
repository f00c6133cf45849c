"""The benchmark's workloads: which app version, how many ticks.

Shared by the runner (validation, scheduling) and the sample process
(what to build and run). Tick counts size one `run_scenario` call to
roughly a second or two on a small two-core host, so a run of a few tens
of seconds holds enough samples for a steady median.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 3
HELD_OUT_SEED = 7

# The tail latency of a sample is the tick latency with exactly this many
# ticks above it: the highest percentile with >= 10 ticks beyond it.
TAIL_BEYOND = 10

# Stage pairs of the structure-only sweep (acceptance checks C01/C02 use
# the first two; min->ml is the whole model-integration change).
STAGE_PAIRS = (("min", "data"), ("data", "ml"), ("min", "ml"))

# Apps whose data stage writes an offline dataset (C01 expects exactly one
# affected dataflow component for them).
OFFLINE_APPS = ("insurance_claims", "ride_allocation")


@dataclass(frozen=True)
class Workload:
    name: str
    app: str | None  # None: the manifest sweep over every app
    paradigm: str | None
    stage: str | None
    ticks: int  # manifest-sweep: ticks of the scenario manifests are built under


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ride-fbp-ml", "ride_allocation", "fbp", "ml", 250),
        Workload("ride-soa-ml", "ride_allocation", "soa", "ml", 3000),
        Workload("claims-fbp-ml", "insurance_claims", "fbp", "ml", 1500),
        Workload("manifest-sweep", None, None, None, 100),
    )
}


def tail_index(n: int) -> int:
    """Index into n sorted values of the one with TAIL_BEYOND values above it."""
    return max(0, n - TAIL_BEYOND - 1)


def tail_percentile(n: int) -> float:
    """Percentile level that `tail_index` picks out of n values."""
    return 100.0 * (tail_index(n) + 1) / n if n else 0.0
