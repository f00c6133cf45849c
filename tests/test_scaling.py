"""Every fbp build reads a flat number of record fields per serving tick.

A node that rebuilds its inputs from the whole log every tick reads more
fields each tick, so its reads per tick grow with the run; a fold reads
each new record a fixed number of times. Field reads (`Record.__getitem__`
calls) are counted exactly and are the same on every run, so unlike wall
time this gate cannot be moved by host noise.

One 1000-tick run per build is counted after 250, 500 and 1000 serving
ticks, and the reads per tick of the window [500, 1000) must be at most
1.1x those of [250, 500). One run rather than three keeps the model of an
ml build fixed: its training run is as long as the serving run. The
windows skip the first 250 ticks, in which mblogger fills its follow graph
and its timelines reach their post limit.
"""

import pytest

from flowbench import apps, graph
from flowbench.sim import execute

TICKS = 1000
CHECKPOINTS = (250, 500, 1000)
MAX_WINDOW_RATIO = 1.1


def serving_reads(app: str, stage: str, monkeypatch) -> dict[int, int]:
    """Field reads done by the end of each checkpoint's last serving tick."""
    reads = [0]
    getitem = graph.Record.__getitem__

    def counted(self, name):
        reads[0] += 1
        return getitem(self, name)

    scenario = apps.make_scenario(app, TICKS, 3)
    world_cls = type(apps.make_world(scenario))
    observe = world_cls.observe
    seen: dict[int, int] = {}

    def observed(self, tick, docs):
        # An ml build's rows-only training run calls `observe` for the
        # same ticks first, showing it only the kinds the world declares;
        # the serving run comes last and overwrites them.
        seen[tick + 1] = reads[0]
        return observe(self, tick, docs)

    monkeypatch.setattr(graph.Record, "__getitem__", counted)
    monkeypatch.setattr(world_cls, "observe", observed)
    execute(scenario, apps.app_version(app, "fbp", stage))
    return {t: seen[t] for t in CHECKPOINTS}


@pytest.mark.parametrize("stage", ("min", "data", "ml"))
@pytest.mark.parametrize("app", apps.APP_NAMES)
def test_field_reads_per_tick_do_not_grow_with_the_run(app, stage, monkeypatch):
    at = serving_reads(app, stage, monkeypatch)
    first = (at[500] - at[250]) / 250
    second = (at[1000] - at[500]) / 500
    assert first > 0
    assert second <= MAX_WINDOW_RATIO * first, (
        f"{app} fbp {stage}: {first:.1f} field reads per tick over [250, 500), "
        f"{second:.1f} over [500, 1000): {second / first:.2f}x"
    )
