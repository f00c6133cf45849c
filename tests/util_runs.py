"""Shared helper: run a version and record what its serving world was shown.

A run keeps no observation documents; the world's `observe` is the one
place they are seen, so tests that check them record them there.
"""

from __future__ import annotations

from flowbench import apps
from flowbench.sim import ExecutionResult, Scenario, execute


def observed(scenario: Scenario, version) -> tuple[ExecutionResult, dict[str, list[dict]]]:
    """Execute `version` under `scenario`. Returns the result and each
    observation kind's documents in the order the world's `observe`
    received them.

    Only the world built for `scenario` itself is recorded: an ml build
    trains inside `build_app` on a world built for a sibling `Scenario`.
    """
    docs: dict[str, list[dict]] = {}
    make_world = apps.make_world

    def make_recording_world(sc: Scenario):
        world = make_world(sc)
        if sc is not scenario:
            return world
        observe = world.observe

        def recorded(tick: int, batch: list[dict]) -> None:
            for doc in batch:
                docs.setdefault(doc["kind"], []).append(doc)
            observe(tick, batch)

        world.observe = recorded
        return world

    apps.make_world = make_recording_world
    try:
        result = execute(scenario, version)
    finally:
        apps.make_world = make_world
    return result, docs
