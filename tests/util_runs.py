"""Shared helpers: record what a run's world was shown and which service
calls a registry served.

A run keeps no observation documents; the world's `observe` is the one
place they are seen, so tests that check them record them there. A
registry keeps only its per-API call counts; tests that check the order,
callers or ticks of calls record them at `ServiceRegistry.call`.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager

from flowbench import apps
from flowbench.services import ServiceRegistry
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


@contextmanager
def recorded_calls():
    """Within the block, record every `ServiceRegistry.call` as it starts:
    per registry, `(caller, callee, api, tick)` in call order, so a call
    comes before the calls its handler makes. The tick is the registry's
    when the call starts.

    Yields the registry -> calls mapping; the registries in it stay alive
    until the block ends.
    """
    calls: defaultdict[ServiceRegistry, list[tuple[str, str, str, int]]] = defaultdict(list)
    call = ServiceRegistry.call

    def recording(self, caller, callee, api, request):
        calls[self].append((caller, callee, api, self.tick))
        return call(self, caller, callee, api, request)

    ServiceRegistry.call = recording
    try:
        yield calls
    finally:
        ServiceRegistry.call = call
