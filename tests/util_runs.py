"""Shared helpers: record what a run's world was shown and which service
calls a registry served, with the fields each carried; forbid simulation
on a build-only path.

A run keeps no observations; the world's `observe` is the one place they
are seen, as `(kind, data)` pairs, so tests that check them record them
there and rebuild the whole document each stands for, tick included. A
registry keeps only its per-API call counts; tests that check the order,
callers, ticks or wire fields of calls record them at `ServiceRegistry.call`.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager

from flowbench import apps, sim
from flowbench.apps import Scenario
from flowbench.services import ServiceRegistry
from flowbench.sim import ExecutionResult, execute


def observed(scenario: Scenario, version) -> tuple[ExecutionResult, dict[str, list[dict]]]:
    """Execute `version` under `scenario`. Returns the result and each
    observation kind's documents, `{"data", "kind", "tick"}` rebuilt from
    the tick and pair the world's `observe` received, in that order.

    Only the world built for `scenario` itself is recorded: an ml run
    trains first (`sim.train`) on a world built for a sibling `Scenario`.
    """
    docs: dict[str, list[dict]] = {}
    make_world = apps.make_world

    def make_recording_world(sc: Scenario):
        world = make_world(sc)
        if sc is not scenario:
            return world
        observe = world.observe

        def recorded(tick: int, batch: list[tuple[str, dict]]) -> None:
            for kind, data in batch:
                docs.setdefault(kind, []).append({"data": data, "kind": kind, "tick": tick})
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
def recorded_calls(registry_class: type = ServiceRegistry):
    """Within the block, record every `call` of `registry_class` as it
    starts: per registry, `(caller, callee, api, tick)` in call order, so a
    call comes before the calls its handler makes. The tick is the
    registry's when the call starts.

    Yields the registry -> calls mapping; the registries in it stay alive
    until the block ends.
    """
    calls: defaultdict[object, list[tuple[str, str, str, int]]] = defaultdict(list)
    call = registry_class.call

    def recording(self, caller, callee, api, request):
        calls[self].append((caller, callee, api, self.tick))
        return call(self, caller, callee, api, request)

    registry_class.call = recording
    try:
        yield calls
    finally:
        registry_class.call = call


@contextmanager
def recorded_wire():
    """Within the block, record every `ServiceRegistry.call` that returns:
    per registry, `(callee, api, request keys, response keys)` in return
    order, so a call comes after the calls its handler makes. The
    request's keys are read as the call starts.

    Yields the registry -> calls mapping; the registries in it stay alive
    until the block ends.
    """
    wire: defaultdict[object, list[tuple[str, str, tuple, tuple]]] = defaultdict(list)
    call = ServiceRegistry.call

    def recording(self, caller, callee, api, request):
        request_keys = tuple(request)
        response = call(self, caller, callee, api, request)
        wire[self].append((callee, api, request_keys, tuple(response)))
        return response

    ServiceRegistry.call = recording
    try:
        yield wire
    finally:
        ServiceRegistry.call = call


def forbid_simulation(monkeypatch) -> None:
    """Make any training run or `sim.execute` fail the test: for paths that
    must build without simulating."""

    def refuse(*args, **kwargs):
        raise AssertionError("a build-only path simulated")

    monkeypatch.setattr(sim, "training_rows", refuse)
    monkeypatch.setattr(sim, "execute", refuse)
