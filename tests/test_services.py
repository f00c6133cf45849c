"""Service baseline: registry, calls, call counts, data hiding."""

import dataclasses
import json
from collections import Counter

import pytest

from flowbench import apps
from flowbench.canon import canonical_json
from flowbench.services import (
    ApiSpec,
    DuplicateServiceError,
    HandlerError,
    ReentrantCallError,
    RoutineSpec,
    ServiceRegistry,
    ServiceSpec,
    UnknownServiceError,
)
from flowbench.sim import execute, run_scenario
from util_runs import recorded_calls


def _echo_service():
    return ServiceSpec(
        "echo",
        apis=(
            ApiSpec(
                "ping",
                lambda request, ctx: dict(request),
                request_fields=("x",),
                response_fields=("x",),
            ),
        ),
    )


class TestRegister:
    def test_register_once(self):
        reg = ServiceRegistry()
        reg.register(_echo_service())
        assert [spec.id for spec in reg.service_specs()] == ["echo"]

    def test_duplicate_rejected(self):
        reg = ServiceRegistry()
        reg.register(_echo_service())
        with pytest.raises(DuplicateServiceError):
            reg.register(_echo_service())

    def test_call_to_unregistered_service(self):
        reg = ServiceRegistry()
        with pytest.raises(UnknownServiceError, match="unknown service"):
            reg.call("sim", "ghost", "ping", {})


    def test_unknown_service_and_api_messages(self):
        reg = ServiceRegistry()
        reg.register(_echo_service())
        with pytest.raises(UnknownServiceError) as err:
            reg.call("sim", "ghost", "ping", {})
        assert str(err.value) == "unknown service 'ghost'"
        with pytest.raises(UnknownServiceError) as err:
            reg.call("sim", "echo", "pong", {})
        assert str(err.value) == "service 'echo' has no api 'pong'"
        assert reg.call_counts == {}


class TestCall:
    def test_echo_round_trip_is_counted(self):
        reg = ServiceRegistry()
        reg.register(_echo_service())
        with recorded_calls() as calls:
            response = reg.call("sim", "echo", "ping", {"x": 1})
        assert response == {"x": 1}
        assert calls[reg] == [("sim", "echo", "ping", 0)]
        assert reg.call_counts == {("echo", "ping"): 1}

    def test_interim_call_is_made_and_counted(self):
        # Three services: A.compute consults C.lookup before answering.
        reg = ServiceRegistry()
        reg.register(
            ServiceSpec(
                "C",
                apis=(
                    ApiSpec("lookup", lambda req, ctx: {"v": 10}, ("k",), ("v",)),
                ),
            )
        )
        reg.register(
            ServiceSpec(
                "A",
                apis=(
                    ApiSpec(
                        "compute",
                        lambda req, ctx: {"out": req["x"] + ctx.call("C", "lookup", {"k": 1})["v"]},
                        ("x",),
                        ("out",),
                    ),
                ),
            )
        )
        with recorded_calls() as calls:
            response = reg.call("sim", "A", "compute", {"x": 5})
        assert response == {"out": 15}
        assert calls[reg] == [("sim", "A", "compute", 0), ("A", "C", "lookup", 0)]
        assert reg.call_counts == {("A", "compute"): 1, ("C", "lookup"): 1}

    def test_reentrant_call_rejected(self):
        reg = ServiceRegistry()
        reg.register(
            ServiceSpec(
                "A",
                apis=(
                    ApiSpec(
                        "compute",
                        lambda req, ctx: ctx.call("A", "compute", req),
                        (),
                        (),
                    ),
                ),
            )
        )
        with pytest.raises(ReentrantCallError):
            reg.call("sim", "A", "compute", {})

    def test_handler_failure_carries_service_and_api(self):
        def boom(req, ctx):
            raise RuntimeError("nope")

        reg = ServiceRegistry()
        reg.register(ServiceSpec("A", apis=(ApiSpec("go", boom, (), ()),)))
        with pytest.raises(HandlerError, match="A.go"):
            reg.call("sim", "A", "go", {})

    def test_deterministic_given_same_call_sequence(self):
        def run():
            reg = ServiceRegistry()
            reg.register(_echo_service())
            responses = []
            with recorded_calls() as calls:
                for i in range(5):
                    reg.tick = i // 2
                    responses.append(reg.call("sim", "echo", "ping", {"x": i}))
            return responses, calls[reg], reg.call_counts

        first = run()
        assert first == run()
        assert [tick for *_, tick in first[1]] == [0, 0, 1, 1, 2]
        assert first[2] == {("echo", "ping"): 5}


class TestStores:
    def _ctx(self):
        reg = ServiceRegistry()
        reg.register(_echo_service())
        return reg.context_for("echo")

    def test_put_then_get(self):
        ctx = self._ctx()
        ctx.store_put("t", "k", {"v": 1})
        assert ctx.store_get("t", "k") == {"v": 1}

    def test_get_missing_is_absent(self):
        assert self._ctx().store_get("t", "nope") is None

    def test_tables_are_independent(self):
        ctx = self._ctx()
        ctx.store_put("t1", "k", {"v": 1})
        ctx.store_put("t2", "k", {"v": 2})
        assert ctx.store_get("t1", "k") == {"v": 1}
        assert ctx.store_get("t2", "k") == {"v": 2}

    def test_table_view_is_read_only(self):
        ctx = self._ctx()
        ctx.store_put("t", "k", {"v": 1})
        view = ctx.store_table("t")
        with pytest.raises(TypeError):
            view["k"] = {"v": 2}
        with pytest.raises(TypeError):
            ctx.store_table("missing")["k"] = {"v": 2}
        assert ctx.store_get("t", "k") == {"v": 1}

    def test_table_view_shows_later_puts_in_insertion_order(self):
        ctx = self._ctx()
        ctx.store_put("t", "b", {"v": 1})
        view = ctx.store_table("t")
        ctx.store_put("t", "a", {"v": 2})
        assert list(view) == ["b", "a"]
        assert view["a"] == {"v": 2}
        assert len(view) == 2

    def test_reading_a_missing_table_creates_nothing(self):
        ctx = self._ctx()
        assert ctx.store_table("t") == {}
        assert len(ctx.store_table("t")) == 0
        assert "t" not in ctx._tables
        ctx.store_put("t", "k", {"v": 1})
        assert dict(ctx.store_table("t")) == {"k": {"v": 1}}

    def test_routines_are_the_store_accessors(self):
        spec = ServiceSpec(
            "s",
            apis=(
                ApiSpec(
                    "save",
                    lambda req, ctx: ctx.routine("keep", req["k"], req["v"]) or {},
                    ("k", "v"),
                    (),
                ),
            ),
            routines=(
                RoutineSpec("keep", lambda ctx, k, v: ctx.store_put("things", k, {"v": v})),
            ),
        )
        reg = ServiceRegistry()
        reg.register(spec)
        reg.call("sim", "s", "save", {"k": "a", "v": 3})
        assert reg.context_for("s").store_get("things", "a") == {"v": 3}


class TestEphemerality:
    def test_framework_retains_no_request_or_response(self):
        # After a call, the only places a payload could hide are the
        # registry's own state and the stores. The registry counts calls
        # per (service, api) and holds neither document; the store is
        # empty unless a handler wrote to it.
        reg = ServiceRegistry()
        reg.register(_echo_service())
        marker = {"x": 987654321}
        with recorded_calls() as calls:
            response = reg.call("sim", "echo", "ping", marker)
        assert calls[reg] == [("sim", "echo", "ping", 0)]
        assert reg.call_counts == {("echo", "ping"): 1}
        held = _containers(vars(reg), set())
        for ctx in reg._contexts.values():
            _containers(ctx._tables, held)
        assert id(marker) not in held and id(response) not in held
        assert reg.context_for("echo").store_table("anything") == {}


@pytest.mark.parametrize("stage", apps.APP_STAGES)
@pytest.mark.parametrize("app", apps.APP_NAMES)
def test_report_counts_equal_the_calls_made(app, stage):
    # Oracle: count the calls the serving registry was asked to make, the
    # calls between services and the closing `export_dataset` included.
    with recorded_calls() as calls:
        result = execute(apps.make_scenario(app, 60, 3), apps.app_version(app, "soa", stage))
        made = Counter(f"api/{callee}.{api}" for _, callee, api, _ in calls[result.built.registry])
    assert list(result.counts.items()) == sorted(made.items())
    service = result.built.dataset_service
    if service is not None:
        assert result.counts[f"api/{service}.export_dataset"] == 1


def _containers(obj, into: set) -> set:
    """Add to `into` the id of every dict and list reachable from `obj`
    through dicts, lists, tuples and dataclass fields."""
    if isinstance(obj, (dict, list)):
        if id(obj) in into:
            return into
        into.add(id(obj))
    if isinstance(obj, dict):
        for value in obj.values():
            _containers(value, into)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _containers(value, into)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _containers(getattr(obj, f.name), into)
    return into


def _check_boundary(monkeypatch) -> list:
    """Check every `registry.call` response as it returns: it equals its
    canonical-JSON round trip and shares no dict or list with any store
    table of the registry. Returns the list of (service, api) checked."""
    checked = []
    original = ServiceRegistry.call

    def call(self, caller, callee, api, request):
        response = original(self, caller, callee, api, request)
        assert json.loads(canonical_json(response)) == response, (callee, api)
        stored: set = set()
        for ctx in self._contexts.values():
            _containers(ctx._tables, stored)
        shared = _containers(response, set()) & stored
        assert not shared, f"{callee}.{api} hands out {len(shared)} live store object(s)"
        checked.append((callee, api))
        return response

    monkeypatch.setattr(ServiceRegistry, "call", call)
    return checked


class TestServiceBoundary:
    @pytest.mark.parametrize("stage", apps.APP_STAGES)
    @pytest.mark.parametrize("app", apps.APP_NAMES)
    def test_responses_are_detached_json(self, monkeypatch, app, stage):
        checked = _check_boundary(monkeypatch)
        run_scenario(apps.make_scenario(app, 40, 5), apps.app_version(app, "soa", stage))
        assert checked

    def test_a_live_store_document_is_caught(self, monkeypatch):
        def put(request, ctx):
            ctx.store_put("docs", request["k"], {"k": request["k"]})
            return {}

        def list_docs(request, ctx):
            return {"docs": list(ctx.store_table("docs").values())}

        spec = ServiceSpec(
            "leaky",
            apis=(
                ApiSpec("put", put, request_fields=("k",), response_fields=()),
                ApiSpec("list", list_docs, request_fields=(), response_fields=("docs",)),
            ),
        )
        reg = ServiceRegistry()
        reg.register(spec)
        _check_boundary(monkeypatch)
        reg.call("sim", "leaky", "put", {"k": "a"})
        with pytest.raises(AssertionError, match="leaky.list hands out 1 live store object"):
            reg.call("sim", "leaky", "list", {})
