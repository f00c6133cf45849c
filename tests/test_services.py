"""Service baseline: registry, calls, tracing, data hiding."""

import dataclasses
import json

import pytest

from flowbench import apps
from flowbench.canon import canonical_json
from flowbench.services import (
    ApiSpec,
    CallEntry,
    DuplicateServiceError,
    HandlerError,
    ReentrantCallError,
    RoutineSpec,
    ServiceRegistry,
    ServiceSpec,
    UnknownServiceError,
)
from flowbench.sim import run_scenario


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
        assert reg.has_api("echo", "ping")

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
        assert not reg.has_api("ghost", "ping")
        assert not reg.has_api("echo", "pong")
        assert reg.trace == []

    @pytest.mark.parametrize("app", apps.APP_NAMES)
    def test_has_api_agrees_with_call_on_the_soa_ml_builds(self, app):
        # Every (service, api) pairing of the build's names, plus an unknown
        # service: `has_api` is true exactly when `call` finds a handler.
        built = apps.build_app(apps.app_version(app, "soa", "ml"), apps.make_scenario(app, 20, 3))
        reg = built.registry
        specs = reg.service_specs()
        services = [spec.id for spec in specs] + ["ghost"]
        api_names = sorted({api.name for spec in specs for api in spec.apis})
        registered = {(spec.id, api.name) for spec in specs for api in spec.apis}
        for service in services:
            for api in api_names:
                try:
                    reg.call("sim", service, api, {})
                    found = True
                except UnknownServiceError:
                    found = False
                except Exception:
                    found = True  # the handler ran and refused the empty request
                assert reg.has_api(service, api) is found
                assert found is ((service, api) in registered)


class TestCall:
    def test_echo_round_trip_appends_trace(self):
        reg = ServiceRegistry()
        reg.register(_echo_service())
        response = reg.call("sim", "echo", "ping", {"x": 1})
        assert response == {"x": 1}
        assert reg.trace == [CallEntry("sim", "echo", "ping", 0)]

    def test_interim_call_shows_up_in_trace(self):
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
        response = reg.call("sim", "A", "compute", {"x": 5})
        assert response == {"out": 15}
        assert [(e.caller, e.callee, e.api) for e in reg.trace] == [
            ("sim", "A", "compute"),
            ("A", "C", "lookup"),
        ]

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
            responses = [reg.call("sim", "echo", "ping", {"x": i}) for i in range(5)]
            return responses, [(e.caller, e.callee, e.api, e.tick) for e in reg.trace]

        assert run() == run()


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
        # After a call, the only places a payload could hide are the trace
        # and the stores. The trace carries identifiers only; the store is
        # empty unless a handler wrote to it.
        reg = ServiceRegistry()
        reg.register(_echo_service())
        marker = {"x": 987654321}
        reg.call("sim", "echo", "ping", marker)
        for entry in reg.trace:
            assert not hasattr(entry, "request")
            assert not hasattr(entry, "response")
            assert 987654321 not in tuple(entry._asdict().values())
        assert reg.context_for("echo").store_table("anything") == {}


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
