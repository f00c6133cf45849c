"""Service baseline: registry, calls, tracing, data hiding."""

import pytest

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
            assert 987654321 not in tuple(vars(entry).values())
        assert reg.context_for("echo").store_table("anything") == {}
