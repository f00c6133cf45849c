"""Service baseline: registry, calls, call counts, data hiding, and dispatch
checked against a reference registry."""

import dataclasses
import json
from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench import apps
from flowbench.canon import canonical_json
from flowbench.services import (
    ApiSpec,
    DuplicateServiceError,
    HandlerError,
    ReentrantCallError,
    RoutineSpec,
    ServiceContext,
    ServiceError,
    ServiceRegistry,
    ServiceSpec,
    UnknownServiceError,
)
from flowbench.sim import execute, run_scenario
from util_runs import recorded_calls, recorded_wire


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

    def test_call_counts_list_only_called_apis_and_count_failed_calls(self):
        def boom(req, ctx):
            raise RuntimeError("nope")

        reg = ServiceRegistry()
        reg.register(_echo_service())
        reg.register(ServiceSpec("A", apis=(ApiSpec("go", boom, (), ()), ApiSpec("idle", boom, (), ()))))
        assert reg.call_counts == {}
        for _ in range(2):
            with pytest.raises(HandlerError):
                reg.call("sim", "A", "go", {})
        reg.call("sim", "echo", "ping", {"x": 1})
        assert reg.call_counts == {("A", "go"): 2, ("echo", "ping"): 1}

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

    def test_put_into_an_existing_table_keeps_insertion_order(self):
        ctx = self._ctx()
        for key, value in (("b", 1), ("a", 2), ("c", 3), ("b", 4)):
            ctx.store_put("t", key, {"v": value})
        assert list(ctx.store_table("t").items()) == [("b", {"v": 4}), ("a", {"v": 2}), ("c", {"v": 3})]
        assert list(ctx._tables) == ["t"]

    def test_reading_a_missing_table_creates_nothing(self):
        ctx = self._ctx()
        assert ctx.store_get("t", "k") is None
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


class _ReferenceContext(ServiceContext):
    """The store and routine paths as they were before the dispatch cells:
    every read and write goes through a default `{}`."""

    def store_get(self, table, key):
        return self._tables.get(table, {}).get(key)

    def store_put(self, table, key, document):
        self._tables.setdefault(table, {})[key] = document

    def store_table(self, table):
        return MappingProxyType(self._tables.get(table, {}))

    def routine(self, name, *args):
        fn = self._routines.get(name)
        if fn is None:
            raise ServiceError(f"service {self.service_id!r} has no routine {name!r}")
        return fn(self, *args)


class _ReferenceRegistry:
    """The oracle for `ServiceRegistry`: the dispatch it replaced, with a
    `(handler, context)` index, a set of the APIs in flight and a dict of
    call counts beside the call."""

    def __init__(self):
        self.tick = 0
        self.call_counts: dict[tuple[str, str], int] = {}
        self._services: dict[str, ServiceSpec] = {}
        self._apis: dict[tuple[str, str], tuple] = {}
        self._contexts: dict[str, ServiceContext] = {}
        self._in_flight: set[tuple[str, str]] = set()

    def register(self, spec):
        self._services[spec.id] = spec
        ctx = _ReferenceContext(spec.id, self, {r.name: r.fn for r in spec.routines})
        self._contexts[spec.id] = ctx
        for api in spec.apis:
            self._apis[(spec.id, api.name)] = (api.handler, ctx)

    def call(self, caller, callee, api, request):
        key = (callee, api)
        target = self._apis.get(key)
        if target is None:
            if callee not in self._services:
                raise UnknownServiceError(f"unknown service {callee!r}")
            raise UnknownServiceError(f"service {callee!r} has no api {api!r}")
        in_flight = self._in_flight
        if key in in_flight:
            raise ReentrantCallError(f"re-entrant call to {callee}.{api}")
        counts = self.call_counts
        counts[key] = counts.get(key, 0) + 1
        in_flight.add(key)
        handler, ctx = target
        try:
            return handler(request, ctx)
        except ServiceError:
            raise
        except Exception as exc:
            raise HandlerError(callee, api, exc) from exc
        finally:
            in_flight.discard(key)


# A plan step. `call` and `try` name a target API by indexes taken modulo
# the graph's sizes, so any API may call any other, itself included; `try`
# answers with the type and message of a service error instead of raising.
_STEPS = st.one_of(
    st.tuples(st.just("call"), st.integers(0, 4), st.integers(0, 2)),
    st.tuples(st.just("try"), st.integers(0, 4), st.integers(0, 2)),
    st.tuples(st.just("put"), st.sampled_from("tu"), st.sampled_from("ab")),
    st.tuples(st.just("get"), st.sampled_from("tuv"), st.sampled_from("ab")),
    st.tuples(st.just("table"), st.sampled_from("tuv")),
    st.sampled_from((("raise",), ("no_routine",), ("no_api",))),
)
# Per service (2-5), per API (1-3): its plan.
_GRAPHS = st.lists(st.lists(st.lists(_STEPS, max_size=4), min_size=1, max_size=3), min_size=2, max_size=5)
# Top-level calls by service and API index, taken modulo the graph's sizes.
_TOP_CALLS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=1, max_size=6)
_BUDGET = 60  # handler runs in one registry's life before each answers {}


def _serve(registry_class, graph) -> tuple[object, dict]:
    """A registry of `registry_class` where service `s<i>` has APIs
    `a<j>`, each running `graph[i][j]` step by step, and the state its
    handlers share: set `quiet` and every handler answers `{}` at once.
    Every handler run spends one of `_BUDGET`; once it is spent, handlers
    answer `{}` too, which bounds the calls of a cyclic plan."""
    state = {"budget": _BUDGET, "quiet": False}

    def target(step):
        s = step[1] % len(graph)
        return f"s{s}", f"a{step[2] % len(graph[s])}"

    def handler(plan):
        def run(request, ctx):
            state["budget"] -= 1
            if state["quiet"] or state["budget"] < 0:
                return {}
            out = {}
            for i, step in enumerate(plan):
                kind = step[0]
                if kind == "call":
                    out[i] = ctx.call(*target(step), {})
                elif kind == "try":
                    try:
                        out[i] = ctx.call(*target(step), {})
                    except ServiceError as exc:
                        out[i] = (type(exc).__name__, str(exc))
                elif kind == "put":
                    ctx.routine("put", step[1], step[2], (ctx.tick, state["budget"]))
                elif kind == "get":
                    out[i] = ctx.routine("get", step[1], step[2])
                elif kind == "table":
                    out[i] = ctx.routine("table", step[1])
                elif kind == "raise":
                    raise ValueError(f"{ctx.service_id} fails at step {i}")
                elif kind == "no_routine":
                    ctx.routine("missing")
                else:
                    ctx.call(ctx.service_id, "ghost", {})
            return out

        return run

    routines = (
        RoutineSpec("put", lambda ctx, table, key, doc: ctx.store_put(table, key, doc)),
        RoutineSpec("get", lambda ctx, table, key: ctx.store_get(table, key)),
        RoutineSpec("table", lambda ctx, table: list(ctx.store_table(table).items())),
    )
    registry = registry_class()
    for s, plans in enumerate(graph):
        apis = tuple(ApiSpec(f"a{a}", handler(plan), (), ()) for a, plan in enumerate(plans))
        registry.register(ServiceSpec(f"s{s}", apis, routines))
    return registry, state


def _run_top_calls(registry, graph, calls) -> list:
    """Each top-level call's response, or its error's type and message,
    then those of a call to an unknown service and to an unknown API; the
    registry's tick is the call's index."""
    names = [(f"s{s % len(graph)}", f"a{a % len(graph[s % len(graph)])}") for s, a in calls]
    outcomes = []
    for tick, (service, api) in enumerate([*names, ("ghost", "a0"), ("s0", "ghost")]):
        registry.tick = tick
        try:
            outcomes.append(registry.call("sim", service, api, {}))
        except ServiceError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def _served(registry_class, graph, calls) -> tuple:
    """Everything a run of `calls` shows: the outcomes, the call counts,
    the recorded calls and every store, tables and rows in order."""
    registry, state = _serve(registry_class, graph)
    with recorded_calls(registry_class) as recorded:
        outcomes = _run_top_calls(registry, graph, calls)
    stores = {
        sid: [(table, list(rows.items())) for table, rows in ctx._tables.items()]
        for sid, ctx in registry._contexts.items()
    }
    served = (outcomes, dict(registry.call_counts), recorded[registry], stores)
    # No API is left in flight, whatever failed: with every plan silenced,
    # every API answers a top-level call.
    state["quiet"] = True
    for s, plans in enumerate(graph):
        for a in range(len(plans)):
            assert registry.call("sim", f"s{s}", f"a{a}", {}) == {}, (s, a)
    return served


class TestDispatchOracle:
    @given(graph=_GRAPHS, calls=_TOP_CALLS)
    @settings(max_examples=300, deadline=None)
    def test_dispatch_equals_the_reference(self, graph, calls):
        assert _served(ServiceRegistry, graph, calls) == _served(_ReferenceRegistry, graph, calls)

    @pytest.mark.parametrize("mode,error", (("raise", HandlerError), ("reenter", ReentrantCallError)))
    def test_no_api_is_left_in_flight_after_a_deep_failure(self, mode, error):
        # A.go -> B.go -> C.go, and C.go fails or calls A.go again.
        def last(req, ctx):
            if req.get("mode") == "raise":
                raise RuntimeError("deep")
            return ctx.call("A", "go", req) if req.get("mode") == "reenter" else {}

        reg = ServiceRegistry()
        reg.register(ServiceSpec("C", apis=(ApiSpec("go", last, (), ()),)))
        for caller, callee in (("B", "C"), ("A", "B")):
            forward = ApiSpec("go", lambda req, ctx, c=callee: ctx.call(c, "go", req), (), ())
            reg.register(ServiceSpec(caller, apis=(forward,)))
        with pytest.raises(error):
            reg.call("sim", "A", "go", {"mode": mode})
        for service in ("A", "B", "C"):
            assert reg.call("sim", service, "go", {}) == {}
        assert reg.call_counts == {("A", "go"): 2, ("B", "go"): 3, ("C", "go"): 4}


@pytest.mark.parametrize("stage", apps.APP_STAGES)
@pytest.mark.parametrize("app", apps.APP_NAMES)
def test_report_counts_equal_the_calls_made(app, stage):
    # Oracle: count the calls the serving registry was asked to make, the
    # calls between services and the closing `export_dataset` included.
    with recorded_calls() as calls:
        result = execute(apps.make_scenario(app, 60, 3), apps.app_version(app, "soa", stage))
        made = Counter(f"api/{callee}.{api}" for _, callee, api, _ in calls[result.built.registry])
    assert list(result.counts.items()) == sorted(made.items())
    for spec in result.built.registry.service_specs():
        if any(api.name == "export_dataset" for api in spec.apis):
            assert result.counts[f"api/{spec.id}.export_dataset"] == 1


@pytest.mark.parametrize("seed", (1, 9))
@pytest.mark.parametrize("stage", apps.APP_STAGES)
@pytest.mark.parametrize("app", apps.APP_NAMES)
def test_every_call_carries_exactly_its_declared_wire_fields(app, stage, seed):
    # The `ApiSpec` signature is the wire: each request holds exactly its
    # API's `request_fields` and each response its `response_fields`, in
    # the training run of an ml stage too, and the serving run calls every API.
    with recorded_wire() as wire:
        result = execute(apps.make_scenario(app, 120, seed), apps.app_version(app, "soa", stage))
        for registry, calls in wire.items():
            declared = {
                (spec.id, api.name): (sorted(api.request_fields), sorted(api.response_fields))
                for spec in registry.service_specs()
                for api in spec.apis
            }
            for callee, api, request, response in calls:
                assert (sorted(request), sorted(response)) == declared[(callee, api)], (callee, api)
        served = result.built.registry
        assert {(callee, api) for callee, api, _, _ in wire[served]} == {
            (spec.id, api.name) for spec in served.service_specs() for api in spec.apis
        }


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
