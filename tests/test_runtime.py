"""Runtime executor: injection, stepping, cursors, determinism."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowbench
from flowbench.graph import (
    Category,
    GraphBuilder,
    GraphValidationError,
    InEdge,
    Record,
    Schema,
    SchemaMismatchError,
    UnknownElementError,
    topological_order,
    upstream_closure,
    validate,
)
from flowbench.runtime import (
    FailedInstanceError,
    NodeError,
    StreamWriteError,
    TransformError,
    start,
)
from flowbench.rng import SplitMix64
from util_graphs import POINT, chain_graph, copy_transform, random_dag

REAL = Schema("real", (("f", "float"),))


class TestStart:
    def test_fresh_instance_is_empty(self):
        inst = start(chain_graph())
        assert all(inst.length(sid) == 0 for sid in inst.stream_ids())

    def test_invalid_graph_rejected_with_first_violation(self):
        # Two nodes write s, which C reads: an internal stream with two producers.
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("s", POINT)
        b.stream("o", POINT)
        b.node("A", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "s"})
        b.node("B", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "s"})
        b.node("C", copy_transform("in", "out"), inputs={"in": "s"}, outputs={"out": "o"})
        graph = b.build()
        with pytest.raises(GraphValidationError) as err:
            start(graph)
        assert "internal" in str(err.value)
        assert err.value.violations == validate(graph)

    def test_instances_are_isolated(self):
        graph = chain_graph()
        one, two = start(graph), start(graph)
        one.inject("i", {"x": 1})
        assert one.length("i") == 1
        assert two.length("i") == 0

        graph = running_sum_graph(fold=True)
        one, two = start(graph), start(graph)
        one.inject("i", {"k": 0, "v": 5})
        one.step()
        two.inject("i", {"k": 0, "v": 1})
        two.step()
        assert [r["total"] for r in one.read("o")] == [5]
        assert [r["total"] for r in two.read("o")] == [1]

    def test_start_orders_the_graph_with_one_kahn_pass(self, monkeypatch):
        real, calls = flowbench.graph._kahn, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(flowbench.graph, "_kahn", counted)
        start(chain_graph())
        assert len(calls) == 1

    def test_start_indexes_the_wiring_once(self, monkeypatch):
        real, calls = flowbench.graph.FlowGraph.wiring, []

        def counted(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(flowbench.graph.FlowGraph, "wiring", counted)
        graph = chain_graph()
        start(graph)
        assert calls == [graph]


class TestInject:
    def test_first_record_gets_tick0_at_position0(self):
        inst = start(chain_graph())
        rec = inst.inject("i", {"x": 1})
        assert rec.tick == 0
        assert inst.read("i") == [rec]

    def test_second_inject_same_tick_takes_the_next_position(self):
        inst = start(chain_graph())
        first = inst.inject("i", {"x": 1})
        rec = inst.inject("i", {"x": 2})
        assert rec.tick == 0
        assert inst.read("i") == [first, rec]
        assert inst.read("i", 1) == [rec]

    def test_inject_into_internal_stream_rejected(self):
        inst = start(chain_graph())
        with pytest.raises(StreamWriteError, match="not an input stream"):
            inst.inject("s", {"x": 1})

    def test_schema_mismatch_rejected(self):
        inst = start(chain_graph())
        with pytest.raises(Exception):
            inst.inject("i", {"x": "seven"})

    def test_int_beyond_float_range_is_a_schema_mismatch(self):
        b = GraphBuilder()
        b.stream("i", REAL)
        b.stream("o", REAL)
        b.node("A", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "o"})
        inst = start(b.build())
        with pytest.raises(SchemaMismatchError, match="field 'f' wants float, got 1358298529"):
            inst.inject("i", {"f": 2**1100})
        assert inst.inject("i", {"f": 2**1000}).values == (float(2**1000),)
        assert inst.length("i") == 1


class TestWriteRoles:
    """`inject` writes inputs and `append_collected` producer-less outputs,
    each role read off the edges."""

    @staticmethod
    def _start():
        # The chain i -> A -> s -> B -> o, plus d, which no node reads or writes.
        graph = chain_graph()
        return start(graph._replace(streams=graph.streams + (graph.streams[0]._replace(id="d"),)))

    def test_inject_writes_only_a_stream_that_nodes_read_and_none_writes(self):
        inst = self._start()
        assert inst.inject("i", {"x": 1}).values == (1,)
        for sid in ("s", "o", "d"):  # d is an output: no node reads it
            with pytest.raises(StreamWriteError, match=f"'{sid}' is not an input stream"):
                inst.inject(sid, {"x": 1})
        with pytest.raises(UnknownElementError):
            inst.inject("nope", {"x": 1})

    def test_append_collected_writes_only_an_output_that_no_node_writes(self):
        inst = self._start()
        assert inst.append_collected("d", {"x": 1}).values == (1,)
        with pytest.raises(StreamWriteError, match="'o' is produced by a node"):
            inst.append_collected("o", {"x": 1})
        for sid in ("i", "s"):
            with pytest.raises(StreamWriteError, match=f"'{sid}' is not an output stream"):
                inst.append_collected(sid, {"x": 1})
        with pytest.raises(UnknownElementError):
            inst.append_collected("nope", {"x": 1})
        assert [inst.length(sid) for sid in ("i", "s", "o", "d")] == [0, 0, 0, 1]


class TestStep:
    def test_raising_transform_names_node_and_tick(self):
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("s", POINT)
        b.stream("o", POINT)
        b.node("A", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "s"})
        b.node(
            "B",
            lambda inputs: {"out": [{"x": 1 // r["x"]} for r in inputs["in"]]},
            inputs={"in": "s"},
            outputs={"out": "o"},
        )
        inst = start(b.build())
        inst.step()
        inst.inject("i", {"x": 0})
        with pytest.raises(NodeError, match="node 'B' at tick 1: ZeroDivisionError") as err:
            inst.step()
        assert (err.value.node, err.value.tick) == ("B", 1)
        assert isinstance(err.value.__cause__, ZeroDivisionError)
        assert err.value.cause is err.value.__cause__

    def test_same_tick_propagation_through_chain(self):
        inst = start(chain_graph())
        inst.inject("i", {"x": 7})
        inst.step()
        out = inst.read("o", 0)
        assert len(out) == 1
        assert out[0].as_dict() == {"x": 7}
        assert out[0].tick == 0

    def test_step_without_injections_produces_nothing(self):
        inst = start(chain_graph())
        summary = inst.step()
        assert summary.produced == {}
        assert all(inst.length(sid) == 0 for sid in inst.stream_ids())

    def test_one_output_per_input_record(self):
        inst = start(chain_graph())
        for x in range(3):
            inst.inject("i", {"x": x})
        inst.step()
        assert [r["x"] for r in inst.read("o", 0)] == [0, 1, 2]

    def test_delta_is_not_reprocessed(self):
        inst = start(chain_graph())
        inst.inject("i", {"x": 1})
        inst.step()
        inst.step()
        assert inst.length("o") == 1

    def test_bad_transform_output_aborts_with_context(self):
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("o", Schema("other", (("y", "int"),)))
        b.node(
            "A",
            lambda inputs: {"out": [{"x": r["x"]} for r in inputs["in"]]},
            inputs={"in": "i"},
            outputs={"out": "o"},
        )
        inst = start(b.build())
        inst.inject("i", {"x": 1})
        with pytest.raises(TransformError, match="'A'"):
            inst.step()

    def test_bad_port_leaves_no_rows_from_earlier_ports(self):
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("good", POINT)
        b.stream("bad", Schema("other", (("y", "int"),)))
        b.node(
            "A",
            lambda inputs: {
                "good": [r.as_dict() for r in inputs["in"]],
                "bad": [r.as_dict() for r in inputs["in"]],
            },
            inputs={"in": "i"},
            outputs={"good": "good", "bad": "bad"},
        )
        inst = start(b.build())
        inst.step()
        inst.inject("i", {"x": 1})
        with pytest.raises(TransformError, match="node 'A' port 'bad' at tick 1"):
            inst.step()
        assert inst.length("good") == 0
        assert inst.length("bad") == 0


    def test_two_ports_on_one_stream_number_its_records_in_port_order(self):
        # Validation allows a node to wire two out-ports to one output
        # stream; its records go into the log port after port.
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("o", POINT)
        b.node(
            "A",
            lambda inputs: {
                "pos": [{"x": r["x"]} for r in inputs["in"]],
                "neg": [{"x": -r["x"]} for r in inputs["in"]],
            },
            inputs={"in": "i"},
            outputs={"pos": "o", "neg": "o"},
        )
        graph = b.build()
        assert validate(graph) == []
        inst = start(graph)
        inst.inject("i", {"x": 1})
        inst.inject("i", {"x": 2})
        assert inst.step().produced == {"o": 4}
        assert [(pos, r.values) for pos, r in enumerate(inst.read("o"))] == [
            (0, (1,)), (1, (2,)), (2, (-1,)), (3, (-2,)),
        ]

    def test_int_beyond_float_range_fails_the_tick_naming_node_port_and_tick(self):
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("o", REAL)
        b.node(
            "A",
            lambda inputs: {"out": [{"f": 2 ** (100 * r["x"])} for r in inputs["in"]]},
            inputs={"in": "i"},
            outputs={"out": "o"},
        )
        inst = start(b.build())
        inst.inject("i", {"x": 1})
        inst.step()
        inst.inject("i", {"x": 2})
        inst.inject("i", {"x": 11})
        with pytest.raises(TransformError, match="node 'A' port 'out' at tick 1: .*wants float") as err:
            inst.step()
        assert isinstance(err.value.__cause__, SchemaMismatchError)
        assert [r.values for r in inst.read("o")] == [(2.0**100,)]

    def test_non_mapping_row_fails_the_tick_and_appends_nothing(self):
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("good", POINT)
        b.stream("bad", POINT)
        b.node(
            "A",
            lambda inputs: {"good": [{"x": 1}], "bad": [None]},
            inputs={"in": "i"},
            outputs={"good": "good", "bad": "bad"},
        )
        inst = start(b.build())
        inst.inject("i", {"x": 1})  # a node runs only when an in-port gained records
        with pytest.raises(
            TransformError, match="node 'A' port 'bad' at tick 0: schema 'point': row must be a mapping, got NoneType"
        ) as err:
            inst.step()
        assert isinstance(err.value.__cause__, SchemaMismatchError)
        assert inst.length("good") == 0
        with pytest.raises(FailedInstanceError, match="node 'A' port 'bad' at tick 0"):
            inst.step()

    def test_every_write_is_one_class_level_coerce_row_call(self, monkeypatch):
        # Each record goes through `Schema.coerce_row` as the class holds it
        # when the instance starts, so a wrapper put there sees every write.
        seen = []
        real = Schema.coerce_row
        monkeypatch.setattr(
            Schema, "coerce_row", lambda self, v: seen.append((self.name, dict(v))) or real(self, v)
        )
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("o", POINT)
        b.node("A", lambda inputs: {"out": [{"x": r["x"] * 2} for r in inputs["in"]]},
               inputs={"in": "i"}, outputs={"out": "o"})
        inst = start(b.build())
        inst.inject("i", {"x": 1})
        inst.inject("i", {"x": 2})
        inst.step()
        name = POINT.name
        assert seen == [(name, {"x": 1}), (name, {"x": 2}), (name, {"x": 2}), (name, {"x": 4})]
        assert [(r.tick, r.values) for r in inst.read("o")] == [(0, (2,)), (0, (4,))]

    def test_undeclared_port_message(self):
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("o", POINT)
        b.node(
            "A",
            lambda inputs: {"zz": [], "out": [], "nope": [{"x": 1}]},
            inputs={"in": "i"},
            outputs={"out": "o"},
        )
        inst = start(b.build())
        inst.inject("i", {"x": 1})
        with pytest.raises(TransformError) as err:
            inst.step()
        assert str(err.value) == "node 'A' at tick 0 emitted to undeclared ports ['nope', 'zz']"


def _failing_graph(second):
    """i -> A -> s -> B -> o, plus i -> C -> c: A and C copy, B is `second`.

    Topological order is A, B, C, so when B fails A has appended and C has
    not run."""
    b = GraphBuilder()
    b.stream("i", POINT)
    b.stream("s", POINT)
    b.stream("o", POINT)
    b.stream("c", POINT)
    b.stream("d", POINT)
    b.node("A", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "s"})
    b.node("B", second, inputs={"in": "s"}, outputs={"out": "o"})
    b.node("C", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "c"})
    return b.build()


def _divide(inputs):
    return {"out": [{"x": 1 // r["x"]} for r in inputs["in"]]}


def _bad_schema(inputs):
    return {"out": [{"x": r["x"]} if r["x"] else {"y": 0} for r in inputs["in"]]}


def _bad_port(inputs):
    if any(r["x"] == 0 for r in inputs["in"]):
        return {"nope": [{"x": 0}]}
    return {}


def _snapshot(inst):
    return {sid: inst.read(sid) for sid in inst.stream_ids()}


class TestFailedTick:
    @pytest.mark.parametrize(
        "second,error",
        [(_divide, NodeError), (_bad_schema, TransformError), (_bad_port, TransformError)],
    )
    def test_logs_end_as_they_were_at_step_entry(self, second, error):
        inst = start(_failing_graph(second))
        inst.inject("i", {"x": 3})
        inst.step()
        inst.inject("i", {"x": 0})
        inst.inject("i", {"x": 5})
        before = _snapshot(inst)
        assert len(before["s"]) == 1 and len(before["i"]) == 3
        with pytest.raises(error, match="'B'.* at tick 1"):
            inst.step()
        assert _snapshot(inst) == before
        assert inst.tick == 1

    @pytest.mark.parametrize("result", [["o"], "o", ("o",), 42], ids=["list", "str", "tuple", "int"])
    def test_a_result_that_is_not_a_dict_fails_the_tick_naming_node_and_tick(self, result):
        inst = start(_failing_graph(lambda inputs: {} if inputs["in"][0]["x"] else result))
        inst.inject("i", {"x": 3})
        inst.step()
        inst.inject("i", {"x": 0})
        before = _snapshot(inst)
        message = f"node 'B' at tick 1 returned a {type(result).__name__}, not a dict of port -> rows"
        with pytest.raises(TransformError) as err:
            inst.step()
        assert str(err.value) == message
        assert _snapshot(inst) == before
        assert inst.tick == 1
        with pytest.raises(FailedInstanceError, match="node 'B' at tick 1 returned"):
            inst.step()

    @pytest.mark.parametrize("result", [None, {}, [], "", (), 0, False])
    def test_a_falsy_result_means_no_output(self, result):
        inst = start(_failing_graph(lambda inputs: result))
        inst.inject("i", {"x": 3})
        assert inst.step().produced == {"s": 1, "c": 1}
        assert inst.length("o") == 0
        assert inst.invocations == {"A": 1, "B": 1, "C": 1}

    def test_failed_instance_refuses_steps_and_writes(self):
        inst = start(_failing_graph(_divide))
        inst.inject("i", {"x": 0})
        with pytest.raises(NodeError):
            inst.step()
        before = _snapshot(inst)
        calls = [
            inst.step,
            lambda: inst.inject("i", {"x": 1}),
            lambda: inst.append_collected("d", {"x": 1}),
        ]
        for call in calls:
            with pytest.raises(FailedInstanceError, match="node 'B' at tick 0: ZeroDivisionError"):
                call()
        assert _snapshot(inst) == before
        assert inst.length("i") == 1 and inst.length("s") == 0

    def test_first_node_failing_appends_nothing(self):
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("o", POINT)
        b.node("A", _divide, inputs={"in": "i"}, outputs={"out": "o"})
        inst = start(b.build())
        inst.inject("i", {"x": 2})
        inst.step()
        inst.inject("i", {"x": 0})
        with pytest.raises(NodeError):
            inst.step()
        assert [r.values for r in inst.read("o")] == [(0,)]


class TestRead:
    def _three_records(self):
        inst = start(chain_graph())
        for x in range(3):
            inst.inject("i", {"x": x})
        inst.step()
        return inst

    def test_read_from_zero(self):
        assert len(self._three_records().read("o", 0)) == 3

    def test_read_past_end_is_empty(self):
        assert self._three_records().read("o", 3) == []

    def test_read_is_pure(self):
        inst = self._three_records()
        assert inst.read("o", 1) == inst.read("o", 1)

    def test_mutating_what_read_returns_leaves_the_log_unchanged(self):
        inst = self._three_records()
        before = inst.read("o")
        for start_at in (0, 1):
            got = inst.read("o", start_at)
            got.clear()
            got.append("junk")
        assert inst.read("o") == before
        assert [r["x"] for r in before] == [0, 1, 2]

    def test_read_starts_at_a_log_position(self):
        inst = self._three_records()
        log = inst.read("o")
        for start_at in range(4):
            assert inst.read("o", start_at) == log[start_at:]
        assert inst.read("o", start=2) == log[2:]

    @pytest.mark.parametrize("start_at", [True, False, 1.5, 1.0, "1", None, -1])
    def test_read_refuses_a_start_that_is_not_a_non_negative_int(self, start_at):
        with pytest.raises(ValueError, match="start must be an int >= 0"):
            self._three_records().read("o", start_at)

    def test_read_unknown_stream_raises(self):
        from flowbench.graph import UnknownElementError

        with pytest.raises(UnknownElementError):
            self._three_records().read("ghost", 0)


KV = Schema("kv", (("k", "int"), ("v", "int")))
TOTAL = Schema("total", (("k", "int"), ("total", "int")))


def _sum_fold(inputs, totals):
    out = []
    for rec in inputs["in"]:
        totals[rec["k"]] = totals.get(rec["k"], 0) + rec["v"]
        out.append({"k": rec["k"], "total": totals[rec["k"]]})
    return {"out": out}


def _sum_recompute(inputs, seen):
    """Oracle: the same running sums, recomputed on every call from the node's
    own copy of every record it has been shown."""
    new_from = len(seen)
    seen.extend(inputs["in"])
    totals: dict[int, int] = {}
    out = []
    for i, rec in enumerate(seen):
        totals[rec["k"]] = totals.get(rec["k"], 0) + rec["v"]
        if i >= new_from:
            out.append({"k": rec["k"], "total": totals[rec["k"]]})
    return {"out": out}


def running_sum_graph(fold: bool):
    """i -> sum -> o: per-key running totals, as a fold or as a recompute."""
    b = GraphBuilder()
    b.stream("i", KV)
    b.stream("o", TOTAL)
    wiring = {"inputs": {"in": "i"}, "outputs": {"out": "o"}}
    if fold:
        b.fold("sum", dict, _sum_fold, **wiring)
    else:
        b.fold("sum", list, _sum_recompute, **wiring)
    return b.build()


class TestFold:
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 3), st.integers(-5, 5)), max_size=4),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fold_equals_recompute_from_history(self, ticks):
        fold = start(running_sum_graph(fold=True))
        oracle = start(running_sum_graph(fold=False))
        for rows in ticks:
            for k, v in rows:
                fold.inject("i", {"k": k, "v": v})
                oracle.inject("i", {"k": k, "v": v})
            fold.step()
            oracle.step()
            got = [(r.tick, r.values) for r in fold.read("o")]
            assert got == [(r.tick, r.values) for r in oracle.read("o")]


    @pytest.mark.parametrize("init", [lambda: None, lambda: 0, dict, list, set])
    def test_falsy_state_is_passed_on_every_tick(self, init):
        seen = []

        def step(inputs, state):
            seen.append(state)
            return {"out": [{"k": r["k"], "total": r["v"]} for r in inputs["in"]]}

        b = GraphBuilder()
        b.stream("i", KV)
        b.stream("o", TOTAL)
        b.fold("f", init, step, inputs={"in": "i"}, outputs={"out": "o"})
        inst = start(b.build())
        for t in range(3):
            inst.inject("i", {"k": t, "v": t})
            inst.step()
        assert len(seen) == 3
        assert not seen[0]
        assert all(state is seen[0] for state in seen)
        assert inst.length("o") == 3


def _drive(graph, seed, ticks=5):
    """Inject a random workload, return full logs as comparable tuples of
    (tick, values), one per record at its log position."""
    inst = start(graph)
    rng = SplitMix64(seed)
    inputs = [sid for sid, role in graph.wiring().roles.items() if role is Category.INPUT]
    appended = dict.fromkeys(inst.stream_ids(), 0)
    for _ in range(ticks):
        for sid in inputs:
            for _ in range(rng.randrange(3)):
                inst.inject(sid, {"x": rng.randrange(100)})
                appended[sid] += 1
        for sid, n in inst.step().produced.items():
            appended[sid] += n
    # conservation: a log holds exactly the records injected or produced into it
    assert appended == {sid: inst.length(sid) for sid in inst.stream_ids()}
    return {sid: tuple((r.tick, r.values) for r in inst.read(sid, 0)) for sid in inst.stream_ids()}, inst


class TestRunProperties:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40, deadline=None)
    def test_identical_runs_produce_identical_logs(self, seed):
        graph = random_dag(seed)
        logs_a, _ = _drive(graph, seed)
        logs_b, _ = _drive(graph, seed)
        assert logs_a == logs_b

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=25, deadline=None)
    def test_replay_on_fresh_instance_reproduces_logs(self, seed):
        # All state lives in the instance (logs, cursors, fold state), so
        # replaying the injection/tick protocol on a brand-new instance
        # must give the same logs.
        graph = random_dag(seed)
        logs_a, inst_a = _drive(graph, seed, ticks=4)
        logs_b, _ = _drive(graph, seed, ticks=4)
        assert logs_a == logs_b
        # a log position's record is what the log holds there; ticks non-decreasing
        for sid in inst_a.stream_ids():
            records = inst_a.read(sid, 0)
            for pos, rec in enumerate(records):
                assert inst_a.read(sid, pos)[0] is rec
            ticks = [r.tick for r in records]
            assert ticks == sorted(ticks)

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=25, deadline=None)
    def test_a_node_runs_once_per_tick_at_which_an_in_port_gained_records(self, seed):
        graph = random_dag(seed)
        logs, inst = _drive(graph, seed, ticks=6)
        for node in graph.nodes:
            fed = {
                rec_tick
                for e in graph.in_edges
                if e.node == node.id
                for rec_tick, _ in logs[e.stream]
            }
            assert inst.invocations[node.id] == len(fed), node.id


def _every_tick_logs(graph, seed, ticks):
    """`_drive`'s logs from a stepper that calls every node on every tick,
    fed or not, with the records new on each in-port since its last call."""
    wiring, nodes = graph.wiring(), graph.node_map()
    schemas = {s.id: s.schema for s in graph.streams}
    logs = {sid: [] for sid in schemas}
    cursors = {(e.node, e.port): 0 for e in graph.in_edges}
    rng = SplitMix64(seed)
    inputs = [sid for sid, role in wiring.roles.items() if role is Category.INPUT]
    for tick in range(ticks):
        for sid in inputs:
            for _ in range(rng.randrange(3)):
                logs[sid].append(Record(schemas[sid], schemas[sid].coerce_row({"x": rng.randrange(100)}), tick))
        for nid in topological_order(graph):
            views = {e.port: logs[e.stream][cursors[e.node, e.port]:] for e in wiring.ins[nid]}
            result = nodes[nid].transform(views) or {}
            for e in wiring.ins[nid]:
                cursors[e.node, e.port] = len(logs[e.stream])
            for e in wiring.outs[nid]:
                schema = schemas[e.stream]
                logs[e.stream] += [Record(schema, schema.coerce_row(row), tick) for row in result.get(e.port, ())]
    return {sid: tuple((r.tick, r.values) for r in log) for sid, log in logs.items()}


def _spied(graph, calls):
    """`graph` with each node's transform recording (node id, whether any
    in-port holds a record) before it runs."""

    def spy(nid, transform):
        def spied(inputs):
            calls.append((nid, any(map(len, inputs.values()))))
            return transform(inputs)

        return spied

    return graph._replace(nodes=tuple(n._replace(transform=spy(n.id, n.transform)) for n in graph.nodes))


def _ticks_seen(graph, ticks):
    """`graph` with each node's transform recording the tick of every record it gets."""

    def spy(transform):
        def spied(inputs):
            ticks.extend(r.tick for port in inputs.values() for r in port)
            return transform(inputs)

        return spied

    return graph._replace(nodes=tuple(n._replace(transform=spy(n.transform)) for n in graph.nodes))


class TestActivation:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40, deadline=None)
    def test_no_idle_calls_and_same_logs_as_calling_every_node_every_tick(self, seed):
        graph = random_dag(seed)
        calls, every_tick_calls = [], []
        logs, _ = _drive(_spied(graph, calls), seed, ticks=6)
        reference = _every_tick_logs(_spied(graph, every_tick_calls), seed, ticks=6)
        assert all(fed for _, fed in calls)
        assert len(every_tick_calls) == 6 * len(graph.nodes)
        assert [c for c in every_tick_calls if c[1]] == calls
        assert logs == reference

    @given(st.integers(min_value=0, max_value=5_000), st.lists(st.booleans(), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_every_record_a_node_gets_was_appended_at_the_stepped_tick(self, seed, inject_on):
        graph = random_dag(seed)
        ticks = []
        inst = start(_ticks_seen(graph, ticks))
        rng = SplitMix64(seed)
        inputs = [sid for sid, role in graph.wiring().roles.items() if role is Category.INPUT]
        for tick, inject in enumerate(inject_on):
            if inject:
                for sid in inputs:
                    for _ in range(1 + rng.randrange(2)):
                        inst.inject(sid, {"x": rng.randrange(100)})
            del ticks[:]
            inst.step()
            assert ticks == [tick] * len(ticks)
            assert bool(ticks) is inject

    def test_a_fold_is_not_called_and_keeps_its_state_on_a_tick_without_input(self):
        seen = []

        def step(inputs, state):
            state.append(len(inputs["in"]))
            seen.append(list(state))
            return {"out": [{"k": r["k"], "total": r["v"]} for r in inputs["in"]]}

        b = GraphBuilder()
        b.stream("i", KV)
        b.stream("o", TOTAL)
        b.fold("f", list, step, inputs={"in": "i"}, outputs={"out": "o"})
        inst = start(b.build())
        for n in (2, 0, 0, 1, 0):
            for v in range(n):
                inst.inject("i", {"k": 0, "v": v})
            inst.step()
        assert seen == [[2], [2, 1]]
        assert inst.invocations == {"f": 2}
        assert [r.tick for r in inst.read("o")] == [0, 0, 3]

    def test_each_in_port_is_a_fresh_list_of_its_new_records(self):
        got = []

        def keep(inputs):
            got.append(inputs["in"])
            inputs["in"].append("junk")  # the node's own list, not the log
            return {}

        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("o", POINT)
        b.node("A", keep, inputs={"in": "i"}, outputs={"out": "o"})
        inst = start(b.build())
        inst.inject("i", {"x": 1})
        inst.inject("i", {"x": 2})
        inst.step()
        inst.inject("i", {"x": 3})
        inst.step()
        assert all(isinstance(port, list) for port in got)
        assert [[r["x"] for r in port[:-1]] for port in got] == [[1, 2], [3]]
        assert [r["x"] for r in inst.read("i")] == [1, 2, 3]


class TestPortsAreEdges:
    """A node's ports are exactly the ports its edges name: the runtime
    delivers what the closures and `validate` read."""

    def test_a_port_only_an_edge_names_is_delivered_and_in_the_closure(self):
        # i -> A -> o, plus an edge from input j to a port `extra` of A
        # that the builder never saw.
        got = []

        def keep(inputs):
            got.append({port: [r["x"] for r in recs] for port, recs in inputs.items()})
            return {"out": [r.as_dict() for r in inputs["extra"]]}

        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("j", POINT)
        b.stream("o", POINT)
        b.node("A", keep, inputs={"in": "i"}, outputs={"out": "o"})
        graph = b.build()
        graph = graph._replace(in_edges=graph.in_edges + (InEdge("j", "A", "extra"),))
        assert validate(graph) == []
        assert "j" in upstream_closure(graph, "o")
        inst = start(graph)
        inst.inject("j", {"x": 7})
        inst.step()
        assert got == [{"in": [], "extra": [7]}]
        assert [r["x"] for r in inst.read("o")] == [7]

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40, deadline=None)
    def test_each_node_gets_exactly_the_in_ports_its_in_edges_name(self, seed):
        graph = random_dag(seed)
        calls = []

        def spy(nid, transform):
            def spied(inputs):
                calls.append((nid, {port: list(recs) for port, recs in inputs.items()}))
                return transform(inputs)

            return spied

        _, inst = _drive(
            graph._replace(nodes=tuple(n._replace(transform=spy(n.id, n.transform)) for n in graph.nodes)),
            seed,
            ticks=4,
        )
        for nid, inputs in calls:
            wired = {e.port: e.stream for e in graph.in_edges if e.node == nid}
            assert set(inputs) == set(wired), nid
            # Each port holds its own stream's records of the stepped tick.
            tick = next(r.tick for recs in inputs.values() for r in recs)
            for port, sid in wired.items():
                assert inputs[port] == [r for r in inst.read(sid) if r.tick == tick], (nid, port)


# A schema's row checker is compiled the first time it checks a row, never
# at import or for the builds that manifests inventory, which never run (the
# `flowbench diff` path). The spy wraps the compiler before the apps are
# imported; the last `inject` shows it sees compiles at all.
_COUNT_CHECKER_COMPILES = """
import json
import flowbench.graph as graph

real, compiled = graph._compile_checker, []

def spy(schema):
    compiled.append(schema.name)
    return real(schema)

graph._compile_checker = spy
import flowbench.apps, flowbench.metrics
from flowbench import apps, metrics, runtime

versions = [
    apps.app_version(app, paradigm, stage)
    for app in apps.APP_NAMES for paradigm in apps.PARADIGMS for stage in apps.APP_STAGES
]
for version in versions:
    metrics.manifest(version)
after_manifests = list(compiled)
version = apps.app_version("insurance_claims", "fbp", "min")
inst = runtime.start(apps.build_app(version, apps.make_scenario(version.app, 10, 1)).graph)
assert compiled == []
roles = inst.graph.wiring().roles
stream = next(s for s in inst.graph.streams if roles[s.id] is graph.Category.INPUT)
inst.inject(stream.id, {n: {"int": 0, "float": 0.0, "text": "", "bool": False}[t]
                        for n, t in stream.schema.fields})
print(json.dumps([len(versions), after_manifests, len(compiled)]))
"""


def test_import_and_manifests_compile_no_row_checker():
    src = os.path.dirname(os.path.dirname(flowbench.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_CHECKER_COMPILES],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    n_versions, after_manifests, after_inject = json.loads(proc.stdout)
    assert n_versions == 24
    assert after_manifests == []
    assert after_inject == 1
