"""Runtime executor: injection, stepping, cursors, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench.graph import Category, GraphBuilder, GraphValidationError, Schema, validate
from flowbench.runtime import (
    FailedInstanceError,
    NodeError,
    StreamWriteError,
    TransformError,
    start,
)
from flowbench.rng import SplitMix64
from util_graphs import POINT, chain_graph, copy_transform, random_dag


class TestStart:
    def test_fresh_instance_is_empty(self):
        inst = start(chain_graph())
        assert all(inst.length(sid) == 0 for sid in inst.stream_ids())

    def test_invalid_graph_rejected_with_first_violation(self):
        b = GraphBuilder()
        b.stream("s", Category.INTERNAL, POINT)
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


class TestInject:
    def test_first_record_gets_tick0_seq0(self):
        inst = start(chain_graph())
        rec = inst.inject("i", {"x": 1})
        assert (rec.tick, rec.seq) == (0, 0)

    def test_second_inject_same_tick_increments_seq(self):
        inst = start(chain_graph())
        inst.inject("i", {"x": 1})
        rec = inst.inject("i", {"x": 2})
        assert (rec.tick, rec.seq) == (0, 1)

    def test_inject_into_internal_stream_rejected(self):
        inst = start(chain_graph())
        with pytest.raises(StreamWriteError, match="not an input stream"):
            inst.inject("s", {"x": 1})

    def test_schema_mismatch_rejected(self):
        inst = start(chain_graph())
        with pytest.raises(Exception):
            inst.inject("i", {"x": "seven"})


class TestStep:
    def test_raising_transform_names_node_and_tick(self):
        b = GraphBuilder()
        b.stream("i", Category.INPUT, POINT)
        b.stream("s", Category.INTERNAL, POINT)
        b.stream("o", Category.OUTPUT, POINT)
        b.node("A", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "s"})
        b.node(
            "B",
            lambda inputs: {"out": [{"x": 1 // r["x"]} for r in inputs["in"].new]},
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
        out = inst.read("o", 0)
        assert [r.seq for r in out] == [0, 1, 2]
        assert [r["x"] for r in out] == [0, 1, 2]

    def test_delta_is_not_reprocessed(self):
        inst = start(chain_graph())
        inst.inject("i", {"x": 1})
        inst.step()
        inst.step()
        assert inst.length("o") == 1

    def test_bad_transform_output_aborts_with_context(self):
        b = GraphBuilder()
        b.stream("i", Category.INPUT, POINT)
        b.stream("o", Category.OUTPUT, Schema("other", (("y", "int"),)))
        b.node(
            "A",
            lambda inputs: {"out": [{"x": r["x"]} for r in inputs["in"].new]},
            inputs={"in": "i"},
            outputs={"out": "o"},
        )
        inst = start(b.build())
        inst.inject("i", {"x": 1})
        with pytest.raises(TransformError, match="'A'"):
            inst.step()

    def test_bad_port_leaves_no_rows_from_earlier_ports(self):
        b = GraphBuilder()
        b.stream("i", Category.INPUT, POINT)
        b.stream("good", Category.OUTPUT, POINT)
        b.stream("bad", Category.OUTPUT, Schema("other", (("y", "int"),)))
        b.node(
            "A",
            lambda inputs: {
                "good": [r.as_dict() for r in inputs["in"].new],
                "bad": [r.as_dict() for r in inputs["in"].new],
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


    def test_undeclared_port_message(self):
        b = GraphBuilder()
        b.stream("i", Category.INPUT, POINT)
        b.stream("o", Category.OUTPUT, POINT)
        b.node(
            "A",
            lambda inputs: {"zz": [], "out": [], "nope": [{"x": 1}]},
            inputs={"in": "i"},
            outputs={"out": "o"},
        )
        inst = start(b.build())
        with pytest.raises(TransformError) as err:
            inst.step()
        assert str(err.value) == "node 'A' at tick 0 emitted to undeclared ports ['nope', 'zz']"


def _failing_graph(second):
    """i -> A -> s -> B -> o, plus i -> C -> c: A and C copy, B is `second`.

    Topological order is A, B, C, so when B fails A has appended and C has
    not run."""
    b = GraphBuilder()
    b.stream("i", Category.INPUT, POINT)
    b.stream("s", Category.INTERNAL, POINT)
    b.stream("o", Category.OUTPUT, POINT)
    b.stream("c", Category.OUTPUT, POINT)
    b.stream("d", Category.OUTPUT, POINT)
    b.node("A", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "s"})
    b.node("B", second, inputs={"in": "s"}, outputs={"out": "o"})
    b.node("C", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "c"})
    return b.build()


def _divide(inputs):
    return {"out": [{"x": 1 // r["x"]} for r in inputs["in"].new]}


def _bad_schema(inputs):
    return {"out": [{"x": r["x"]} if r["x"] else {"y": 0} for r in inputs["in"].new]}


def _bad_port(inputs):
    if any(r["x"] == 0 for r in inputs["in"].new):
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
        b.stream("i", Category.INPUT, POINT)
        b.stream("o", Category.OUTPUT, POINT)
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

    def test_read_unknown_stream_raises(self):
        from flowbench.graph import UnknownElementError

        with pytest.raises(UnknownElementError):
            self._three_records().read("ghost", 0)


KV = Schema("kv", (("k", "int"), ("v", "int")))
TOTAL = Schema("total", (("k", "int"), ("total", "int")))


def _sum_fold(inputs, totals):
    out = []
    for rec in inputs["in"].new:
        totals[rec["k"]] = totals.get(rec["k"], 0) + rec["v"]
        out.append({"k": rec["k"], "total": totals[rec["k"]]})
    return {"out": out}


def _sum_recompute(inputs, seen):
    """Oracle: the same running sums, recomputed every tick from the node's
    own copy of every record it has been shown."""
    new_from = len(seen)
    seen.extend(inputs["in"].new)
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
    b.stream("i", Category.INPUT, KV)
    b.stream("o", Category.OUTPUT, TOTAL)
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
            return {"out": [{"k": r["k"], "total": r["v"]} for r in inputs["in"].new]}

        b = GraphBuilder()
        b.stream("i", Category.INPUT, KV)
        b.stream("o", Category.OUTPUT, TOTAL)
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
    """Inject a random workload, return full logs as comparable tuples."""
    inst = start(graph)
    rng = SplitMix64(seed)
    inputs = [s.id for s in graph.streams if s.category is Category.INPUT]
    for _ in range(ticks):
        for sid in inputs:
            for _ in range(rng.randrange(3)):
                inst.inject(sid, {"x": rng.randrange(100)})
        inst.step()
    return {
        sid: tuple((r.tick, r.seq, r.values) for r in inst.read(sid, 0))
        for sid in inst.stream_ids()
    }, inst


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
        # conservation: gapless seq, non-decreasing ticks
        for sid in inst_a.stream_ids():
            records = inst_a.read(sid, 0)
            assert [r.seq for r in records] == list(range(len(records)))
            ticks = [r.tick for r in records]
            assert ticks == sorted(ticks)

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=25, deadline=None)
    def test_every_node_runs_exactly_once_per_tick(self, seed):
        graph = random_dag(seed)
        _, inst = _drive(graph, seed, ticks=6)
        assert set(inst.invocations.values()) == {6}
