"""Graph model: validation, ordering, traversal, DOT export."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench.graph import (
    Category,
    FlowGraph,
    GraphBuilder,
    GraphValidationError,
    InEdge,
    NodeSpec,
    OutEdge,
    PortDecl,
    Schema,
    StreamDecl,
    UnknownElementError,
    downstream_closure,
    export_dot,
    topological_order,
    upstream_closure,
    validate,
)
from util_graphs import POINT, brute_force_closure, chain_graph, diamond_graph, random_dag


def _noop(inputs):
    return {}


class TestSchema:
    def test_rejects_empty_field_list(self):
        with pytest.raises(ValueError):
            Schema("empty", ())

    def test_rejects_duplicate_field(self):
        with pytest.raises(ValueError):
            Schema("dup", (("x", "int"), ("x", "float")))

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            Schema("bad", (("x", "decimal"),))

    def test_coerce_row_widens_int_to_float(self):
        s = Schema("m", (("v", "float"),))
        assert s.coerce_row({"v": 3}) == (3.0,)

    def test_coerce_row_rejects_bool_as_int(self):
        s = Schema("m", (("v", "int"),))
        with pytest.raises(Exception):
            s.coerce_row({"v": True})

    def test_equal_schemas_compare_and_hash_equal(self):
        # The cached field names and index are not fields: they must not
        # enter equality or hashing.
        a = Schema("m", (("v", "int"), ("w", "text")))
        b = Schema("m", (("v", "int"), ("w", "text")))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a.field_names == ("v", "w")
        assert a != Schema("m", (("w", "text"), ("v", "int")))


class TestValidate:
    def test_minimal_valid_graph(self):
        assert validate(chain_graph()) == []

    def test_unwired_in_port_reported(self):
        node = NodeSpec("A", (PortDecl("in", POINT),), (PortDecl("out", POINT),), _noop)
        graph = FlowGraph(
            streams=(
                StreamDecl("i", Category.INPUT, POINT),
                StreamDecl("o", Category.OUTPUT, POINT),
            ),
            nodes=(node,),
            in_edges=(),
            out_edges=(OutEdge("A", "out", "o"),),
        )
        report = validate(graph)
        unwired = [v for v in report if v.code == "unwired-port"]
        assert len(unwired) == 1
        assert unwired[0].subject == "A.in"

    @pytest.mark.parametrize(
        "in_edges, out_edges, mismatched, expected",
        [
            ((), (("A", "out", "o"),), None,
             ("unwired-port", "A.in", "in-port is not wired to any stream")),
            ((("i", "A", "in"),), (), None,
             ("unwired-port", "A.out", "out-port is not wired to any stream")),
            ((("i", "A", "in"), ("j", "A", "in")), (("A", "out", "o"),), None,
             ("multi-wired-port", "A.in", "in-port wired to more than one stream")),
            ((("i", "A", "in"),), (("A", "out", "o"), ("A", "out", "p")), None,
             ("multi-wired-port", "A.out", "out-port wired to more than one stream")),
            ((("i", "A", "in"),), (("A", "out", "o"),), "i",
             ("schema-mismatch", "A.in", "port schema differs from stream 'i'")),
            ((("i", "A", "in"),), (("A", "out", "o"),), "o",
             ("schema-mismatch", "A.out", "port schema differs from stream 'o'")),
        ],
        ids=["unwired-in", "unwired-out", "multi-in", "multi-out", "mismatch-in", "mismatch-out"],
    )
    def test_port_wiring_violations(self, in_edges, out_edges, mismatched, expected):
        other = Schema("other", (("y", "text"),))
        node = NodeSpec("A", (PortDecl("in", POINT),), (PortDecl("out", POINT),), _noop)
        graph = FlowGraph(
            streams=tuple(
                StreamDecl(sid, category, other if sid == mismatched else POINT)
                for sid, category in (
                    ("i", Category.INPUT),
                    ("j", Category.INPUT),
                    ("o", Category.OUTPUT),
                    ("p", Category.OUTPUT),
                )
            ),
            nodes=(node,),
            in_edges=tuple(InEdge(*e) for e in in_edges),
            out_edges=tuple(OutEdge(*e) for e in out_edges),
        )
        wiring = {"unwired-port", "multi-wired-port", "schema-mismatch"}
        report = [(v.code, v.subject, v.message) for v in validate(graph) if v.code in wiring]
        assert report == [expected]

    def test_two_node_cycle_reported(self):
        # A -> s -> B and B -> t -> A: both nodes sit on the loop. The
        # oracle here is plain edge inspection: with edges {(A,B), (B,A)}
        # every depth-first walk must revisit a gray node.
        a = NodeSpec("A", (PortDecl("in", POINT),), (PortDecl("out", POINT),), _noop)
        bnode = NodeSpec("B", (PortDecl("in", POINT),), (PortDecl("out", POINT),), _noop)
        graph = FlowGraph(
            streams=(
                StreamDecl("s", Category.INTERNAL, POINT),
                StreamDecl("t", Category.INTERNAL, POINT),
            ),
            nodes=(a, bnode),
            in_edges=(InEdge("t", "A", "in"), InEdge("s", "B", "in")),
            out_edges=(OutEdge("A", "out", "s"), OutEdge("B", "out", "t")),
        )
        cycles = [v for v in validate(graph) if v.code == "cycle"]
        assert len(cycles) == 1
        assert set(cycles[0].subject.split(",")) == {"A", "B"}

    def test_input_with_producer_flagged(self):
        node = NodeSpec("A", (PortDecl("in", POINT),), (PortDecl("out", POINT),), _noop)
        graph = FlowGraph(
            streams=(
                StreamDecl("i", Category.INPUT, POINT),
                StreamDecl("j", Category.INPUT, POINT),
            ),
            nodes=(node,),
            in_edges=(InEdge("i", "A", "in"),),
            out_edges=(OutEdge("A", "out", "j"),),
        )
        codes = {v.code for v in validate(graph)}
        assert "input-has-producer" in codes

    def test_internal_needs_producer_and_consumer(self):
        graph = FlowGraph(
            streams=(StreamDecl("s", Category.INTERNAL, POINT),),
            nodes=(),
            in_edges=(),
            out_edges=(),
        )
        codes = sorted(v.code for v in validate(graph))
        assert codes == ["internal-consumers", "internal-producers"]

    def test_orphan_node_flagged(self):
        # D consumes its own private input but writes nothing: cannot reach
        # an output stream.
        graph = chain_graph()
        orphan = NodeSpec("D", (PortDecl("in", POINT),), (), _noop)
        extended = FlowGraph(
            graph.streams + (StreamDecl("i2", Category.INPUT, POINT),),
            graph.nodes + (orphan,),
            graph.in_edges + (InEdge("i2", "D", "in"),),
            graph.out_edges,
        )
        assert {v.code for v in validate(extended)} == {"orphan-node"}

    def test_duplicate_ids_reported(self):
        graph = FlowGraph(
            streams=(
                StreamDecl("i", Category.INPUT, POINT),
                StreamDecl("i", Category.INPUT, POINT),
            ),
            nodes=(),
            in_edges=(),
            out_edges=(),
        )
        assert [v.code for v in validate(graph)] == ["duplicate-stream"]

    def test_validate_is_idempotent_and_pure(self):
        graph = chain_graph()
        first = validate(graph)
        second = validate(graph)
        assert first == second == []


class TestTopologicalOrder:
    def test_chain(self):
        assert topological_order(chain_graph()) == ["A", "B"]

    def test_tie_break_by_node_id(self):
        b = GraphBuilder()
        b.stream("i", Category.INPUT, POINT)
        b.stream("s1", Category.INTERNAL, POINT)
        b.stream("s2", Category.INTERNAL, POINT)
        b.stream("o", Category.OUTPUT, POINT)
        b.node("B", _noop, inputs={"in": "i"}, outputs={"out": "s2"})
        b.node("A", _noop, inputs={"in": "i"}, outputs={"out": "s1"})
        b.node(
            "C",
            _noop,
            inputs={"l": "s1", "r": "s2"},
            outputs={"out": "o"},
        )
        assert topological_order(b.build()) == ["A", "B", "C"]

    def test_diamond_matches_kahn_oracle(self):
        graph = diamond_graph()

        # Independent Kahn's algorithm over the node relation.
        nodes = sorted(n.id for n in graph.nodes)
        edges = graph.node_edges()
        indeg = {n: 0 for n in nodes}
        for _, v in edges:
            indeg[v] += 1
        order = []
        ready = sorted(n for n in nodes if indeg[n] == 0)
        while ready:
            n = ready.pop(0)
            order.append(n)
            for u, v in sorted(edges):
                if u == n:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        ready.append(v)
            ready.sort()
        assert order == ["A", "B", "C"]
        assert topological_order(graph) == order

    def test_rejects_invalid_graph(self):
        graph = FlowGraph(
            streams=(StreamDecl("s", Category.INTERNAL, POINT),),
            nodes=(),
            in_edges=(),
            out_edges=(),
        )
        with pytest.raises(GraphValidationError):
            topological_order(graph)


class TestClosures:
    def test_upstream_of_chain_output(self):
        assert upstream_closure(chain_graph(), "o") == {"o", "B", "s", "A", "i"}

    def test_upstream_of_input_is_itself(self):
        assert upstream_closure(chain_graph(), "i") == {"i"}

    def test_upstream_diamond_matches_reverse_bfs_oracle(self):
        graph = diamond_graph()
        expected = brute_force_closure(graph, "o1", forward=False)
        assert expected == {"o1", "B", "s1", "A", "i"}
        assert upstream_closure(graph, "o1") == expected

    def test_downstream_of_chain_input(self):
        assert downstream_closure(chain_graph(), "i") == {"i", "A", "s", "B", "o"}

    def test_downstream_of_output_is_itself(self):
        assert downstream_closure(chain_graph(), "o") == {"o"}

    def test_downstream_diamond_matches_forward_bfs_oracle(self):
        graph = diamond_graph()
        expected = brute_force_closure(graph, "s2", forward=True)
        assert expected == {"s2", "C", "o2"}
        assert downstream_closure(graph, "s2") == expected

    def test_unknown_target_raises(self):
        with pytest.raises(UnknownElementError):
            upstream_closure(chain_graph(), "nope")
        with pytest.raises(UnknownElementError):
            downstream_closure(chain_graph(), "nope")


class TestDotExport:
    def test_empty_graph_has_no_statements(self):
        text = export_dot(FlowGraph((), (), (), ()))
        body = text.splitlines()[1:-1]
        assert body == []

    def test_statement_counts(self):
        b = GraphBuilder()
        b.stream("i", Category.INPUT, POINT)
        b.stream("o", Category.OUTPUT, POINT)
        b.node("A", _noop, inputs={"in": "i"}, outputs={"out": "o"})
        text = export_dot(b.build())
        vertex_stmts = [l for l in text.splitlines() if "shape=" in l]
        edge_stmts = [l for l in text.splitlines() if "->" in l]
        assert len(vertex_stmts) == 3
        assert len(edge_stmts) == 2

    def test_category_colors(self):
        text = export_dot(chain_graph())
        assert '"i" [shape=box, style=filled, fillcolor=red];' in text
        assert '"s" [shape=box, style=filled, fillcolor=yellow];' in text
        assert '"o" [shape=box, style=filled, fillcolor=green];' in text

    def test_export_is_deterministic(self):
        graph = diamond_graph()
        assert export_dot(graph) == export_dot(graph)


class TestRandomDagProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_dags_are_valid(self, seed):
        assert validate(random_dag(seed)) == []

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_closures_match_brute_force(self, seed):
        graph = random_dag(seed)
        ids = sorted({s.id for s in graph.streams} | {n.id for n in graph.nodes})
        rng_pick = ids[seed % len(ids)]
        assert upstream_closure(graph, rng_pick) == brute_force_closure(
            graph, rng_pick, forward=False
        )
        assert downstream_closure(graph, rng_pick) == brute_force_closure(
            graph, rng_pick, forward=True
        )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_topological_order_is_edge_respecting_permutation(self, seed):
        graph = random_dag(seed)
        order = topological_order(graph)
        assert sorted(order) == sorted(n.id for n in graph.nodes)
        pos = {n: i for i, n in enumerate(order)}
        for u, v in graph.node_edges():
            assert pos[u] < pos[v]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_connected_graph_is_covered_by_closures(self, seed):
        graph = random_dag(seed)
        everything = {s.id for s in graph.streams} | {n.id for n in graph.nodes}
        covered = set()
        for s in graph.streams:
            if s.category is Category.OUTPUT:
                covered |= upstream_closure(graph, s.id)
        # Outputs pull in every node; only never-consumed input streams may
        # fall outside, and this generator wires every stream it creates.
        assert covered == everything
