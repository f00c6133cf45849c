"""Graph model: schemas and records, validation, ordering, traversal, DOT export."""

from types import MappingProxyType

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
    Record,
    Schema,
    SchemaMismatchError,
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


def reference_coerce_row(schema: Schema, values) -> tuple:
    """Oracle: `Schema.coerce_row` as it was before its one-loop pass."""
    extra = set(values).difference(schema.field_names)
    if extra:
        raise SchemaMismatchError(f"schema {schema.name!r}: unexpected fields {sorted(extra)}")
    row = []
    for fname, ftype in schema.fields:
        if fname not in values:
            raise SchemaMismatchError(f"schema {schema.name!r}: missing field {fname!r}")
        v = values[fname]
        if ftype == "int":
            if isinstance(v, bool) or not isinstance(v, int):
                raise SchemaMismatchError(
                    f"schema {schema.name!r}: field {fname!r} wants int, got {v!r}"
                )
        elif ftype == "float":
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaMismatchError(
                    f"schema {schema.name!r}: field {fname!r} wants float, got {v!r}"
                )
            v = float(v)
        elif ftype == "text":
            if not isinstance(v, str):
                raise SchemaMismatchError(
                    f"schema {schema.name!r}: field {fname!r} wants text, got {v!r}"
                )
        else:
            if not isinstance(v, bool):
                raise SchemaMismatchError(
                    f"schema {schema.name!r}: field {fname!r} wants bool, got {v!r}"
                )
        row.append(v)
    return tuple(row)


class SubInt(int):
    pass


class SubFloat(float):
    pass


class SubStr(str):
    pass


class SubDict(dict):
    pass


FIELD_NAMES = ("a", "b", "c", "d", "e")
VALUES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.booleans(),
    st.integers(-5, 5).map(SubInt),
    st.floats(-5, 5).map(SubFloat),
    st.text(max_size=3).map(SubStr),
    st.none(),
)
EXACT = {"int": st.integers(-(2**70), 2**70), "float": st.floats(allow_nan=False),
         "text": st.text(max_size=3), "bool": st.booleans()}


@st.composite
def schema_and_values(draw):
    """A schema, then a mapping that is often exactly right and otherwise off
    by a missing or extra key or a value of a near-miss type."""
    names = draw(st.lists(st.sampled_from(FIELD_NAMES), min_size=1, max_size=4, unique=True))
    fields = tuple((n, draw(st.sampled_from(("int", "float", "text", "bool")))) for n in names)
    schema = Schema("s", fields)
    values = {}
    for fname, ftype in fields:
        if draw(st.integers(0, 9)) == 0:
            continue  # missing
        values[fname] = draw(EXACT[ftype] if draw(st.booleans()) else VALUES)
    for extra in draw(st.lists(st.sampled_from(("x", "y") + FIELD_NAMES), max_size=2)):
        values.setdefault(extra, draw(VALUES))
    wrap = draw(st.sampled_from((dict, dict, SubDict, MappingProxyType)))
    return schema, wrap(values)


def _outcome(fn, *args):
    try:
        row = fn(*args)
    except SchemaMismatchError as exc:
        return ("error", str(exc))
    return ("row", [(type(v), repr(v)) for v in row])


class TestCoerceRowOracle:
    @given(schema_and_values())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_reference_checker(self, case):
        schema, values = case
        assert _outcome(schema.coerce_row, values) == _outcome(reference_coerce_row, schema, values)

    @pytest.mark.parametrize(
        "values,message",
        [
            ({"n": 1, "f": 2.0, "t": "x"}, "missing field 'b'"),
            ({"n": 1, "f": 2.0, "t": "x", "b": True, "z": 0}, "unexpected fields ['z']"),
            ({"n": 1, "f": 2.0, "t": "x", "z": True}, "unexpected fields ['z']"),
            ({"n": True, "f": 2.0, "t": "x", "b": True}, "field 'n' wants int, got True"),
            ({"n": 1, "f": False, "t": "x", "b": True}, "field 'f' wants float, got False"),
            ({"n": 1, "f": 2.0, "t": 3, "b": True}, "field 't' wants text, got 3"),
            ({"n": 1, "f": 2.0, "t": "x", "b": 1}, "field 'b' wants bool, got 1"),
        ],
    )
    def test_each_check_still_runs(self, values, message):
        schema = Schema("s", (("n", "int"), ("f", "float"), ("t", "text"), ("b", "bool")))
        with pytest.raises(SchemaMismatchError) as err:
            schema.coerce_row(values)
        assert str(err.value) == f"schema 's': {message}"


class TestRecord:
    SCHEMA = Schema("r", (("f", "int"), ("g", "text")))

    def test_fields_and_lookup_by_name(self):
        rec = Record(self.SCHEMA, (4, "x"), 7, 2)
        assert (rec.schema, rec.values, rec.tick, rec.seq) == (self.SCHEMA, (4, "x"), 7, 2)
        assert (rec["f"], rec["g"]) == (4, "x")
        assert rec.as_dict() == {"f": 4, "g": "x"}
        with pytest.raises(KeyError):
            rec["h"]

    @pytest.mark.parametrize("attr", ["schema", "values", "tick", "seq", "other"])
    def test_is_immutable(self, attr):
        rec = Record(self.SCHEMA, (4, "x"), 7, 2)
        with pytest.raises(AttributeError):
            setattr(rec, attr, 0)
        with pytest.raises(AttributeError):
            delattr(rec, attr)
        assert (rec.tick, rec.seq, rec.values) == (7, 2, (4, "x"))

    def test_equal_records_compare_and_hash_equal(self):
        a = Record(self.SCHEMA, (4, "x"), 7, 2)
        assert a == Record(self.SCHEMA, (4, "x"), 7, 2)
        assert hash(a) == hash(Record(self.SCHEMA, (4, "x"), 7, 2))
        assert a != Record(self.SCHEMA, (4, "x"), 7, 3)


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
