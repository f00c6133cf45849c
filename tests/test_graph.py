"""Graph model: schemas and records, validation, ordering, traversal, DOT export."""

from collections import Counter
from itertools import permutations
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench.graph import (
    FIELD_TYPES,
    Category,
    FlowGraph,
    GraphBuilder,
    GraphValidationError,
    InEdge,
    NodeSpec,
    OutEdge,
    Record,
    Schema,
    SchemaMismatchError,
    StreamDecl,
    UnknownElementError,
    Violation,
    downstream_closure,
    export_dot,
    topological_order,
    upstream_closure,
    validate,
)
from flowbench.runtime import start
from util_graphs import (
    ANY_CYCLE,
    MUTATIONS,
    POINT,
    app_graphs,
    brute_force_closure,
    chain_graph,
    copy_transform,
    diamond_graph,
    is_node_cycle,
    mutate,
    node_edges,
    random_dag,
    reference_validate,
)


def _noop(inputs):
    return {}


HAND_BUILT = [chain_graph(), diamond_graph(), *app_graphs()]


@st.composite
def broken_dags(draw):
    """A `random_dag` broken by 1-4 mutations drawn from `MUTATIONS`."""
    graph = random_dag(draw(st.integers(min_value=0, max_value=10_000)))
    for kind in draw(st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=4)):
        graph = mutate(graph, kind, lambda items: draw(st.sampled_from(items)))
    return graph


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

    @pytest.mark.parametrize(
        "fields",
        [
            [("x", "int")],
            ((1, "int"),),
            (("", "int"),),
            ((None, "int"),),
            (("x", "int"), ("y",)),
            (["x", "int"],),
        ],
    )
    def test_rejects_malformed_fields_naming_the_schema(self, fields):
        with pytest.raises(ValueError, match="schema 'bad'"):
            Schema("bad", fields)

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


# The least int whose nearest float, ties to even, is 2**1024: past float range.
FLOAT_OVERFLOW = 2**1024 - 2**970


def reference_coerce_row(schema: Schema, values) -> tuple:
    """Oracle: `Schema.coerce_row` as it was before its one-loop pass,
    refusing an int for a float field when it lies beyond float range, and
    listing unexpected keys sorted by `repr`, which any mix of types allows."""
    extra = set(values).difference(schema.field_names)
    if extra:
        raise SchemaMismatchError(f"schema {schema.name!r}: unexpected fields {sorted(extra, key=repr)}")
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
            too_big = isinstance(v, int) and abs(v) >= FLOAT_OVERFLOW
            if isinstance(v, bool) or not isinstance(v, (int, float)) or too_big:
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
    st.sampled_from((FLOAT_OVERFLOW - 1, FLOAT_OVERFLOW, -FLOAT_OVERFLOW, 2**1100)),
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
def schema_and_values(draw, field_names=FIELD_NAMES):
    """A schema, then a mapping that is often exactly right and otherwise off
    by a missing or extra key (of any type) or a value of a near-miss type."""
    names = draw(st.lists(st.sampled_from(field_names), min_size=1, max_size=4, unique=True))
    fields = tuple((n, draw(st.sampled_from(("int", "float", "text", "bool")))) for n in names)
    schema = Schema("s", fields)
    values = {}
    for fname, ftype in fields:
        if draw(st.integers(0, 9)) == 0:
            continue  # missing
        values[fname] = draw(EXACT[ftype] if draw(st.booleans()) else VALUES)
    for extra in draw(st.lists(st.sampled_from(("x", "y", 3, None) + field_names), max_size=2)):
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
            ({"n": 1, "f": 2.0, "t": "x", "b": True, "w": 2, 3: 4}, "unexpected fields ['w', 3]"),
            ({"n": 1, "f": 2.0, "t": "x", "b": True, None: 0, ("k",): 1, 2.5: 2}, "unexpected fields [('k',), 2.5, None]"),
            ({"n": True, "f": 2.0, "t": "x", "b": True}, "field 'n' wants int, got True"),
            ({"n": 1, "f": False, "t": "x", "b": True}, "field 'f' wants float, got False"),
            ({"n": 1, "f": 2**1100, "t": "x", "b": True}, f"field 'f' wants float, got {2**1100}"),
            ({"n": 1, "f": 2.0, "t": 2**20000, "b": True}, "field 't' wants text, got an int of 20001 bits"),
            ({"n": 1, "f": 2**20000, "t": "x", "b": True}, "field 'f' wants float, got an int of 20001 bits"),
            ({"n": 1, "f": 2.0, "t": 3, "b": True}, "field 't' wants text, got 3"),
            ({"n": 1, "f": 2.0, "t": "x", "b": 1}, "field 'b' wants bool, got 1"),
            (5, "row must be a mapping, got int"),
            (None, "row must be a mapping, got NoneType"),
            ("a", "row must be a mapping, got str"),
            ([("n", 1), ("f", 2.0), ("t", "x"), ("b", True)], "row must be a mapping, got list"),
        ],
    )
    def test_each_check_still_runs(self, values, message):
        schema = Schema("s", (("n", "int"), ("f", "float"), ("t", "text"), ("b", "bool")))
        with pytest.raises(SchemaMismatchError) as err:
            schema.coerce_row(values)
        assert str(err.value) == f"schema 's': {message}"


# Names the compiled checker may carry into its source only as string
# literals: quotes, backslashes, spaces, a newline, non-ASCII, keywords, and
# the names of the checker's own parameter, locals and globals.
AWKWARD_NAMES = (
    "a", "it's", 'say "hi"', "back\\slash", "two words", "line\nbreak", "naïve", "日本",
    "'''", 'x"""', "class", "lambda", "None", "values", "tick", "seq", "schema",
    "check", "full", "v0", "type",
)


class TestCompiledCheckerOracle:
    @given(schema_and_values(AWKWARD_NAMES))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_reference_checker(self, case):
        schema, values = case
        assert _outcome(schema.coerce_row, values) == _outcome(reference_coerce_row, schema, values)

    @pytest.mark.parametrize("wrap", [dict, SubDict, MappingProxyType])
    @pytest.mark.parametrize(
        "ftype,value",
        [
            (ftype, value)
            for ftype in FIELD_TYPES
            for value in (1, -(2**70), FLOAT_OVERFLOW - 1, FLOAT_OVERFLOW, 2.5, "x", True, False, None,
                          SubInt(3), SubFloat(1.5), SubStr("y"))
        ],
    )
    def test_each_near_miss_in_an_otherwise_exact_row(self, ftype, value, wrap):
        schema = Schema("s", (("tick", "int"), ("it's", ftype), ("seq", "text")))
        values = wrap({"tick": 1, "it's": value, "seq": "z"})
        assert _outcome(schema.coerce_row, values) == _outcome(reference_coerce_row, schema, values)

    def test_compiled_once_per_schema_and_not_part_of_equality(self):
        a = Schema("m", (("v", "int"),))
        b = Schema("m", (("v", "int"),))
        assert a.coerce_row({"v": 1}) == (1,)
        check = a._check
        assert a.coerce_row({"v": 2}) == (2,) and a._check is check
        assert a == b and hash(a) == hash(b)

    def test_only_rows_off_the_fast_path_take_the_full_checks(self, monkeypatch):
        seen = []
        real = Schema._full_check
        monkeypatch.setattr(Schema, "_full_check", lambda self, v: seen.append(v) or real(self, v))
        schema = Schema("m", (("n", "int"), ("f", "float")))
        assert schema.coerce_row({"n": 1, "f": 2.0}) == (1, 2.0)
        assert seen == []
        assert schema.coerce_row({"n": 1, "f": 2}) == (1, 2.0)
        assert schema.coerce_row(SubDict(n=1, f=2.0)) == (1, 2.0)
        with pytest.raises(SchemaMismatchError, match="unexpected fields \\['g'\\]"):
            schema.coerce_row({"n": 1, "g": 2.0})
        assert seen == [{"n": 1, "f": 2}, {"n": 1, "f": 2.0}, {"n": 1, "g": 2.0}]


class TestRecord:
    SCHEMA = Schema("r", (("f", "int"), ("g", "text")))

    def test_fields_and_lookup_by_name(self):
        rec = Record(self.SCHEMA, (4, "x"), 7)
        assert Record._fields == ("schema", "values", "tick")
        assert (rec.schema, rec.values, rec.tick) == (self.SCHEMA, (4, "x"), 7)
        assert (rec["f"], rec["g"]) == (4, "x")
        assert rec.as_dict() == {"f": 4, "g": "x"}
        with pytest.raises(KeyError):
            rec["h"]

    @pytest.mark.parametrize("attr", ["schema", "values", "tick", "seq", "other"])
    def test_is_immutable(self, attr):
        rec = Record(self.SCHEMA, (4, "x"), 7)
        with pytest.raises(AttributeError):
            setattr(rec, attr, 0)
        with pytest.raises(AttributeError):
            delattr(rec, attr)
        assert (rec.tick, rec.values) == (7, (4, "x"))

    def test_equal_records_compare_and_hash_equal(self):
        a = Record(self.SCHEMA, (4, "x"), 7)
        assert a == Record(self.SCHEMA, (4, "x"), 7)
        assert hash(a) == hash(Record(self.SCHEMA, (4, "x"), 7))
        assert a != Record(self.SCHEMA, (4, "x"), 8)


def _dict_maker_agrees(schema: Schema, values: tuple) -> None:
    made = Record(schema, values, 0).as_dict()
    assert list(made.items()) == list(zip(schema.field_names, values))
    assert made == dict(zip(schema.field_names, values))


class TestCompiledDictMaker:
    @pytest.mark.parametrize("schema", sorted({s.schema for g in app_graphs() for s in g.streams}, key=repr),
                             ids=lambda s: s.name)
    def test_equals_zip_for_every_stream_schema_of_every_build(self, schema):
        # The soa builds declare no streams: every schema here is an fbp build's.
        sample = {"int": -(2**70), "float": 0.5, "text": "t'\"", "bool": True}
        _dict_maker_agrees(schema, tuple(sample[ftype] for _, ftype in schema.fields))
        _dict_maker_agrees(schema, tuple(range(len(schema.fields))))

    @given(st.lists(st.sampled_from(AWKWARD_NAMES) | st.text(min_size=1), min_size=1, max_size=6, unique=True),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_zip_for_names_that_need_escaping(self, names, data):
        schema = Schema("s", tuple((name, "text") for name in names))
        _dict_maker_agrees(schema, tuple(data.draw(st.lists(VALUES, min_size=len(names), max_size=len(names)))))

    def test_compiled_once_per_schema_and_each_dict_fresh(self):
        schema = Schema("m", (("v", "int"), ("w", "text")))
        first = Record(schema, (1, "a"), 0).as_dict()
        make = schema._as_dict
        second = Record(schema, (1, "a"), 0).as_dict()
        assert schema._as_dict is make and first == second and first is not second
        assert schema == Schema("m", (("v", "int"), ("w", "text")))


class TestValidate:
    def test_minimal_valid_graph(self):
        assert validate(chain_graph()) == []

    @pytest.mark.parametrize(
        "in_edges, out_edges, expected",
        [
            ((("i", "A", "in"), ("j", "A", "in")), (("A", "out", "o"),),
             ("multi-wired-port", "A.in", "in-port wired to more than one stream")),
            ((("i", "A", "in"),), (("A", "out", "o"), ("A", "out", "p")),
             ("multi-wired-port", "A.out", "out-port wired to more than one stream")),
        ],
        ids=["multi-in", "multi-out"],
    )
    def test_port_wiring_violations(self, in_edges, out_edges, expected):
        graph = FlowGraph(
            streams=tuple(StreamDecl(sid, POINT) for sid in ("i", "j", "o", "p")),
            nodes=(NodeSpec("A", _noop),),
            in_edges=tuple(InEdge(*e) for e in in_edges),
            out_edges=tuple(OutEdge(*e) for e in out_edges),
        )
        report = [(v.code, v.subject, v.message) for v in validate(graph) if v.code == "multi-wired-port"]
        assert report == [expected]

    def test_builder_wired_to_an_undeclared_stream_builds_and_reports_it(self):
        # A port takes nothing from its stream at build time, so a wrong
        # stream id is a validation finding, not a `KeyError` in `node`.
        b = GraphBuilder()
        b.stream("i", POINT)
        b.node("A", _noop, inputs={"in": "i"}, outputs={"out": "o"})
        graph = b.build()
        assert graph.out_edges == (OutEdge("A", "out", "o"),)
        unknown = [v for v in validate(graph) if v.code == "unknown-stream"]
        assert [(v.subject, v.message) for v in unknown] == [("o", "out-edge from A.out names a missing stream")]

    def test_two_node_cycle_reported(self):
        # A -> s -> B and B -> t -> A: both nodes sit on the loop. The
        # oracle here is plain edge inspection: with edges {(A,B), (B,A)}
        # neither node ever has all its predecessors placed.
        a = NodeSpec("A", _noop)
        bnode = NodeSpec("B", _noop)
        graph = FlowGraph(
            streams=(
                StreamDecl("s", POINT),
                StreamDecl("t", POINT),
            ),
            nodes=(a, bnode),
            in_edges=(InEdge("t", "A", "in"), InEdge("s", "B", "in")),
            out_edges=(OutEdge("A", "out", "s"), OutEdge("B", "out", "t")),
        )
        cycles = [v for v in validate(graph) if v.code == "cycle"]
        assert len(cycles) == 1
        assert set(cycles[0].subject.split(",")) == {"A", "B"}

    @given(
        st.integers(1, 7).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), unique=True, max_size=14),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_cycle_subject_is_one_real_cycle(self, case):
        # Node i writes stream si; an edge (i, j) wires si into a port of j.
        # With several cycles the report still names exactly one, and some
        # order of its nodes closes a loop along the node relation.
        k, pairs = case
        ids = [f"n{i}" for i in range(k)]
        nodes = tuple(NodeSpec(nid, _noop) for nid in ids)
        graph = FlowGraph(
            streams=tuple(StreamDecl(f"s{i}", POINT) for i in range(k)),
            nodes=nodes,
            in_edges=tuple(InEdge(f"s{i}", ids[j], f"from{i}") for i, j in pairs),
            out_edges=tuple(OutEdge(nid, "out", f"s{i}") for i, nid in enumerate(ids)),
        )
        edges = {(ids[i], ids[j]) for i, j in pairs}
        reach = set(edges)
        for w in ids:  # transitive closure, Floyd-Warshall order
            reach |= {(u, v) for u, x in reach if x == w for y, v in reach if y == w}
        cycles = [v.subject.split(",") for v in validate(graph) if v.code == "cycle"]
        if not any((n, n) in reach for n in ids):
            assert cycles == []
            return
        assert len(cycles) == 1
        first, *rest = cycles[0]
        assert cycles[0] == sorted(set(cycles[0]))
        assert any(
            all((u, v) in edges for u, v in zip((first, *loop), (*loop, first)))
            for loop in permutations(rest)
        )

    def test_internal_stream_with_two_producers_flagged(self):
        # A and B both write s, which C reads; o, which both A and C write
        # and no node reads, is an output and may have any number of writers.
        graph = FlowGraph(
            streams=tuple(StreamDecl(sid, POINT) for sid in ("i", "s", "o")),
            nodes=(NodeSpec("A", _noop), NodeSpec("B", _noop), NodeSpec("C", _noop)),
            in_edges=(InEdge("i", "A", "in"), InEdge("i", "B", "in"), InEdge("s", "C", "in")),
            out_edges=(OutEdge("A", "out", "s"), OutEdge("B", "out", "s"), OutEdge("C", "out", "o"),
                       OutEdge("A", "copy", "o")),
        )
        assert validate(graph) == [
            Violation("internal-producers", "s", "internal stream needs exactly one producer, has 2")
        ]

    def test_a_stream_no_node_touches_is_a_valid_output(self):
        graph = FlowGraph(streams=(StreamDecl("s", POINT),), nodes=(), in_edges=(), out_edges=())
        assert graph.wiring().roles == {"s": Category.OUTPUT}
        assert validate(graph) == []

    def test_orphan_node_flagged(self):
        # D consumes its own private input but writes nothing: cannot reach
        # an output stream.
        graph = chain_graph()
        orphan = NodeSpec("D", _noop)
        extended = FlowGraph(
            graph.streams + (StreamDecl("i2", POINT),),
            graph.nodes + (orphan,),
            graph.in_edges + (InEdge("i2", "D", "in"),),
            graph.out_edges,
        )
        assert {v.code for v in validate(extended)} == {"orphan-node"}

    def test_duplicate_ids_reported(self):
        graph = FlowGraph(
            streams=(
                StreamDecl("i", POINT),
                StreamDecl("i", POINT),
            ),
            nodes=(),
            in_edges=(),
            out_edges=(),
        )
        assert [v.code for v in validate(graph)] == ["duplicate-stream"]

    def test_stream_and_node_sharing_an_id_reported(self):
        # i -> A -> (stream A) -> B -> o: without the check this validates
        # and its DOT text declares "A" twice, with an "A" -> "A" edge.
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("A", POINT)
        b.stream("o", POINT)
        b.node("A", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "A"})
        b.node("B", copy_transform("in", "out"), inputs={"in": "A"}, outputs={"out": "o"})
        graph = b.build()
        assert validate(graph) == [Violation("shared-id", "A", "id names both a stream and a node")]
        with pytest.raises(GraphValidationError, match="shared-id"):
            start(graph)

    def test_a_loop_through_an_undeclared_stream_is_a_cycle(self):
        # A -> ghost -> B -> s -> A: the edges still wire A to B, so the loop
        # is reported with the unknown stream. Mutations rarely build this.
        graph = FlowGraph(
            streams=(StreamDecl("s", POINT),),
            nodes=(NodeSpec("A", _noop), NodeSpec("B", _noop)),
            in_edges=(InEdge("s", "A", "in"), InEdge("ghost", "B", "in")),
            out_edges=(OutEdge("A", "out", "ghost"), OutEdge("B", "out", "s")),
        )
        report = {(v.code, v.subject) for v in validate(graph)}
        assert ("cycle", "A,B") in report
        assert {(code, ANY_CYCLE if code == "cycle" else subject) for code, subject in report} == reference_validate(graph)

    @given(broken_dags())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reference_on_broken_graphs(self, graph):
        report = validate(graph)
        cycles = [v.subject for v in report if v.code == "cycle"]
        assert len(cycles) <= 1
        assert all(is_node_cycle(graph, subject) for subject in cycles)
        assert {(v.code, ANY_CYCLE if v.code == "cycle" else v.subject) for v in report} == reference_validate(graph)

    def test_validate_is_idempotent_and_pure(self):
        graph = chain_graph()
        first = validate(graph)
        second = validate(graph)
        assert first == second == []


def _roles_by_definition(graph: FlowGraph) -> dict:
    """Each stream's role from its in- and out-edges, by the definition."""
    roles = {}
    for s in graph.streams:
        readers = [e for e in graph.in_edges if e.stream == s.id]
        writers = [e for e in graph.out_edges if e.stream == s.id]
        roles[s.id] = "output" if not readers else "internal" if writers else "input"
    return roles


class TestCategories:
    def test_chain_and_diamond(self):
        assert chain_graph().wiring().roles == {"i": Category.INPUT, "s": Category.INTERNAL, "o": Category.OUTPUT}
        assert diamond_graph().wiring().roles == {
            "i": Category.INPUT, "s1": Category.INTERNAL, "s2": Category.INTERNAL,
            "o1": Category.OUTPUT, "o2": Category.OUTPUT,
        }

    def test_broken_graphs_get_roles_too(self):
        # s is written by two nodes and read, t is read and written by one
        # node in a loop, u is written but never read, v is never touched.
        graph = FlowGraph(
            streams=tuple(StreamDecl(sid, POINT) for sid in ("s", "t", "u", "v")),
            nodes=(NodeSpec("A", _noop), NodeSpec("B", _noop)),
            in_edges=(InEdge("s", "A", "in"), InEdge("t", "B", "in")),
            out_edges=(OutEdge("A", "out", "s"), OutEdge("B", "out", "s"), OutEdge("B", "loop", "t"),
                       OutEdge("A", "u", "u")),
        )
        assert graph.wiring().roles == {
            "s": Category.INTERNAL, "t": Category.INTERNAL, "u": Category.OUTPUT, "v": Category.OUTPUT,
        }

    @given(st.one_of(st.integers(min_value=0, max_value=10_000).map(random_dag), st.sampled_from(HAND_BUILT)))
    @settings(max_examples=80, deadline=None)
    def test_each_role_is_its_definition_from_the_edges(self, graph):
        roles = graph.wiring().roles
        assert list(roles) == [s.id for s in graph.streams]
        assert {sid: role.value for sid, role in roles.items()} == _roles_by_definition(graph)


class TestWiring:
    @given(st.one_of(broken_dags(), st.sampled_from(HAND_BUILT)))
    @settings(max_examples=100, deadline=None)
    def test_is_the_edges_grouped_by_element_in_edge_order(self, graph):
        # Keyed by every declared element of its kind and every one its edges name.
        wiring = graph.wiring()
        node_ids, stream_ids = {n.id for n in graph.nodes}, {s.id for s in graph.streams}
        ins, outs = graph.in_edges, graph.out_edges
        assert wiring.ins == {nid: [e for e in ins if e.node == nid] for nid in node_ids | {e.node for e in ins}}
        assert wiring.outs == {nid: [e for e in outs if e.node == nid] for nid in node_ids | {e.node for e in outs}}
        assert wiring.readers == {
            sid: [e.node for e in ins if e.stream == sid] for sid in stream_ids | {e.stream for e in ins}
        }
        assert wiring.writers == {
            sid: [e.node for e in outs if e.stream == sid] for sid in stream_ids | {e.stream for e in outs}
        }
        assert {sid: role.value for sid, role in wiring.roles.items()} == _roles_by_definition(graph)


class TestTopologicalOrder:
    def test_chain(self):
        assert topological_order(chain_graph()) == ["A", "B"]

    def test_tie_break_by_node_id(self):
        b = GraphBuilder()
        b.stream("i", POINT)
        b.stream("s1", POINT)
        b.stream("s2", POINT)
        b.stream("o", POINT)
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
        edges = node_edges(graph)
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

    def test_long_chain_is_ordered_and_runs(self):
        # s0000 -> n0000 -> s0001 -> ... -> n4999 -> s5000: far deeper than the
        # interpreter's recursion limit, so no ordering step may recurse.
        n = 5000
        b = GraphBuilder()
        b.stream("s0000", POINT)
        for i in range(n):
            b.stream(f"s{i + 1:04d}", POINT)
            b.node(
                f"n{i:04d}",
                copy_transform("in", "out"),
                inputs={"in": f"s{i:04d}"},
                outputs={"out": f"s{i + 1:04d}"},
            )
        graph = b.build()
        assert validate(graph) == []
        assert topological_order(graph) == [f"n{i:04d}" for i in range(n)]
        inst = start(graph)
        inst.inject("s0000", {"x": 7})
        inst.step()
        assert [r.as_dict() for r in inst.read(f"s{n:04d}")] == [{"x": 7}]

    def test_rejects_invalid_graph(self):
        graph = FlowGraph(
            streams=(StreamDecl("s", POINT), StreamDecl("s", POINT)),
            nodes=(),
            in_edges=(),
            out_edges=(),
        )
        with pytest.raises(GraphValidationError, match="duplicate-stream"):
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
        b.stream("i", POINT)
        b.stream("o", POINT)
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

    @given(st.integers(min_value=0, max_value=10_000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_valid_graph_declares_each_element_once(self, seed, data):
        # Renaming a node to a stream's id makes the two one DOT element;
        # only graphs `validate` passes are drawn, so that never passes.
        graph = random_dag(seed)
        stream_ids = sorted(s.id for s in graph.streams)
        if data.draw(st.booleans()):
            nid = data.draw(st.sampled_from(sorted(n.id for n in graph.nodes)))
            new = data.draw(st.sampled_from(stream_ids))
            graph = graph._replace(
                nodes=tuple(n._replace(id=new) if n.id == nid else n for n in graph.nodes),
                in_edges=tuple(e._replace(node=new) if e.node == nid else e for e in graph.in_edges),
                out_edges=tuple(e._replace(node=new) if e.node == nid else e for e in graph.out_edges),
            )
        if validate(graph):
            return
        declared = [line.split('"')[1] for line in export_dot(graph).splitlines() if "shape=" in line]
        assert sorted(declared) == sorted(stream_ids + [n.id for n in graph.nodes])
        assert len(set(declared)) == len(declared)


class TestClosureIds:
    @given(
        st.one_of(st.integers(min_value=0, max_value=10_000).map(random_dag), st.sampled_from(HAND_BUILT)),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_valid_graph_closes_over_ids_of_one_element_each(self, graph, data):
        # A node renamed to a stream's id makes one id name two elements;
        # `validate` refuses such a graph, and only graphs it passes are checked.
        if data.draw(st.booleans()):
            nid = data.draw(st.sampled_from(sorted(n.id for n in graph.nodes)))
            new = data.draw(st.sampled_from(sorted(s.id for s in graph.streams)))
            graph = graph._replace(
                nodes=tuple(n._replace(id=new) if n.id == nid else n for n in graph.nodes),
                in_edges=tuple(e._replace(node=new) if e.node == nid else e for e in graph.in_edges),
                out_edges=tuple(e._replace(node=new) if e.node == nid else e for e in graph.out_edges),
            )
        if validate(graph):
            return
        named = Counter([s.id for s in graph.streams] + [n.id for n in graph.nodes])
        for element in named:
            for forward, closure in ((False, upstream_closure), (True, downstream_closure)):
                reached = closure(graph, element)
                assert all(named[eid] == 1 for eid in reached)
                assert reached == brute_force_closure(graph, element, forward=forward)


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
        for u, v in node_edges(graph):
            assert pos[u] < pos[v]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_connected_graph_is_covered_by_closures(self, seed):
        graph = random_dag(seed)
        everything = {s.id for s in graph.streams} | {n.id for n in graph.nodes}
        covered = set()
        for sid, role in graph.wiring().roles.items():
            if role is Category.OUTPUT:
                covered |= upstream_closure(graph, sid)
        # Outputs pull in every node; only never-consumed input streams may
        # fall outside, and this generator wires every stream it creates.
        assert covered == everything
