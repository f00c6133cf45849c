"""Dataflow graph model: typed streams, processing nodes, external wiring.

A program is a bipartite graph of named streams (typed, append-only logs)
and processing nodes (deterministic transforms, plain or folding over
runtime-owned state). Wiring lives in the graph, not in the nodes: the
edges are its one record, a node's ports are the port names its edges
use, and a port's schema is that of its stream. A stream's role is read
off its edges too: one that no node reads is an output, one that nodes
read and none writes an input, fed from outside through `inject`, one
that nodes read and write internal. So the whole program is a traversable
data structure: `upstream_closure` / `downstream_closure` answer
provenance and impact questions, `topological_order` schedules execution,
`export_dot` renders the program as a picture.

One index serves every reader of the edges: `FlowGraph.wiring()` groups
them in one pass (see `Wiring`), and `validate`, the closures, the
runtime, the manifests and the DOT export read that. Nothing caches it:
each caller builds it once per call, the runtime once at start.

Construction never fails on a malformed graph; `validate` reports every
broken invariant as data so callers can decide what to do.

Every record is checked on its way into a log by `Schema.coerce_row`.
Its fast path is Python source generated for that schema and compiled
with `exec` the first time the schema checks a row, never at import or
for a build that never runs: a dict holding exactly the declared fields,
each value of exactly its field's Python type, becomes the values tuple
with one subscript and one type test per field. Anything else, an int
for a float, a subclass, a missing or extra key, the checker answers
None, and `coerce_row` takes the full checks with their messages. The
checker holds nothing of its schema, so a schema is no reference cycle.
`Record.as_dict` is compiled per schema the same way, on first use: one
dict display of the unpacked values, keyed by the field names' `repr`s.
A `Record` is a tuple underneath (schema, values, tick), built by the
runtime with `tuple.__new__`: no attributes, no Python `__new__`, still
immutable. Its place in its log is its only position.
"""

from __future__ import annotations

import heapq
from collections import Counter, namedtuple
from collections.abc import Mapping
from enum import Enum
from typing import Any, Callable, Iterable, NamedTuple

from .value import Value

# Field type -> the Python type of its values. The compiled checker tests
# `type(v) is` it; the full checks accept an instance of it, never a bool
# but for a bool field, and widen an int for a float field.
_PY_TYPES = {"int": int, "float": float, "text": str, "bool": bool}
FIELD_TYPES = tuple(_PY_TYPES)


class Category(str, Enum):
    """Stream role, read off the edges into `Wiring.roles`."""

    INPUT = "input"
    INTERNAL = "internal"
    OUTPUT = "output"


class GraphValidationError(Exception):
    """Raised by operations that require a valid graph."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        first = violations[0] if violations else None
        super().__init__(f"invalid graph: {first}" if first else "invalid graph")


class UnknownElementError(KeyError):
    """Raised when a stream or node id does not exist in the graph."""


class SchemaMismatchError(ValueError):
    """A row of values does not conform to a schema."""


class Schema(Value):
    """Named, ordered field list. Field order is canonical."""

    _fields = ("name", "fields")

    def __init__(self, name: str, fields: tuple[tuple[str, str], ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", fields)
        if type(self.fields) is not tuple:
            raise ValueError(f"schema {self.name!r}: fields must be a tuple, got {self.fields!r}")
        if not self.fields:
            raise ValueError(f"schema {self.name!r} must declare at least one field")
        seen = set()
        for field in self.fields:
            if type(field) is not tuple or len(field) != 2:
                raise ValueError(f"schema {self.name!r}: field {field!r} is not a (name, type) pair")
            fname, ftype = field
            # Exact str only: the compiled checker and dict maker embed `repr(fname)` in their source.
            if type(fname) is not str or not fname:
                raise ValueError(f"schema {self.name!r}: field name {fname!r} is not a non-empty str")
            if ftype not in FIELD_TYPES:
                raise ValueError(f"schema {self.name!r}: unknown type {ftype!r} for {fname!r}")
            if fname in seen:
                raise ValueError(f"schema {self.name!r}: duplicate field {fname!r}")
            seen.add(fname)
        # Field names in order, and name -> position for `Record.__getitem__`;
        # plain attributes, so equality and hash still depend on the fields only.
        object.__setattr__(self, "field_names", tuple(fname for fname, _ in self.fields))
        object.__setattr__(self, "_index", {fname: i for i, fname in enumerate(self.field_names)})

    def field_type(self, name: str) -> str:
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        raise KeyError(name)

    def coerce_row(self, values: Mapping[str, Any]) -> tuple:
        """Check a field->value mapping against the schema, return ordered values.

        ints are accepted for float fields (and widened); bool is never
        treated as an int. An exact row passes this schema's compiled
        checker; any other input takes the full checks, which raise on it
        or widen it.
        """
        # A values tuple is never empty, so only a non-exact row is falsy here.
        return self._check(values) or self._full_check(values)

    def _check(self, values: Mapping[str, Any]) -> tuple | None:
        # First call only: compile this schema's checker and cache it on the
        # instance like `field_names`, where it shadows this method.
        check = _compile_checker(self)
        object.__setattr__(self, "_check", check)
        return check(values)

    def _as_dict(self, values: tuple) -> dict[str, Any]:
        # First call only, as `_check`: compile the record-to-dict maker.
        make = _compile_dict_maker(self)
        object.__setattr__(self, "_as_dict", make)
        return make(values)

    def _full_check(self, values: Mapping[str, Any]) -> tuple:
        """The checks behind `coerce_row` for rows off the compiled fast path."""
        if not isinstance(values, Mapping):
            raise SchemaMismatchError(f"schema {self.name!r}: row must be a mapping, got {type(values).__name__}")
        extra = set(values).difference(self._index)
        if extra:
            # By `repr`: the keys need not be of one type, or even comparable.
            raise SchemaMismatchError(
                f"schema {self.name!r}: unexpected fields {sorted(extra, key=repr)}"
            )
        row = []
        for fname, ftype in self.fields:
            if fname not in values:
                raise SchemaMismatchError(f"schema {self.name!r}: missing field {fname!r}")
            v = values[fname]
            want = _PY_TYPES[ftype]
            accepted = (int, float) if want is float else want
            ok = isinstance(v, bool) is (want is bool) and isinstance(v, accepted)
            if ok and want is float:
                try:
                    v = float(v)
                except OverflowError:  # an int beyond float range
                    ok = False
            if not ok:
                try:
                    shown = repr(v)
                except ValueError:  # an int past `sys.get_int_max_str_digits()`
                    shown = f"an int of {v.bit_length()} bits"
                raise SchemaMismatchError(f"schema {self.name!r}: field {fname!r} wants {ftype}, got {shown}")
            row.append(v)
        return tuple(row)


class Record(namedtuple("Record", ("schema", "values", "tick"))):
    """One immutable entry of a stream log.

    `tick` is the simulation time at append; the record's position in the
    log identifies it. Field access goes through the schema so transform code
    can say `record["ride_id"]`. A tuple underneath: no per-instance dict,
    and assigning any attribute raises `AttributeError`.
    """

    __slots__ = ()

    def __getitem__(self, name: str):
        return self.values[self.schema._index[name]]

    def as_dict(self) -> dict[str, Any]:
        """A fresh `{field: value}` dict in field order, made by the schema's compiled maker."""
        return self.schema._as_dict(self.values)


def _compile_checker(schema: Schema) -> Callable[[Mapping[str, Any]], tuple | None]:
    """Generate and compile `schema`'s row checker (see the module docstring):
    the values tuple of an exact row, None for any other.

    Field names reach the source only as `repr` of an exact `str`, checked
    in `Schema.__init__`; values are bound to `v0`, `v1`, ... The
    checker refers to nothing but builtins, and is defined apart from its
    globals: a schema that dies is freed by reference counting.
    """
    names = [f"v{i}" for i in range(len(schema.fields))]
    reads = "".join(
        f"            {v} = values[{fname!r}]\n" for v, (fname, _) in zip(names, schema.fields)
    )
    exact = " and ".join(
        f"type({v}) is {_PY_TYPES[ftype].__name__}" for v, (_, ftype) in zip(names, schema.fields)
    )
    source = (
        "def check(values):\n"
        f"    if type(values) is dict and len(values) == {len(names)}:\n"
        "        try:\n"
        f"{reads}"
        "        except KeyError:\n"
        "            pass\n"
        "        else:\n"
        f"            if {exact}:\n"
        f"                return ({', '.join(names)},)\n"
    )
    defined: dict[str, Callable] = {}
    exec(compile(source, f"<row checker {schema.name!r}>", "exec"), {}, defined)
    return defined["check"]


def _compile_dict_maker(schema: Schema) -> Callable[[tuple], dict[str, Any]]:
    """Generate and compile `schema`'s record-to-dict maker: one dict
    display of the unpacked values tuple, `dict(zip(field_names, values))`
    at less than half its cost. Built like `_compile_checker`; the maker
    refers to nothing at all."""
    names = [f"v{i}" for i in range(len(schema.fields))]
    pairs = ", ".join(f"{fname!r}: {v}" for v, fname in zip(names, schema.field_names))
    source = f"def as_dict(values):\n    {', '.join(names)}, = values\n    return {{{pairs}}}\n"
    defined: dict[str, Callable] = {}
    exec(compile(source, f"<dict maker {schema.name!r}>", "exec"), {}, defined)
    return defined["as_dict"]


class StreamDecl(NamedTuple):
    id: str
    schema: Schema


# Transforms map {in-port: list of its new records} -> {out-port: [field->value
# mapping, ...]}; a fold's transform also takes its state: (inputs, state).
Transform = Callable[..., dict]


class NodeSpec(NamedTuple):
    """Deterministic transform. Its ports are the port names its edges use.

    The transform itself holds no state between calls. It is called only
    when one of its in-ports gained records, and each in-port is a list of
    just the records new since its last call, all appended at the tick
    being stepped (see the `runtime` module docstring). A plain node
    (`init` None) gets `transform(inputs)` and maps that delta. A fold node
    gets `transform(inputs, state)`: the runtime calls `init()` once per
    instance for a fresh state, passes that same object on every call, and
    the transform updates it in place from the delta lists. Outputs stay
    pure functions of the input logs because only the runtime creates and
    keeps the state.
    """

    id: str
    transform: Transform
    logic_version: str = "v1"
    init: Callable[[], Any] | None = None


class InEdge(NamedTuple):
    """stream -> node.port"""

    stream: str
    node: str
    port: str


class OutEdge(NamedTuple):
    """node.port -> stream"""

    node: str
    port: str
    stream: str


class Wiring(NamedTuple):
    """The edges grouped by element, each list in edge order: per node id its
    in-/out-edges (`ins`/`outs`), per stream id the ids of its reader/writer
    nodes. Each is keyed by every declared element of its kind and every one
    its edges name. `roles` holds each declared stream's role: no reader,
    output; readers and a writer, internal; readers only, input."""

    ins: dict[str, list[InEdge]]
    outs: dict[str, list[OutEdge]]
    readers: dict[str, list[str]]
    writers: dict[str, list[str]]
    roles: dict[str, Category]


class FlowGraph(NamedTuple):
    streams: tuple[StreamDecl, ...]
    nodes: tuple[NodeSpec, ...]
    in_edges: tuple[InEdge, ...]
    out_edges: tuple[OutEdge, ...]

    def stream_map(self) -> dict[str, StreamDecl]:
        return {s.id: s for s in self.streams}

    def node_map(self) -> dict[str, NodeSpec]:
        return {n.id: n for n in self.nodes}

    def wiring(self) -> Wiring:
        """Index the edges in one pass (see `Wiring`)."""
        ins, outs = {n.id: [] for n in self.nodes}, {n.id: [] for n in self.nodes}
        readers, writers = {s.id: [] for s in self.streams}, {s.id: [] for s in self.streams}
        for e in self.in_edges:
            ins.setdefault(e.node, []).append(e)
            readers.setdefault(e.stream, []).append(e.node)
        for e in self.out_edges:
            outs.setdefault(e.node, []).append(e)
            writers.setdefault(e.stream, []).append(e.node)
        roles = {
            s.id: Category.OUTPUT if not readers[s.id] else Category.INTERNAL if writers[s.id] else Category.INPUT
            for s in self.streams
        }
        return Wiring(ins, outs, readers, writers, roles)


class GraphBuilder:
    """Happy-path construction helper: each port in `inputs`/`outputs`
    becomes one edge. Tests that need broken graphs assemble FlowGraph
    pieces directly."""

    def __init__(self):
        self._streams: list[StreamDecl] = []
        self._nodes: list[NodeSpec] = []
        self._in_edges: list[InEdge] = []
        self._out_edges: list[OutEdge] = []

    def stream(self, stream_id: str, schema: Schema) -> "GraphBuilder":
        self._streams.append(StreamDecl(stream_id, schema))
        return self

    def node(
        self,
        node_id: str,
        transform: Transform,
        inputs: Mapping[str, str],
        outputs: Mapping[str, str],
        logic_version: str = "v1",
    ) -> "GraphBuilder":
        self._in_edges.extend(InEdge(stream_id, node_id, port) for port, stream_id in inputs.items())
        self._out_edges.extend(OutEdge(node_id, port, stream_id) for port, stream_id in outputs.items())
        self._nodes.append(NodeSpec(node_id, transform, logic_version))
        return self

    def fold(
        self,
        node_id: str,
        init: Callable[[], Any],
        step: Transform,
        inputs: Mapping[str, str],
        outputs: Mapping[str, str],
        logic_version: str = "v1",
    ) -> "GraphBuilder":
        """Declare a fold node: `step(inputs, state)` over runtime-owned `init()` state."""
        self.node(node_id, step, inputs, outputs, logic_version)
        self._nodes[-1] = self._nodes[-1]._replace(init=init)
        return self

    def build(self) -> FlowGraph:
        return FlowGraph(
            tuple(self._streams),
            tuple(self._nodes),
            tuple(self._in_edges),
            tuple(self._out_edges),
        )


class Violation(NamedTuple):
    code: str
    subject: str
    message: str

    def __str__(self):
        return f"{self.code}({self.subject}): {self.message}"


def validate(graph: FlowGraph) -> list[Violation]:
    """Check every graph invariant; an empty report means the graph is valid.

    Violations are data, not exceptions: a report lists each broken rule
    with the offending element so callers can show all problems at once.
    """
    return _checked_order(graph, graph.wiring())[0]


def topological_order(graph: FlowGraph) -> list[str]:
    """Node ids so every instantaneous edge goes forward; ties by ascending id.

    An invalid graph raises `GraphValidationError`; a valid one is ordered
    by the same Kahn pass `validate` checks acyclicity with.
    """
    violations, order = _checked_order(graph, graph.wiring())
    if violations:
        raise GraphValidationError(violations)
    return order


def _checked_order(graph: FlowGraph, wiring: Wiring) -> tuple[list[Violation], list[str]]:
    """`validate`'s report and the order of `_kahn`'s one pass.

    The rules read `wiring`, the caller's `graph.wiring()`, and acyclicity
    is checked by the order pass: the `cycle` subject is the nodes of one
    cycle among those it leaves out.
    """
    out: list[Violation] = []
    streams = graph.stream_map()
    nodes = graph.node_map()

    for sid in _repeated([s.id for s in graph.streams]):
        out.append(Violation("duplicate-stream", sid, "stream id declared more than once"))
    for nid in _repeated([n.id for n in graph.nodes]):
        out.append(Violation("duplicate-node", nid, "node id declared more than once"))
    for eid in sorted(streams.keys() & nodes.keys()):
        out.append(Violation("shared-id", eid, "id names both a stream and a node"))

    for e in graph.in_edges:
        if e.stream not in streams:
            out.append(Violation("unknown-stream", e.stream, f"in-edge to {e.node}.{e.port} names a missing stream"))
        if e.node not in nodes:
            out.append(Violation("unknown-node", e.node, f"in-edge from {e.stream} names a missing node"))
    for e in graph.out_edges:
        if e.stream not in streams:
            out.append(Violation("unknown-stream", e.stream, f"out-edge from {e.node}.{e.port} names a missing stream"))
        if e.node not in nodes:
            out.append(Violation("unknown-node", e.node, f"out-edge to {e.stream} names a missing node"))

    # A port exists where edges name it, and those edges must name one stream.
    for direction, by_node in (("in", wiring.ins), ("out", wiring.outs)):
        for nid, node_edges in by_node.items():
            for port in _repeated([e.port for e in node_edges]):
                message = f"{direction}-port wired to more than one stream"
                out.append(Violation("multi-wired-port", f"{nid}.{port}", message))

    # A stream that nodes read has one writer, or none: then the world writes it.
    for s in graph.streams:
        writers = len(wiring.writers[s.id])
        if writers > 1 and wiring.readers[s.id]:
            out.append(Violation("internal-producers", s.id, f"internal stream needs exactly one producer, has {writers}"))

    # Acyclicity of the node-to-node relation (each writer of a stream ->
    # each reader of it): what the order pass leaves out lies on or after a cycle.
    edges = {
        (u, v) for sid, writers in wiring.writers.items() for u in writers for v in wiring.readers.get(sid, ())
    }
    order = _kahn(nodes, edges)
    left = set(nodes).difference(order)
    if left:
        out.append(Violation("cycle", ",".join(sorted(_cycle(left, edges))), "instantaneous edges form a cycle"))

    # Orphans: every node must lie on some input -> output path.
    if graph.nodes:
        inputs = [sid for sid, role in wiring.roles.items() if role is Category.INPUT]
        outputs = [sid for sid, role in wiring.roles.items() if role is Category.OUTPUT]
        fed, feeding = _closure(graph, wiring, inputs, forward=True), _closure(graph, wiring, outputs, forward=False)
        for nid in sorted(n.id for n in graph.nodes):
            if nid not in fed or nid not in feeding:
                out.append(Violation("orphan-node", nid, "node is not on any input-to-output path"))

    return out, order


def _repeated(ids: list[str]) -> list[str]:
    return sorted(i for i, count in Counter(ids).items() if count > 1)


def _kahn(node_ids: Iterable[str], edges: set[tuple[str, str]]) -> list[str]:
    """Kahn's algorithm: `node_ids` so every edge between two of them goes
    forward, ties by ascending id. A node on a cycle, or after one, is left
    out. Iterative, so a graph of any depth is ordered."""
    indeg = dict.fromkeys(node_ids, 0)
    succ: dict[str, list[str]] = {nid: [] for nid in indeg}
    for u, v in edges:
        if u in indeg and v in indeg:
            indeg[v] += 1
            succ[u].append(v)
    ready = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for v in succ[nid]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    return order


def _cycle(left: set[str], edges: set[tuple[str, str]]) -> list[str]:
    """The nodes of one cycle among the nodes `_kahn` left out.

    Each has a left-out predecessor (else its in-degree would have reached
    0), so walking back from the smallest through smallest left-out
    predecessors revisits a node: the walk since its first visit is a cycle.
    """
    preds: dict[str, list[str]] = {}
    for u, v in edges:
        if u in left and v in left:
            preds.setdefault(v, []).append(u)
    walk: dict[str, int] = {}  # node -> its position on the walk
    nid = min(left)
    while nid not in walk:
        walk[nid] = len(walk)
        nid = min(preds[nid])
    return list(walk)[walk[nid]:]


def _closure(graph: FlowGraph, wiring: Wiring, starts: list[str], forward: bool) -> set[str]:
    """Every declared element reachable from any of `starts` along edges
    between two of them, plus the starts. Forward, a stream leads to its
    readers and a node to the streams it writes; backward, the reverse."""
    known = {s.id for s in graph.streams} | {n.id for n in graph.nodes}
    to_nodes, to_streams = (wiring.readers, wiring.outs) if forward else (wiring.writers, wiring.ins)
    for start in starts:
        if start not in known:
            raise UnknownElementError(start)
    seen, todo = set(starts), list(starts)
    while todo:
        x = todo.pop()
        for y in (*to_nodes.get(x, ()), *(e.stream for e in to_streams.get(x, ()))):
            if y in known and y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def upstream_closure(graph: FlowGraph, target: str) -> set[str]:
    """All streams and nodes from which `target` is reachable, plus itself."""
    return _closure(graph, graph.wiring(), [target], forward=False)


def downstream_closure(graph: FlowGraph, source: str) -> set[str]:
    """All streams and nodes reachable from `source`, plus itself."""
    return _closure(graph, graph.wiring(), [source], forward=True)


_DOT_COLORS = {
    Category.INPUT: "red",
    Category.INTERNAL: "yellow",
    Category.OUTPUT: "green",
}


def export_dot(graph: FlowGraph) -> str:
    """Render the graph as a DOT digraph.

    Nodes are ellipses, streams are colored boxes (red input, yellow
    internal, green output). Statement order is sorted so the same graph
    always yields byte-identical text.
    """
    lines = ["digraph flow {"]
    elements: list[tuple[str, str]] = []
    wiring = graph.wiring()
    for s in graph.streams:
        elements.append((s.id, f'  "{s.id}" [shape=box, style=filled, fillcolor={_DOT_COLORS[wiring.roles[s.id]]}];'))
    for n in graph.nodes:
        elements.append((n.id, f'  "{n.id}" [shape=ellipse];'))
    lines.extend(stmt for _, stmt in sorted(elements))
    links = [(sid, nid) for sid, readers in wiring.readers.items() for nid in readers]
    links += [(nid, sid) for sid, writers in wiring.writers.items() for nid in writers]
    lines.extend(f'  "{src}" -> "{dst}";' for src, dst in sorted(links))
    lines.append("}")
    return "\n".join(lines) + "\n"
