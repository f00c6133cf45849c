"""Dataflow graph model: typed streams, processing nodes, external wiring.

A program is a bipartite graph of named streams (typed, append-only logs)
and processing nodes (deterministic transforms with named ports, plain or
folding over runtime-owned state). Wiring lives in the graph, not in the
nodes, so the whole program is a traversable data structure:
`upstream_closure` / `downstream_closure` answer provenance and impact
questions, `topological_order` schedules execution, `export_dot` renders
the program as a picture.

Construction never fails on a malformed graph; `validate` reports every
broken invariant as data so callers can decide what to do.

Every record is checked on its way into a log. `Schema.coerce_row` first
tries one loop over a (name, exact Python type) plan built with the
schema: a dict holding exactly the declared fields, each value of exactly
its field's type, is returned as a tuple in field order. Anything else,
an int for a float, a subclass, a missing or extra key, takes the full
checks with their messages. A `Record` is a tuple underneath (schema,
values, tick, seq), so building one sets no attributes, and it stays
immutable.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Mapping

FIELD_TYPES = ("int", "float", "text", "bool")
_EXACT_TYPES = {"int": int, "float": float, "text": str, "bool": bool}


class Category(str, Enum):
    """Stream role: where its records come from and who may read them."""

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


@dataclass(frozen=True)
class Schema:
    """Named, ordered field list. Field order is canonical."""

    name: str
    fields: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.fields:
            raise ValueError(f"schema {self.name!r} must declare at least one field")
        seen = set()
        for fname, ftype in self.fields:
            if ftype not in FIELD_TYPES:
                raise ValueError(f"schema {self.name!r}: unknown type {ftype!r} for {fname!r}")
            if fname in seen:
                raise ValueError(f"schema {self.name!r}: duplicate field {fname!r}")
            seen.add(fname)
        # Field names in order, and name -> position for `Record.__getitem__`;
        # plain attributes, so equality and hash still depend on the fields only.
        object.__setattr__(self, "field_names", tuple(fname for fname, _ in self.fields))
        object.__setattr__(self, "_index", {fname: i for i, fname in enumerate(self.field_names)})
        # (name, exact Python type) per field, for `coerce_row`'s one-loop pass.
        object.__setattr__(
            self, "_exact", tuple((fname, _EXACT_TYPES[ftype]) for fname, ftype in self.fields)
        )

    def field_type(self, name: str) -> str:
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        raise KeyError(name)

    def coerce_row(self, values: Mapping[str, Any]) -> tuple:
        """Check a field->value mapping against the schema, return ordered values.

        ints are accepted for float fields (and widened); bool is never
        treated as an int. A dict holding exactly the declared fields, each
        value of exactly its field's Python type, passes in one loop; any
        other input takes the full checks below, which raise on it or widen it.
        """
        plan = self._exact
        if type(values) is dict and len(values) == len(plan):
            row = []
            for fname, ftype in plan:
                v = values.get(fname)
                if type(v) is not ftype:
                    break
                row.append(v)
            else:
                return tuple(row)
        extra = set(values).difference(self._index)
        if extra:
            raise SchemaMismatchError(
                f"schema {self.name!r}: unexpected fields {sorted(extra)}"
            )
        row = []
        for fname, ftype in self.fields:
            if fname not in values:
                raise SchemaMismatchError(f"schema {self.name!r}: missing field {fname!r}")
            v = values[fname]
            if ftype == "int":
                if isinstance(v, bool) or not isinstance(v, int):
                    raise SchemaMismatchError(
                        f"schema {self.name!r}: field {fname!r} wants int, got {v!r}"
                    )
            elif ftype == "float":
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise SchemaMismatchError(
                        f"schema {self.name!r}: field {fname!r} wants float, got {v!r}"
                    )
                v = float(v)
            elif ftype == "text":
                if not isinstance(v, str):
                    raise SchemaMismatchError(
                        f"schema {self.name!r}: field {fname!r} wants text, got {v!r}"
                    )
            else:  # bool
                if not isinstance(v, bool):
                    raise SchemaMismatchError(
                        f"schema {self.name!r}: field {fname!r} wants bool, got {v!r}"
                    )
            row.append(v)
        return tuple(row)


class Record(namedtuple("Record", ("schema", "values", "tick", "seq"))):
    """One immutable entry of a stream log.

    `tick` is the simulation time at append, `seq` the position within the
    owning stream. Field access goes through the schema so transform code
    can say `record["ride_id"]`. A tuple underneath: no per-instance dict,
    and assigning any attribute raises `AttributeError`.
    """

    __slots__ = ()

    def __getitem__(self, name: str):
        return self.values[self.schema._index[name]]

    def as_dict(self) -> dict[str, Any]:
        return dict(zip(self.schema.field_names, self.values))


@dataclass(frozen=True)
class StreamDecl:
    id: str
    category: Category
    schema: Schema


@dataclass(frozen=True)
class PortDecl:
    name: str
    schema: Schema


# Transforms map {in-port: PortView of its delta} -> {out-port: [field->value
# mapping, ...]}; a fold's transform also takes its state: (inputs, state).
Transform = Callable[..., dict]


@dataclass(frozen=True)
class NodeSpec:
    """Deterministic transform with named ports.

    The transform itself holds no state between calls, and each in-port
    shows it only the records new since its last call. A plain node
    (`init` None) gets `transform(inputs)` and maps that delta. A fold node
    gets `transform(inputs, state)`: the runtime calls `init()` once per
    instance for a fresh state, passes that same object on every tick, and
    the transform updates it in place from the `.new` deltas. Outputs stay
    pure functions of the input logs because only the runtime creates and
    keeps the state.
    """

    id: str
    in_ports: tuple[PortDecl, ...]
    out_ports: tuple[PortDecl, ...]
    transform: Transform
    logic_version: str = "v1"
    init: Callable[[], Any] | None = None


@dataclass(frozen=True)
class InEdge:
    """stream -> node.port"""

    stream: str
    node: str
    port: str


@dataclass(frozen=True)
class OutEdge:
    """node.port -> stream"""

    node: str
    port: str
    stream: str


@dataclass(frozen=True)
class FlowGraph:
    streams: tuple[StreamDecl, ...]
    nodes: tuple[NodeSpec, ...]
    in_edges: tuple[InEdge, ...]
    out_edges: tuple[OutEdge, ...]

    def stream_map(self) -> dict[str, StreamDecl]:
        return {s.id: s for s in self.streams}

    def node_map(self) -> dict[str, NodeSpec]:
        return {n.id: n for n in self.nodes}

    def producers_of(self, stream_id: str) -> list[str]:
        return [e.node for e in self.out_edges if e.stream == stream_id]

    def consumers_of(self, stream_id: str) -> list[str]:
        return [e.node for e in self.in_edges if e.stream == stream_id]

    def node_edges(self) -> set[tuple[str, str]]:
        """Instantaneous node-to-node edges induced by shared streams."""
        edges = set()
        readers: dict[str, list[str]] = {}
        for e in self.in_edges:
            readers.setdefault(e.stream, []).append(e.node)
        for e in self.out_edges:
            for reader in readers.get(e.stream, ()):
                edges.add((e.node, reader))
        return edges


class GraphBuilder:
    """Happy-path construction helper.

    Port schemas are taken from the streams a port is wired to, so a graph
    built this way cannot have port/stream schema mismatches. Tests that
    need broken graphs assemble FlowGraph pieces directly.
    """

    def __init__(self):
        self._streams: list[StreamDecl] = []
        self._nodes: list[NodeSpec] = []
        self._in_edges: list[InEdge] = []
        self._out_edges: list[OutEdge] = []

    def stream(self, stream_id: str, category: Category, schema: Schema) -> "GraphBuilder":
        self._streams.append(StreamDecl(stream_id, category, schema))
        return self

    def node(
        self,
        node_id: str,
        transform: Transform,
        inputs: Mapping[str, str],
        outputs: Mapping[str, str],
        logic_version: str = "v1",
    ) -> "GraphBuilder":
        by_id = {s.id: s for s in self._streams}
        in_ports = []
        for port, stream_id in inputs.items():
            in_ports.append(PortDecl(port, by_id[stream_id].schema))
            self._in_edges.append(InEdge(stream_id, node_id, port))
        out_ports = []
        for port, stream_id in outputs.items():
            out_ports.append(PortDecl(port, by_id[stream_id].schema))
            self._out_edges.append(OutEdge(node_id, port, stream_id))
        self._nodes.append(
            NodeSpec(node_id, tuple(in_ports), tuple(out_ports), transform, logic_version)
        )
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
        self._nodes[-1] = replace(self._nodes[-1], init=init)
        return self

    def build(self) -> FlowGraph:
        return FlowGraph(
            tuple(self._streams),
            tuple(self._nodes),
            tuple(self._in_edges),
            tuple(self._out_edges),
        )


@dataclass(frozen=True)
class Violation:
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
    out: list[Violation] = []
    stream_ids = [s.id for s in graph.streams]
    node_ids = [n.id for n in graph.nodes]
    streams = graph.stream_map()
    nodes = graph.node_map()

    for sid in sorted({s for s in stream_ids if stream_ids.count(s) > 1}):
        out.append(Violation("duplicate-stream", sid, "stream id declared more than once"))
    for nid in sorted({n for n in node_ids if node_ids.count(n) > 1}):
        out.append(Violation("duplicate-node", nid, "node id declared more than once"))

    for node in graph.nodes:
        for ports, direction in ((node.in_ports, "in"), (node.out_ports, "out")):
            names = [p.name for p in ports]
            for pname in sorted({p for p in names if names.count(p) > 1}):
                out.append(
                    Violation(
                        "duplicate-port",
                        f"{node.id}.{pname}",
                        f"{direction}-port name repeated on node {node.id!r}",
                    )
                )

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

    # Every port wired to exactly one stream, with matching schema.
    for node in graph.nodes:
        for ports, edges, direction in (
            (node.in_ports, graph.in_edges, "in"),
            (node.out_ports, graph.out_edges, "out"),
        ):
            for port in ports:
                wired = [e for e in edges if e.node == node.id and e.port == port.name]
                subject = f"{node.id}.{port.name}"
                if not wired:
                    out.append(Violation("unwired-port", subject, f"{direction}-port is not wired to any stream"))
                elif len(wired) > 1:
                    out.append(Violation("multi-wired-port", subject, f"{direction}-port wired to more than one stream"))
                elif wired[0].stream in streams and streams[wired[0].stream].schema != port.schema:
                    out.append(
                        Violation("schema-mismatch", subject, f"port schema differs from stream {wired[0].stream!r}")
                    )

    # Stream category rules.
    for s in graph.streams:
        producers = graph.producers_of(s.id)
        consumers = graph.consumers_of(s.id)
        if s.category is Category.INPUT and producers:
            out.append(
                Violation("input-has-producer", s.id, f"input stream written by nodes {sorted(producers)}")
            )
        if s.category is Category.OUTPUT and consumers:
            out.append(
                Violation("output-has-consumer", s.id, f"output stream read by nodes {sorted(consumers)}")
            )
        if s.category is Category.INTERNAL:
            if len(producers) != 1:
                out.append(
                    Violation(
                        "internal-producers",
                        s.id,
                        f"internal stream needs exactly one producer, has {len(producers)}",
                    )
                )
            if not consumers:
                out.append(Violation("internal-consumers", s.id, "internal stream has no consumer"))

    # Acyclicity of the node-to-node relation.
    cycle = _find_cycle(set(node_ids), graph.node_edges())
    if cycle:
        out.append(
            Violation("cycle", ",".join(sorted(cycle)), "instantaneous edges form a cycle")
        )

    # Orphans: every node must lie on some input -> output path.
    if graph.nodes:
        inputs = [s.id for s in graph.streams if s.category is Category.INPUT]
        outputs = [s.id for s in graph.streams if s.category is Category.OUTPUT]
        fed: set[str] = set()
        for sid in inputs:
            fed |= _closure(graph, sid, forward=True)
        feeding: set[str] = set()
        for sid in outputs:
            feeding |= _closure(graph, sid, forward=False)
        for nid in sorted(node_ids):
            if nid not in fed or nid not in feeding:
                out.append(
                    Violation("orphan-node", nid, "node is not on any input-to-output path")
                )

    return out


def _find_cycle(node_ids: set[str], edges: set[tuple[str, str]]) -> list[str] | None:
    adj: dict[str, list[str]] = {n: [] for n in node_ids}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].append(v)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in node_ids}
    stack: list[str] = []

    def visit(u: str) -> list[str] | None:
        color[u] = GRAY
        stack.append(u)
        for v in sorted(adj[u]):
            if color[v] == GRAY:
                return stack[stack.index(v):]
            if color[v] == WHITE:
                found = visit(v)
                if found:
                    return found
        stack.pop()
        color[u] = BLACK
        return None

    for n in sorted(node_ids):
        if color[n] == WHITE:
            found = visit(n)
            if found:
                return found
    return None


def topological_order(graph: FlowGraph) -> list[str]:
    """Node ids so every instantaneous edge goes forward; ties by ascending id."""
    violations = validate(graph)
    if violations:
        raise GraphValidationError(violations)
    edges = graph.node_edges()
    indeg = {n.id: 0 for n in graph.nodes}
    succ: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    for u, v in edges:
        indeg[v] += 1
        succ[u].append(v)
    ready = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for v in sorted(succ[nid]):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    return order


def _links(graph: FlowGraph) -> list[tuple[str, str]]:
    """Every edge as (src, dst): stream feeds node, node feeds stream."""
    return [(e.stream, e.node) for e in graph.in_edges] + [(e.node, e.stream) for e in graph.out_edges]


def _neighbors(graph: FlowGraph, forward: bool) -> dict[str, set[str]]:
    known = {s.id for s in graph.streams} | {n.id for n in graph.nodes}
    nbrs: dict[str, set[str]] = {k: set() for k in known}
    for src, dst in _links(graph):
        if src in known and dst in known:
            if forward:
                nbrs[src].add(dst)
            else:
                nbrs[dst].add(src)
    return nbrs


def _closure(graph: FlowGraph, start: str, forward: bool) -> set[str]:
    nbrs = _neighbors(graph, forward)
    if start not in nbrs:
        raise UnknownElementError(start)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def upstream_closure(graph: FlowGraph, target: str) -> set[str]:
    """All streams and nodes from which `target` is reachable, plus itself."""
    return _closure(graph, target, forward=False)


def downstream_closure(graph: FlowGraph, source: str) -> set[str]:
    """All streams and nodes reachable from `source`, plus itself."""
    return _closure(graph, source, forward=True)


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
    for s in graph.streams:
        elements.append(
            (s.id, f'  "{s.id}" [shape=box, style=filled, fillcolor={_DOT_COLORS[s.category]}];')
        )
    for n in graph.nodes:
        elements.append((n.id, f'  "{n.id}" [shape=ellipse];'))
    lines.extend(stmt for _, stmt in sorted(elements))
    lines.extend(f'  "{src}" -> "{dst}";' for src, dst in sorted(_links(graph)))
    lines.append("}")
    return "\n".join(lines) + "\n"
