"""Tick-based deterministic executor for a validated FlowGraph.

The runtime owns all state: stream logs, per-node read cursors and the
state of fold nodes. A plain node is stateless: each call it sees, per
wired in-port, the live log plus the delta that is new since it last ran.
A fold node (`NodeSpec.init` set) also gets a state object that the
runtime creates once per instance with `init()` and hands back on every
call; the transform updates it in place from `.new`. Since the runtime
creates and keeps that state, every output is still a pure function of
the input logs, and two instances of one graph never share it.

One `step()` executes every node exactly once in a frozen topological
order, so records produced upstream are visible downstream within the
same tick. A node's outputs are checked against their schemas before any
of them is appended, so a bad row leaves no rows of that node in the
logs; the `TransformError` names the node, port and tick. An exception
raised inside a transform is re-raised as `NodeError`, naming the node
and tick, with the original as its cause. After either error the
instance must be discarded: earlier nodes of that tick have appended,
and fold state may already have advanced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Category,
    FlowGraph,
    GraphValidationError,
    Record,
    SchemaMismatchError,
    UnknownElementError,
    topological_order,
    validate,
)


class StreamWriteError(Exception):
    """Write attempted on a stream the caller does not own."""


class TransformError(Exception):
    """A node transform produced output that violates its port contract."""


class NodeError(Exception):
    """A node transform raised; `cause` is the original exception."""

    def __init__(self, node: str, tick: int, cause: Exception):
        self.node = node
        self.tick = tick
        self.cause = cause
        super().__init__(f"node {node!r} at tick {tick}: {type(cause).__name__}: {cause}")


class PortView:
    """What a transform sees on one in-port: the live log plus a delta marker.

    `records` is the stream's log itself, not a copy, so a view is valid
    only for the duration of the call it was passed to. `.new` copies the
    delta; `.history` copies the whole log, so read it only when needed.
    """

    __slots__ = ("records", "new_from")

    def __init__(self, records: list[Record], new_from: int):
        self.records = records
        self.new_from = new_from

    @property
    def history(self) -> tuple[Record, ...]:
        return tuple(self.records)

    @property
    def new(self) -> tuple[Record, ...]:
        return tuple(self.records[self.new_from:])


@dataclass(frozen=True)
class TickSummary:
    tick: int
    produced: dict[str, int]


class RuntimeInstance:
    """One run of one graph. Confined to a single thread of control."""

    def __init__(self, graph: FlowGraph):
        violations = validate(graph)
        if violations:
            raise GraphValidationError(violations)
        self.graph = graph
        self._order = topological_order(graph)
        self._streams = graph.stream_map()
        self._nodes = graph.node_map()
        self._logs: dict[str, list[Record]] = {s.id: [] for s in graph.streams}
        self._in_wiring = {
            (e.node, e.port): e.stream for e in graph.in_edges
        }
        self._out_wiring = {
            (e.node, e.port): e.stream for e in graph.out_edges
        }
        self._cursors: dict[tuple[str, str], int] = {
            key: 0 for key in self._in_wiring
        }
        self._producer_count = {
            s.id: len(graph.producers_of(s.id)) for s in graph.streams
        }
        self._state = {n.id: n.init() for n in graph.nodes if n.init is not None}
        self.tick = 0
        self.invocations: dict[str, int] = {n.id: 0 for n in graph.nodes}

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def inject(self, stream_id: str, values) -> Record:
        """Append outside-world data to an input stream at the current tick."""
        decl = self._decl(stream_id)
        if decl.category is not Category.INPUT:
            raise StreamWriteError(f"{stream_id!r} is not an input stream")
        return self._append(decl, decl.schema.coerce_row(values))

    def append_collected(self, stream_id: str, values) -> Record:
        """Runtime-owned write path for producer-less output streams.

        Used by the dataset-collection tooling to materialize derived rows
        into a declared output stream. Refused for anything a node writes.
        """
        decl = self._decl(stream_id)
        if decl.category is not Category.OUTPUT:
            raise StreamWriteError(f"{stream_id!r} is not an output stream")
        if self._producer_count[stream_id]:
            raise StreamWriteError(f"{stream_id!r} is produced by a node")
        return self._append(decl, decl.schema.coerce_row(values))

    def _append(self, decl, row: tuple) -> Record:
        log = self._logs[decl.id]
        rec = Record(decl.schema, row, self.tick, len(log))
        log.append(rec)
        return rec

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> TickSummary:
        """Run every node once in topological order, then advance the tick."""
        produced: dict[str, int] = {}
        for nid in self._order:
            node = self._nodes[nid]
            inputs = {}
            for port in node.in_ports:
                sid = self._in_wiring[(nid, port.name)]
                inputs[port.name] = PortView(self._logs[sid], self._cursors[(nid, port.name)])
            try:
                if node.init is None:
                    result = node.transform(inputs)
                else:
                    result = node.transform(inputs, self._state[nid])
            except Exception as exc:
                raise NodeError(nid, self.tick, exc) from exc
            result = result or {}
            unknown = set(result) - {p.name for p in node.out_ports}
            if unknown:
                raise TransformError(
                    f"node {nid!r} at tick {self.tick} emitted to undeclared ports {sorted(unknown)}"
                )
            staged = []
            for port in node.out_ports:
                decl = self._streams[self._out_wiring[(nid, port.name)]]
                try:
                    rows = [decl.schema.coerce_row(row) for row in result.get(port.name, ())]
                except SchemaMismatchError as exc:
                    raise TransformError(
                        f"node {nid!r} port {port.name!r} at tick {self.tick}: {exc}"
                    ) from exc
                staged.append((decl, rows))
            for decl, rows in staged:
                for row in rows:
                    self._append(decl, row)
                if rows:
                    produced[decl.id] = produced.get(decl.id, 0) + len(rows)
            for port in node.in_ports:
                sid = self._in_wiring[(nid, port.name)]
                self._cursors[(nid, port.name)] = len(self._logs[sid])
            self.invocations[nid] += 1
        summary = TickSummary(self.tick, produced)
        self.tick += 1
        return summary

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read(self, stream_id: str, from_seq: int = 0) -> list[Record]:
        if from_seq < 0:
            raise ValueError("from_seq must be >= 0")
        decl = self._decl(stream_id)
        return list(self._logs[decl.id][from_seq:])

    def length(self, stream_id: str) -> int:
        return len(self._logs[self._decl(stream_id).id])

    def stream_ids(self) -> list[str]:
        return sorted(self._logs)

    def _decl(self, stream_id: str):
        try:
            return self._streams[stream_id]
        except KeyError:
            raise UnknownElementError(stream_id) from None


def start(graph: FlowGraph) -> RuntimeInstance:
    """Validate the graph and return a fresh instance with empty logs."""
    return RuntimeInstance(graph)
