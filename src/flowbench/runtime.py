"""Tick-based deterministic executor for a validated FlowGraph.

The runtime owns all state: stream logs, per-node read cursors and the
state of fold nodes. A node sees only its delta: per wired in-port, the
records new since it last ran. A node that needs more is a fold
(`NodeSpec.init` set): it also gets a state object that the runtime
creates once per instance with `init()` and hands back on every call,
and the transform updates it in place from `.new`. Since the runtime
creates and keeps that state, every output is still a pure function of
the input logs, and two instances of one graph never share it.

One `step()` executes every node exactly once in a frozen topological
order, so records produced upstream are visible downstream within the
same tick. A node's outputs are checked against their schemas before any
of them is appended, so a bad row leaves no rows of that node in the
logs; the `TransformError` names the node, port and tick. An exception
raised inside a transform is re-raised as `NodeError`, naming the node
and tick, with the original as its cause.

A failed tick is atomic for the logs: before either error propagates,
every record that nodes appended during that tick is removed again, so
the logs are exactly as they were when `step()` was entered. Fold state
may already have advanced and is not rolled back, so the instance is then
marked failed: any later `step`, `inject` or `append_collected` raises
`FailedInstanceError` naming the original node and tick. Reads still work.

`start` builds a plan once, one entry per node in topological order with
its fold state, its in-ports' logs and cursor keys and its out-ports'
declarations and logs; `step` only walks that plan. Each port's checked
rows are appended with one `extend`.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import (
    Category,
    FlowGraph,
    Record,
    SchemaMismatchError,
    UnknownElementError,
    topological_order,
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
    """What a transform sees on one in-port: the records new since its node
    last ran, as `.new` (a copy).

    `records` is the stream's live log and `new_from` the node's cursor in
    it, so a view is valid only for the duration of the call it was
    passed to.
    """

    __slots__ = ("records", "new_from")

    def __init__(self, records: list[Record], new_from: int):
        self.records = records
        self.new_from = new_from

    @property
    def new(self) -> tuple[Record, ...]:
        return tuple(self.records[self.new_from:])


class TickSummary(NamedTuple):
    tick: int
    produced: dict[str, int]


class FailedInstanceError(Exception):
    """A step of this instance failed earlier; the message repeats that
    failure, naming its node and tick. Start a new instance."""


class RuntimeInstance:
    """One run of one graph. Confined to a single thread of control."""

    def __init__(self, graph: FlowGraph):
        self.graph = graph
        order = topological_order(graph)  # validates; raises GraphValidationError
        self._streams = graph.stream_map()
        self._logs: dict[str, list[Record]] = {s.id: [] for s in graph.streams}
        self._producer_count = {
            s.id: len(graph.producers_of(s.id)) for s in graph.streams
        }
        in_wiring = {(e.node, e.port): e.stream for e in graph.in_edges}
        out_wiring = {(e.node, e.port): e.stream for e in graph.out_edges}
        self._cursors: dict[tuple[str, str], int] = {key: 0 for key in in_wiring}
        # One entry per node in topological order: (node, fold state or None,
        # ((port, log, cursor key), ...), ((port, stream decl, log), ...),
        # out-port names). `step` walks it and looks nothing else up.
        nodes = graph.node_map()
        self._plan = []
        for nid in order:
            node = nodes[nid]
            ins = tuple(
                (p.name, self._logs[in_wiring[(nid, p.name)]], (nid, p.name))
                for p in node.in_ports
            )
            outs = []
            for p in node.out_ports:
                decl = self._streams[out_wiring[(nid, p.name)]]
                outs.append((p.name, decl, self._logs[decl.id]))
            state = None if node.init is None else node.init()
            names = frozenset(p.name for p in node.out_ports)
            self._plan.append((node, state, ins, tuple(outs), names))
        self._failure: str | None = None
        self.tick = 0
        self.invocations: dict[str, int] = {n.id: 0 for n in graph.nodes}

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def inject(self, stream_id: str, values) -> Record:
        """Append outside-world data to an input stream at the current tick."""
        if self._failure is not None:
            raise FailedInstanceError(self._failure)
        decl = self._decl(stream_id)
        if decl.category is not Category.INPUT:
            raise StreamWriteError(f"{stream_id!r} is not an input stream")
        return self._append(decl, decl.schema.coerce_row(values))

    def append_collected(self, stream_id: str, values) -> Record:
        """Runtime-owned write path for producer-less output streams.

        Used by the dataset-collection tooling to materialize derived rows
        into a declared output stream. Refused for anything a node writes.
        """
        if self._failure is not None:
            raise FailedInstanceError(self._failure)
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
        """Run every node once in topological order, then advance the tick.

        If a node fails, every record a node appended during this tick is
        removed again, the instance is marked failed, and the `NodeError`
        or `TransformError` propagates.
        """
        if self._failure is not None:
            raise FailedInstanceError(self._failure)
        tick = self.tick
        cursors = self._cursors
        produced: dict[str, int] = {}
        try:
            for node, state, ins, outs, out_names in self._plan:
                inputs = {name: PortView(log, cursors[key]) for name, log, key in ins}
                try:
                    if node.init is None:
                        result = node.transform(inputs)
                    else:
                        result = node.transform(inputs, state)
                except Exception as exc:
                    raise NodeError(node.id, tick, exc) from exc
                if result:
                    if not out_names.issuperset(result):
                        raise TransformError(
                            f"node {node.id!r} at tick {tick} emitted to undeclared ports "
                            f"{sorted(set(result) - out_names)}"
                        )
                    staged = []
                    for name, decl, log in outs:
                        coerce = decl.schema.coerce_row
                        try:
                            rows = [coerce(row) for row in result.get(name, ())]
                        except SchemaMismatchError as exc:
                            raise TransformError(
                                f"node {node.id!r} port {name!r} at tick {tick}: {exc}"
                            ) from exc
                        if rows:
                            staged.append((decl, log, rows))
                    for decl, log, rows in staged:
                        schema = decl.schema
                        log.extend([
                            Record(schema, row, tick, seq) for seq, row in enumerate(rows, len(log))
                        ])
                        produced[decl.id] = produced.get(decl.id, 0) + len(rows)
                for name, log, key in ins:
                    cursors[key] = len(log)
                self.invocations[node.id] += 1
        except (NodeError, TransformError) as exc:
            self._fail(tick, exc)
            raise
        self.tick = tick + 1
        return TickSummary(tick, produced)

    def _fail(self, tick: int, exc: Exception) -> None:
        """Drop what nodes appended during `tick` and refuse further writes.

        Only nodes write to produced streams, and only inside `step`, so the
        tick's records there are exactly the trailing ones stamped `tick`.
        """
        for _, _, _, outs, _ in self._plan:
            for _, _, log in outs:
                while log and log[-1].tick == tick:
                    log.pop()
        self._failure = f"instance failed, start a new one: {exc}"

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
