"""Tick-based deterministic executor for a validated FlowGraph.

The runtime owns all state: stream logs, per-node read cursors and the
state of fold nodes. A node sees only its delta: per wired in-port, a
fresh list of the records appended since it last ran. A node that needs
more is a fold (`NodeSpec.init` set): it also gets a state object that the
runtime creates once per instance with `init()` and hands back on every
call, and the transform updates it in place from those lists. Since the
runtime creates and keeps that state, every output is still a pure
function of the input logs, and two instances of one graph never share it.

One `step()` walks the nodes in a frozen topological order, so records
produced upstream are visible downstream within the same tick. A node
runs at a tick only if at least one of its in-ports gained records since
it last ran, which `step` reads off each log's length against the port's
cursor before it builds any view; otherwise it is not called, and a
fold's state is untouched.
So every record a node gets at a tick was appended at that tick: injected
before the step, or produced upstream earlier in the same walk.
A transform that must act without input is not supported. `invocations`
counts each node's activations. A transform returns a dict of port ->
rows, or anything falsy for no output; any other result raises
`TransformError` naming the node and tick, and a row that fails its
schema's checks raises one naming the node, port and tick. An exception
raised inside a transform is re-raised as `NodeError`, naming the node and
tick, with the original as its cause.

A failed tick is atomic for the logs: before any error leaves `step`,
every record that nodes appended during that tick is removed again, so
the logs are exactly as they were when `step()` was entered, and a bad
row leaves no rows of its node, on any port, in the logs. Fold state
may already have advanced and is not rolled back, so the instance is then
marked failed: any later `step`, `inject` or `append_collected` raises
`FailedInstanceError` naming the original node and tick. Reads still work.

`inject` writes an input stream and `append_collected` an output stream
no node writes, each role read off the edges (`Wiring.roles`), so a
stream no node reads or writes is an output: `append_collected` takes it
and `inject` refuses it.

`start` builds a plan once from the graph's wiring index (see `graph`),
the one reader of the edges here: one entry per node in topological order
with its id, transform, fold flag and state, its in-ports' logs and cursor
keys and, per out-port, the port name, stream id, schema, bound
`Schema.coerce_row` and log; `step` only walks that plan. A node's ports
are exactly those its edges name, in edge order. Every write, `inject`,
`append_collected` or a node's output, is one `coerce_row` call per
record (an exact row takes the schema's compiled fast path, see `graph`)
and one `tuple.__new__` that stamps the tick; `start` resolves each
stream's `coerce_row` once. A record's place in its log is its only
position (`read` takes one). A port's records are appended with one
`extend` before the next port is checked, so two out-ports wired to one
stream hold them in port order. Two out-ports may share a stream only when
no node reads it; otherwise `validate` flags it as `internal-producers`,
and `start` refuses the graph. The graph's records (`NodeSpec`, ...) are
NamedTuples, whose field reads cost about twice an attribute read, so
`step`, `inject` and `read` unpack what they need at start and read no
record field per tick.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import (
    Category,
    FlowGraph,
    GraphValidationError,
    Record,
    SchemaMismatchError,
    UnknownElementError,
    _checked_order,
)

# Builds a `Record` from (schema, values, tick) without its Python `__new__`.
_new = tuple.__new__


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


class PortView(list):
    """What a transform gets on one in-port: a fresh list of the records in
    `log` from its node's cursor on, which it may keep or change. A class
    rather than a bare slice so that `bench/tracer.py` can count them."""

    __slots__ = ()

    def __init__(self, log: list[Record], cursor: int):
        self += log[cursor:]  # cheaper than `list.__init__` or `super().__init__`


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
        wiring = graph.wiring()
        violations, order = _checked_order(graph, wiring)
        if violations:
            raise GraphValidationError(violations)
        streams = graph.stream_map()
        self._logs: dict[str, list[Record]] = {s.id: [] for s in graph.streams}
        # Stream id -> (schema, coerce_row, log) for every write path: `inject` to
        # the inputs, `append_collected` to the producer-less outputs, the out-ports.
        targets = {sid: (s.schema, s.schema.coerce_row, self._logs[sid]) for sid, s in streams.items()}
        self._inputs = {sid: t for sid, t in targets.items() if wiring.roles[sid] is Category.INPUT}
        self._collected = {sid: t for sid, t in targets.items() if not wiring.readers[sid] and not wiring.writers[sid]}
        # One entry per node in topological order: (node id, transform, is a fold,
        # fold state or None, in-ports, out-ports, out-port names), each node's
        # ports in edge order: per in-port (port, log, cursor key), per out-port
        # (port, stream id, schema, coerce_row, log). `step` walks it, looks nothing up.
        nodes = graph.node_map()
        self._cursors: dict[tuple[str, str], int] = {}
        self._plan = []
        for nid in order:
            node = nodes[nid]
            fold = node.init is not None
            state = node.init() if fold else None
            ins = tuple((e.port, self._logs[e.stream], (nid, e.port)) for e in wiring.ins[nid])
            outs = tuple((e.port, e.stream, *targets[e.stream]) for e in wiring.outs[nid])
            self._cursors.update((key, 0) for *_, key in ins)
            names = frozenset(port for port, *_ in outs)
            self._plan.append((nid, node.transform, fold, state, ins, outs, names))
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
        target = self._inputs.get(stream_id)
        if target is None:
            self._log(stream_id)  # an unknown id raises `UnknownElementError`
            raise StreamWriteError(f"{stream_id!r} is not an input stream")
        schema, coerce, log = target
        rec = _new(Record, (schema, coerce(values), self.tick))
        log.append(rec)
        return rec

    def append_collected(self, stream_id: str, values) -> Record:
        """Runtime-owned write path for producer-less output streams.

        Used by the dataset-collection tooling to materialize derived rows
        into an output stream. Refused for anything a node writes.
        """
        if self._failure is not None:
            raise FailedInstanceError(self._failure)
        target = self._collected.get(stream_id)
        if target is None:
            self._log(stream_id)  # an unknown id raises `UnknownElementError`
            if self.graph.wiring().roles[stream_id] is not Category.OUTPUT:
                raise StreamWriteError(f"{stream_id!r} is not an output stream")
            raise StreamWriteError(f"{stream_id!r} is produced by a node")
        schema, coerce, log = target
        rec = _new(Record, (schema, coerce(values), self.tick))
        log.append(rec)
        return rec

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> TickSummary:
        """Run, in topological order, each node one of whose in-ports gained
        records since it last ran, then advance the tick.

        If a node fails, every record a node appended during this tick is
        removed again, the instance is marked failed, and the error (a
        `NodeError`, a `TransformError` or whatever else escaped) propagates.
        """
        if self._failure is not None:
            raise FailedInstanceError(self._failure)
        tick = self.tick
        cursors = self._cursors
        produced: dict[str, int] = {}
        try:
            for nid, transform, fold, state, ins, outs, out_names in self._plan:
                for _, log, key in ins:
                    if len(log) > cursors[key]:
                        break
                else:
                    continue  # no in-port gained records: the node does not run
                inputs = {name: PortView(log, cursors[key]) for name, log, key in ins}
                try:
                    result = transform(inputs, state) if fold else transform(inputs)
                except Exception as exc:
                    raise NodeError(nid, tick, exc) from exc
                if result:
                    if not isinstance(result, dict):
                        raise TransformError(
                            f"node {nid!r} at tick {tick} returned a {type(result).__name__}, "
                            f"not a dict of port -> rows"
                        )
                    if not out_names.issuperset(result):
                        raise TransformError(
                            f"node {nid!r} at tick {tick} emitted to undeclared ports "
                            f"{sorted(set(result) - out_names)}"
                        )
                    # Append port by port: two out-ports may share a stream. `_fail` drops these on error.
                    for name, sid, schema, coerce, log in outs:
                        try:
                            recs = [_new(Record, (schema, coerce(row), tick)) for row in result.get(name, ())]
                        except (SchemaMismatchError, TypeError) as exc:
                            raise TransformError(
                                f"node {nid!r} port {name!r} at tick {tick}: {exc}"
                            ) from exc
                        if recs:
                            log.extend(recs)
                            produced[sid] = produced.get(sid, 0) + len(recs)
                for name, log, key in ins:
                    cursors[key] = len(log)
                self.invocations[nid] += 1
        except Exception as exc:
            self._fail(tick, exc)
            raise
        self.tick = tick + 1
        return TickSummary(tick, produced)

    def _fail(self, tick: int, exc: Exception) -> None:
        """Drop what nodes appended during `tick` and refuse further writes.

        Only nodes write to produced streams, and only inside `step`, so the
        tick's records there are exactly the trailing ones stamped `tick`.
        """
        for *_, outs, _ in self._plan:
            for *_, log in outs:
                while log and log[-1].tick == tick:
                    log.pop()
        self._failure = f"instance failed, start a new one: {exc}"

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read(self, stream_id: str, start: int = 0) -> list[Record]:
        """The records of `stream_id` from log position `start` on."""
        if isinstance(start, bool) or not isinstance(start, int) or start < 0:
            raise ValueError(f"start must be an int >= 0, got {start!r}")
        return self._log(stream_id)[start:]  # a slice: already a fresh list

    def length(self, stream_id: str) -> int:
        return len(self._log(stream_id))

    def stream_ids(self) -> list[str]:
        return sorted(self._logs)

    def input_schemas(self) -> dict:
        """Each input stream's id -> its schema, in the graph's stream order."""
        return {sid: schema for sid, (schema, _, _) in self._inputs.items()}

    def _log(self, stream_id: str) -> list[Record]:
        try:
            return self._logs[stream_id]
        except KeyError:
            raise UnknownElementError(stream_id) from None


def start(graph: FlowGraph) -> RuntimeInstance:
    """Validate the graph and return a fresh instance with empty logs."""
    return RuntimeInstance(graph)
