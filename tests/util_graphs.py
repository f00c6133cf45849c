"""Shared helpers: tiny graph fixtures, a random valid-DAG generator and
the ways to break one, brute-force oracles kept independent of the
library's code (`reference_validate` is `validate`'s executable spec), and
the recompute-from-copy fold that stands in for a fold node in oracle
graphs."""

from __future__ import annotations

from typing import Callable, Sequence

from flowbench import apps
from flowbench.graph import (
    FlowGraph,
    GraphBuilder,
    InEdge,
    NodeSpec,
    OutEdge,
    Schema,
)
from flowbench.rng import SplitMix64

POINT = Schema("point", (("x", "int"),))


def copy_transform(in_port: str, out_port: str):
    def transform(inputs):
        return {out_port: [r.as_dict() for r in inputs[in_port]]}

    return transform


def chain_graph() -> FlowGraph:
    """i -> A -> s -> B -> o, all copies."""
    b = GraphBuilder()
    b.stream("i", POINT)
    b.stream("s", POINT)
    b.stream("o", POINT)
    b.node("A", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "s"})
    b.node("B", copy_transform("in", "out"), inputs={"in": "s"}, outputs={"out": "o"})
    return b.build()


def diamond_graph() -> FlowGraph:
    """i -> A -> {s1, s2}; s1 -> B -> o1; s2 -> C -> o2."""
    b = GraphBuilder()
    b.stream("i", POINT)
    b.stream("s1", POINT)
    b.stream("s2", POINT)
    b.stream("o1", POINT)
    b.stream("o2", POINT)
    b.node(
        "A",
        lambda inputs: {
            "l": [r.as_dict() for r in inputs["in"]],
            "r": [r.as_dict() for r in inputs["in"]],
        },
        inputs={"in": "i"},
        outputs={"l": "s1", "r": "s2"},
    )
    b.node("B", copy_transform("in", "out"), inputs={"in": "s1"}, outputs={"out": "o1"})
    b.node("C", copy_transform("in", "out"), inputs={"in": "s2"}, outputs={"out": "o2"})
    return b.build()


def random_dag(seed: int, max_nodes: int = 20) -> FlowGraph:
    """Random valid graph: layered construction guarantees every invariant."""
    rng = SplitMix64(seed)
    n_nodes = 1 + rng.randrange(max_nodes)
    b = GraphBuilder()
    internal_pool: list[str] = []  # streams produced by earlier nodes
    consumed: set[str] = set()
    n_inputs = 0
    n_streams = 0
    for i in range(n_nodes):
        node_id = f"n{i:02d}"
        n_in = 1 + rng.randrange(2)
        in_map = {}
        for p in range(n_in):
            unconsumed = [s for s in internal_pool if s not in consumed]
            if unconsumed and rng.random() < 0.7:
                sid = unconsumed[rng.randrange(len(unconsumed))]
            elif internal_pool and rng.random() < 0.5:
                sid = internal_pool[rng.randrange(len(internal_pool))]
            else:
                sid = f"in{n_inputs:02d}"
                n_inputs += 1
                b.stream(sid, POINT)
            if sid in in_map.values():
                continue
            in_map[f"p{p}"] = sid
            consumed.add(sid)
        n_out = 1 + rng.randrange(2)
        out_map = {}
        for p in range(n_out):
            sid = f"s{n_streams:02d}"
            n_streams += 1
            b.stream(sid, POINT)
            out_map[f"q{p}"] = sid
            internal_pool.append(sid)
        ports = sorted(in_map)
        b.node(
            node_id,
            lambda inputs, _ports=ports, _outs=sorted(out_map): {
                o: [r.as_dict() for r in inputs[_ports[0]]] for o in _outs
            },
            inputs=in_map,
            outputs=out_map,
        )
    return b.build()


def app_graphs() -> list[FlowGraph]:
    """Every fbp build's graph, as its app module wires it by hand."""
    return [
        apps.build_app(apps.app_version(app, "fbp", stage), apps.make_scenario(app, 1, 0)).graph
        for app in apps.APP_NAMES
        for stage in apps.APP_STAGES
    ]


def element_edges(graph: FlowGraph) -> set[tuple[str, str]]:
    edges = {(e.stream, e.node) for e in graph.in_edges}
    edges |= {(e.node, e.stream) for e in graph.out_edges}
    return edges


def node_edges(graph: FlowGraph) -> set[tuple[str, str]]:
    """Instantaneous node-to-node edges: each writer of a stream -> each
    reader of it, from the raw edge lists."""
    return {
        (w.node, r.node) for w in graph.out_edges for r in graph.in_edges if w.stream == r.stream
    }


def _reach(links: set[tuple[str, str]], starts) -> set[str]:
    """The starts and everything reachable from them along `links`, by
    fixpoint iteration."""
    reach = set(starts)
    changed = True
    while changed:
        changed = False
        for a, b in links:
            if a in reach and b not in reach:
                reach.add(b)
                changed = True
    return reach


def brute_force_closure(graph: FlowGraph, start: str, forward: bool) -> set[str]:
    """Transitive closure by fixpoint iteration over the raw edge list."""
    edges = element_edges(graph)
    if not forward:
        edges = {(b, a) for a, b in edges}
    return _reach(edges, [start])


# `validate` names one cycle of its choosing; `reference_validate` names any
# cycle this way, and `is_node_cycle` checks the one `validate` named.
ANY_CYCLE = "<any cycle>"


def reference_validate(graph: FlowGraph) -> set[tuple[str, str]]:
    """`validate`'s findings as a set of (code, subject), each code
    recomputed by brute force from its definition over the raw edge lists."""
    stream_ids = [s.id for s in graph.streams]
    node_ids = [n.id for n in graph.nodes]
    found: set[tuple[str, str]] = set()
    # duplicate-stream, duplicate-node: an id declared more than once;
    # shared-id: an id declared as a stream and as a node.
    found |= {("duplicate-stream", sid) for sid in stream_ids if stream_ids.count(sid) > 1}
    found |= {("duplicate-node", nid) for nid in node_ids if node_ids.count(nid) > 1}
    found |= {("shared-id", eid) for eid in set(stream_ids) & set(node_ids)}
    # unknown-stream, unknown-node: an edge names an undeclared one.
    edges = [("in", e.node, e.port, e.stream) for e in graph.in_edges]
    edges += [("out", e.node, e.port, e.stream) for e in graph.out_edges]
    found |= {("unknown-stream", sid) for *_, sid in edges if sid not in stream_ids}
    found |= {("unknown-node", nid) for _, nid, _, _ in edges if nid not in node_ids}
    # multi-wired-port: more than one edge names one (direction, node, port).
    ports = [(direction, nid, port) for direction, nid, port, _ in edges]
    found |= {("multi-wired-port", f"{nid}.{port}") for direction, nid, port in ports
              if ports.count((direction, nid, port)) > 1}
    # internal-producers: a stream some node reads has more than one out-edge;
    # one node writing it from two ports counts twice.
    read = [e.stream for e in graph.in_edges]
    written = [e.stream for e in graph.out_edges]
    found |= {("internal-producers", sid) for sid in stream_ids if sid in read and written.count(sid) > 1}
    # cycle: a declared node reaches itself along the node relation (each
    # writer of a stream -> each reader of it).
    relation = {(u, v) for u, v in node_edges(graph) if u in node_ids and v in node_ids}
    if any(u in _reach(relation, [v for w, v in relation if w == u]) for u in node_ids):
        found.add(("cycle", ANY_CYCLE))
    # orphan-node: a node on no path from an input (read, never written) to
    # an output (never read), along edges between declared elements.
    known = set(stream_ids) | set(node_ids)
    links = {(a, b) for a, b in element_edges(graph) if a in known and b in known}
    fed = _reach(links, [sid for sid in stream_ids if sid in read and sid not in written])
    feeding = _reach({(b, a) for a, b in links}, [sid for sid in stream_ids if sid not in read])
    found |= {("orphan-node", nid) for nid in node_ids if nid not in fed or nid not in feeding}
    return found


def is_node_cycle(graph: FlowGraph, subject: str) -> bool:
    """Whether `subject` lists, sorted and comma-joined, the nodes of one
    cycle of the node relation: some order of them closes a loop."""
    members = subject.split(",")
    if members != sorted(set(members)):
        return False
    relation = {(u, v) for u, v in node_edges(graph) if u in members and v in members}
    first = members[0]

    def closes(last: str, rest: frozenset) -> bool:
        if not rest:
            return (last, first) in relation
        return any(closes(v, rest - {v}) for v in rest if (last, v) in relation)

    return closes(first, frozenset(members[1:]))


def _noop(inputs):
    return {}


# Ids no fixture declares; two mutations may share one, so that an edge to an
# unknown stream and an edge from it meet.
UNKNOWN_IDS = ("ghost", "spook")

# Each way to break a graph, with the parts it draws from; a mutation whose
# parts are empty leaves the graph as it is.
MUTATIONS = {
    "duplicate-stream": ("streams",),
    "duplicate-node": ("nodes",),
    "node-with-a-stream-id": ("streams",),
    "in-edge-from-unknown-stream": ("nodes",),
    "in-edge-to-unknown-node": ("streams",),
    "out-edge-from-unknown-node": ("streams",),
    "out-edge-to-unknown-stream": ("nodes",),
    "second-in-edge-on-a-port": ("in_edges", "streams"),
    "second-out-edge-on-a-port": ("out_edges", "streams"),
    "extra-writer": ("nodes", "streams"),
    "back-edge": ("out_edges",),
    "orphan-node": ("streams",),
    "drop-edge": (),
    "drop-stream": ("streams",),
    "drop-node": ("nodes",),
}


def mutate(graph: FlowGraph, kind: str, pick: Callable[[Sequence], object]) -> FlowGraph:
    """`graph` broken one way (a key of `MUTATIONS`); `pick(items)` chooses
    one of a non-empty sequence."""
    if not all(getattr(graph, part) for part in MUTATIONS[kind]):
        return graph
    port = f"m{len(graph.in_edges) + len(graph.out_edges)}"  # a port no edge names yet

    def stream():
        return pick(graph.streams).id

    def node():
        return pick(graph.nodes).id

    def add(**parts):
        return graph._replace(**{name: getattr(graph, name) + extra for name, extra in parts.items()})

    def drop(name, item):
        items = list(getattr(graph, name))
        items.remove(item)
        return graph._replace(**{name: tuple(items)})

    if kind == "duplicate-stream":
        return add(streams=(pick(graph.streams),))
    if kind == "duplicate-node":
        return add(nodes=(pick(graph.nodes),))
    if kind == "node-with-a-stream-id":
        return add(nodes=(NodeSpec(stream(), _noop),))
    if kind == "in-edge-from-unknown-stream":
        return add(in_edges=(InEdge(pick(UNKNOWN_IDS), node(), port),))
    if kind == "in-edge-to-unknown-node":
        return add(in_edges=(InEdge(stream(), pick(UNKNOWN_IDS), port),))
    if kind == "out-edge-from-unknown-node":
        return add(out_edges=(OutEdge(pick(UNKNOWN_IDS), port, stream()),))
    if kind == "out-edge-to-unknown-stream":
        return add(out_edges=(OutEdge(node(), port, pick(UNKNOWN_IDS)),))
    if kind == "second-in-edge-on-a-port":
        edge = pick(graph.in_edges)
        return add(in_edges=(InEdge(stream(), edge.node, edge.port),))
    if kind == "second-out-edge-on-a-port":
        edge = pick(graph.out_edges)
        return add(out_edges=(OutEdge(edge.node, edge.port, stream()),))
    if kind == "extra-writer":
        return add(out_edges=(OutEdge(node(), port, stream()),))
    if kind == "back-edge":
        # A stream written by some node, read by that node or one upstream of it.
        edge = pick(graph.out_edges)
        upstream = brute_force_closure(graph, edge.node, forward=False)
        readers = sorted(upstream.intersection(n.id for n in graph.nodes)) or [edge.node]
        return add(in_edges=(InEdge(edge.stream, pick(readers), port),))
    if kind == "orphan-node":
        return add(nodes=(NodeSpec("orphan", _noop),), in_edges=(InEdge(stream(), "orphan", "in"),))
    if kind == "drop-edge":
        edges = graph.in_edges + graph.out_edges
        if not edges:
            return graph
        edge = pick(edges)
        return drop("in_edges" if isinstance(edge, InEdge) else "out_edges", edge)
    if kind == "drop-stream":
        return drop("streams", pick(graph.streams))
    if kind == "drop-node":
        return drop("nodes", pick(graph.nodes))
    raise ValueError(kind)


def nested_scan_timeline(user_id, edges, posts, limit):
    """Reference timeline: scan every edge for every post."""
    selected = []
    for post_id, author, post_tick in posts:
        followed = any(
            follower == user_id and followee == author and tick <= post_tick
            for follower, followee, tick in edges
        )
        if followed:
            selected.append((post_tick, post_id))
    selected.sort(reverse=True)
    return [post_id for _, post_id in selected[:limit]]


def recompute_from_copy(replay):
    """A fold that appends each port's delta to its own copy of that port's
    log and returns `replay(logs, new_from)`: the copies, and per port the
    index where this tick's delta starts. A copy holds every record since
    seq 0, so a record's `seq` is its index there."""

    def step(inputs, logs):
        new_from = {}
        for port, view in inputs.items():
            log = logs.setdefault(port, [])
            new_from[port] = len(log)
            log.extend(view)
        return replay(logs, new_from)

    return step


def with_oracles(graph: FlowGraph, oracles: dict) -> FlowGraph:
    """`graph` with each node named in `oracles` replaced by a
    `recompute_from_copy` fold over that node's replay function."""
    return graph._replace(
        nodes=tuple(
            n._replace(transform=recompute_from_copy(oracles[n.id]), init=dict)
            if n.id in oracles
            else n
            for n in graph.nodes
        ),
    )
