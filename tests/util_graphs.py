"""Shared helpers: tiny graph fixtures, a random valid-DAG generator,
brute-force oracles kept independent of the library's code, and the
recompute-from-copy fold that stands in for a fold node in oracle graphs."""

from __future__ import annotations

import dataclasses

from flowbench.graph import (
    Category,
    FlowGraph,
    GraphBuilder,
    Schema,
)
from flowbench.rng import SplitMix64

POINT = Schema("point", (("x", "int"),))


def copy_transform(in_port: str, out_port: str):
    def transform(inputs):
        return {out_port: [r.as_dict() for r in inputs[in_port].new]}

    return transform


def chain_graph() -> FlowGraph:
    """i -> A -> s -> B -> o, all copies."""
    b = GraphBuilder()
    b.stream("i", Category.INPUT, POINT)
    b.stream("s", Category.INTERNAL, POINT)
    b.stream("o", Category.OUTPUT, POINT)
    b.node("A", copy_transform("in", "out"), inputs={"in": "i"}, outputs={"out": "s"})
    b.node("B", copy_transform("in", "out"), inputs={"in": "s"}, outputs={"out": "o"})
    return b.build()


def diamond_graph() -> FlowGraph:
    """i -> A -> {s1, s2}; s1 -> B -> o1; s2 -> C -> o2."""
    b = GraphBuilder()
    b.stream("i", Category.INPUT, POINT)
    b.stream("s1", Category.INTERNAL, POINT)
    b.stream("s2", Category.INTERNAL, POINT)
    b.stream("o1", Category.OUTPUT, POINT)
    b.stream("o2", Category.OUTPUT, POINT)
    b.node(
        "A",
        lambda inputs: {
            "l": [r.as_dict() for r in inputs["in"].new],
            "r": [r.as_dict() for r in inputs["in"].new],
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
                b.stream(sid, Category.INPUT, POINT)
            if sid in in_map.values():
                continue
            in_map[f"p{p}"] = sid
            consumed.add(sid)
        n_out = 1 + rng.randrange(2)
        out_map = {}
        for p in range(n_out):
            sid = f"s{n_streams:02d}"
            n_streams += 1
            b.stream(sid, Category.INTERNAL, POINT)
            out_map[f"q{p}"] = sid
            internal_pool.append(sid)
        ports = sorted(in_map)
        b.node(
            node_id,
            lambda inputs, _ports=ports, _outs=sorted(out_map): {
                o: [r.as_dict() for r in inputs[_ports[0]].new] for o in _outs
            },
            inputs=in_map,
            outputs=out_map,
        )
    graph = b.build()
    # Re-categorize produced streams: consumed -> internal, dead ends -> output.
    streams = tuple(
        s
        if s.category is Category.INPUT
        else type(s)(s.id, Category.INTERNAL if s.id in consumed else Category.OUTPUT, s.schema)
        for s in graph.streams
    )
    return FlowGraph(streams, graph.nodes, graph.in_edges, graph.out_edges)


def element_edges(graph: FlowGraph) -> set[tuple[str, str]]:
    edges = {(e.stream, e.node) for e in graph.in_edges}
    edges |= {(e.node, e.stream) for e in graph.out_edges}
    return edges


def brute_force_closure(graph: FlowGraph, start: str, forward: bool) -> set[str]:
    """Transitive closure by fixpoint iteration over the raw edge list."""
    edges = element_edges(graph)
    if not forward:
        edges = {(b, a) for a, b in edges}
    reach = {start}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if a in reach and b not in reach:
                reach.add(b)
                changed = True
    return reach


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
            log.extend(view.new)
        return replay(logs, new_from)

    return step


def with_oracles(graph: FlowGraph, oracles: dict) -> FlowGraph:
    """`graph` with each node named in `oracles` replaced by a
    `recompute_from_copy` fold over that node's replay function."""
    return dataclasses.replace(
        graph,
        nodes=tuple(
            dataclasses.replace(n, transform=recompute_from_copy(oracles[n.id]), init=dict)
            if n.id in oracles
            else n
            for n in graph.nodes
        ),
    )
