"""traverse against a plain reference walk, on drawn graphs with several
components, isolated vertices and hubs.

`reference_traverse` is the traversal in its plain form: one helper per
transition and a fresh scan for each vertex's first open edge.  traverse
keeps its state in one loop, with each vertex's count of open neighbours
kept current; it must yield the same events, and at every edge event its
loop-candidate queries must agree with a rescan of the visiting stack.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from graphmml import EdgeEvent, OrientedEdge, VertexEvent, build_graph, traverse
from graphmml.graph import loop_candidates
from conftest import random_connected_graph
from test_graph import reference_loop_candidates


def reference_traverse(g):
    """traverse's event stream, from a plain depth-first walk."""
    closed = [False] * g.edge_count
    reached = [False] * g.vertex_count
    visiting = []
    events = []

    def emit_vertex(v, incoming):
        events.append(VertexEvent(v, g.labels[v], g.degree(v), incoming))
        reached[v] = True
        visiting.append(v)

    def first_open(v):
        return next((slot for slot in g.adjacency[v] if not closed[slot.edge]), None)

    for root in range(g.vertex_count):
        if reached[root]:
            continue
        emit_vertex(root, None)
        while visiting:
            u = visiting[-1]
            slot = first_open(u)
            if slot is None:
                visiting.pop()
                continue
            w = slot.head
            fresh = not reached[w]
            events.append(EdgeEvent(slot.edge, u, slot.label, None if fresh else w))
            closed[slot.edge] = True
            if fresh:
                emit_vertex(w, OrientedEdge(slot.edge, w, u, slot.label))
    return events


@st.composite
def graphs_with_hubs(draw):
    """Up to five components, each a small random connected graph, a hub
    of 30 to 45 edges whose leaves may be joined to each other, or an
    isolated vertex; then the vertex ids are shuffled and the edges listed
    in a drawn order, so hubs sit anywhere in the walk."""
    rng = draw(st.randoms(use_true_random=False))
    kinds = draw(st.lists(st.sampled_from(["graph", "hub", "isolated"]),
                          min_size=1, max_size=5))
    labels, edges = [], []
    for kind in kinds:
        base = len(labels)
        if kind == "isolated":
            labels.append(rng.choice("ab"))
            continue
        if kind == "hub":
            leaves = rng.randint(30, 45)
            labels += ["h"] + [rng.choice("ab") for _ in range(leaves)]
            pairs = {(0, leaf) for leaf in range(1, leaves + 1)}
            for _ in range(rng.randint(0, 12)):
                a, b = sorted(rng.sample(range(1, leaves + 1), 2))
                pairs.add((a, b))
            part = [(u, v, rng.choice("xy")) for u, v in sorted(pairs)]
        else:
            g = random_connected_graph(rng, rng.randint(2, 9), "ab", "xy")
            labels += g.labels
            part = list(g.edges)
        edges += [(base + u, base + v, label) for u, v, label in part]
    order = list(range(len(labels)))
    rng.shuffle(order)
    rng.shuffle(edges)
    shuffled = [None] * len(labels)
    for old, new in enumerate(order):
        shuffled[new] = labels[old]
    return build_graph(False, shuffled, [(order[u], order[v], label) for u, v, label in edges])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(g=graphs_with_hubs())
def test_traverse_yields_the_reference_stream_with_rescanned_candidates(g):
    def on_edge(state, event):
        candidates = reference_loop_candidates(state, event.source)
        assert loop_candidates(state, event.source) == candidates
        assert state.loop_candidate_count(event.source) == len(candidates)
        for w in range(g.vertex_count):
            assert state.is_loop_candidate(event.source, w) == (w in candidates)
        # The count is kept for every vertex, not only the source.
        for v in state.visiting:
            assert state.loop_candidate_count(v) == len(loop_candidates(state, v))
        return event

    assert traverse(g, None, on_edge) == reference_traverse(g)
    assert traverse(g) == reference_traverse(g)
