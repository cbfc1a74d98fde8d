"""Graph construction, components, and the traversal event stream."""

import random

import pytest

from graphmml import (
    DuplicateEdgeError,
    Edge,
    EdgeEvent,
    GraphError,
    OrientedEdge,
    SelfLoopError,
    VertexEvent,
    VertexRangeError,
    build_graph,
    connected_components,
    max_edges,
    traverse,
)
from graphmml.graph import loop_candidates
from conftest import grid, random_connected_graph, rails_first_ladder, star


class TestBuildGraph:
    def test_k33_shape(self, k33):
        assert k33.vertex_count == 6
        assert k33.edge_count == 9
        assert not k33.directed
        assert all(k33.degree(v) == 3 for v in range(6))
        assert k33.labels[0] == "Utility" and k33.labels[5] == "House"

    def test_edges_keep_input_form(self, k33):
        assert k33.edges[0] == Edge(0, 3, "Elec")
        assert k33.edges[8] == Edge(2, 5, "H2O")

    def test_adjacency_lists_follow_edge_order(self, k33):
        # Vertex 3 appears in edges 0, 3, 6, in that order.
        slots = k33.adjacency[3]
        assert [s.edge for s in slots] == [0, 3, 6]
        assert [s.head for s in slots] == [0, 1, 2]
        assert [s.label for s in slots] == ["Elec", "Gas", "H2O"]
        assert all(s.tail == 3 for s in slots)

    def test_undirected_edge_listed_on_both_ends(self, k33):
        assert OrientedEdge(0, 0, 3, "Elec") in k33.adjacency[0]
        assert OrientedEdge(0, 3, 0, "Elec") in k33.adjacency[3]

    def test_directed_edge_listed_on_tail_only(self):
        g = build_graph(True, ["a", "b"], [(0, 1, "x")])
        assert len(g.adjacency[0]) == 1
        assert len(g.adjacency[1]) == 0
        assert g.degree(0) == 1 and g.degree(1) == 0

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(False, ["a"], [(0, 0, "x")])

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(False, ["a", "b"], [(0, 1, "x"), (1, 0, "y")])
        # Directed graphs tell the two orientations apart.
        g = build_graph(True, ["a", "b"], [(0, 1, "x"), (1, 0, "y")])
        assert g.edge_count == 2
        with pytest.raises(DuplicateEdgeError):
            build_graph(True, ["a", "b"], [(0, 1, "x"), (0, 1, "y")])

    def test_endpoint_out_of_range(self):
        with pytest.raises(VertexRangeError):
            build_graph(False, ["a", "b"], [(0, 2, "x")])

    @pytest.mark.parametrize("end", [10**5000, -(10**5000)], ids=["huge", "huge negative"])
    def test_endpoint_of_any_size_out_of_range(self, end):
        # An id of 5,001 digits is refused as any other, and the message,
        # which names the edge by its position, does not print it.
        with pytest.raises(VertexRangeError) as exc:
            build_graph(False, ["a", "b"], [(0, 1, "x"), (0, end, "x")])
        assert str(exc.value) == "edge 1 of the list references a vertex outside 0..1"


class TestMaxEdges:
    def test_known_values(self):
        assert max_edges(4, False) == 6
        assert max_edges(4, True) == 12
        assert max_edges(0, False) == 0
        assert max_edges(1, False) == 0


class TestComponents:
    def test_connected_graph_is_one_component(self, k33):
        comps = connected_components(k33)
        assert len(comps) == 1
        assert comps[0] is k33  # no copy: the copy would equal k33

    def test_two_triangles(self):
        labels = ["a", "b", "c", "a", "b", "c"]
        edges = [(0, 1, "x"), (1, 2, "x"), (2, 0, "x"),
                 (3, 4, "y"), (4, 5, "y"), (5, 3, "y")]
        comps = connected_components(build_graph(False, labels, edges))
        assert len(comps) == 2
        for comp in comps:
            assert comp.vertex_count == 3
            assert comp.edge_count == 3
        assert list(comps[0].labels) == ["a", "b", "c"]
        assert {e.label for e in comps[1].edges} == {"y"}

    def test_many_components_keep_ids_and_edge_order(self):
        # 40 vertices in 9 interleaved groups (vertex v in group 5v mod 9),
        # each group a shuffled path plus a chord, all edges shuffled.
        rng = random.Random(3)
        n = 40
        groups = [[v for v in range(n) if 5 * v % 9 == k] for k in range(9)]
        edges = []
        for k, members in enumerate(groups):
            order = rng.sample(members, len(members))
            edges += [(a, b, f"e{k}") for a, b in zip(order, order[1:])]
            if len(order) > 2:
                edges.append((order[0], order[2], f"c{k}"))
        rng.shuffle(edges)
        g = build_graph(False, [f"l{v % 4}" for v in range(n)], edges)
        comps = connected_components(g)
        assert len(comps) == len(groups)
        for comp, ids in zip(comps, sorted(groups)):
            new = {old: i for i, old in enumerate(ids)}
            assert comp.labels == tuple(g.labels[m] for m in ids)
            assert comp.edges == tuple(
                Edge(new[u], new[v], label) for u, v, label in g.edges if u in new)

    def test_isolated_vertex(self):
        comps = connected_components(build_graph(False, ["a", "a"], []))
        assert len(comps) == 2
        assert all(c.vertex_count == 1 and c.edge_count == 0 for c in comps)


class TestTraversal:
    def test_k33_event_sequence(self, k33):
        events = traverse(k33)
        vertex_order = [e.vertex for e in events if isinstance(e, VertexEvent)]
        edge_order = [e.edge for e in events if isinstance(e, EdgeEvent)]
        assert vertex_order == [0, 3, 1, 4, 2, 5]
        assert edge_order == [0, 3, 4, 1, 7, 6, 8, 2, 5]

        # Interleaving: a fresh vertex's event follows its arrival edge.
        kinds = ["V" + str(e.vertex) if isinstance(e, VertexEvent) else "E" + str(e.edge)
                 for e in events]
        assert kinds == ["V0", "E0", "V3", "E3", "V1", "E4", "V4",
                         "E1", "E7", "V2", "E6", "E8", "V5", "E2", "E5"]

    def test_k33_loop_closures(self, k33):
        def on_edge(state, event):
            if event.target is not None:
                return event.edge, event.target, loop_candidates(state, event.source)
            return None

        # Vertex events are tuples too: keep on_edge's closures only.
        got = [r for r in traverse(k33, on_edge=on_edge)
               if r is not None and not isinstance(r, VertexEvent)]
        assert got == [
            (1, 0, (0, 3)),
            (6, 3, (0, 3, 1)),
            (2, 0, (0, 1)),
            (5, 1, (1,)),
        ]

    def test_k33_incoming_edges_point_back(self, k33):
        vertex_events = [e for e in traverse(k33) if isinstance(e, VertexEvent)]
        assert vertex_events[0].incoming is None
        # Each later vertex arrives over a reversed edge: fresh vertex -> source.
        assert vertex_events[1].incoming == OrientedEdge(0, 3, 0, "Elec")
        assert vertex_events[2].incoming == OrientedEdge(3, 1, 3, "Gas")
        assert vertex_events[3].incoming == OrientedEdge(4, 4, 1, "Gas")
        assert vertex_events[4].incoming == OrientedEdge(7, 2, 4, "H2O")
        assert vertex_events[5].incoming == OrientedEdge(8, 5, 2, "H2O")
        assert all(e.label == k33.labels[e.vertex] for e in vertex_events)
        assert all(e.degree == 3 for e in vertex_events)

    def test_callbacks_see_state_before_the_step(self, k33):
        seen = []

        def on_vertex(state, event):
            # Not yet pushed: the stack still ends at the vertex it came from.
            top = event.incoming.head if event.incoming else None
            seen.append(event.vertex not in state.visiting
                        and (state.visiting[-1] if state.visiting else None) == top)

        def on_edge(state, event):
            seen.append(not state.is_closed(event.edge))

        traverse(k33, on_vertex, on_edge)
        assert all(seen) and len(seen) == 15

    def test_each_element_fires_once(self, k33):
        events = traverse(k33)
        vertices = [e.vertex for e in events if isinstance(e, VertexEvent)]
        edges = [e.edge for e in events if isinstance(e, EdgeEvent)]
        assert sorted(vertices) == list(range(6))
        assert sorted(edges) == list(range(9))

    def test_fresh_and_loop_resolutions(self, k33):
        events = [e for e in traverse(k33) if isinstance(e, EdgeEvent)]
        fresh = [e.edge for e in events if e.target is None]
        assert fresh == [0, 3, 4, 7, 8]
        assert [(e.edge, e.target) for e in events if e.target is not None] == [
            (1, 0), (6, 3), (2, 0), (5, 1)]

    def test_covers_every_component(self):
        # Components {0, 3}, {1, 4, 5} and {2}: the walk restarts at the
        # lowest vertex not yet reached, each time with a root event.
        g = build_graph(False, ["a"] * 6, [(3, 0, "x"), (4, 5, "y"), (5, 1, "y")])
        events = traverse(g)
        vertices = [e for e in events if isinstance(e, VertexEvent)]
        assert [e.vertex for e in vertices] == [0, 3, 1, 5, 4, 2]
        assert [e.vertex for e in vertices if e.incoming is None] == [0, 1, 2]
        assert sorted(e.edge for e in events if isinstance(e, EdgeEvent)) == [0, 1, 2]
        kinds = [type(e).__name__[0] for e in events]
        assert kinds == ["V", "E", "V", "V", "E", "V", "E", "V", "V"]
        assert traverse(build_graph(False, [], [])) == []

    def test_path_graph_order(self):
        g = build_graph(False, ["a", "a", "a"], [(0, 1, "x"), (1, 2, "x")])
        kinds = [type(e).__name__[0] for e in traverse(g)]
        assert kinds == ["V", "E", "V", "E", "V"]

    def test_callback_results_are_returned(self, k33):
        results = traverse(k33, on_vertex=lambda s, e: ("v", e.vertex))
        assert results[0] == ("v", 0)
        assert isinstance(results[1], EdgeEvent)

    def test_directed_graph_rejected(self):
        g = build_graph(True, ["a", "b"], [(0, 1, "x")])
        with pytest.raises(GraphError):
            traverse(g)

    def test_loop_candidates_exclude_full_and_adjacent(self, k33):
        # Checked against the hand-derived trace during the closure events.
        def on_edge(state, event):
            return loop_candidates(state, event.source)

        results = traverse(k33, on_edge=on_edge)
        candidate_lists = [r for r in results if not isinstance(r, VertexEvent)]
        assert candidate_lists == [
            (),        # edge 0 from the root: nothing else on the stack
            (),        # edge 3 from vertex 3: vertex 0 already adjacent
            (0,),      # edge 4 from vertex 1
            (0, 3),    # edge 1 from vertex 4 (closes to 0)
            (3,),      # edge 7 from vertex 4: 0 and 1 now adjacent
            (0, 3, 1),  # edge 6 from vertex 2 (closes to 3)
            (0, 1),    # edge 8 from vertex 2: vertex 3 is full
            (0, 1),    # edge 2 from vertex 5 (closes to 0)
            (1,),      # edge 5 from vertex 5: 0 adjacent, 4 full
        ]


def reference_loop_candidates(state, source):
    """loop_candidates as a plain scan of the visiting stack, with slot
    counts read off the closed edges: the reference that the traversal's
    incremental state must agree with."""
    g = state.graph
    adjacent = {s.head for s in g.adjacency[source] if state.is_closed(s.edge)}
    return tuple(
        w for w in state.visiting
        if w != source
        and sum(state.is_closed(s.edge) for s in g.adjacency[w]) < g.degree(w)
        and w not in adjacent
    )


def state_check_graphs():
    rng = random.Random(6)
    graphs = [random_connected_graph(rng, rng.randint(2, 9), "ab", "xy") for _ in range(60)]
    return graphs + [star(7), rails_first_ladder(6), grid(4, 5)]


class TestIncrementalStateAgainstRescan:
    @pytest.mark.parametrize("g", state_check_graphs())
    def test_every_edge_event_matches_the_rescan(self, g):
        events = []

        def on_edge(state, event):
            for source in state.visiting:
                assert loop_candidates(state, source) == reference_loop_candidates(state, source)
            for v in range(g.vertex_count):
                closed = {s.head for s in g.adjacency[v] if state.is_closed(s.edge)}
                assert state._neighbours[v] == closed
            first = next(s for s in g.adjacency[event.source] if not state.is_closed(s.edge))
            assert event.edge == first.edge
            events.append(event)

        traverse(g, on_edge=on_edge)
        assert sorted(e.edge for e in events) == list(range(g.edge_count))

    @pytest.mark.parametrize("g", state_check_graphs())
    def test_candidate_count_and_membership_agree_with_the_list(self, g):
        def on_edge(state, event):
            candidates = loop_candidates(state, event.source)
            assert state.loop_candidate_count(event.source) == len(candidates)
            for w in range(g.vertex_count):
                assert state.is_loop_candidate(event.source, w) == (w in candidates)

        traverse(g, on_edge=on_edge)
