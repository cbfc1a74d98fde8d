"""Context matching and the information-content engine.

The k33 fixture is small enough that everything here is hand-checkable:
its traversal order, every match score, and several step costs were
worked out by hand and are asserted exactly.  The optimized matcher is
additionally compared against a shortcut-free reference implementation,
pair by pair on random graphs and step by step through traversals of
random graphs, lattices and molecules, and the target data
information_content keeps up to date against data rebuilt from the
traversal state at every step.  Steps answered from a background's
memo of earlier contexts are checked against memo-less pricing and the
plain reference.  Its one-division step prices are compared, bit for
bit, with the full distributions that scored_matches_to_model builds.
"""

import ast
import concurrent.futures
import functools
import math
import os
import pickle
import random
import subprocess
import sys
from collections import Counter, deque
from pathlib import Path

import pytest

import graphmml.context
import graphmml.search
from graphmml import (
    ContextError,
    EdgeOutcome,
    VertexEvent,
    VertexOutcome,
    build_graph,
    chain_information,
    conditional_table,
    information_content,
    label_text,
    read_molecule,
    traverse,
)
from graphmml.context import (
    ScoredMatch,
    edge_matches,
    edge_outcome_space,
    scored_matches_to_model,
    vertex_matches,
    vertex_outcome_space,
)
from graphmml.graph import loop_candidates
from conftest import (
    DRUG_SMILES, UTILITY_DEGREES, grid, hex_sheet, make_k33, make_near_k33,
    rails_first_ladder, random_connected_graph, relabelled,
)

LOG2_3 = math.log2(3.0)


def search_vertex(matcher, v1, v2, depth, back=-1):
    """Pair two vertices and match their edges through the matcher's one
    search core, _assign; back is a bound edge the search arrived by, or -1."""
    if matcher.labels1[v1] != matcher.labels2[v2]:
        return 0
    # Already-corresponded vertices were counted when first bound; a
    # contradictory pairing is worth nothing either.
    if matcher.vmap[v1] >= 0 or matcher.vinv[v2] >= 0:
        return 0
    matcher.vmap[v1] = v2
    matcher.vinv[v2] = v1
    matcher.journal.append((v1, v2))
    slots = matcher.slots1[v1]
    if depth < 1 or not slots:
        return 1
    share = 0  # back's part of v1's caps, if back is one of v1's known edges
    if back >= 0:
        share = next((1 + matcher.bounds1[depth - 1][far] for e, far, _ in slots if e == back), 0)
    return 1 + matcher._assign(v1, 0, v2, depth, matcher.caps1[depth][v1], share, back, 0)


def search_edge(matcher, e1, far1, e2, far2, depth):
    """Pair two unbound edges of the same label and match their far ends."""
    matcher.emap[e1] = e2
    matcher.einv[e2] = e1
    matcher.journal.append((~e1, e2))
    return 1 + search_vertex(matcher, far1, far2, depth - 1, e1)


def match_vertex(g1, v1, g2, v2, depth, known_edges=None):
    """The library matcher's best score rooted at (v1, v2).

    All of g2 is known; of g1 only known_edges (default: all of them).
    """
    known = None if known_edges is None else set(known_edges)
    sides = graphmml.search._Side(g1, depth, known), graphmml.search._Side(g2, depth)
    return search_vertex(graphmml.search._Matcher(*sides), v1, v2, depth)


def match_edge(g1, s1, g2, s2, depth):
    """The library matcher's best score pairing oriented edges s1 and s2."""
    if s1.label != s2.label:
        return 0
    sides = graphmml.search._Side(g1, depth), graphmml.search._Side(g2, depth)
    return search_edge(graphmml.search._Matcher(*sides), s1.edge, s1.head, s2.edge, s2.head,
                       depth)


class TestOutcomeSpaces:
    def test_vertex_space_orders_labels_and_degrees(self, utility_degrees):
        space = vertex_outcome_space(utility_degrees)
        assert space == (
            VertexOutcome("House", 1), VertexOutcome("House", 2), VertexOutcome("House", 3),
            VertexOutcome("Utility", 1), VertexOutcome("Utility", 2),
            VertexOutcome("Utility", 3), VertexOutcome("Utility", 4),
        )

    def test_initial_space_admits_degree_zero(self, utility_degrees):
        space = vertex_outcome_space(utility_degrees, initial=True)
        assert len(space) == 9
        assert VertexOutcome("House", 0) in space
        assert VertexOutcome("Utility", 0) in space

    def test_edge_space_lists_fresh_then_candidates(self):
        space = edge_outcome_space(("Elec", "Gas"), (0, 3))
        assert space == (
            EdgeOutcome("Elec", None), EdgeOutcome("Elec", 0), EdgeOutcome("Elec", 3),
            EdgeOutcome("Gas", None), EdgeOutcome("Gas", 0), EdgeOutcome("Gas", 3),
        )


class TestScoredMatchesToModel:
    def test_no_matches_gives_uniform(self):
        space = vertex_outcome_space({"a": 2})
        dist = scored_matches_to_model([], space)
        assert dist == {VertexOutcome("a", 1): 0.5, VertexOutcome("a", 2): 0.5}

    def test_single_match_weighting(self):
        space = vertex_outcome_space({"a": 3})  # three outcomes
        match = ScoredMatch((0, 0), 4, VertexOutcome("a", 2))
        dist = scored_matches_to_model([match], space)
        # escape 0.5 per outcome, plus score 4 + smoothing 1 on the hit
        assert list(dist) == list(space)
        assert dist[VertexOutcome("a", 2)] == pytest.approx(5.5 / 6.5)
        for miss in (VertexOutcome("a", 1), VertexOutcome("a", 3)):
            assert dist[miss] == pytest.approx(0.5 / 6.5)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_match_outside_space_rejected(self):
        space = vertex_outcome_space({"a": 1})
        bad = ScoredMatch((0, 0), 1, VertexOutcome("b", 1))
        with pytest.raises(ContextError):
            scored_matches_to_model([bad], space)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ContextError):
            scored_matches_to_model([], ())


class TestMatchScores:
    def test_deeper_context_matches_more_of_k33(self, k33):
        other = make_k33()
        assert match_vertex(k33, 0, other, 0, 0) == 1
        assert match_vertex(k33, 0, other, 0, 1) == 7   # the vertex, 3 edges, 3 ends
        assert match_vertex(k33, 0, other, 0, 2) == 15  # the whole graph
        assert match_vertex(k33, 0, other, 0, 3) == 15
        assert match_vertex(k33, 0, other, 0, 4) == 15

    def test_label_mismatch_scores_zero(self, k33):
        assert match_vertex(k33, 0, k33, 3, 5) == 0

    def test_edge_match_frozen_value(self, k33):
        # A closed Elec edge against itself at depth 2: the edge, both
        # houses' full context minus the recounting the bijection forbids.
        other = make_k33()
        assert match_edge(k33, k33.adjacency[0][0], other, other.adjacency[0][0], 2) == 6

    def test_edge_labels_must_agree(self, k33):
        other = make_k33()
        gas = other.adjacency[1][0]
        assert gas.edge == 3 and gas.label == "Gas"
        assert match_edge(k33, k33.adjacency[0][0], other, gas, 2) == 0  # Elec vs Gas

    def test_triangle_edges_not_double_counted(self):
        tri = build_graph(False, ["v"] * 3,
                          [(0, 1, "x"), (1, 2, "x"), (2, 0, "x")])
        # 3 vertices + 3 edges; walking around the cycle must not count
        # the closing edge from both ends.
        assert match_vertex(tri, 0, build_graph(False, ["v"] * 3,
                                                [(0, 1, "x"), (1, 2, "x"), (2, 0, "x")]),
                            0, 5) == 6

    def test_score_never_drops_with_depth(self, k33, near_k33):
        previous = 0
        for depth in range(5):
            score = match_vertex(k33, 0, near_k33, 0, depth)
            assert score >= previous
            previous = score

    def test_restricting_known_edges(self, k33):
        other = make_k33()
        assert match_vertex(k33, 0, other, 0, 3, known_edges=[]) == 1
        assert match_vertex(k33, 0, other, 0, 3, known_edges=[0]) == 7 - 2 * 2
        # Open edge 0 is never followed: neither it nor house 3 counts.
        assert match_vertex(k33, 0, other, 0, 2, known_edges=[1, 2]) == 7 - 2


class PlainMatcher:
    """The library's best-correspondence recursion, reimplemented with
    copy-on-branch state and no bounds, journals, or replay."""

    def __init__(self, g1, g2):
        self.g1 = g1
        self.g2 = g2
        self.vmap, self.vinv, self.emap, self.einv = {}, {}, {}, {}

    def _snapshot(self):
        return (dict(self.vmap), dict(self.vinv), dict(self.emap), dict(self.einv))

    def _restore(self, snap):
        self.vmap, self.vinv, self.emap, self.einv = (dict(d) for d in snap)

    def match_vertex(self, v1, v2, depth):
        if self.g1.labels[v1] != self.g2.labels[v2]:
            return 0
        if v1 in self.vmap or v2 in self.vinv:
            return 0
        self.vmap[v1] = v2
        self.vinv[v2] = v1
        if depth < 1:
            return 1
        return 1 + self._assign(self.g1.adjacency[v1], 0, v2, depth)

    def match_edge(self, s1, s2, depth):
        if s1.label != s2.label or s1.edge in self.emap or s2.edge in self.einv:
            return 0
        self.emap[s1.edge] = s2.edge
        self.einv[s2.edge] = s1.edge
        return 1 + self.match_vertex(s1.head, s2.head, depth - 1)

    def _assign(self, slots, i, v2, depth):
        if i == len(slots):
            return 0
        entry = self._snapshot()
        best, best_state = -1, None
        for s2 in self.g2.adjacency[v2]:
            if s2.label != slots[i].label or s2.edge in self.einv:
                continue
            score = self.match_edge(slots[i], s2, depth)
            if score == 0:
                continue
            total = score + self._assign(slots, i + 1, v2, depth)
            if total > best:
                best, best_state = total, self._snapshot()
            self._restore(entry)
        total = self._assign(slots, i + 1, v2, depth)  # leave the slot out
        if total > best:
            best, best_state = total, self._snapshot()
        self._restore(entry)
        if best <= 0:
            return 0
        self._restore(best_state)
        return best


def random_graph(rng, n):
    labels = [rng.choice("ab") for _ in range(n)]
    edges = [(u, v, rng.choice("xy"))
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.55]
    return build_graph(False, labels, edges)


def ball_size(g, start, depth):
    """Vertices within `depth` plus edges incident within `depth - 1`."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if dist[v] == depth:
            continue
        for slot in g.adjacency[v]:
            if slot.head not in dist:
                dist[slot.head] = dist[v] + 1
                queue.append(slot.head)
    edges = {slot.edge for v, d in dist.items() if d < depth for slot in g.adjacency[v]}
    return len(dist) + len(edges)


class TestMatcherAgainstPlainReference:
    def test_random_vertex_pairs(self):
        rng = random.Random(20260816)
        for _ in range(60):
            g1 = random_graph(rng, rng.randint(3, 5))
            g2 = random_graph(rng, rng.randint(3, 5))
            v1 = rng.randrange(g1.vertex_count)
            v2 = rng.randrange(g2.vertex_count)
            for depth in range(4):
                expected = PlainMatcher(g1, g2).match_vertex(v1, v2, depth)
                assert match_vertex(g1, v1, g2, v2, depth) == expected

    def test_random_edge_pairs(self):
        rng = random.Random(99)
        checked = 0
        while checked < 40:
            g1 = random_graph(rng, rng.randint(3, 5))
            g2 = random_graph(rng, rng.randint(3, 5))
            if not g1.edge_count or not g2.edge_count:
                continue
            e1 = g1.edges[rng.randrange(g1.edge_count)]
            e2 = g2.edges[rng.randrange(g2.edge_count)]
            s1 = next(s for s in g1.adjacency[e1.u] if s.edge == g1.edges.index(e1))
            s2 = next(s for s in g2.adjacency[e2.u] if s.edge == g2.edges.index(e2))
            for depth in range(4):
                plain = PlainMatcher(g1, g2)
                expected = plain.match_edge(s1, s2, depth)
                got = match_edge(g1, s1, g2, s2, depth)
                assert got == expected
            checked += 1

    def test_fixture_pairs(self, k33, near_k33):
        for depth in range(4):
            for v1 in range(k33.vertex_count):
                for v2 in range(near_k33.vertex_count):
                    expected = PlainMatcher(k33, near_k33).match_vertex(v1, v2, depth)
                    assert match_vertex(k33, v1, near_k33, v2, depth) == expected

    def test_huge_depth_equals_the_plain_reference(self):
        # A match cannot use more depth than g1 has vertices (one more for
        # an edge, whose tail is not bound first), which is why the step
        # entry points cap the depth; the plain reference takes it as given.
        rng = random.Random(314)
        for _ in range(300):
            g1 = random_graph(rng, rng.randint(3, 5))
            g2 = random_graph(rng, rng.randint(3, 6))
            n = g1.vertex_count
            v1, v2 = rng.randrange(n), rng.randrange(g2.vertex_count)
            expected = PlainMatcher(g1, g2).match_vertex(v1, v2, 10**9)
            assert match_vertex(g1, v1, g2, v2, n) == expected
            for s1 in g1.adjacency[v1]:
                for s2 in g2.adjacency[v2]:
                    expected = PlainMatcher(g1, g2).match_edge(s1, s2, 10**9)
                    assert match_edge(g1, s1, g2, s2, n + 1) == expected

    def test_score_stays_inside_both_balls(self):
        rng = random.Random(7)
        for _ in range(40):
            g1 = random_graph(rng, rng.randint(3, 5))
            g2 = random_graph(rng, rng.randint(3, 5))
            for depth in range(4):
                score = match_vertex(g1, 0, g2, 0, depth)
                assert score <= ball_size(g1, 0, depth)
                assert score <= ball_size(g2, 0, depth)


class TestMatcherPruning:
    def test_bounds_halve_the_pairings_tried_on_a_symmetric_grid(self, monkeypatch):
        # Every edge pairing the search tries is journaled as (~e1, e2).
        tried = [0]

        class Journal(list):
            def append(self, entry):
                tried[0] += entry[0] < 0
                super().append(entry)

        init = graphmml.search._Matcher.__init__

        def counting_init(self, *sides):
            init(self, *sides)
            self.journal = Journal()

        monkeypatch.setattr(graphmml.search._Matcher, "__init__", counting_init)
        g = grid(5, 5)
        information_content(g, [g], {"a": 4}, 3)
        # Pruned by ball sizes alone, the search tried 968,828 pairings.
        assert 0 < tried[0] <= 968_828 // 2

    @staticmethod
    def count_assign_calls(monkeypatch):
        calls = [0]
        assign = graphmml.search._Matcher._assign

        def counting_assign(self, *args):
            calls[0] += 1
            return assign(self, *args)

        monkeypatch.setattr(graphmml.search._Matcher, "_assign", counting_assign)
        return calls

    def test_slots_of_labels_the_background_vertex_lacks_get_no_frame(self, monkeypatch):
        calls = self.count_assign_calls(monkeypatch)
        star = build_graph(False, ["a", "b", "b", "b"], [(0, 1, "y"), (0, 2, "y"), (0, 3, "x")])
        stub = build_graph(False, ["a", "b"], [(0, 1, "x")])
        # The two y slots are passed over in the one frame that pairs x.
        assert match_vertex(star, 0, stub, 0, 1) == 3
        assert calls[0] == 1

    def test_step_loops_spend_at_most_one_frame_per_live_candidate(self, monkeypatch):
        # A candidate whose far end cannot pair is scored without a search,
        # and a slot that cannot pair gets no frame of its own.
        calls = self.count_assign_calls(monkeypatch)
        viagra, cialis = DRUGS[:2]
        result = information_content(viagra, [cialis], tight_degrees([viagra, cialis]), 3)
        # With a frame per slot and per candidate the search made 6,426 calls.
        assert 0 < calls[0] <= 5_000
        assert result.total == pytest.approx(152.31725663244262, abs=1e-9)


class TestMatcherSearch:
    def test_every_step_leaves_each_matcher_unbound(self, monkeypatch):
        # search rolls back every binding it makes, so every step's
        # searches start from nothing bound.
        calls = Counter()
        search = graphmml.search._Matcher.search

        def counting_search(self, *args, **kwargs):
            calls["search"] += 1
            return search(self, *args, **kwargs)

        monkeypatch.setattr(graphmml.search._Matcher, "search", counting_search)
        for kind in ("vertex_step", "edge_step"):
            step = getattr(graphmml.context._Pricer, kind)

            def checked_step(self, state, event, outcome, step=step, kind=kind):
                charged = step(self, state, event, outcome)
                for m in self.matchers:
                    assert m.journal == []
                    assert set(m.vmap) | set(m.vinv) | set(m.emap) | set(m.einv) <= {-1}
                calls[kind] += 1
                return charged

            monkeypatch.setattr(graphmml.context._Pricer, kind, checked_step)
        named, degrees = list(zip(DRUG_SMILES, DRUGS)), tight_degrees(DRUGS)
        conditional_table(named[:3], degrees, 2)
        chain_information(named, degrees, 3)
        information_content(DRUGS[0], DRUGS[1:], degrees, 3)
        assert calls["search"] and calls["vertex_step"] and calls["edge_step"]


class TestSideIndexes:
    def test_a_side_deepened_in_place_equals_one_built_at_that_depth(self):
        # Matchers hold the side's bounds and caps lists, so deepening adds
        # to those same lists, and never takes a level away.
        for g in [*DRUGS, make_k33(), relabelled(grid(4, 4), 0.35, 11)]:
            for known in (None, set(range(0, g.edge_count, 2))):
                side = graphmml.search._Side(g, 1, known)
                bounds, caps = side.bounds, side.caps
                side.deepen(4)
                built = graphmml.search._Side(g, 4, known)
                assert side.bounds is bounds and side.caps is caps
                assert (bounds, caps) == (built.bounds, built.caps)
                side.deepen(2)
                assert (bounds, caps) == (built.bounds, built.caps)


class TestLibraryIndex:
    def test_background_lists_the_candidates_of_each_label_in_id_and_slot_order(self):
        for g in [*DRUGS, make_k33(), relabelled(grid(4, 4), 0.35, 11)]:
            library = graphmml.context._Library()
            side = library.side(g, 3)
            slots = [(v, s.edge, s.head, s.label) for v in range(g.vertex_count)
                     for s in g.adjacency[v]]

            def beside(v, e):
                return frozenset(s.label for s in g.adjacency[v] if s.edge != e)

            # A vertex step's root is the far end, an edge step's the vertex.
            arrivals = [(v, e, far, VertexOutcome(g.labels[v], g.degree(v)), beside(far, e))
                        for v, e, far, _ in slots]
            leaving = [(v, e, far, EdgeOutcome(label, None), beside(v, e))
                       for v, e, far, label in slots]
            edge_labels = {label for *_, label in slots}
            assert set(library.index[side]) == (
                {(True, label) for label in edge_labels} | {(False, label) for label in g.labels})
            for label in edge_labels:
                assert library.candidates(side, True, label) == [
                    entry for entry, slot in zip(arrivals, slots) if slot[3] == label]
            for label in set(g.labels):
                assert library.candidates(side, False, label) == [
                    entry for entry in leaving if g.labels[entry[0]] == label]
            # Each vertex's outcome and each label's fresh outcome are built
            # once, and each label set is interned.
            outcomes = {}
            for candidates in library.index[side].values():
                for v, _, _, outcome, names in candidates:
                    assert library.interned[names] is names
                    key = ("V", v) if type(outcome) is VertexOutcome else ("E", outcome.label)
                    assert outcomes.setdefault(key, outcome) is outcome

    def test_each_background_is_indexed_once(self, k33):
        library = graphmml.context._Library()
        side = library.side(k33, 1)
        index = library.index[side]
        assert library.side(k33, 3) is side and library.index[side] is index
        assert library.candidates(side, True, "Cable") == ()


class KnownPart:
    """The decoder's view of a traversal, shaped as PlainMatcher's first
    graph: every vertex label, but only the closed edges."""

    def __init__(self, state):
        self.labels = state.graph.labels
        self.adjacency = [tuple(s for s in slots if state.is_closed(s.edge))
                          for slots in state.graph.adjacency]


def plain_vertex_matches(state, backgrounds, incoming, depth):
    """vertex_matches rebuilt on PlainMatcher, one fresh matcher per candidate."""
    if incoming is None:
        return [ScoredMatch((bi, v2), 0, VertexOutcome(bg.labels[v2], bg.degree(v2)))
                for bi, bg in enumerate(backgrounds) for v2 in range(bg.vertex_count)]
    known = KnownPart(state)
    matches = []
    for bi, bg in enumerate(backgrounds):
        for v2 in range(bg.vertex_count):
            for s2 in bg.adjacency[v2]:
                score = PlainMatcher(known, bg).match_edge(incoming, s2, depth)
                if score > 0:
                    outcome = VertexOutcome(bg.labels[v2], bg.degree(v2))
                    matches.append(ScoredMatch((bi, v2, s2.edge), score, outcome))
    return matches


def plain_edge_matches(state, backgrounds, source, pending, depth):
    """edge_matches rebuilt on PlainMatcher: the winning bindings decide
    whether a match predicts a fresh vertex or a loop closure, and to where."""
    candidates = set(loop_candidates(state, source))
    known = KnownPart(state)
    matches = []
    for bi, bg in enumerate(backgrounds):
        for v2 in range(bg.vertex_count):
            for s2 in bg.adjacency[v2]:
                plain = PlainMatcher(known, bg)
                plain.emap[pending] = s2.edge
                plain.einv[s2.edge] = pending
                score = plain.match_vertex(source, v2, depth)
                if score == 0:
                    continue
                w = plain.vinv.get(s2.head)
                if w is None or w in candidates:
                    matches.append(ScoredMatch((bi, v2, s2.edge), score, EdgeOutcome(s2.label, w)))
    return matches


def molecule(smiles):
    return read_molecule(smiles)[0]


DRUGS = [molecule(smiles) for smiles in DRUG_SMILES.values()]
CORONENE = "c1cc2ccc3ccc4ccc5ccc6ccc1c7c2c3c4c5c67"
PYRENE = "c1cc2ccc3cccc4ccc(c1)c2c34"


def assert_steps_match_plain(g, backgrounds, depth):
    """Every step's matches equal the plain reference's, through g's traversal."""

    def on_vertex(state, event):
        got = vertex_matches(state, backgrounds, event.incoming, depth)
        assert got == plain_vertex_matches(state, backgrounds, event.incoming, depth)

    def on_edge(state, event):
        got = edge_matches(state, backgrounds, event.source, event.edge, depth)
        assert got == plain_edge_matches(state, backgrounds, event.source, event.edge, depth)

    traverse(g, on_vertex, on_edge)


SYMMETRIC_CASES = [
    (f"{name} | {given}", g, [background], depth)
    for name, g in (("4x4 grid", grid(4, 4)), ("6-rung ladder", grid(2, 6)),
                    ("2x3 hexagon sheet", hex_sheet(2, 3)))
    for given, background in (("itself", g), ("35% relabelled", relabelled(g, 0.35, 11)))
    for depth in (2, 3, 4)
]


MOLECULE_CASES = [
    *[(f"{name} | {given}", DRUGS[i], [DRUGS[j]], depth)
      for i, name in enumerate(DRUG_SMILES) for j, given in enumerate(DRUG_SMILES)
      if i != j for depth in (1, 2, 3)],
    ("coronene | pyrene", molecule(CORONENE), [molecule(PYRENE)], 3),
]


class TestStepMatchesAgainstPlainReference:
    def test_random_traversals(self):
        rng = random.Random(20261018)
        steps = 0
        for _ in range(40):
            # One-letter alphabets give symmetric graphs, where tied matches
            # differ in which vertex they put behind a loop closure.
            labels = rng.choice(["a", "ab"]), rng.choice(["x", "xy"])
            g = random_connected_graph(rng, rng.randint(2, 6), *labels)
            backgrounds = [random_connected_graph(rng, rng.randint(2, 5), *labels)
                           for _ in range(rng.randint(1, 3))]
            depth = rng.randint(0, 3)

            def on_vertex(state, event):
                got = vertex_matches(state, backgrounds, event.incoming, depth)
                assert got == plain_vertex_matches(state, backgrounds, event.incoming, depth)

            def on_edge(state, event):
                got = edge_matches(state, backgrounds, event.source, event.edge, depth)
                assert got == plain_edge_matches(
                    state, backgrounds, event.source, event.edge, depth)

            steps += len(traverse(g, on_vertex, on_edge))
        assert steps > 200

    def test_huge_depth_from_the_state(self):
        # Priced from the state alone, the depth is capped where the sides
        # are built and where the matcher is entered alike.
        rng = random.Random(42)
        huge = 10**9
        steps = 0
        for _ in range(20):
            labels = rng.choice(["a", "ab"]), rng.choice(["x", "xy"])
            g = random_connected_graph(rng, rng.randint(1, 5), *labels)
            backgrounds = [random_connected_graph(rng, rng.randint(2, 5), *labels)
                           for _ in range(rng.randint(1, 2))]
            n = g.vertex_count

            def on_vertex(state, event):
                got = vertex_matches(state, backgrounds, event.incoming, huge)
                assert got == vertex_matches(state, backgrounds, event.incoming, n)
                assert got == plain_vertex_matches(state, backgrounds, event.incoming, huge)

            def on_edge(state, event):
                got = edge_matches(state, backgrounds, event.source, event.edge, huge)
                assert got == edge_matches(state, backgrounds, event.source, event.edge, n)
                assert got == plain_edge_matches(
                    state, backgrounds, event.source, event.edge, huge)

            steps += len(traverse(g, on_vertex, on_edge))
        assert steps > 50

    @pytest.mark.parametrize("case", SYMMETRIC_CASES,
                             ids=lambda case: f"{case[0]} depth {case[3]}")
    def test_symmetric_lattices(self, case):
        # One-label lattices are full of tied alternatives, where the
        # matcher's bounds prune most.
        _, g, backgrounds, depth = case
        assert_steps_match_plain(g, backgrounds, depth)

    @pytest.mark.parametrize("case", MOLECULE_CASES,
                             ids=lambda case: f"{case[0]} depth {case[3]}")
    def test_molecules(self, case):
        # Heteroatoms give far ends that cannot pair, and Cl or =O slots
        # whose label the background vertex lacks: the random graphs above
        # rarely reach either.
        _, g, backgrounds, depth = case
        assert_steps_match_plain(g, backgrounds, depth)

    def test_huge_depth_from_the_state_is_capped_at_the_largest_component(self, monkeypatch):
        pairs = build_graph(False, ["a", "b"] * 500, [(2 * i, 2 * i + 1, "x") for i in range(500)])
        bond = build_graph(False, ["a", "b"], [(0, 1, "x")])
        side = graphmml.context._Side

        def small_side(g, depth, known=None):
            assert depth <= 2  # not the vertex count: the search never leaves a pair
            return side(g, depth, known)

        monkeypatch.setattr(graphmml.context, "_Side", small_side)
        checked = []

        # Every call indexes the whole target, so only a few pairs are checked.
        def on_vertex(state, event):
            if event.vertex % 200 < 2:
                got = vertex_matches(state, [bond], event.incoming, 10**9)
                assert got == vertex_matches(state, [bond], event.incoming, 2)
                checked.append(got)

        def on_edge(state, event):
            if event.source % 200 == 0:
                got = edge_matches(state, [bond], event.source, event.edge, 10**9)
                assert got == edge_matches(state, [bond], event.source, event.edge, 2)
                checked.append(got)

        traverse(pairs, on_vertex, on_edge)
        assert len(checked) == 15 and all(checked)


def match_sums(matches, outcome, count):
    """Per background index below count, the weight of the matches that
    predict outcome and of all of them, as (hit, total)."""
    sums = [[0, 0] for _ in range(count)]
    for (bi, *_), score, predicted in matches:
        sums[bi][1] += score + 1
        if predicted == outcome:
            sums[bi][0] += score + 1
    return [tuple(pair) for pair in sums]


def step_matches(matches, pricer, state, event):
    """The step's matches from vertex_matches or edge_matches (or a stand-in
    with their arguments), given the pricer's backgrounds at its depth."""
    backgrounds = [side.graph for side in pricer.sides]
    if isinstance(event, VertexEvent):
        return matches[0](state, backgrounds, event.incoming, pricer.depth)
    return matches[1](state, backgrounds, event.source, event.edge, pricer.depth)


def rebuilt_every_step(step, depth, calls):
    """A pricer step method that charges each background the sums over the
    matches vertex_matches or edge_matches rebuild from the state alone,
    after checking that the pricer's own charges equal them, that its
    target side is as current as rebuilt data and that every matcher
    reads that side."""

    def call(pricer, state, event, outcome):
        g = state.graph
        closed = {e for e in range(g.edge_count) if state.is_closed(e)}
        fresh = graphmml.search._Side(g, depth, closed)
        kept = pricer.target
        assert (kept.slots, kept.bounds, kept.caps) == (fresh.slots, fresh.bounds, fresh.caps)
        assert all(m.slots1 is kept.slots and m.bounds1 is kept.bounds and m.caps1 is kept.caps
                   for m in pricer.matchers)
        matches = step_matches((vertex_matches, edge_matches), pricer, state, event)
        rebuilt = match_sums(matches, outcome, len(pricer.sides))
        assert step(pricer, state, event, outcome) == rebuilt
        calls.append(1)
        return rebuilt

    return call


def tight_degrees(graphs):
    """Each label's largest degree in the graphs (at least 1)."""
    degrees = {}
    for h in graphs:
        for v in range(h.vertex_count):
            degrees[h.labels[v]] = max(degrees.get(h.labels[v], 1), h.degree(v))
    return degrees


def disjoint_union(*graphs):
    """The graphs side by side, each one's ids shifted past the previous ones."""
    labels, edges, offset = [], [], 0
    for h in graphs:
        labels += h.labels
        edges += [(u + offset, v + offset, label) for u, v, label in h.edges]
        offset += h.vertex_count
    return build_graph(False, labels, edges)


INCREMENTAL_CASES = [
    *[("k33 | near", make_k33(), [make_near_k33()], depth) for depth in range(5)],
    *[(f"drug {i} | others", g, DRUGS[:i] + DRUGS[i + 1:], depth)
      for i, g in enumerate(DRUGS) for depth in range(5)],
    *[("coronene | coronene, pyrene", molecule(CORONENE),
       [molecule(CORONENE), molecule(PYRENE)], depth) for depth in range(5)],
    *[("valium and xanax as one graph | viagra, cialis", disjoint_union(*DRUGS[2:]),
       DRUGS[:2], depth) for depth in range(5)],
    # Deep enough that a new edge's ring at level d is smaller than its
    # (depth - 1)-ball, so each level's refresh is checked on its own.
    ("12-vertex chain | itself", grid(1, 12), [grid(1, 12)], 8),
    ("3x4 grid | itself", grid(3, 4), [grid(3, 4)], 8),
]


class TestIncrementalTargetSide:
    @pytest.mark.parametrize("case", INCREMENTAL_CASES,
                             ids=lambda case: f"{case[0]} depth {case[3]}")
    def test_bits_equal_pricing_from_the_state(self, monkeypatch, case):
        _, g, backgrounds, depth = case
        degrees = tight_degrees([g, *backgrounds])
        kept = information_content(g, backgrounds, degrees, depth)
        calls = []
        for name in ("vertex_step", "edge_step"):
            monkeypatch.setattr(graphmml.context._Pricer, name, rebuilt_every_step(
                getattr(graphmml.context._Pricer, name), depth, calls))
        from_state = information_content(g, backgrounds, degrees, depth)
        assert len(calls) == len(kept.steps)
        assert [s.bits for s in kept.steps] == [s.bits for s in from_state.steps]

    @pytest.mark.parametrize("k", range(4))
    def test_matcher_state_is_built_once_per_call_and_never_cold(self, monkeypatch, k):
        # viagra given the first k other drugs: k + 1 sides and one split
        # into components, or nothing at all when there is no background.
        built = Counter()
        side, components = graphmml.context._Side, graphmml.context.connected_components

        def counting_side(*args):
            built["sides"] += 1
            return side(*args)

        def counting_components(g):
            built["components"] += 1
            return components(g)

        monkeypatch.setattr(graphmml.context, "_Side", counting_side)
        monkeypatch.setattr(graphmml.context, "connected_components", counting_components)
        information_content(DRUGS[0], DRUGS[1:1 + k], tight_degrees(DRUGS), 3)
        assert built == ({"sides": k + 1, "components": 1} if k else {})


def memo_checked(kind, step, tally, searched):
    """step, the pricer's vertex_step (kind "V") or edge_step (kind "E"),
    checking the charges of the memoising pricer information_content
    calls it on, step by step, against the sums over a memo-less
    pricer's matches, which must equal the plain reference's.  tally
    counts, per background with candidates, whether the library's memo
    answered the step (True) or the step searched and stored its sums
    (False), and the edge-step hits whose background predicts a loop
    closure.  searched lists the background of each search, as the
    pricer's vertex_results and edge_results are called."""

    def call(pricer, state, event, outcome):
        if kind == "V" and event.incoming is None:  # see TestRootSteps
            return step(pricer, state, event, outcome)
        label = event.incoming.label if kind == "V" else state.graph.labels[event.source]
        listed = [(kind == "V", label) in pricer.library.index[s] for s in pricer.sides]
        searched.clear()
        charged = step(pricer, state, event, outcome)
        missed = set(searched)
        # Built for this step alone, a pricer's library starts empty: it searches.
        got = step_matches((vertex_matches, edge_matches), pricer, state, event)
        assert got == step_matches((plain_vertex_matches, plain_edge_matches), pricer, state, event)
        assert charged == match_sums(got, outcome, len(pricer.sides))
        for bi, candidates in enumerate(listed):
            if candidates:
                hit = bi not in missed
                tally[kind, hit] += 1
                tally["loop hits"] += hit and kind == "E" and any(
                    m.candidate[0] == bi and m.outcome.target is not None for m in got)
        return charged

    return call


def check_memo(monkeypatch):
    tally, searched = Counter(), []
    pricer = graphmml.context._Pricer
    vertex_results, edge_results = pricer.vertex_results, pricer.edge_results

    def searching_vertex(self, incoming, bi):
        searched.append(bi)
        return vertex_results(self, incoming, bi)

    def searching_edge(self, source, pending_edge, bi, number):
        searched.append(bi)
        return edge_results(self, source, pending_edge, bi, number)

    monkeypatch.setattr(pricer, "vertex_results", searching_vertex)
    monkeypatch.setattr(pricer, "edge_results", searching_edge)
    for kind, name in (("V", "vertex_step"), ("E", "edge_step")):
        step = getattr(pricer, name)
        monkeypatch.setattr(pricer, name, memo_checked(kind, step, tally, searched))
    return tally


class TestContextMemo:
    """A step's searches read only the target's known ball around the
    root, so a background's weight sums for a context key serve every
    later step with that key: the charges stay those of a search."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_chain_of_drugs(self, monkeypatch, depth):
        # The chain shares one library, so a step also meets the contexts
        # of earlier targets' steps.
        named = list(zip(DRUG_SMILES, DRUGS))
        degrees = tight_degrees(DRUGS)
        expected = chain_information(named, degrees, depth)
        tally = check_memo(monkeypatch)
        assert chain_information(named, degrees, depth) == expected
        assert tally["V", True] > 0 and tally["V", False] > 0
        assert tally["E", True] > 0 and tally["E", False] > 0

    def test_relabelled_lattices_given_themselves(self, monkeypatch):
        # A standalone call memoises within itself.  Below depth 5 no drug
        # step predicts a ring closure, as a ring of 5 or 6 needs that deep a
        # search to bind the closing vertex; the ladder's squares need only
        # depth 3, and one of its hits there maps a stored loop target
        # through its own step's numbering.
        cases = [(relabelled(g, share, 7), depth)
                 for g in (grid(4, 4), grid(2, 6), hex_sheet(2, 3))
                 for share in (0.3, 0.45) for depth in (2, 3)]
        expected = [information_content(g, [g], tight_degrees([g]), depth) for g, depth in cases]
        tally = check_memo(monkeypatch)
        for (g, depth), result in zip(cases, expected):
            assert information_content(g, [g], tight_degrees([g]), depth) == result
        assert tally["V", True] > 0 and tally["V", False] > 0
        assert tally["E", True] > 0 and tally["E", False] > 0
        assert tally["loop hits"] > 0

    @staticmethod
    def drug_table_library(monkeypatch):
        """The one library of a table over the README drugs at depth 3."""
        libraries = []
        library = graphmml.context._Library

        def kept_library(*args):
            libraries.append(library(*args))
            return libraries[-1]

        monkeypatch.setattr(graphmml.context, "_Library", kept_library)
        conditional_table(list(zip(DRUG_SMILES, DRUGS)), tight_degrees(DRUGS), 3)
        (shared,) = libraries
        return shared

    def test_each_key_holds_the_entries_of_every_side_asked(self, monkeypatch):
        # The library stores a context key once per step kind, with the
        # entry of each background side a step with that key asked for: a
        # table row's step asks every side at once.
        shared = self.drug_table_library(monkeypatch)
        sides = set(shared.sides.values())
        for memos in (shared.vertex_memo, shared.edge_memo):
            assert memos and all(memo and set(memo) <= sides for memo in memos.values())
            assert max(map(len, memos.values())) == len(sides) == len(DRUGS)

    def test_entries_are_interned_per_kind(self, monkeypatch):
        # Each entry lists outcomes and weights, and equal entries are one
        # tuple, in the table of their step kind.
        shared = self.drug_table_library(monkeypatch)
        for memos, table in ((shared.vertex_memo, shared.vertex_entries),
                             (shared.edge_memo, shared.edge_entries)):
            stored = [entry for memo in memos.values() for entry in memo.values()]
            assert len(stored) > len(table)
            assert all(table[entry] is entry for entry in stored)
            assert all(type(entry) is tuple for entry in stored)


def check_classes(monkeypatch):
    """Wrap the pricer's candidate loops so that, on every step, each
    candidate's result is checked against its own full search, whatever
    class served it.  Returns a tally: per step and class code, the
    background of each member ("members"), and the count of candidates
    scored without a search ("skipped"), whose full search must add
    nothing."""
    tally = {"members": {}, "skipped": 0, "steps": []}
    pricer = graphmml.context._Pricer
    vertex_results, edge_results = pricer.vertex_results, pricer.edge_results

    def record(self, bi, code, known, beside, added):
        if known.isdisjoint(beside):
            assert added == 0
            tally["skipped"] += 1
        else:
            tally["steps"].append(self.classes)  # kept alive, so ids stay unique
            tally["members"].setdefault((id(self.classes), code), []).append(bi)

    def checked_vertex(self, incoming, bi):
        got = vertex_results(self, incoming, bi)
        if incoming is None:  # a root: every background vertex, searched by none
            return got
        side, matcher, depth = self.sides[bi], self.matchers[bi], self.depth
        e1, far1, label = incoming.edge, incoming.head, incoming.label
        known = {name for e, _, name in self.target.slots[far1] if e != e1}
        for (_, e2, far2, predicted, beside), code, result in zip(
                self.library.candidates(side, True, label), self.keys(side, True, label), got,
                strict=True):
            if matcher.labels2[far2] != self.target.graph.labels[far1] or depth < 2:
                continue  # no search can add to these
            added, _ = matcher.search(e1, e2, far1, far2, depth - 1, incoming.tail)
            assert result == (2 + added, predicted)
            record(self, bi, code, known, beside, added)
        return got

    def checked_edge(self, source, pending_edge, bi, number):
        got = edge_results(self, source, pending_edge, bi, number)
        if self.depth > 0 and self.target.slots[source]:
            side, matcher, depth = self.sides[bi], self.matchers[bi], self.depth
            label = self.target.graph.labels[source]
            known = {name for *_, name in self.target.slots[source]}
            for (v2, e2, far2, fresh, beside), code, result in zip(
                    self.library.candidates(side, False, label), self.keys(side, False, label),
                    got, strict=True):
                added, w = matcher.search(pending_edge, e2, source, v2, depth, watch=far2)
                predicted = fresh if w < 0 else EdgeOutcome(fresh.label, number[w])
                assert result == (1 + added, predicted)
                record(self, bi, code, known, beside, added)
        return got

    monkeypatch.setattr(pricer, "vertex_results", checked_vertex)
    monkeypatch.setattr(pricer, "edge_results", checked_edge)
    return tally


SHARING_CASES = [
    *[(f"{kind} of drugs", kind, depth) for kind in ("table", "chain") for depth in (2, 3, 4)],
    *[(f"{name} | {given}", (g, backgrounds), depth)
      for name, g in (("4x4 grid", relabelled(grid(4, 4), 0.3, 5)),
                      ("6-rung ladder", relabelled(grid(2, 6), 0.3, 5)),
                      ("2x3 hexagon sheet", relabelled(hex_sheet(2, 3), 0.3, 5)))
      for given, backgrounds in (("itself", [g]),
                                 ("itself, relabelled", [g, relabelled(g, 0.3, 6)]))
      for depth in (2, 3)],
]


class TestClassSharing:
    """A step searches each class of candidates once, across all its
    backgrounds, and scores a candidate that no known slot can pair
    without a search: every result stays that of the candidate's own
    search."""

    @pytest.mark.parametrize("case", SHARING_CASES, ids=lambda case: f"{case[0]} depth {case[2]}")
    def test_every_member_gets_its_own_search_result(self, monkeypatch, case):
        _, what, depth = case
        if isinstance(what, str):
            batch = conditional_table if what == "table" else chain_information
            price = functools.partial(
                batch, list(zip(DRUG_SMILES, DRUGS)), tight_degrees(DRUGS), depth)
        else:
            # Each step has the lattice as its one background, or that and a
            # relabelled copy.
            g, backgrounds = what
            price = functools.partial(information_content, g, backgrounds,
                                      tight_degrees(backgrounds), depth)
        expected = price()
        tally = check_classes(monkeypatch)
        check_memo(monkeypatch)  # and the charges against the plain reference
        assert price() == expected
        assert tally["skipped"] > 0
        # A class with two members had its one search serve both, but no two
        # of the drug chain's backgrounds share a ball of radius 4, and no
        # two candidates of a relabelled lattice that is its own one
        # background share a ball of radius 3.
        shared = max(map(len, tally["members"].values())) > 1
        alone = (case[0] == "chain of drugs" and depth == 4
                 or case[0].endswith("itself") and depth == 3)
        assert shared != alone

    def test_drug_batches_search_each_class_once(self, monkeypatch):
        # The exact work, so that a change to what is searched shows.
        calls = Counter()
        search, assign = graphmml.search._Matcher.search, graphmml.search._Matcher._assign

        def counting_search(self, *args, **kwargs):
            calls["search"] += 1
            return search(self, *args, **kwargs)

        def counting_assign(self, *args):
            calls["assign"] += 1
            return assign(self, *args)

        monkeypatch.setattr(graphmml.search._Matcher, "search", counting_search)
        monkeypatch.setattr(graphmml.search._Matcher, "_assign", counting_assign)
        named, degrees = list(zip(DRUG_SMILES, DRUGS)), tight_degrees(DRUGS)
        table = conditional_table(named, degrees, 3)
        # Searching every candidate, the table made 14,303 calls.
        assert calls == {"search": 7_768, "assign": 28_352}
        assert table.bits[1] == (
            154.4143645828676, 127.48554812431253, 155.58950783379876, 162.48333295005332)
        calls.clear()
        chain = chain_information(named, degrees, 3)
        # Searching every candidate, the chain made 4,992 calls.
        assert calls == {"search": 2_838, "assign": 9_521}
        assert chain.total == 565.8211092723557


def distribution_bits(g, backgrounds, degrees, depth, edge_alphabet):
    """Every step's bits read off the full distribution that
    scored_matches_to_model builds from the state's matches."""

    def on_vertex(state, event):
        space = vertex_outcome_space(degrees, initial=event.incoming is None)
        matches = vertex_matches(state, backgrounds, event.incoming, depth)
        outcome = VertexOutcome(event.label, event.degree)
        return -math.log2(scored_matches_to_model(matches, space)[outcome])

    def on_edge(state, event):
        candidates = loop_candidates(state, event.source)
        space = edge_outcome_space(edge_alphabet, candidates)
        matches = edge_matches(state, backgrounds, event.source, event.edge, depth)
        outcome = EdgeOutcome(event.label, event.target)
        return -math.log2(scored_matches_to_model(matches, space)[outcome])

    return traverse(g, on_vertex, on_edge)


LONE_HOUSE = build_graph(False, ["House"], [])
ISOLATED_HOUSE = build_graph(False, ["Utility", "House", "House"], [(0, 1, "Gas")])
K33_ALPHABET = ("Elec", "Gas", "H2O")


class TestRootSteps:
    """A root step is a vertex step whose candidates are every background
    vertex at score 0.  It reads nothing of the target, so every root step
    of a call, in any component of any target, shares one memo entry per
    background."""

    def test_roots_share_one_memo_entry_per_background(self, monkeypatch):
        # The first background has two components, one an isolated House,
        # so a degree-0 outcome has a match; the targets' roots are a
        # Utility, an isolated House and a lone House.
        backgrounds = [ISOLATED_HOUSE, make_k33()]
        targets = [ISOLATED_HOUSE, LONE_HOUSE]
        roots = []
        step = graphmml.context._Pricer.vertex_step

        def checked_step(pricer, state, event, outcome):
            if event.incoming is not None:
                return step(pricer, state, event, outcome)
            memo = pricer.library.vertex_memo
            before = len(memo), sum(map(len, memo.values()))
            charged = step(pricer, state, event, outcome)
            matches = vertex_matches(state, backgrounds, None, pricer.depth)
            assert charged == match_sums(matches, outcome, len(backgrounds))
            assert [total for _, total in charged] == [bg.vertex_count for bg in backgrounds]
            roots.append((outcome, [hit for hit, _ in charged],
                          len(memo) - before[0], sum(map(len, memo.values())) - before[1]))
            return charged

        monkeypatch.setattr(graphmml.context._Pricer, "vertex_step", checked_step)
        results = graphmml.context.information_contents(
            targets, backgrounds, UTILITY_DEGREES, 3)
        # The first root step adds one key, with an entry per background;
        # no later one adds a key or an entry, though the second target's
        # depth is capped lower.
        assert roots == [(VertexOutcome("Utility", 1), [1, 0], 1, 2),
                         (VertexOutcome("House", 0), [1, 0], 0, 0),
                         (VertexOutcome("House", 0), [1, 0], 0, 0)]
        for g, result in zip(targets, results):
            expected = distribution_bits(g, backgrounds, UTILITY_DEGREES, 3, K33_ALPHABET)
            assert [s.bits for s in result.steps] == expected


class TestClosedFormPricing:
    @pytest.mark.parametrize("case", [
        ("lone house | k33", LONE_HOUSE, [make_k33()], UTILITY_DEGREES, 3, K33_ALPHABET),
        ("lone house | nothing", LONE_HOUSE, [], UTILITY_DEGREES, 3, K33_ALPHABET),
        ("k33 | isolated house", make_k33(), [ISOLATED_HOUSE], UTILITY_DEGREES, 3,
         K33_ALPHABET),
        ("k33 | near, unused label", make_k33(), [make_near_k33()],
         {**UTILITY_DEGREES, "Shed": 2}, 2, K33_ALPHABET),
        ("k33 | k33, repeated and unused labels", make_k33(), [make_k33()], UTILITY_DEGREES, 3,
         ("Gas", "Elec", "Gas", "Cable", "H2O")),
        *[(name, g, backgrounds, None, depth, None)
          for name, g, backgrounds, depth in INCREMENTAL_CASES],
    ], ids=lambda case: f"{case[0]} depth {case[4]}")
    def test_bits_equal_the_full_distribution(self, case):
        _, g, backgrounds, degrees, depth, alphabet = case
        if degrees is None:
            degrees = tight_degrees([g, *backgrounds])
        if alphabet is None:
            alphabet = sorted({e.label for h in [g, *backgrounds] for e in h.edges},
                              key=label_text)
        result = information_content(g, backgrounds, degrees, depth, edge_alphabet=alphabet)
        expected = distribution_bits(g, backgrounds, degrees, depth, alphabet)
        assert [s.bits for s in result.steps] == expected


def capture_step(g, backgrounds, depth, *, vertex=None, edge=None):
    """Run the traversal and evaluate the matches at one chosen event."""
    hit = []

    def on_vertex(state, event):
        if vertex is not None and event.vertex == vertex:
            hit.append(vertex_matches(state, backgrounds, event.incoming, depth))

    def on_edge(state, event):
        if edge is not None and event.edge == edge:
            hit.append(edge_matches(state, backgrounds, event.source, event.edge, depth))

    traverse(g, on_vertex, on_edge)
    assert len(hit) == 1
    return hit[0]


class TestVertexMatches:
    def test_root_offers_every_background_vertex_at_zero(self, k33, near_k33):
        matches = capture_step(k33, [near_k33], 3, vertex=0)
        assert len(matches) == 7
        assert all(m.score == 0 for m in matches)
        outcomes = Counter(m.outcome for m in matches)
        assert outcomes == {
            VertexOutcome("Utility", 3): 2, VertexOutcome("Utility", 4): 1,
            VertexOutcome("House", 3): 2, VertexOutcome("House", 2): 2,
        }

    def test_arrival_edge_filters_and_scores(self, k33):
        # First fresh vertex: we arrived over an Elec edge.  Both
        # orientations of the background's three Elec edges apply; the
        # ones arriving at a utility (as we did) see one step more.
        matches = capture_step(k33, [make_k33()], 3, vertex=3)
        assert len(matches) == 6
        by_outcome = Counter((m.outcome, m.score) for m in matches)
        assert by_outcome == {
            (VertexOutcome("House", 3), 2): 3,
            (VertexOutcome("Utility", 3), 1): 3,
        }

    def test_match_scores_shrink_at_depth_zero_only_by_context(self, k33):
        matches = capture_step(k33, [make_k33()], 0, vertex=3)
        assert Counter(m.score for m in matches) == {1: 3, 2: 3}


class TestEdgeMatches:
    def test_first_edge_offers_all_matching_sources(self, k33):
        matches = capture_step(k33, [make_k33()], 3, edge=0)
        assert len(matches) == 9  # each oriented slot leaving a utility
        assert all(m.score == 1 for m in matches)
        assert all(m.outcome.target is None for m in matches)
        assert Counter(m.outcome.label for m in matches) == {"Elec": 3, "Gas": 3, "H2O": 3}

    def test_loop_closure_is_predicted(self, k33):
        # Edge 6 closes vertex 2 back onto house 3; a background that is
        # the same graph should predict exactly that closure.
        matches = capture_step(k33, [make_k33()], 3, edge=6)
        targets = {m.outcome.target for m in matches}
        assert 3 in targets
        legal = {None, 0, 3, 1}
        assert targets <= legal
        best = max(matches, key=lambda m: m.score)
        assert best.outcome == EdgeOutcome("H2O", 3)


def square_and_triangle():
    square = build_graph(False, ["v"] * 4,
                         [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (3, 0, "x")])
    triangle = build_graph(False, ["v"] * 3,
                           [(0, 1, "x"), (1, 2, "x"), (2, 0, "x")])
    return square, triangle


class TestImpossibleClosuresAreDropped:
    def test_triangle_background_stops_predicting_where_it_cannot(self):
        square, triangle = square_and_triangle()
        # The square's last edge closes back to its start.  A triangle
        # walked deeply enough always lands its analogue on a vertex the
        # decoder could not pick (the one with no capacity left), so
        # every match is dropped.
        for depth in (2, 3):
            assert capture_step(square, [triangle], depth, edge=3) == []

    def test_shallow_walks_still_predict_fresh(self):
        square, triangle = square_and_triangle()
        shallow = capture_step(square, [triangle], 0, edge=3)
        assert len(shallow) == 6
        assert all(m.outcome.target is None and m.score == 1 for m in shallow)
        deeper = capture_step(square, [triangle], 1, edge=3)
        assert all(m.outcome.target is None and m.score == 3 for m in deeper)

    def test_dropped_predictions_leave_the_uniform_model(self):
        square, triangle = square_and_triangle()
        result = information_content(square, [triangle], {"v": 2}, 3)
        assert result.steps[-1].bits == pytest.approx(1.0, abs=1e-12)
        shallow = information_content(square, [triangle], {"v": 2}, 0)
        assert shallow.steps[-1].bits == pytest.approx(math.log2(26.0), abs=1e-12)


class TestInformationContent:
    def test_unconditional_k33_is_a_sum_of_uniform_steps(self, k33, utility_degrees):
        result = information_content(k33, [], utility_degrees, 3)
        # Space sizes along the traversal, worked out by hand: the
        # initial vertex space has 9 outcomes, later vertices 7; edge
        # spaces are 3 labels times one fresh plus each loop candidate.
        expected = (4 * math.log2(9) + 2 * LOG2_3 + 5 * math.log2(7)
                    + 3 * math.log2(6) + math.log2(12))
        assert result.total == pytest.approx(expected, abs=1e-9)
        assert [s.kind for s in result.steps] == list("VEVEVEVEEVEEVEE")

    def test_total_is_the_sum_of_steps(self, k33, near_k33, utility_degrees):
        result = information_content(k33, [near_k33], utility_degrees, 3)
        assert result.total == pytest.approx(sum(s.bits for s in result.steps), abs=1e-12)
        assert len(result.steps) == 15

    def test_hand_checked_steps_against_itself(self, k33, utility_degrees):
        result = information_content(k33, [make_k33()], utility_degrees, 3)
        # Root: three of nine outcomes match, weights 3.5 of 10.5.
        assert result.steps[0].bits == pytest.approx(LOG2_3, abs=1e-12)
        # First edge: nine source matches spread evenly over the labels.
        assert result.steps[1].bits == pytest.approx(LOG2_3, abs=1e-12)
        # First fresh vertex: weights 9.5 of 18.5, see the match tests.
        assert result.steps[2].bits == pytest.approx(-math.log2(9.5 / 18.5), abs=1e-12)
        assert result.steps[0].outcome == VertexOutcome("Utility", 3)
        assert result.steps[1].outcome == EdgeOutcome("Elec", None)

    def test_root_step_against_near_twin(self, k33, near_k33, utility_degrees):
        result = information_content(k33, [near_k33], utility_degrees, 3)
        # Two of the seven background vertices are degree-3 utilities.
        assert result.steps[0].bits == pytest.approx(-math.log2(2.5 / 11.5), abs=1e-12)

    def test_depth_zero_vertex_steps_depend_only_on_labels(self, k33, utility_degrees):
        result = information_content(k33, [make_k33()], utility_degrees, 0)
        vertex_bits = [s.bits for s in result.steps if s.kind == "V"][1:]
        assert vertex_bits == pytest.approx([-math.log2(9.5 / 18.5)] * 5, abs=1e-12)
        # Closures are never predicted at depth zero, only escaped to.
        assert result.steps[7].bits == pytest.approx(math.log2(45.0), abs=1e-12)
        assert result.steps[10].bits == pytest.approx(math.log2(48.0), abs=1e-12)

    def test_context_orders_the_twins(self, k33, near_k33, utility_degrees):
        base = information_content(k33, [], utility_degrees, 3).total
        near = information_content(k33, [near_k33], utility_degrees, 3).total
        same = information_content(k33, [make_k33()], utility_degrees, 3).total
        assert same < near < base
        # Regression pins for the three runs (hand-checked shapes above).
        assert base == pytest.approx(41.2263, abs=1e-3)
        assert same == pytest.approx(13.1148, abs=1e-3)
        assert near == pytest.approx(23.0836, abs=1e-3)

    def test_knowing_the_graph_itself_always_helps(self, near_k33, utility_degrees):
        base = information_content(near_k33, [], utility_degrees, 3).total
        same = information_content(near_k33, [make_near_k33()], utility_degrees, 3).total
        assert same < base

    def test_step_costs_are_finite_and_positive(self, k33, near_k33, utility_degrees):
        for backgrounds in ([], [near_k33], [k33, near_k33]):
            result = information_content(k33, backgrounds, utility_degrees, 3)
            for step in result.steps:
                assert math.isfinite(step.bits)
                assert step.bits >= 0.0

    def test_explicit_edge_alphabet_changes_the_spaces(self, k33, utility_degrees):
        wider = information_content(
            k33, [], utility_degrees, 3, edge_alphabet=("Cable", "Elec", "Gas", "H2O"))
        derived = information_content(k33, [], utility_degrees, 3)
        assert wider.total > derived.total

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 10**9])
    def test_disconnected_graph_costs_the_sum_of_its_components(
            self, depth, k33, near_k33, utility_degrees):
        # A near-k33, a k33 and a lone house, their vertices interleaved
        # but each part's kept in order, so connected_components gives the
        # parts back as they are.
        parts = [near_k33, k33, LONE_HOUSE]
        owner = [0] * 7 + [1] * 6 + [2]
        random.Random(5).shuffle(owner)
        ids = [[v for v, o in enumerate(owner) if o == i] for i in range(3)]
        labels = [parts[o].labels[ids[o].index(v)] for v, o in enumerate(owner)]
        edges = [(ids[i][u], ids[i][v], label)
                 for i, part in enumerate(parts) for u, v, label in part.edges]
        g = build_graph(False, labels, edges)
        backgrounds = [near_k33, ISOLATED_HOUSE]
        whole = information_content(g, backgrounds, utility_degrees, depth,
                                    edge_alphabet=K33_ALPHABET)
        expected = []
        for i in sorted(range(3), key=lambda i: ids[i][0]):  # the order traverse starts them
            for step in information_content(parts[i], backgrounds, utility_degrees, depth,
                                            edge_alphabet=K33_ALPHABET).steps:
                outcome = step.outcome
                if step.kind == "E" and outcome.target is not None:
                    outcome = EdgeOutcome(outcome.label, ids[i][outcome.target])
                expected.append((step.kind, outcome, step.bits))
        assert [(s.kind, s.outcome, s.bits) for s in whole.steps] == expected
        assert [s.index for s in whole.steps] == list(range(len(expected)))
        assert whole.total == pytest.approx(sum(bits for _, _, bits in expected), abs=1e-9)

    def test_huge_depth_is_capped_at_the_largest_component(self, monkeypatch):
        pairs = build_graph(False, ["a", "b"] * 500, [(2 * i, 2 * i + 1, "x") for i in range(500)])
        bond = build_graph(False, ["a", "b"], [(0, 1, "x")])
        capped = information_content(pairs, [bond], {"a": 1, "b": 1}, 2)
        side = graphmml.context._Side

        def small_side(g, depth, known=None):
            assert depth <= 2  # not the vertex count: the search never leaves a pair
            return side(g, depth, known)

        monkeypatch.setattr(graphmml.context, "_Side", small_side)
        huge = information_content(pairs, [bond], {"a": 1, "b": 1}, 10**9)
        assert [s.bits for s in huge.steps] == [s.bits for s in capped.steps]

    @pytest.mark.parametrize("n", [2, 3, 7, 4000])  # rungs; 4000 is 8,000 vertices
    def test_rails_first_ladder_costs_its_closed_form_cold(self, n):
        # The walk goes out along one rail, crosses the last rung, comes back
        # along the other rail and closes the rungs on the way home, with
        # every open vertex of the first rail a loop candidate meanwhile.
        result = information_content(rails_first_ladder(n), [], {"a": 3})
        # Loop candidates at each edge step, in order: leaving rung i of the
        # first rail, crossing the last rung, leaving rung j of the second
        # rail, and closing rung j.
        candidates = ([max(i - 1, 0) for i in range(n - 1)] + [n - 2]
                      + [n - 1 + max(n - 3 - j, 0) for j in range(n - 1, 0, -1)]
                      + [n - 1 - j + max(n - 3 - j, 0) for j in range(n - 1)])
        # Two edge labels, each fresh or closing to a candidate.
        edge_bits = [math.log2(2 * (1 + c)) for c in candidates]
        assert [s.bits for s in result.steps if s.kind == "E"] == pytest.approx(edge_bits)
        # A root has degree 0..3, every later vertex 1..3.
        expected = 2 + (2 * n - 1) * LOG2_3 + sum(edge_bits)
        assert result.total == pytest.approx(expected, rel=1e-12)

    def test_empty_graph_costs_nothing(self, k33):
        empty = build_graph(False, [], [])
        for backgrounds, degrees in (([], {}), ([k33], dict(UTILITY_DEGREES))):
            result = information_content(empty, backgrounds, degrees, 3)
            assert result.total == 0.0 and result.steps == ()

    def test_validation_errors(self, k33, near_k33, utility_degrees):
        with pytest.raises(ContextError):
            information_content(build_graph(True, ["Utility"], []), [], utility_degrees)
        with pytest.raises(ContextError):
            information_content(k33, [], {}, 3)
        with pytest.raises(ContextError):
            information_content(k33, [], {"Utility": 4, "House": True}, 3)
        with pytest.raises(ContextError):
            information_content(k33, [], {"Utility": 4}, 3)  # no House limit
        with pytest.raises(ContextError):
            information_content(k33, [], {"Utility": 2, "House": 3}, 3)
        with pytest.raises(ContextError):
            information_content(k33, [near_k33], {"Utility": 3, "House": 3}, 3)
        with pytest.raises(ContextError):
            information_content(k33, [], utility_degrees, -1)
        with pytest.raises(ContextError):
            information_content(k33, [], utility_degrees, 3, edge_alphabet=("Elec",))

    def test_huge_depth_prices_like_the_vertex_count(self):
        benzene = molecule("c1ccccc1")
        degrees = tight_degrees([benzene])
        capped = information_content(benzene, [benzene], degrees, 6)
        huge = information_content(benzene, [benzene], degrees, 10**9)
        assert [s.bits for s in huge.steps] == [s.bits for s in capped.steps]

    def test_degree_limits_too_large_for_a_float(self):
        # A root step's outcome count, the sum of the limits plus one per
        # label, is priced as a float.
        lone = build_graph(False, ["X"], [])
        for degrees in ({"X": 10**400}, {"X": 10**308, "Y": 10**308}):
            with pytest.raises(ContextError, match="too large to price"):
                information_content(lone, [], degrees)
        result = information_content(lone, [], {"X": 10**300})
        assert result.total == pytest.approx(math.log2(10**300 + 1))

    def test_single_vertex_graph(self):
        lone = build_graph(False, ["Utility"], [])
        result = information_content(lone, [], {"Utility": 4}, 3)
        assert len(result.steps) == 1
        assert result.total == pytest.approx(math.log2(5))  # degrees 0..4


def cable_stub():
    return build_graph(False, ["Utility", "House"], [(0, 1, "Cable")])


class TestTableAndChain:
    def test_table_cells_match_individual_runs(self, k33, near_k33, utility_degrees):
        named = [("k33", k33), ("near", near_k33), ("stub", cable_stub())]
        table = conditional_table(named, utility_degrees, 3)
        assert table.names == ("k33", "near", "stub")
        alphabet = ("Cable", "Elec", "Gas", "H2O")  # shared across all cells
        for i, (_, target) in enumerate(named):
            for j, (_, given) in enumerate(named):
                expected = information_content(
                    target, [given], utility_degrees, 3, edge_alphabet=alphabet).total
                assert table.bits[i][j] == expected

    def test_a_batch_needs_a_graph(self, utility_degrees):
        for batch, what in ((conditional_table, "table"), (chain_information, "chain")):
            with pytest.raises(ContextError, match=f"the {what} needs at least one graph"):
                batch([], utility_degrees)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_parallel_equals_sequential(self, k33, near_k33, utility_degrees, jobs):
        named = [("k33", k33), ("near", near_k33)]
        seq = conditional_table(named, utility_degrees, 2, jobs=1)
        par = conditional_table(named, utility_degrees, 2, jobs=jobs)
        assert seq.bits == par.bits

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_parallel_chain_equals_sequential(self, k33, near_k33, utility_degrees, jobs):
        # Each worker shares its own index and memo; the bits are the same.
        named = [("k33", k33), ("near", near_k33), ("stub", cable_stub())]
        seq = chain_information(named, utility_degrees, 2, jobs=1)
        par = chain_information(named, utility_degrees, 2, jobs=jobs)
        assert seq == par

    @staticmethod
    def inline_pool(monkeypatch):
        """Replace ProcessPoolExecutor with a stand-in that starts no process.

        It records each pool's max_workers and each submitted call's
        arguments, and runs the call at once on a pickled copy of them, as
        a worker would receive them.
        """

        class InlinePool:
            sizes: list = []
            calls: list = []

            def __init__(self, max_workers):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                args = pickle.loads(pickle.dumps(args))
                self.calls.append(args)
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return InlinePool

    @pytest.mark.parametrize("cpus", [None, 64])
    def test_pool_is_bounded_by_the_cells_and_the_cpus(self, monkeypatch, cpus):
        named, degrees = list(zip(DRUG_SMILES, DRUGS)), tight_degrees(DRUGS)
        expected = conditional_table(named, degrees, 2)
        if cpus is not None:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pool = self.inline_pool(monkeypatch)
        assert conditional_table(named, degrees, 2, jobs=10**6) == expected
        workers = min(16, os.cpu_count() or 1)
        assert pool.sizes == ([workers] if workers > 1 else [])
        assert len(pool.calls) == sum(pool.sizes)

    def test_shares_are_round_robin_and_come_back_in_task_order(
            self, monkeypatch, k33, near_k33, utility_degrees):
        named = [("k33", k33), ("near", near_k33), ("stub", cable_stub())]
        table = conditional_table(named[:2], utility_degrees, 2)
        chain = chain_information(named, utility_degrees, 2)
        built, _ = self.count_sides(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        pool = self.inline_pool(monkeypatch)

        assert conditional_table(named[:2], utility_degrees, 2, jobs=3) == table
        # Cells 0 and 3 (k33 | k33, near | near), then 1 and 2.
        assert [[(t[0].vertex_count, t[1][0].vertex_count) for t in cells]
                for cells, *_ in pool.calls] == [[(6, 6), (7, 7)], [(6, 7)], [(7, 6)]]
        assert chain_information(named, utility_degrees, 2, jobs=3) == chain
        assert [[len(t[1]) for t in cells] for cells, *_ in pool.calls[3:]] == [[0], [1], [2]]
        assert pool.sizes == [3, 3]
        # Each share indexes each of its backgrounds once, after pickling.
        assert built["background"] == sum(
            len({id(bg) for _, bgs in cells for bg in bgs}) for cells, *_ in pool.calls)

    @staticmethod
    def count_sides(monkeypatch):
        """Counts of background and target sides built, and every side's depth."""
        built, depths = Counter(), []
        side = graphmml.context._Side

        def counting_side(g, depth, known=None):
            built["background" if known is None else "target"] += 1
            depths.append(depth)
            return side(g, depth, known)

        monkeypatch.setattr(graphmml.context, "_Side", counting_side)
        return built, depths

    def test_a_side_built_shallow_is_deepened_for_a_later_row(
            self, monkeypatch, k33, near_k33, utility_degrees):
        # The first row's target has 2 vertices, so its walk builds every
        # background side at depth 2; the later rows walk at depth 5 and
        # deepen those sides in place.
        named = [("stub", cable_stub()), ("k33", k33), ("near", near_k33)]
        alphabet = {e.label for _, g in named for e in g.edges}
        alone = tuple(tuple(information_content(a, [b], utility_degrees, 5,
                                                edge_alphabet=alphabet).total
                            for _, b in named) for _, a in named)
        deepened = []
        deepen = graphmml.search._Side.deepen

        def recording_deepen(side, depth):
            if len(side.bounds) > 1 and depth >= len(side.bounds):
                deepened.append((side.graph, len(side.bounds) - 1, depth))
            deepen(side, depth)

        monkeypatch.setattr(graphmml.search._Side, "deepen", recording_deepen)
        built, depths = self.count_sides(monkeypatch)
        assert conditional_table(named, utility_degrees, 5).bits == alone
        assert built == {"background": 3, "target": 3} and depths == [2, 2, 2, 2, 5, 5]
        assert deepened == [(g, 2, 5) for _, g in named]

    def test_info_caps_its_library_over_the_targets_alone(self, monkeypatch):
        # A 6-vertex ring given a 1,500-vertex chain: no pricer reads a level
        # past the ring's 6 vertices, so no background side is built deeper.
        ring = build_graph(False, ["C"] * 6, [(i, (i + 1) % 6, "s") for i in range(6)])
        chain = build_graph(False, ["C"] * 1500, [(i, i + 1, "s") for i in range(1499)])
        capped = graphmml.context.information_contents([ring], [chain], {"C": 2}, 6)
        _, depths = self.count_sides(monkeypatch)
        huge = graphmml.context.information_contents([ring], [chain], {"C": 2}, 10**9)
        assert huge == capped and max(depths) == 6

    def test_table_indexes_each_graph_once_as_a_background(self, monkeypatch):
        # A row's cells share one traversal of their target, and with it one
        # target side.
        built, _ = self.count_sides(monkeypatch)
        walks = []
        walk = graphmml.context.traverse

        def counting_traverse(g, *args):
            walks.append(g)
            return walk(g, *args)

        monkeypatch.setattr(graphmml.context, "traverse", counting_traverse)
        conditional_table(list(zip(DRUG_SMILES, DRUGS)), tight_degrees(DRUGS), 2)
        assert built == {"background": 4, "target": 4}
        assert [id(g) for g in walks] == [id(g) for g in DRUGS]  # one walk per row

    def test_chain_indexes_every_graph_but_the_last_as_a_background(self, monkeypatch):
        built, _ = self.count_sides(monkeypatch)
        chain_information(list(zip(DRUG_SMILES, DRUGS)), tight_degrees(DRUGS), 2)
        assert built == {"background": 3, "target": 3}

    def test_info_targets_index_each_given_once(self, monkeypatch):
        degrees, given = tight_degrees(DRUGS), [DRUGS[2]]
        alphabet = {e.label for g in DRUGS for e in g.edges}
        alone = [information_content(g, given, degrees, 3, edge_alphabet=alphabet)
                 for g in DRUGS]
        built, depths = self.count_sides(monkeypatch)
        shared = graphmml.context.information_contents(DRUGS, given, degrees, 3)
        assert shared == alone
        assert built == {"background": 1, "target": 4} and set(depths) == {3}
        built.clear()
        assert graphmml.context.information_contents(DRUGS[:2], [], degrees, 3) == [
            information_content(g, [], degrees, 3) for g in DRUGS[:2]]
        assert not built

    def test_info_targets_may_be_one_shot_iterables(self):
        degrees, given = tight_degrees(DRUGS), [DRUGS[2]]
        expected = graphmml.context.information_contents(DRUGS, given, degrees, 3)
        assert len(expected) == len(DRUGS)
        got = graphmml.context.information_contents(iter(DRUGS), iter(given), degrees, 3)
        assert got == expected

    def test_info_targets_share_one_edge_alphabet(self):
        # With no backgrounds, each target still prices its edge steps over
        # the edge labels of every target, as one info command's rows do.
        single = build_graph(False, ["C"] * 3, [(0, 1, "s"), (1, 2, "s")])
        double = build_graph(False, ["C"] * 2, [(0, 1, "d")])
        degrees, union = {"C": 2}, {"s", "d"}
        assert graphmml.context.information_contents([single, double], [], degrees, 3) == [
            information_content(g, [], degrees, 3, edge_alphabet=union) for g in (single, double)]

    def test_huge_depth_table_builds_no_side_deeper_than_the_largest_component(
            self, monkeypatch, k33, near_k33, utility_degrees):
        named = [("k33", k33), ("near", near_k33), ("stub", cable_stub())]
        expected = conditional_table(named, utility_degrees, 7)
        _, depths = self.count_sides(monkeypatch)
        assert conditional_table(named, utility_degrees, 10**9) == expected
        assert max(depths) == 7  # near_k33's vertex count

    def test_chain_accumulates_backgrounds(self, k33, near_k33, utility_degrees):
        named = [("k33", k33), ("near", near_k33), ("stub", cable_stub())]
        chain = chain_information(named, utility_degrees, 3)
        alphabet = ("Cable", "Elec", "Gas", "H2O")
        priors = []
        for index, (name, target) in enumerate(named):
            expected = information_content(
                target, priors, utility_degrees, 3, edge_alphabet=alphabet).total
            assert chain.items[index] == (name, expected)
            priors.append(target)
        assert chain.total == sum(bits for _, bits in chain.items)

    def test_chain_beats_independent_sends(self, k33, near_k33, utility_degrees):
        named = [("k33", k33), ("near", near_k33)]
        chain = chain_information(named, utility_degrees, 3)
        independent = sum(
            information_content(g, [], utility_degrees, 3,
                                edge_alphabet=("Elec", "Gas", "H2O")).total
            for _, g in named
        )
        assert chain.total < independent


class TestPublicNames:
    def test_removed_names_are_not_exported(self):
        removed = {"match_vertex", "match_edge", "FreshVertex", "LoopClosure",
                   "VertexStatus", "Component"}
        assert removed.isdisjoint(graphmml.__all__)
        assert not any(hasattr(graphmml, name) for name in removed)

    def test_reference_names_live_in_their_modules(self):
        # The full-distribution layer and the plain listings of matches and
        # loop candidates are references for the tests, not library API.
        assert not hasattr(graphmml.context, "PredictiveModel")
        references = {
            graphmml.context: ("ScoredMatch", "scored_matches_to_model", "vertex_outcome_space",
                               "edge_outcome_space", "vertex_matches", "edge_matches"),
            graphmml.graph: ("loop_candidates",),
        }
        for module, names in references.items():
            for name in names:
                assert hasattr(module, name) and not hasattr(graphmml, name)
                assert name not in graphmml.__all__

    def test_every_exported_name_exists(self):
        assert all(hasattr(graphmml, name) for name in graphmml.__all__)


class TestLayers:
    def test_the_search_layer_loads_without_the_pricing_layer(self):
        # graphmml.search imports only graphmml.graph, and the package loads
        # a top-level name's module only when the name is first used.
        src = Path(graphmml.context.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, graphmml.search; "
             "print(sorted(m for m in sys.modules if m.startswith('graphmml')))"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['graphmml', 'graphmml.graph', 'graphmml.search']\n"

    def test_outcomes_are_one_type_wherever_they_are_named(self):
        # They live beside the traversal events, and the pricing layer and
        # the top level name them too.
        for name in ("VertexOutcome", "EdgeOutcome"):
            kind = getattr(graphmml.graph, name)
            assert getattr(graphmml, name) is getattr(graphmml.context, name) is kind

    def test_the_search_layer_knows_no_outcomes(self):
        # search.py imports Graph alone from the package and never names a
        # step outcome: the candidate index is the pricing layer's.
        tree = ast.parse(Path(graphmml.search.__file__).read_text())
        imported = [(node.level, node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names]
        assert [name for level, _, name in imported if level] == ["Graph"]
        assert all(level or not module.startswith("graphmml") for level, module, _ in imported)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert names.isdisjoint({"VertexOutcome", "EdgeOutcome"})

    def test_a_side_holds_only_what_the_matcher_reads(self, k33):
        fields = ("graph", "known", "slots", "buckets", "bounds", "caps")
        assert graphmml.search._Side.__slots__ == fields
        background, target = graphmml.search._Side(k33, 3), graphmml.search._Side(k33, 3, ())
        for name in ("arrivals", "leaving", "roots", "keys"):
            assert not hasattr(background, name)
        assert background.buckets is not None and target.buckets is None

    def test_the_pricing_layer_writes_to_no_side(self):
        # No statement in context.py assigns to a field of a _Side, or
        # into one of its lists or dicts.
        fields = set(graphmml.search._Side.__slots__)
        tree = ast.parse(Path(graphmml.context.__file__).read_text())
        targets = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets += node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets.append(node.target)
        for target in targets:
            while isinstance(target, ast.Subscript):
                target = target.value
            assert not (isinstance(target, ast.Attribute) and target.attr in fields), (
                ast.unparse(target))
