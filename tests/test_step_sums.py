"""Each step's weight sums, as information_content charges them.

The walk charges each background two integers per step: hit, the weight
of the matches that predict the actual outcome, and total, the weight of
all of them.  It reads both from per-outcome sums memoised by context and
builds no match list.  At every step they must equal the sums over the
lists that vertex_matches and edge_matches rebuild from the traversal
state, and over the plain reference matcher's lists.
"""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import graphmml.context
import test_context
from graphmml import VertexEvent, build_graph, information_content
from graphmml.context import edge_matches, vertex_matches
from test_context import match_sums, step_matches
from test_table_rows import labelled_graph

PRICER = graphmml.context._Pricer


def known_ball(state, root, radius):
    """The vertices within radius of root over the state's closed edges."""
    ball = frontier = {root}
    for _ in range(radius):
        frontier = {s.head for v in frontier for s in state.graph.adjacency[v]
                    if state.is_closed(s.edge)} - ball
        ball = ball | frontier
    return ball


def checked_steps(g, backgrounds, depth):
    """Price g given the backgrounds, checking every step's charges; returns
    a count of the kinds of step met."""
    seen = Counter()

    def checked(step):
        def call(pricer, state, event, outcome):
            charged = step(pricer, state, event, outcome)
            count = len(pricer.sides)
            rebuilt = step_matches((vertex_matches, edge_matches), pricer, state, event)
            plain = step_matches((test_context.plain_vertex_matches,
                                  test_context.plain_edge_matches), pricer, state, event)
            assert charged == match_sums(rebuilt, outcome, count) == match_sums(plain, outcome, count)
            hit = any(h for h, _ in charged)
            if isinstance(event, VertexEvent):
                seen["later root" if event.incoming is None and event.vertex else "vertex"] += 1
            elif event.target is None:
                seen["fresh edge"] += 1
            elif event.target in known_ball(state, event.source, pricer.depth):
                seen["loop closure in the ball, hit" if hit else "loop closure in the ball"] += 1
            else:
                assert not hit  # no match binds a vertex out of the ball
                seen["loop closure out of the ball"] += 1
            return charged
        return call

    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in ("vertex_step", "edge_step"):
            monkeypatch.setattr(PRICER, name, checked(getattr(PRICER, name)))
        information_content(g, backgrounds, test_context.tight_degrees([g, *backgrounds]), depth)
    return seen


@st.composite
def reordered(draw, g):
    """g with its edges listed in a drawn order, each end first or last."""
    edges = draw(st.permutations(g.edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return build_graph(False, g.labels, [(v, u, label) if flip else (u, v, label)
                                         for (u, v, label), flip in zip(edges, flips)])


@st.composite
def cases(draw):
    """A graph, one to three backgrounds (the graph itself, a reordering
    of it or another graph) and a depth from 0 to 4."""
    g = draw(labelled_graph())
    backgrounds = [draw(st.one_of(st.just(g), reordered(g), labelled_graph()))
                   for _ in range(draw(st.integers(1, 3)))]
    return draw(reordered(g)), backgrounds, draw(st.integers(0, 4))


# A triangle beside a bond and a lone vertex: three components, and a ring
# whose closing edge meets its target inside the ball from depth 2 and
# outside it below.
TRIANGLE_AND_BOND = build_graph(False, ["a", "a", "b", "a", "b", "a"],
                                [(0, 1, "x"), (1, 2, "x"), (2, 0, "y"), (3, 4, "x")])
EXAMPLES = [(TRIANGLE_AND_BOND, [TRIANGLE_AND_BOND], depth) for depth in (1, 2)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=cases())
@example(case=EXAMPLES[0])
@example(case=EXAMPLES[1])
def test_every_step_charges_the_sums_of_its_matches(case):
    checked_steps(*case)


def test_the_examples_meet_every_kind_of_step():
    seen = sum((checked_steps(*case) for case in EXAMPLES), Counter())
    assert set(seen) == {"vertex", "later root", "fresh edge", "loop closure in the ball, hit",
                         "loop closure out of the ball"}
