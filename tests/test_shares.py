"""The search bounds of graphmml.search against the plain reference matcher.

A share bounds what pairing one slot can add to a match: on small random
graphs, at depths 0 to 4, no pairing of two slots scores more in the plain
reference than either slot's share, and no match rooted at two vertices
more than either vertex's bound.  A target side over some known edges is
checked against the reference on the graph of those edges alone.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from graphmml import build_graph
from graphmml.search import _Side
from test_context import PlainMatcher


@st.composite
def small_graphs(draw):
    """Up to 5 vertices labelled a or b, joined by edges labelled x or y."""
    n = draw(st.integers(1, 5))
    labels = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = sorted({(min(u, v), max(u, v)) for u, v in draw(st.lists(ends, max_size=8)) if u != v})
    return build_graph(False, labels, [(u, v, draw(st.sampled_from("xy"))) for u, v in pairs])


def slot_id(g, edge, tail):
    """The id of edge as seen from tail, as _Side numbers slots."""
    return 2 * edge + (g.edges[edge].u != tail)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(g1=small_graphs(), g2=small_graphs(), data=st.data())
def test_every_share_bounds_the_score_through_its_slot(g1, g2, data):
    known = sorted(data.draw(st.sets(st.sampled_from(range(g1.edge_count)))
                             if g1.edge_count else st.just(set())))
    # The known edges alone, where edge k is g1's edge known[k].
    seen = build_graph(False, g1.labels, [g1.edges[e] for e in known])
    for depth in range(5):
        side1, side2 = _Side(g1, depth, set(known)), _Side(g2, depth)
        for v1 in range(g1.vertex_count):
            for v2 in range(g2.vertex_count):
                score = PlainMatcher(seen, g2).match_vertex(v1, v2, depth)
                assert score <= 1 + side1.caps[depth][v1][0]
                assert score <= 1 + side2.caps[depth][v2][0]
                if depth == 0 or g1.labels[v1] != g2.labels[v2]:
                    continue
                for s1 in seen.adjacency[v1]:
                    share1 = side1.shares[depth][slot_id(g1, known[s1.edge], v1)]
                    for s2 in g2.adjacency[v2]:
                        # v1 and v2 are paired, and the search pairs s1 with s2.
                        plain = PlainMatcher(seen, g2)
                        plain.vmap[v1], plain.vinv[v2] = v2, v1
                        score = plain.match_edge(s1, s2, depth)
                        assert score <= share1
                        assert score <= side2.shares[depth][slot_id(g2, s2.edge, v2)]
