"""A table row priced in one traversal of its target.

conditional_table walks each target once for all the cells of its row,
charging each cell from its own background's matches.  Every cell must
still be the number information_content gives for that cell alone, in
one process and across worker processes, and a bad input must raise the
message the first bad cell raises alone.
"""

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import test_context
from graphmml import ContextError, build_graph, conditional_table, information_content
from conftest import UTILITY_DEGREES, make_k33


@st.composite
def labelled_graph(draw):
    """Up to 6 vertices of 2 labels and any simple set of edges of 2 labels,
    so empty, edgeless and disconnected graphs all come up."""
    n = draw(st.integers(0, 6))
    labels = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    edges = [(u, v, draw(st.sampled_from("xy"))) for u, v in chosen]
    return build_graph(False, labels, edges)


@st.composite
def named_graphs(draw):
    """One to four graphs, where a later entry may be an earlier Graph object
    listed again."""
    graphs = []
    for _ in range(draw(st.integers(1, 4))):
        if graphs and draw(st.booleans()):
            graphs.append(draw(st.sampled_from(graphs)))
        else:
            graphs.append(draw(labelled_graph()))
    return [(f"g{i}", g) for i, g in enumerate(graphs)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(named=named_graphs(), depth=st.integers(0, 3))
def test_every_cell_equals_its_own_run(named, depth):
    graphs = [g for _, g in named]
    degrees = test_context.tight_degrees(graphs)
    shared = {e.label for g in graphs for e in g.edges}
    expected = tuple(
        tuple(information_content(target, [given], degrees, depth, edge_alphabet=shared).total
              for given in graphs)
        for target in graphs)
    assert conditional_table(named, degrees, depth).bits == expected
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        pool = test_context.TestTableAndChain.inline_pool(monkeypatch)
        assert conditional_table(named, degrees, depth, jobs=3).bits == expected
        assert pool.sizes == ([min(3, len(graphs) ** 2)] if len(graphs) > 1 else [])


def over_degree_star():
    """A House joined to four Utilities, one edge above its declared 3."""
    return build_graph(False, ["House"] + ["Utility"] * 4,
                       [(0, i, "Elec") for i in range(1, 5)])


@pytest.mark.parametrize("jobs, message", [
    # Row k33: cell (k33 | k33) passes, and cell (k33 | star) meets the star
    # as its background 0.
    (1, "background 0 vertex 0 has degree 4, above the declared maximum 3 for label House"),
    # Worker 0 prices cells 0 and 3, (k33 | k33) and (star | star): the star
    # is that row's target.
    (3, "graph vertex 0 has degree 4, above the declared maximum 3 for label House"),
])
def test_a_bad_second_graph_raises_its_first_cells_message(monkeypatch, jobs, message):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    test_context.TestTableAndChain.inline_pool(monkeypatch)
    named = [("k33", make_k33()), ("star", over_degree_star())]
    with pytest.raises(ContextError) as raised:
        conditional_table(named, UTILITY_DEGREES, 3, jobs=jobs)
    assert str(raised.value) == message
