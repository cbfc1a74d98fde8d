"""A table row priced in one traversal of its target.

conditional_table walks each target once for all the cells of its row,
charging each cell from its own background's matches.  Every cell must
still be the number information_content gives for that cell alone, in
one process and across worker processes.  A batch checks each graph once,
before any cell runs, and a bad input's message names the bad graph.
"""

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import graphmml.context
import test_context
from graphmml import (
    ContextError, build_graph, chain_information, conditional_table, information_content,
)
from conftest import DRUG_SMILES, UTILITY_DEGREES, make_k33


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(named=named_graphs(), depth=st.integers(0, 3))
def test_every_chain_item_equals_its_own_run(named, depth):
    # A chain item walks alone, or with the next item when that lists the
    # same Graph object again.
    graphs = [g for _, g in named]
    degrees = test_context.tight_degrees(graphs)
    shared = {e.label for g in graphs for e in g.edges}
    expected = [information_content(g, graphs[:i], degrees, depth, edge_alphabet=shared).total
                for i, g in enumerate(graphs)]
    assert [bits for _, bits in chain_information(named, degrees, depth).items] == expected


def over_degree_star():
    """A House joined to four Utilities, one edge above its declared 3."""
    return build_graph(False, ["House"] + ["Utility"] * 4,
                       [(0, i, "Elec") for i in range(1, 5)])


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("batch", [conditional_table, chain_information])
def test_a_bad_last_graph_is_named_before_any_cell_runs(monkeypatch, batch, jobs):
    # The table's second graph and the chain's last one break a declared
    # degree: the message names it whatever the job count, and no worker
    # starts.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    pool = test_context.TestTableAndChain.inline_pool(monkeypatch)
    named = [("k33", make_k33()), ("star", over_degree_star())]
    with pytest.raises(ContextError) as raised:
        batch(named, UTILITY_DEGREES, 3, jobs=jobs)
    assert str(raised.value) == (
        "graph 'star' vertex 0 has degree 4, above the declared maximum 3 for label House")
    assert pool.sizes == []


@pytest.mark.parametrize("jobs", [1, 3])
def test_a_batch_checks_its_input_once(monkeypatch, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    test_context.TestTableAndChain.inline_pool(monkeypatch)
    checks = []
    check = graphmml.context._checked_alphabet

    def counting_check(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(graphmml.context, "_checked_alphabet", counting_check)
    named = list(zip(DRUG_SMILES, test_context.DRUGS))
    degrees = test_context.tight_degrees(test_context.DRUGS)
    conditional_table(named, degrees, 2, jobs=jobs)
    assert len(checks) == 1
    chain_information(named, degrees, 2, jobs=jobs)
    assert len(checks) == 2
