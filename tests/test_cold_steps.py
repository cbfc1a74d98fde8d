"""Steps priced with no backgrounds, and the records a traversal yields.

A step with no backgrounds can find no match, so information_content
prices it from the size of its outcome space alone, without running a
pricer step; the bits must still be those of the uniform distribution
that scored_matches_to_model builds from no matches.  With a background,
each step runs its one pricer step, over that background.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import graphmml.context
import test_context
from graphmml import (
    EdgeEvent,
    EdgeOutcome,
    StepRecord,
    VertexEvent,
    VertexOutcome,
    information_content,
    traverse,
)
from graphmml.context import edge_outcome_space, scored_matches_to_model, vertex_outcome_space
from graphmml.graph import loop_candidates
from test_table_rows import labelled_graph

ALPHABET = ("x", "y")


@pytest.mark.parametrize("record, fields", [
    (VertexEvent(1, "a", 2, None), ("vertex", "label", "degree", "incoming")),
    (EdgeEvent(3, 1, "x", None), ("edge", "source", "label", "target")),
    (StepRecord(0, "V", VertexOutcome("a", 2), 1.5), ("index", "kind", "outcome", "bits")),
])
def test_records_keep_their_fields_and_are_immutable_values(record, fields):
    assert type(record)._fields == fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 7)
    with pytest.raises(AttributeError):
        record.extra = 7
    twin = type(record)(*record)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)


def uniform_bits(g, degrees):
    """Each step's bits under no matches, from the outcome spaces listed in full."""
    def on_vertex(state, event):
        space = vertex_outcome_space(degrees, initial=event.incoming is None)
        outcome = VertexOutcome(event.label, event.degree)
        return -math.log2(scored_matches_to_model([], space)[outcome])

    def on_edge(state, event):
        space = edge_outcome_space(ALPHABET, loop_candidates(state, event.source))
        outcome = EdgeOutcome(event.label, event.target)
        return -math.log2(scored_matches_to_model([], space)[outcome])

    return traverse(g, on_vertex, on_edge)


def recorded_calls(monkeypatch):
    """Patch the pricer's step methods to record the backgrounds of each call."""
    calls = {"vertex_step": [], "edge_step": []}
    for name, log in calls.items():
        def record(pricer, *args, _original=getattr(graphmml.context._Pricer, name), _log=log):
            _log.append([side.graph for side in pricer.sides])
            return _original(pricer, *args)
        monkeypatch.setattr(graphmml.context._Pricer, name, record)
    return calls


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), g=labelled_graph(), bg=labelled_graph(), depth=st.integers(0, 3))
def test_cold_steps_charge_the_uniform_price_without_matching(data, g, bg, depth):
    # Each label's largest degree in either graph, plus up to 2 of slack.
    tight = test_context.tight_degrees([g, bg])
    degrees = {label: tight.get(label, 1) + data.draw(st.integers(0, 2)) for label in "ab"}
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = recorded_calls(monkeypatch)
        cold = information_content(g, [], degrees, depth, edge_alphabet=ALPHABET)
        assert calls == {"vertex_step": [], "edge_step": []}
        assert [step.bits for step in cold.steps] == uniform_bits(g, degrees)

        warm = information_content(g, [bg], degrees, depth, edge_alphabet=ALPHABET)
    kinds = [step.kind for step in warm.steps]
    assert len(calls["vertex_step"]) == kinds.count("V") == g.vertex_count
    assert len(calls["edge_step"]) == kinds.count("E") == g.edge_count
    for backgrounds in calls["vertex_step"] + calls["edge_step"]:
        assert len(backgrounds) == 1 and backgrounds[0] is bg
