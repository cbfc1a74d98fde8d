"""Predictive models of graph structure, conditioned on background graphs.

A graph is priced in bits by replaying its traversal and, at every step,
predicting what comes next from a set of fully known background graphs.
Each place in the backgrounds that the already traversed part of the
graph (the decoder's knowledge) could correspond to is a match, scored
by the correspondence search in graphmml.search.  Every outcome the
step could reveal gets an escape weight of ESCAPE, each match adds
its score plus one to the outcome it predicts, and the actual outcome's
negative log2 share of the total weight is the step's cost.
information_content computes that share with one division, from each
background's weight sums per outcome and the number of possible
outcomes, without listing the matches or the outcomes.  The tests'
reference for that division is scored_matches_to_model: it returns the
full distribution, a dict from outcome to probability, that the matches
vertex_matches or edge_matches list give under the same rule, and -log2
of the actual outcome's probability is the step's bits.

With no backgrounds every step falls back to a uniform distribution, so
the unconditional cost is still well defined.  The traversal covers every
component, so a disconnected or empty graph is priced like any other, as
one stream of steps.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .graph import (
    EdgeEvent, EdgeOutcome, Graph, TraversalState, VertexEvent, VertexOutcome, connected_components,
    traverse,
)
from .search import _Matcher, _Side


class ContextError(ValueError):
    """Inputs violate the conditions the predictive model relies on."""


def label_text(label: Any) -> str:
    """Stable printable form of a vertex or edge label."""
    if isinstance(label, enum.Enum):
        return str(label.value)
    return str(label)


# -- outcomes and models ---------------------------------------------------------


class ScoredMatch(NamedTuple):
    """One place in a background graph the current context matches.

    candidate identifies the spot (background index plus vertex or edge
    ids); outcome is the step outcome that spot predicts.
    """

    candidate: tuple
    score: int
    outcome: VertexOutcome | EdgeOutcome


def vertex_outcome_space(
    degrees: Mapping[Any, int], initial: bool = False
) -> tuple[VertexOutcome, ...]:
    """All (label, degree) pairs a vertex step could reveal.

    A vertex reached over an edge has degree at least 1; only a root, the
    first vertex of a component, may turn out isolated, so only there is
    degree 0 part of the space.
    """
    space = []
    for label in sorted(degrees, key=label_text):
        for d in range(0 if initial else 1, degrees[label] + 1):
            space.append(VertexOutcome(label, d))
    return tuple(space)


def edge_outcome_space(
    edge_labels: Sequence, candidates: Sequence[int]
) -> tuple[EdgeOutcome, ...]:
    """All (label, target) pairs an edge step could reveal."""
    space = []
    for label in edge_labels:
        space.append(EdgeOutcome(label, None))
        for w in candidates:
            space.append(EdgeOutcome(label, w))
    return tuple(space)


# The weight rule: every outcome a step could reveal starts with ESCAPE, and
# each match adds its score plus one to the outcome it predicts.
ESCAPE = 0.5


def scored_matches_to_model(matches: Iterable[ScoredMatch], outcome_space: Sequence) -> dict:
    """The distribution the scored matches give over the outcome space, as
    a dict from each outcome to its probability.

    Each match adds (score + 1) weight to the outcome it predicts, so
    zero-score matches still count; every outcome also gets ESCAPE weight
    so anything remains encodable.  No matches at all therefore yields
    the uniform distribution.  information_content prices each step under
    the same rule without building this distribution.
    """
    space = tuple(outcome_space)
    if not space:
        raise ContextError("outcome space is empty")
    weights = {outcome: ESCAPE for outcome in space}
    for match in matches:
        if match.outcome not in weights:
            raise ContextError(
                f"match predicts {match.outcome!r}, which is outside the outcome space"
            )
        weights[match.outcome] += match.score + 1
    total = sum(weights.values())
    return {o: w / total for o, w in weights.items()}


def _step_bits(hit: int, total: int, size: int) -> float:
    """Bits for an outcome, one of size possible outcomes, under the weight
    rule, when the step's matches weigh total and those predicting it hit.

    The same number as -log2 of the outcome's probability in the
    distribution scored_matches_to_model returns, bit for bit: every weight
    is a multiple of 1/2, so both sums are exact and the one division
    rounds as the distribution's does.
    """
    return -math.log2((ESCAPE + hit) / (ESCAPE * size + total))


# -- the pricer ------------------------------------------------------------------


def _entry(entries: dict[tuple, tuple], results: Iterable[tuple[int, Any]]) -> tuple:
    """A memo entry from a step's (score, predicted outcome) results,
    interned in entries: each outcome they predict, then the weight their
    matches give it."""
    sums: dict = {}
    for score, predicted in results:
        sums[predicted] = sums.get(predicted, 0) + score + 1
    # Made from a list, so the tuple is built at its length: from an
    # iterator tuple() builds a longer one and shrinks it, and each freed
    # duplicate would then pile up in the interpreter's cache of short
    # tuples instead of being reused by the next entry.
    entry = tuple([*itertools.chain.from_iterable(sums.items())])
    return entries.setdefault(entry, entry)


# Stands in a vertex step's key for the arriving vertex's label, which no
# search reads: its one known edge is the arrival edge, and that is bound.
_HIDDEN = object()


def _ball(labels: Sequence, slots: Sequence, root: int, radius: int, hidden: int,
          key: list) -> dict[int, int]:
    """Append to key the code of the ball of radius around root over the
    slots, as a _Side lists them, and return the map from each ball
    vertex to its number.

    The vertices are numbered in breadth-first order from root, out to
    radius, and the map lists them in number order.  A vertex inside the
    radius adds its label, its slot count and each slot as (edge label,
    far end's number), in slot order; a vertex on the radius adds its
    label alone.  hidden's label is coded as _HIDDEN.
    """
    number = {root: 0}
    order = [root]
    start = 0
    for _ in range(radius):
        end = len(order)
        for v in order[start:end]:
            here = slots[v]
            key += (_HIDDEN if v == hidden else labels[v], len(here))
            for _, far, label, _ in here:
                n = number.get(far)
                if n is None:
                    n = number[far] = len(order)
                    order.append(far)
                key += (label, n)
        start = end
    for v in order[start:]:
        key.append(_HIDDEN if v == hidden else labels[v])
    return number


class _Library:
    """Background sides, their candidate lists and the memos, shared by
    the pricers of one batch call, of one worker's share of it, or of one
    info call's targets.  It starts empty and fills as pricers read it.

    side(bg, depth) builds bg's side the first time a pricer asks for it,
    at that pricer's depth, and deepens it in place when a deeper pricer
    asks later, so no side is deeper than the deepest pricer that reads
    it.  candidates(side, vertex, label, depth) lists, in vertex id order
    and then slot order, the candidates of a vertex step whose arrival
    edge has that label, or of an edge step from a vertex of that label,
    built on the first request and kept in the dict lists.  Each is (v2,
    e2, far2, predicted outcome, the labels on the root's slots other
    than e2, class code): a vertex step's root is far2 and it predicts
    v2's VertexOutcome, an edge step's root is v2 and it predicts e2's
    fresh EdgeOutcome.

    The root's slot e2 is bound when a search starts, and the search
    reads the root's ball, of radius depth for an edge step and depth - 1
    for a vertex step.  A class code is e2's slot position at the root,
    then the _ball code of that ball, so candidates with equal codes score
    alike and bind equally numbered far ends.  A code is a str of each
    token's number in ids.

    vertex_memo and edge_memo map a step's context key to each side's
    entry there: the weight that side's candidates give each outcome (see
    _Pricer).  A key is stored once, however many sides have an entry
    under it, and vertex_entries and edge_entries intern the entries
    alike.  interned interns the outcomes, label sets and class codes of
    the candidates: no VertexOutcome equals a fresh EdgeOutcome, as a
    degree is never None.
    """

    __slots__ = ("sides", "lists", "vertex_memo", "edge_memo", "vertex_entries",
                 "edge_entries", "ids", "interned")

    def __init__(self):
        self.sides: dict[int, _Side] = {}
        self.lists: dict[tuple, list[tuple]] = {}
        self.vertex_memo: dict[tuple, dict[_Side, tuple]] = {}
        self.edge_memo: dict[tuple, dict[_Side, tuple]] = {}
        self.vertex_entries: dict[tuple, tuple] = {}
        self.edge_entries: dict[tuple, tuple] = {}
        self.ids: dict = {}
        self.interned: dict = {}

    def side(self, bg: Graph, depth: int) -> _Side:
        side = self.sides.get(id(bg))
        if side is None:
            side = self.sides[id(bg)] = _Side(bg, depth)
        side.deepen(depth)
        return side

    def candidates(self, side: _Side, vertex: bool, label, depth: int) -> list[tuple]:
        listed = self.lists.get((side, vertex, label, depth))
        if listed is not None:
            return listed
        listed = self.lists[side, vertex, label, depth] = []
        slots, labels, ids, interned = side.slots, side.graph.labels, self.ids, self.interned
        balls: dict[int, str] = {}  # each root's ball code
        for v, here in enumerate(slots):
            for e, far, name, _ in here:
                # A vertex step's arrival edge has the label, an edge step's v.
                if (name if vertex else labels[v]) != label:
                    continue
                root = far if vertex else v
                if root not in balls:
                    tokens: list = []
                    _ball(labels, slots, root, depth - vertex, -1, tokens)
                    balls[root] = "".join([chr(ids.setdefault(t, len(ids))) for t in tokens])
                predicted = VertexOutcome(labels[v], len(here)) if vertex else EdgeOutcome(
                    name, None)
                beside = frozenset([n for f, _, n, _ in slots[root] if f != e])
                code = chr([f for f, *_ in slots[root]].index(e)) + balls[root]
                listed.append((v, e, far, *[interned.setdefault(x, x)
                                            for x in (predicted, beside, code)]))
        return listed


class _Pricer:
    """The matcher state of one traversal of g, built once and kept current.

    With backgrounds it holds the capped depth, one target side over g's
    known edges, and per background a matcher between the target side
    and the background's side, which the caller's library gives it at
    that depth; edge_step makes each edge known on the target side as
    the traversal closes it.  A table row's walk (see
    _walk) passes the backgrounds of all the row's cells, so the target
    side, each step's context key and each step's call serve every cell
    of the row.  With no backgrounds it builds no side, and its step
    methods are never called.

    The depth is capped at g's largest component's vertex count.  Each
    level of a match's recursion binds a vertex of g that no outer level
    has bound, and a vertex step never binds the vertex it reveals; a
    match stays inside one component of g.  Capped there, the depth still
    leaves every vertex a match binds at depth >= 1, where it looks at all
    its edges: no score or binding changes, and the sides' per-depth
    tables and the candidate lists' class codes, which the library builds
    at that depth, stay small.

    A step's searches read only the target's known ball of radius r
    around the root: depth from the source for an edge step, depth - 1
    from the vertex the arrival edge leads back to for a vertex step.
    The step codes that ball as its context key (see _context), and the
    library memoises, by key and background side, the weight the side's
    candidates give each outcome, so a step whose context some earlier
    step of the call had runs no search on that background and costs one
    pass over its distinct outcomes.  A root step reads nothing of the
    target, so all root steps share one key, whose entries list every
    background vertex at score 0.  An entry lists each outcome the
    candidates predict, each followed by its weight; an edge step's loop
    closure names its target by the target's number in the ball, and
    counts only while that vertex can still take a loop closure, which
    the step checks once per target.  _entries is the one loop that
    fetches each side's entry, for every step kind.  vertex_results and
    edge_results are the one candidate loop of each step kind: _entries
    sums their results into the memo on a miss, and vertex_matches and
    edge_matches list them as matches.  Each loop passes every candidate
    that a search can add to through its matcher's search, which returns
    the score and, for an edge step, the target vertex bound to the
    candidate's far end.

    A search can add to a candidate only where one of the target root's
    known slots, less the bound arrival edge, has a label that one of the
    background root's slots other than e2 carries, as the library lists
    with the candidate; any other candidate scores 1 on an edge step,
    fresh, and 2 on a vertex step whose far ends' labels agree, without a
    search.  _entries makes each step one dict, classes, and passes it to
    the step's loops: it maps each class code (see _Library) the step has
    searched to its result, so each class is searched once across all the
    step's backgrounds and its other members reuse the score and, on an
    edge step, the bound far end's number.  No state of a step outlives it
    on the pricer.
    """

    __slots__ = ("depth", "target", "sides", "matchers", "library")

    def __init__(self, g: Graph, backgrounds: Sequence[Graph], depth: int, library: _Library,
                 known=()):
        if backgrounds:
            depth = min(depth, max((c.vertex_count for c in connected_components(g)), default=0))
        self.depth = depth
        self.library = library
        self.target = _Side(g, depth, known) if backgrounds else None
        self.sides = [library.side(bg, depth) for bg in backgrounds]
        self.matchers = [_Matcher(self.target, side) for side in self.sides]

    def _context(self, memos: dict, key: list, root: int, radius: int,
                 hidden: int = -1) -> tuple[dict, dict[int, int]]:
        """The step's memo in memos, each side's entry by the context key:
        key followed by the _ball code of the target's known ball around
        root, and the ball's numbering.

        That code is all a search rooted there reads, and it rebuilds the
        ball up to the numbering: two steps with one key see the same
        candidates, search them the same way and bind the same numbered
        vertices.  A key met for the first time gets an empty memo.
        """
        number = _ball(self.target.graph.labels, self.target.slots, root, radius, hidden, key)
        return memos.setdefault(tuple(key), {}), number

    def _entries(self, memo: dict, entries: dict, outcome, results) -> list[tuple[int, tuple]]:
        """Per side, the weight its entry in the step's memo gives outcome,
        and the entry, made from results(bi, classes) and interned in
        entries where the memo has none yet.  The step's results share one
        classes dict."""
        classes: dict = {}
        listed = []
        for bi, side in enumerate(self.sides):
            entry = memo.get(side)
            if entry is None:
                entry = memo[side] = _entry(entries, results(bi, classes))
            listed.append((entry[entry.index(outcome) + 1] if outcome in entry else 0, entry))
        return listed

    def vertex_results(self, incoming, bi: int, classes: dict) -> list[tuple[int, VertexOutcome]]:
        """(score, predicted outcome) for each of background bi's candidates
        for the arrival edge incoming, over the known edges, in candidate
        order; for a root, with incoming None, each background vertex's
        outcome at score 0.  classes holds the step's searched classes."""
        depth, target, matcher, side = self.depth, self.target, self.matchers[bi], self.sides[bi]
        labels2 = side.graph.labels
        if incoming is None:
            return [(0, VertexOutcome(labels2[v], len(here))) for v, here in enumerate(side.slots)]
        e1, far1, label = incoming.edge, incoming.head, incoming.label
        root_label = target.graph.labels[far1]
        # The edge scores 1 and a far end of far1's label 1 more.  The
        # arrival edge closed before this step, so it is a known slot of
        # far1, bound as the way back: from depth 2 a search adds to the
        # score only where another of far1's known slots can pair.
        known = {name for e, _, name, _ in target.slots[far1] if e != e1} if depth > 1 else set()
        results = []
        for _, e2, far2, predicted, beside, code in self.library.candidates(
                side, True, label, depth):
            if labels2[far2] != root_label:
                score = 1
            elif known.isdisjoint(beside):
                score = 2
            else:
                score = classes.get(code)
                if score is None:
                    score = classes[code] = 2 + matcher.search(
                        e1, e2, far1, far2, depth - 1, incoming.tail)[0]
            results.append((score, predicted))
        return results

    def edge_results(self, source: int, pending_edge: int, bi: int,
                     number: Mapping[int, int] | Sequence[int],
                     classes: dict) -> list[tuple[int, EdgeOutcome]]:
        """(score, predicted outcome) for each of background bi's candidates
        for the pending edge, over the known edges, in candidate order.  A
        loop closure's target is number[w] for the vertex w the
        candidate's far end is bound to.  classes holds the step's
        searched classes."""
        depth, target, matcher, side = self.depth, self.target, self.matchers[bi], self.sides[bi]
        # The source's own pair scores 1; a search adds what its known edges
        # match, and where none can pair it binds no far end, so the step
        # stays fresh.
        known = {name for _, _, name, _ in target.slots[source]} if depth > 0 else set()
        results = []
        for v2, e2, far2, fresh, beside, code in self.library.candidates(
                side, False, target.graph.labels[source], depth):
            if known.isdisjoint(beside):
                result = 1, fresh
            else:
                result = classes.get(code)
                if result is None:
                    score, w = matcher.search(pending_edge, e2, source, v2, depth, watch=far2)
                    result = classes[code] = (
                        1 + score, fresh if w < 0 else EdgeOutcome(fresh.label, number[w]))
            results.append(result)
        return results

    def vertex_step(self, state: TraversalState, event, outcome) -> list[tuple[int, int]]:
        """Per background, the weight of the matches vertex_matches finds
        for the step that predict outcome, and of all of them."""
        incoming, depth, memos = event.incoming, self.depth, self.library.vertex_memo
        # A root step reads nothing of the target, so all root steps share the key ().
        memo = memos.setdefault((), {}) if incoming is None else self._context(
            memos, [depth, incoming.label], incoming.head, depth - 1, incoming.tail)[0]
        entries = self._entries(memo, self.library.vertex_entries, outcome,
                                lambda bi, classes: self.vertex_results(incoming, bi, classes))
        return [(hit, sum(entry[1::2])) for hit, entry in entries]

    def edge_step(self, state: TraversalState, event, outcome) -> list[tuple[int, int]]:
        """Per background, the weight of the matches edge_matches finds for
        the step that predict outcome, and of all of them; then makes the
        edge known, as the traversal closes it."""
        source, depth = event.source, self.depth
        memo, number = self._context(self.library.edge_memo, [depth], source, depth)
        ball = list(number)
        # The outcome as an entry codes it.  A loop closure out of the ball,
        # where no match binds, codes as a target of -1, which gets no weight.
        if outcome.target is not None:
            outcome = EdgeOutcome(outcome.label, number.get(outcome.target, -1))
        entries = self._entries(
            memo, self.library.edge_entries, outcome,
            lambda bi, classes: self.edge_results(source, event.edge, bi, number, classes))
        legal = {None: True}  # per target, whether the decoder could act on it
        charged = []
        # The actual outcome is legal, so its weight counts in the total.
        for hit, entry in entries:
            total = 0
            for predicted, weight in zip(entry[::2], entry[1::2]):
                n = predicted.target
                if n not in legal:
                    legal[n] = state.is_loop_candidate(source, ball[n])
                if legal[n]:
                    total += weight
            charged.append((hit, total))
        self.target.add(event.edge)
        return charged


# -- public matching entry points -------------------------------------------------


def _own_pricer(state: TraversalState, backgrounds: Sequence[Graph], depth: int) -> _Pricer:
    """A pricer for one step alone, over the state's closed edges."""
    closed = {e for e in range(state.graph.edge_count) if state.is_closed(e)}
    return _Pricer(state.graph, backgrounds, depth, _Library(), closed)


def vertex_matches(state: TraversalState, backgrounds: Sequence[Graph], incoming,
                   depth: int) -> list[ScoredMatch]:
    """Scored predictions for the vertex about to be revealed.

    incoming is the reversed arrival edge (unknown vertex -> source), or
    None for a root (each component's first vertex).  Every oriented
    background edge whose label matches the arrival edge is a candidate
    arrival, predicting its own source vertex's label and full degree;
    with no arrival edge every background vertex is a candidate at score
    0.  The unknown vertex itself contributes nothing: matching starts
    behind it.
    """
    if incoming is None:
        return [ScoredMatch((bi, v2), 0, VertexOutcome(bg.labels[v2], bg.degree(v2)))
                for bi, bg in enumerate(backgrounds) for v2 in range(bg.vertex_count)]
    pricer, classes = _own_pricer(state, backgrounds, depth), {}
    candidates = pricer.library.candidates
    return [ScoredMatch((bi, v2, e2), score, predicted)
            for bi, side in enumerate(pricer.sides)
            for (v2, e2, *_), (score, predicted) in zip(
                candidates(side, True, incoming.label, pricer.depth),
                pricer.vertex_results(incoming, bi, classes))]


def edge_matches(state: TraversalState, backgrounds: Sequence[Graph], source: int,
                 pending_edge: int, depth: int) -> list[ScoredMatch]:
    """Scored predictions for the edge about to be revealed from source.

    Every oriented background edge leaving a vertex with the source's
    label is a candidate analogue of the pending edge; its source vertex
    is matched against ours (the pending pair is pre-bound so the
    background edge cannot be recounted), and the match predicts the
    background edge's label plus whether the step stays fresh or closes
    a loop.  A match whose implied loop target is not a legal candidate
    predicts nothing a decoder could act on and is dropped.
    """
    pricer, classes = _own_pricer(state, backgrounds, depth), {}
    label, ids = state.graph.labels[source], range(state.graph.vertex_count)
    candidates = pricer.library.candidates
    return [ScoredMatch((bi, v2, e2), score, predicted)
            for bi, side in enumerate(pricer.sides)
            for (v2, e2, *_), (score, predicted) in zip(
                candidates(side, False, label, pricer.depth),
                pricer.edge_results(source, pending_edge, bi, ids, classes))
            if predicted.target is None or state.is_loop_candidate(source, predicted.target)]


# -- whole-graph information content ----------------------------------------------


class StepRecord(NamedTuple):
    """One traversal step's actual outcome and its cost in bits."""

    index: int
    kind: str  # "V" or "E"
    outcome: VertexOutcome | EdgeOutcome
    bits: float


@dataclass(frozen=True)
class InfoResult:
    total: float
    steps: tuple[StepRecord, ...]


def outcome_text(outcome: VertexOutcome | EdgeOutcome) -> str:
    """Render a step outcome for logs and tables."""
    if isinstance(outcome, VertexOutcome):
        return f"vertex {label_text(outcome.label)} degree {outcome.degree}"
    if outcome.target is None:
        return f"edge {label_text(outcome.label)} fresh"
    return f"edge {label_text(outcome.label)} closes {outcome.target}"


def _checked_alphabet(graphs: list[tuple[str, Graph]], degrees: Mapping[Any, int],
                      depth: int, edge_alphabet: Iterable | None) -> frozenset:
    """The edge alphabet of pricing the (what, graph) pairs' graphs, once
    the input is checked; raises ContextError for the first condition it
    breaks, naming the graph by its what.  A what of "the graph" reads
    "graph" before a vertex."""
    for what, g in graphs:
        if g.directed:
            raise ContextError(f"{what} must be undirected")
    for label, limit in degrees.items():
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ContextError(
                f"declared maximum degree for {label_text(label)} must be a positive integer"
            )
    try:  # a root step's outcome count, the largest, is priced as a float
        float(sum(degrees.values()) + len(degrees))
    except OverflowError:
        raise ContextError("declared maximum degrees are too large to price") from None
    if depth < 0:
        raise ContextError("depth must be non-negative")
    for what, g in graphs:
        what = what.removeprefix("the ")
        for v in range(g.vertex_count):
            label = g.labels[v]
            if label not in degrees:
                raise ContextError(f"{what} vertex {v} has label {label_text(label)} "
                                   "with no declared maximum degree")
            if g.degree(v) > degrees[label]:
                raise ContextError(
                    f"{what} vertex {v} has degree {g.degree(v)}, above the declared "
                    f"maximum {degrees[label]} for label {label_text(label)}"
                )

    present = frozenset(e.label for _, g in graphs for e in g.edges)
    alphabet = present if edge_alphabet is None else frozenset(edge_alphabet)
    missing = present - alphabet
    if missing:
        raise ContextError(
            f"edge label {label_text(sorted(missing, key=label_text)[0])} "
            "is not in the edge alphabet"
        )
    return alphabet


def _walk(g: Graph, cells: list[list[Graph]], degrees: Mapping[Any, int], depth: int,
          alphabet: frozenset, library: _Library) -> tuple[list, list]:
    """One traversal of g that prices it given each cell's backgrounds.

    The caller has checked the input, and alphabet is the edge alphabet
    _checked_alphabet returned.  Returns the first cell's step log and,
    per cell, every step's bits.  The pricer sees the cells' backgrounds
    one after another, so a step makes one vertex_step or edge_step call
    for all the cells and charges each cell the integer weight sums of
    its own backgrounds: every sum is exact, so the bits are those of
    pricing that cell alone.  With no backgrounds a step makes no call
    and charges every cell both sums as 0, the uniform price.
    """
    backgrounds = [bg for bgs in cells for bg in bgs]
    cell_of = [c for c, bgs in enumerate(cells) for _ in bgs]
    bits: list[list[float]] = [[] for _ in cells]
    # Outcome counts: a later vertex has degree 1..limit, a root 0..limit.
    size_later = sum(degrees.values())
    size_initial = size_later + len(degrees)
    edge_labels = len(alphabet)
    # Each background's side, from the library, gets one matcher for the
    # walk; the target side they share starts with no edge known and learns
    # each edge as the traversal closes it.
    pricer = _Pricer(g, backgrounds, depth, library)
    uniform: dict[int, float] = {}  # with no backgrounds, bits per outcome count

    def charge(state: TraversalState, event, kind: str, outcome, size: int,
               price) -> StepRecord:
        if not backgrounds:
            step_bits = uniform.get(size)
            if step_bits is None:
                step_bits = uniform[size] = _step_bits(0, 0, size)
            for cell in bits:
                cell.append(step_bits)
        else:
            hits, totals = [0] * len(bits), [0] * len(bits)
            for c, (hit, total) in zip(cell_of, price(state, event, outcome)):
                hits[c] += hit
                totals[c] += total
            for hit, total, cell in zip(hits, totals, bits):
                cell.append(_step_bits(hit, total, size))
        return StepRecord(len(bits[0]) - 1, kind, outcome, bits[0][-1])

    def on_vertex(state: TraversalState, event: VertexEvent) -> StepRecord:
        size = size_initial if event.incoming is None else size_later
        return charge(state, event, "V", VertexOutcome(event.label, event.degree), size,
                      pricer.vertex_step)

    def on_edge(state: TraversalState, event: EdgeEvent) -> StepRecord:
        size = edge_labels * (1 + state.loop_candidate_count(event.source))
        return charge(state, event, "E", EdgeOutcome(event.label, event.target), size,
                      pricer.edge_step)

    # Positional callbacks: a tracer that wraps traverse's callable
    # arguments counts every step through them.
    return traverse(g, on_vertex, on_edge), bits


def _information(graphs: Iterable[Graph], backgrounds: Iterable[Graph],
                 degrees: Mapping[Any, int], depth: int,
                 edge_alphabet: Iterable | None) -> list[InfoResult]:
    """Each graph's InfoResult given the backgrounds, once every graph and
    background is checked, through one library."""
    graphs, backgrounds = list(graphs), list(backgrounds)
    checks = [("the graph", g) for g in graphs]
    checks += [(f"background {bi}", bg) for bi, bg in enumerate(backgrounds)]
    alphabet = _checked_alphabet(checks, degrees, depth, edge_alphabet)
    library = _Library()
    walks = [_walk(g, [backgrounds], degrees, depth, alphabet, library) for g in graphs]
    return [InfoResult(total=sum(bits, 0.0), steps=tuple(steps)) for steps, (bits,) in walks]


def information_content(
    g: Graph,
    backgrounds: Sequence[Graph],
    degrees: Mapping[Any, int],
    depth: int = 3,
    *,
    edge_alphabet: Iterable | None = None,
) -> InfoResult:
    """Bits to transmit g to a receiver who already knows the backgrounds.

    Replays g's traversal, which starts at vertex 0 and covers every
    component, and sums the negative log probability of every step's
    actual outcome under models built from the backgrounds.  An empty
    background list gives the unconditional estimate, and an empty g costs
    0 bits.  The step log accounts for the total exactly.
    """
    return _information([g], backgrounds, degrees, depth, edge_alphabet)[0]


def information_contents(
    graphs: Iterable[Graph],
    backgrounds: Iterable[Graph],
    degrees: Mapping[Any, int],
    depth: int = 3,
) -> list[InfoResult]:
    """information_content of each graph, in order, given the same backgrounds.

    Every graph and background is checked once, before any is priced.
    Every graph is priced over one edge alphabet, the union of the edge
    labels over the graphs and the backgrounds, so the totals are
    comparable.  The graphs share one library, so each background is
    indexed once, no deeper than the deepest of their walks needs, and
    its memo serves them all.
    """
    return _information(graphs, backgrounds, degrees, depth, None)


# -- batched computations ----------------------------------------------------------


@dataclass(frozen=True)
class TableResult:
    """bits[i][j]: cost of graph i given graph j alone."""

    names: tuple[str, ...]
    bits: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ChainResult:
    """Costs of transmitting the graphs in order, each given its predecessors."""

    items: tuple[tuple[str, float], ...]
    total: float


def _price(cells: list, degrees: dict, depth: int, alphabet: frozenset,
           library: _Library) -> list[float]:
    """Each (target, backgrounds) cell's total, in cell order, through the
    library.

    Each run of cells with the same target, a table row or the part of
    one in a worker's share, or a lone chain item, is priced in one
    traversal of that target.  The caller has checked every graph.
    """
    totals = []
    for _, row in itertools.groupby(cells, key=lambda cell: id(cell[0])):
        row = list(row)
        _, bits = _walk(row[0][0], [bgs for _, bgs in row], degrees, depth, alphabet, library)
        totals += [sum(cell, 0.0) for cell in bits]
    return totals


def _batch(named_graphs: Sequence[tuple[str, Graph]], degrees: Mapping[Any, int], depth: int,
           jobs: int, what: str, pairs) -> tuple[tuple[str, ...], list[float]]:
    """The names and, in cell order, the totals of the cells pairs(graphs)
    lists as (target, backgrounds).

    Every graph is checked once, before any cell, library or worker is
    made, and a bad one is named in the message.  Every cell shares one
    edge-label alphabet, the union over all the graphs, so the numbers
    are comparable.  The cells run in this process, or in
    w = min(jobs, cells, CPUs) worker processes when that is more than
    one: worker k prices cells k, k + w, k + 2w, ... through its own copy
    of the still empty library, so it too indexes each background once
    and walks each row once.  Round-robin shares even out a chain, whose
    later cells carry more backgrounds.
    """
    named = list(named_graphs)
    if not named:
        raise ContextError(f"the {what} needs at least one graph")
    checks = [(f"graph {name!r}", g) for name, g in named]
    alphabet = _checked_alphabet(checks, degrees, depth, None)
    cells = pairs([g for _, g in named])
    settings = dict(degrees), depth, alphabet, _Library()
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers <= 1:
        totals = _price(cells, *settings)
    else:
        # Imported here, so a process that never runs a pool never loads one.
        from concurrent.futures import ProcessPoolExecutor

        totals = [0.0] * len(cells)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = [pool.submit(_price, cells[k::workers], *settings) for k in range(workers)]
            for k, share in enumerate(shares):
                totals[k::workers] = share.result()
    return tuple(name for name, _ in named), totals


def conditional_table(
    named_graphs: Sequence[tuple[str, Graph]],
    degrees: Mapping[Any, int],
    depth: int = 3,
    *,
    jobs: int = 1,
) -> TableResult:
    """Pairwise conditional costs: cell (i, j) prices graph i given graph j.

    The cells are independent.  In one process they share one index of
    each graph as a background and its memo; with jobs above 1 they are
    split over up to jobs worker processes, each of which shares its own
    index across its cells.
    """
    names, totals = _batch(named_graphs, degrees, depth, jobs, "table",
                           lambda graphs: [(a, [b]) for a in graphs for b in graphs])
    n = len(names)
    return TableResult(names=names, bits=tuple(tuple(totals[i * n:(i + 1) * n]) for i in range(n)))


def chain_information(
    named_graphs: Sequence[tuple[str, Graph]],
    degrees: Mapping[Any, int],
    depth: int = 3,
    *,
    jobs: int = 1,
) -> ChainResult:
    """Price the graphs in order, each conditioned on all earlier ones.

    The total is the cost of the whole sequence when transmitter and
    receiver accumulate each graph into their shared knowledge before the
    next one is sent.  Every graph but the last is indexed once as a
    background, for all the later ones, in this process or in each worker
    process that prices one of them.
    """
    names, totals = _batch(named_graphs, degrees, depth, jobs, "chain",
                           lambda graphs: [(g, graphs[:i]) for i, g in enumerate(graphs)])
    return ChainResult(items=tuple(zip(names, totals)), total=sum(totals))
