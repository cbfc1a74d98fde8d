"""Predictive models of graph structure, conditioned on background graphs.

A graph is priced in bits by replaying its traversal and, at every step,
predicting what comes next from a set of fully known background graphs.
The prediction works by matching the already traversed part of the graph
(the decoder's knowledge) against every place in the backgrounds it could
correspond to; each match is scored by the number of vertices plus edges
the correspondence covers within a depth-limited radius.  Every outcome
the step could reveal gets an escape weight of ESCAPE, each match adds
its score plus one to the outcome it predicts, and the actual outcome's
negative log2 share of the total weight is the step's cost.
information_content computes that share with one division, from the
match list and the number of possible outcomes, without listing the
outcomes; scored_matches_to_model builds the full distribution under the
same rule.

With no backgrounds every step falls back to a uniform distribution, so
the unconditional cost is still well defined.  The traversal covers every
component, so a disconnected or empty graph is priced like any other, as
one stream of steps.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Container, Iterable, Mapping, NamedTuple, Sequence

from .graph import Graph, TraversalState, connected_components, loop_candidates, traverse


class ContextError(ValueError):
    """Inputs violate the conditions the predictive model relies on."""


def label_text(label: Any) -> str:
    """Stable printable form of a vertex or edge label."""
    if isinstance(label, enum.Enum):
        return str(label.value)
    return str(label)


# -- outcomes and models ---------------------------------------------------------


class VertexOutcome(NamedTuple):
    """What a vertex step reveals: the new vertex's label and degree."""

    label: Any
    degree: int


class EdgeOutcome(NamedTuple):
    """What an edge step reveals: the edge's label and where it leads.

    target is None for an edge to a fresh vertex, or the id of the
    visiting vertex it loops back to.
    """

    label: Any
    target: int | None


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


@dataclass(frozen=True)
class PredictiveModel:
    """Finite distribution over an outcome space; prices outcomes in bits."""

    probabilities: dict

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise ContextError("a predictive model needs a non-empty outcome space")
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > 1e-9:
            raise ContextError(f"probabilities sum to {total!r}, not 1")
        if any(p <= 0.0 for p in self.probabilities.values()):
            raise ContextError("every outcome must have positive probability")

    @property
    def outcome_space(self) -> tuple:
        return tuple(self.probabilities)

    def nl_pr(self, outcome) -> float:
        """Negative log2 probability of the outcome, in bits."""
        p = self.probabilities.get(outcome)
        if p is None:
            raise ContextError(f"outcome {outcome!r} is outside the outcome space")
        return -math.log2(p)


def scored_matches_to_model(
    matches: Iterable[ScoredMatch], outcome_space: Sequence
) -> PredictiveModel:
    """Turn scored matches into a distribution over the outcome space.

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
    return PredictiveModel({o: w / total for o, w in weights.items()})


def _step_bits(matches: Iterable[ScoredMatch], outcome, size: int) -> float:
    """Bits for outcome, one of size possible outcomes, under the weight rule.

    The same number scored_matches_to_model(...).nl_pr(outcome) gives, bit
    for bit: every weight is a multiple of 1/2, so both sums are exact and
    the one division rounds as the distribution's does.
    """
    hit = total = 0
    for m in matches:
        total += m.score + 1
        if m.outcome == outcome:
            hit += m.score + 1
    return -math.log2((ESCAPE + hit) / (ESCAPE * size + total))


# -- the correspondence matcher --------------------------------------------------


class _Side:
    """Matcher data for one graph, over all its edges or only the known ones.

    slots[v] lists v's known edges in adjacency order as (edge, far end,
    label), and buckets[v] groups them by label as (edge, far end) pairs
    in the same order.  bounds[d][v] is an upper bound on a depth-d match
    score rooted at v, and caps[d][v][i] one on what slots[v][i:] can
    still add to it.  add() keeps all four current as edges become known.
    """

    __slots__ = ("graph", "depth", "known", "slots", "buckets", "bounds", "caps")

    def __init__(self, g: Graph, depth: int, known: Container[int] | None = None):
        n = g.vertex_count
        self.graph = g
        self.depth = depth
        self.known = [known is None or e in known for e in range(g.edge_count)]
        self.slots: list[tuple[tuple[int, int, Any], ...]] = [()] * n
        self.buckets: list[dict[Any, list[tuple[int, int]]]] = [{}] * n
        for v in range(n):
            self._reslot(v)
        self.bounds = [[1] * n for _ in range(depth + 1)]
        # caps[0] is never read: a depth-0 match follows no edges.
        self.caps: list = [None] + [[None] * n for _ in range(depth)]
        self._refresh(range(n))

    def _reslot(self, v: int) -> None:
        known = self.known
        slots = tuple((s.edge, s.head, s.label) for s in self.graph.adjacency[v] if known[s.edge])
        buckets: dict[Any, list[tuple[int, int]]] = {}
        for e, far, label in slots:
            buckets.setdefault(label, []).append((e, far))
        self.slots[v] = slots
        self.buckets[v] = buckets

    def _refresh(self, vertices: Iterable[int]) -> None:
        slots = self.slots
        for d in range(1, self.depth + 1):
            below, level, caps = self.bounds[d - 1], self.bounds[d], self.caps[d]
            for v in vertices:
                here = slots[v]
                cap = [0] * (len(here) + 1)
                for i in range(len(here) - 1, -1, -1):
                    cap[i] = cap[i + 1] + 1 + below[here[i][1]]
                caps[v] = cap
                level[v] = 1 + cap[0]

    def add(self, edge: int) -> None:
        """Make edge known.

        Its two ends get new slots, so their level-d bounds change, and
        through them those of every vertex within d - 1 of either end:
        only that ball is refreshed.
        """
        u, w, _ = self.graph.edges[edge]
        self.known[edge] = True
        self._reslot(u)
        self._reslot(w)
        ball = frontier = {u, w}
        for _ in range(self.depth - 1):
            frontier = {far for v in frontier for _, far, _ in self.slots[v]} - ball
            ball = ball | frontier
        self._refresh(ball)


class _Matcher:
    """Best-correspondence search between a partly known graph and a background.

    Tracks a bijective correspondence over vertex pairs and edge pairs so
    each background vertex or edge is counted at most once per match; the
    score of a match is exactly the number of corresponded vertices plus
    edges.  The maps are lists indexed by id, -1 where unbound.  Bindings
    are journaled, (v1, v2) for a vertex pair and (~e1, e2) for an edge
    pair, so alternatives can be rolled back, and every call leaves the
    bindings of its best alternative in place.  The sides' tables are
    shared, not copied, so a matcher rolled back to an empty journal
    serves the next step as the target side learns edges.
    """

    __slots__ = (
        "labels1", "slots1", "bounds1", "caps1", "labels2", "slots2", "buckets2", "bounds2",
        "vmap", "vinv", "emap", "einv", "journal",
    )

    def __init__(self, side1: _Side, side2: _Side):
        self.labels1 = side1.graph.labels
        self.slots1 = side1.slots
        self.bounds1 = side1.bounds
        self.caps1 = side1.caps
        self.labels2 = side2.graph.labels
        self.slots2 = side2.slots
        self.buckets2 = side2.buckets
        self.bounds2 = side2.bounds
        self.vmap = [-1] * side1.graph.vertex_count
        self.vinv = [-1] * side2.graph.vertex_count
        self.emap = [-1] * side1.graph.edge_count
        self.einv = [-1] * side2.graph.edge_count
        self.journal: list[tuple[int, int]] = []

    # binding journal ------------------------------------------------------

    def bind_edge(self, e1: int, e2: int) -> None:
        self.emap[e1] = e2
        self.einv[e2] = e1
        self.journal.append((~e1, e2))

    def rollback(self, mark: int) -> None:
        journal = self.journal
        while len(journal) > mark:
            a, b = journal.pop()
            if a < 0:
                self.emap[~a] = -1
                self.einv[b] = -1
            else:
                self.vmap[a] = -1
                self.vinv[b] = -1

    def _apply(self, segment: list[tuple[int, int]]) -> None:
        for a, b in segment:
            if a < 0:
                self.emap[~a] = b
                self.einv[b] = ~a
            else:
                self.vmap[a] = b
                self.vinv[b] = a
        self.journal.extend(segment)

    # scoring --------------------------------------------------------------

    def match_vertex(self, v1: int, v2: int, depth: int) -> int:
        if self.labels1[v1] != self.labels2[v2]:
            return 0
        # Already-corresponded vertices were counted when first bound; a
        # contradictory pairing is worth nothing either.
        if self.vmap[v1] >= 0 or self.vinv[v2] >= 0:
            return 0
        self.vmap[v1] = v2
        self.vinv[v2] = v1
        self.journal.append((v1, v2))
        slots = self.slots1[v1]
        if depth < 1 or not slots:
            return 1
        return 1 + self._assign(slots, 0, v2, depth, self.caps1[depth][v1])

    def match_edge(self, e1: int, far1: int, e2: int, far2: int, depth: int) -> int:
        """Pair two unbound edges of the same label and match their far ends."""
        self.bind_edge(e1, e2)
        return 1 + self.match_vertex(far1, far2, depth - 1)

    def _assign(self, slots, i: int, v2: int, depth: int, caps: list[int]) -> int:
        """Best total over injective assignments of slots[i:] to v2's edges.

        Each known edge either pairs with an unused background edge of its
        label or is left out; pairing recurses through the far endpoints.
        Leaves the bindings of the winning alternative applied.
        """
        if i == len(slots):
            return 0
        e1, far1, label1 = slots[i]
        best = -1
        best_segment: list | None = None
        if self.emap[e1] < 0:  # a bound edge (the way back, say) pairs with nothing
            bound_far1 = self.bounds1[depth - 1][far1]
            bound2_level = self.bounds2[depth - 1]
            einv = self.einv
            for e2, far2 in self.buckets2[v2].get(label1, ()):
                if best >= caps[i]:
                    break  # nothing after this point can improve on best
                if einv[e2] >= 0:
                    continue
                if best >= 1 + min(bound_far1, bound2_level[far2]) + caps[i + 1]:
                    continue  # this pairing cannot improve on best
                mark = len(self.journal)
                total = self.match_edge(e1, far1, e2, far2, depth)
                total += self._assign(slots, i + 1, v2, depth, caps)
                if total > best:
                    best = total
                    best_segment = self.journal[mark:]
                self.rollback(mark)
        if best < caps[i + 1]:
            mark = len(self.journal)
            total = self._assign(slots, i + 1, v2, depth, caps)
            if total > best:
                best = total
                best_segment = self.journal[mark:]
            self.rollback(mark)
        if best <= 0:
            return 0
        self._apply(best_segment)
        return best


# -- public matching entry points -------------------------------------------------


# One matcher per background, each between the traversal's known part (one
# side shared by all of them) and that background.
_Sides = list[_Matcher]


def _sides_from_state(
    state: TraversalState, backgrounds: Sequence[Graph], depth: int
) -> _Sides:
    """The matchers information_content keeps across steps, built for one call."""
    g = state.graph
    closed = {e for e in range(g.edge_count) if state.is_closed(e)}
    target = _Side(g, depth, closed)
    return [_Matcher(target, _Side(bg, depth)) for bg in backgrounds]


def vertex_matches(
    state: TraversalState,
    backgrounds: Sequence[Graph],
    incoming,
    depth: int,
    *,
    _sides: _Sides | None = None,
) -> list[ScoredMatch]:
    """Scored predictions for the vertex about to be revealed.

    incoming is the reversed arrival edge (unknown vertex -> source), or
    None for a root (each component's first vertex).  Every oriented
    background edge whose label matches the arrival edge is a candidate
    arrival, predicting its own source vertex's label and full degree;
    with no arrival edge every background vertex is a candidate at score
    0.  The unknown vertex itself contributes nothing: matching starts
    behind it.
    """
    matches: list[ScoredMatch] = []
    if incoming is None:
        for bi, bg in enumerate(backgrounds):
            for v2 in range(bg.vertex_count):
                outcome = VertexOutcome(bg.labels[v2], bg.degree(v2))
                matches.append(ScoredMatch((bi, v2), 0, outcome))
        return matches
    if not backgrounds:
        return matches
    depth = min(depth, state.graph.vertex_count)  # see information_content
    matchers = _sides if _sides is not None else _sides_from_state(state, backgrounds, depth)
    e1, far1, label1 = incoming.edge, incoming.head, incoming.label
    for bi, (bg, matcher) in enumerate(zip(backgrounds, matchers)):
        for v2, buckets in enumerate(matcher.buckets2):
            arrivals = buckets.get(label1)
            if arrivals is None:
                continue
            outcome = VertexOutcome(bg.labels[v2], bg.degree(v2))
            for e2, far2 in arrivals:
                score = matcher.match_edge(e1, far1, e2, far2, depth)
                matches.append(ScoredMatch((bi, v2, e2), score, outcome))
                matcher.rollback(0)
    return matches


def edge_matches(
    state: TraversalState,
    backgrounds: Sequence[Graph],
    source: int,
    pending_edge: int,
    depth: int,
    *,
    _sides: _Sides | None = None,
) -> list[ScoredMatch]:
    """Scored predictions for the edge about to be revealed from source.

    Every oriented background edge leaving a vertex with the source's
    label is a candidate analogue of the pending edge; its source vertex
    is matched against ours (the pending pair is pre-bound so the
    background edge cannot be recounted), and the match predicts the
    background edge's label plus whether the step stays fresh or closes
    a loop.  A match whose implied loop target is not a legal candidate
    predicts nothing a decoder could act on and is dropped.
    """
    if not backgrounds:
        return []
    depth = min(depth, state.graph.vertex_count)  # see information_content
    candidate_set = set(loop_candidates(state, source))
    matchers = _sides if _sides is not None else _sides_from_state(state, backgrounds, depth)
    label = state.graph.labels[source]
    matches: list[ScoredMatch] = []
    for bi, (bg, matcher) in enumerate(zip(backgrounds, matchers)):
        vinv = matcher.vinv
        for v2, slots in enumerate(matcher.slots2):
            if bg.labels[v2] != label:
                continue
            for e2, far2, label2 in slots:
                matcher.bind_edge(pending_edge, e2)
                score = matcher.match_vertex(source, v2, depth)
                w = vinv[far2]
                if w < 0:
                    matches.append(ScoredMatch((bi, v2, e2), score, EdgeOutcome(label2, None)))
                elif w in candidate_set:
                    matches.append(ScoredMatch((bi, v2, e2), score, EdgeOutcome(label2, w)))
                matcher.rollback(0)
    return matches


# -- whole-graph information content ----------------------------------------------


@dataclass(frozen=True)
class StepRecord:
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


def _require_model_graph(g: Graph, what: str) -> None:
    if g.directed:
        raise ContextError(f"{what} must be undirected")


def _check_degrees(g: Graph, degrees: Mapping[Any, int], what: str) -> None:
    for v in range(g.vertex_count):
        label = g.labels[v]
        if label not in degrees:
            raise ContextError(
                f"{what} vertex {v} has label {label_text(label)} with no declared maximum degree"
            )
        if g.degree(v) > degrees[label]:
            raise ContextError(
                f"{what} vertex {v} has degree {g.degree(v)}, above the declared "
                f"maximum {degrees[label]} for label {label_text(label)}"
            )


def _shared_edge_alphabet(graphs: Iterable[Graph]) -> tuple:
    labels = {e.label for g in graphs for e in g.edges}
    return tuple(sorted(labels, key=label_text))


def information_content(
    g: Graph,
    backgrounds: Sequence[Graph],
    degrees: Mapping[Any, int],
    depth: int = 3,
    *,
    edge_alphabet: Sequence | None = None,
) -> InfoResult:
    """Bits to transmit g to a receiver who already knows the backgrounds.

    Replays g's traversal, which starts at vertex 0 and covers every
    component, and sums the negative log probability of every step's
    actual outcome under models built from the backgrounds.  An empty
    background list gives the unconditional estimate, and an empty g costs
    0 bits.  The step log accounts for the total exactly.
    """
    backgrounds = list(backgrounds)
    _require_model_graph(g, "the graph")
    for bi, bg in enumerate(backgrounds):
        _require_model_graph(bg, f"background {bi}")
    for label, limit in degrees.items():
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ContextError(
                f"declared maximum degree for {label_text(label)} must be a positive integer"
            )
    if depth < 0:
        raise ContextError("depth must be non-negative")
    _check_degrees(g, degrees, "graph")
    for bi, bg in enumerate(backgrounds):
        _check_degrees(bg, degrees, f"background {bi}")

    if edge_alphabet is None:
        alphabet = _shared_edge_alphabet([g] + backgrounds)
    else:
        alphabet = tuple(edge_alphabet)
        present = {e.label for bg in [g] + backgrounds for e in bg.edges}
        missing = present - set(alphabet)
        if missing:
            raise ContextError(
                f"edge label {label_text(sorted(missing, key=label_text)[0])} "
                "is not in the edge alphabet"
            )

    # Outcome counts: a later vertex has degree 1..limit, a root 0..limit.
    size_later = sum(degrees.values())
    size_initial = size_later + len(degrees)
    edge_labels = len(set(alphabet))
    # Each level of a match's recursion binds a vertex of g that no outer
    # level has bound, and a vertex step never binds the vertex it reveals;
    # a match stays inside one component of g.  Capped at the largest
    # component's vertex count, the depth still leaves every vertex a match
    # binds at depth >= 1, where it looks at all its edges: no score or
    # binding changes, and the sides' per-depth tables stay small.
    # Each background is indexed once and gets one matcher for the call; the
    # target side they share starts with no edge known and learns each edge
    # as the traversal closes it.
    target = sides = None
    if backgrounds:
        depth = min(depth, max((c.vertex_count for c in connected_components(g)), default=0))
        target = _Side(g, depth, ())
        sides = [_Matcher(target, _Side(bg, depth)) for bg in backgrounds]
    steps: list[StepRecord] = []

    def on_vertex(state: TraversalState, event) -> None:
        matches = vertex_matches(state, backgrounds, event.incoming, depth, _sides=sides)
        size = size_initial if event.incoming is None else size_later
        outcome = VertexOutcome(event.label, event.degree)
        steps.append(StepRecord(len(steps), "V", outcome, _step_bits(matches, outcome, size)))

    def on_edge(state: TraversalState, event) -> None:
        matches = edge_matches(state, backgrounds, event.source, event.edge, depth, _sides=sides)
        outcome = EdgeOutcome(event.label, event.target)
        size = edge_labels * (1 + len(loop_candidates(state, event.source)))
        steps.append(StepRecord(len(steps), "E", outcome, _step_bits(matches, outcome, size)))
        if target is not None:
            target.add(event.edge)  # traverse closes the edge as this returns

    traverse(g, on_vertex, on_edge)
    return InfoResult(total=sum((step.bits for step in steps), 0.0), steps=tuple(steps))


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


def _info_task(args) -> float:
    target, bgs, degrees, depth, alphabet = args
    return information_content(target, bgs, degrees, depth, edge_alphabet=alphabet).total


def _run_tasks(tasks: list, jobs: int) -> list[float]:
    """Each task's total, in task order."""
    if jobs <= 1 or len(tasks) <= 1:
        return [_info_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_info_task, tasks))


def conditional_table(
    named_graphs: Sequence[tuple[str, Graph]],
    degrees: Mapping[Any, int],
    depth: int = 3,
    *,
    jobs: int = 1,
) -> TableResult:
    """Pairwise conditional costs: cell (i, j) prices graph i given graph j.

    One edge-label alphabet, the union over all the graphs, is shared by
    every cell so the numbers are comparable.  Cells are independent and
    may be computed by up to `jobs` worker processes.
    """
    named = list(named_graphs)
    if not named:
        raise ContextError("the table needs at least one graph")
    names = tuple(name for name, _ in named)
    graphs = [g for _, g in named]
    alphabet = _shared_edge_alphabet(graphs)
    degrees = dict(degrees)
    n = len(graphs)
    tasks = [(graphs[i], [graphs[j]], degrees, depth, alphabet)
             for i in range(n) for j in range(n)]
    totals = _run_tasks(tasks, jobs)
    bits = tuple(tuple(totals[i * n:(i + 1) * n]) for i in range(n))
    return TableResult(names=names, bits=bits)


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
    next one is sent.
    """
    named = list(named_graphs)
    if not named:
        raise ContextError("the chain needs at least one graph")
    names = tuple(name for name, _ in named)
    graphs = [g for _, g in named]
    alphabet = _shared_edge_alphabet(graphs)
    degrees = dict(degrees)
    tasks = [(graphs[i], graphs[:i], degrees, depth, alphabet) for i in range(len(graphs))]
    totals = _run_tasks(tasks, jobs)
    return ChainResult(items=tuple(zip(names, totals)), total=sum(totals))
