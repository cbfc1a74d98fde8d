"""Predictive models of graph structure, conditioned on background graphs.

A graph is priced in bits by replaying its traversal and, at every step,
predicting what comes next from a set of fully known background graphs.
The prediction works by matching the already traversed part of the graph
(the decoder's knowledge) against every place in the backgrounds it could
correspond to; each match is scored by the number of vertices plus edges
the correspondence covers within a depth-limited radius.  Scored matches
become a probability distribution over the step's possible outcomes, and
the actual outcome's negative log probability is the step's cost.

With no backgrounds every step falls back to a uniform distribution, so
the unconditional cost is still well defined.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .graph import (
    FreshVertex,
    Graph,
    TraversalState,
    connected_components,
    loop_candidates,
    traverse,
)


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

    A vertex reached over an edge has degree at least 1; only the first
    vertex of a traversal may turn out isolated, so only there is degree
    0 part of the space.
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
    matches: Iterable[ScoredMatch],
    outcome_space: Sequence,
    *,
    match_smoothing: float = 1.0,
    escape_per_outcome: float = 0.5,
) -> PredictiveModel:
    """Turn scored matches into a distribution over the outcome space.

    Each match adds (score + match_smoothing) weight to the outcome it
    predicts, so zero-score matches still count; every outcome also gets
    a fixed escape weight so anything remains encodable.  No matches at
    all therefore yields the uniform distribution.
    """
    space = tuple(outcome_space)
    if not space:
        raise ContextError("outcome space is empty")
    if escape_per_outcome <= 0.0:
        raise ContextError("escape weight must be positive")
    if match_smoothing < 0.0:
        raise ContextError("match smoothing must be non-negative")
    weights = {outcome: escape_per_outcome for outcome in space}
    for match in matches:
        if match.outcome not in weights:
            raise ContextError(
                f"match predicts {match.outcome!r}, which is outside the outcome space"
            )
        weights[match.outcome] += match.score + match_smoothing
    total = sum(weights.values())
    return PredictiveModel({o: w / total for o, w in weights.items()})


# -- the correspondence matcher --------------------------------------------------

_Slots = tuple[tuple[tuple[int, int, Any], ...], ...]  # per vertex: (edge id, far end, label)


def _graph_slots(g: Graph) -> _Slots:
    return tuple(
        tuple((s.edge, s.head, s.label) for s in g.adjacency[v])
        for v in range(g.vertex_count)
    )


def _closed_slots(state: TraversalState) -> _Slots:
    return tuple(
        tuple((s.edge, s.head, s.label) for s in state.closed_edges(v))
        for v in range(state.graph.vertex_count)
    )


def _ball_bounds(slots: _Slots, depth: int) -> list[list[int]]:
    """bounds[d][v]: upper bound on a depth-d match score rooted at v."""
    n = len(slots)
    levels = [[1] * n]
    for _ in range(depth):
        prev = levels[-1]
        levels.append(
            [1 + sum(1 + prev[far] for _, far, _ in slots[v]) for v in range(n)]
        )
    return levels


class _Matcher:
    """Best-correspondence search between a partly known graph and a background.

    Tracks a bijective correspondence over vertex pairs and edge pairs so
    each background vertex or edge is counted at most once per match; the
    score of a match is exactly the number of corresponded vertices plus
    edges.  Bindings are journaled so alternatives can be rolled back,
    and every call leaves the bindings of its best alternative in place.
    """

    __slots__ = (
        "labels1", "slots1", "labels2", "slots2",
        "bound1", "bound2", "vmap", "vinv", "emap", "einv", "journal",
    )

    def __init__(
        self,
        labels1: Sequence,
        slots1: _Slots,
        labels2: Sequence,
        slots2: _Slots,
        depth: int,
        bound2: list[list[int]] | None = None,
    ):
        self.labels1 = labels1
        self.slots1 = slots1
        self.labels2 = labels2
        self.slots2 = slots2
        self.bound1 = _ball_bounds(slots1, depth)
        self.bound2 = bound2 if bound2 is not None else _ball_bounds(slots2, depth)
        self.vmap: dict[int, int] = {}
        self.vinv: dict[int, int] = {}
        self.emap: dict[int, int] = {}
        self.einv: dict[int, int] = {}
        self.journal: list[tuple[int, int, int]] = []

    # binding journal ------------------------------------------------------

    def bind_edge(self, e1: int, e2: int) -> None:
        self.emap[e1] = e2
        self.einv[e2] = e1
        self.journal.append((1, e1, e2))

    def _bind_vertex(self, v1: int, v2: int) -> None:
        self.vmap[v1] = v2
        self.vinv[v2] = v1
        self.journal.append((0, v1, v2))

    def rollback(self, mark: int) -> None:
        journal = self.journal
        while len(journal) > mark:
            tag, a, b = journal.pop()
            if tag:
                del self.emap[a]
                del self.einv[b]
            else:
                del self.vmap[a]
                del self.vinv[b]

    def _apply(self, segment: list[tuple[int, int, int]]) -> None:
        for tag, a, b in segment:
            if tag:
                self.emap[a] = b
                self.einv[b] = a
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
        if v1 in self.vmap or v2 in self.vinv:
            return 0
        self._bind_vertex(v1, v2)
        slots = self.slots1[v1]
        if depth < 1 or not slots:
            return 1
        # caps[i]: upper bound on what slots[i:] can still contribute.
        caps = [0] * (len(slots) + 1)
        level = self.bound1[depth - 1]
        for i in range(len(slots) - 1, -1, -1):
            caps[i] = caps[i + 1] + 1 + level[slots[i][1]]
        return 1 + self._assign(slots, 0, v2, depth, caps)

    def match_edge(
        self, e1: int, far1: int, label1: Any, e2: int, far2: int, label2: Any, depth: int
    ) -> int:
        if label1 != label2:
            return 0
        if e1 in self.emap or e2 in self.einv:
            return 0
        self.bind_edge(e1, e2)
        return 1 + self.match_vertex(far1, far2, depth - 1)

    def _assign(
        self, slots, i: int, v2: int, depth: int, caps: list[int]
    ) -> int:
        """Best total over injective assignments of slots[i:] to v2's edges.

        Each known edge either pairs with an unused background edge or is
        left out; pairing recurses through the far endpoints.  Leaves the
        bindings of the winning alternative applied.
        """
        if i == len(slots):
            return 0
        e1, far1, label1 = slots[i]
        bound_far1 = self.bound1[depth - 1][far1]
        bound2_level = self.bound2[depth - 1]
        best = -1
        best_segment: list | None = None
        for e2, far2, label2 in self.slots2[v2]:
            if best >= caps[i]:
                break  # nothing after this point can improve on best
            if label2 != label1 or e2 in self.einv:
                continue
            if best >= 1 + min(bound_far1, bound2_level[far2]) + caps[i + 1]:
                continue  # this pairing cannot improve on best
            mark = len(self.journal)
            score = self.match_edge(e1, far1, label1, e2, far2, label2, depth)
            if score == 0:
                continue  # nothing was bound; identical to leaving the slot out
            total = score + self._assign(slots, i + 1, v2, depth, caps)
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


def _restricted_slots(g: Graph, known_edges: Iterable[int] | None) -> _Slots:
    if known_edges is None:
        return _graph_slots(g)
    known = set(known_edges)
    return tuple(
        tuple((s.edge, s.head, s.label) for s in g.adjacency[v] if s.edge in known)
        for v in range(g.vertex_count)
    )


def match_vertex(
    g1: Graph,
    v1: int,
    g2: Graph,
    v2: int,
    depth: int,
    *,
    known_edges: Iterable[int] | None = None,
) -> int:
    """Score the best correspondence rooted at (v1, v2).

    0 when the labels differ; otherwise 1 plus the best total over
    injective assignments of v1's known edges to g2 edges, each followed
    through its far endpoint with one less depth.  known_edges restricts
    which of g1's edges count as known (default: all of them).
    """
    if depth < 0:
        raise ContextError("depth must be non-negative")
    matcher = _Matcher(g1.labels, _restricted_slots(g1, known_edges), g2.labels, _graph_slots(g2), depth)
    return matcher.match_vertex(v1, v2, depth)


def match_edge(
    g1: Graph,
    tail1: int,
    edge1: int,
    g2: Graph,
    tail2: int,
    edge2: int,
    depth: int,
    *,
    known_edges: Iterable[int] | None = None,
) -> int:
    """Score edge1 (seen from tail1) against edge2 (seen from tail2).

    0 when the labels differ; otherwise 1 plus the far endpoints' match
    at depth−1.  An edge not in known_edges is open: it can pair with
    anything but scores 0 and is never followed.
    """
    if depth < 0:
        raise ContextError("depth must be non-negative")
    slots1 = _restricted_slots(g1, known_edges)
    s1 = next((s for s in g1.adjacency[tail1] if s.edge == edge1), None)
    s2 = next((s for s in g2.adjacency[tail2] if s.edge == edge2), None)
    if s1 is None or s2 is None:
        raise ContextError("edge is not incident to the given tail vertex")
    if known_edges is not None and edge1 not in set(known_edges):
        return 0  # open edge: admissible against anything, but worthless
    matcher = _Matcher(g1.labels, slots1, g2.labels, _graph_slots(g2), depth)
    return matcher.match_edge(s1.edge, s1.head, s1.label, s2.edge, s2.head, s2.label, depth)


def vertex_matches(
    state: TraversalState,
    backgrounds: Sequence[Graph],
    incoming,
    depth: int,
    *,
    _bounds: Sequence[list[list[int]]] | None = None,
) -> list[ScoredMatch]:
    """Scored predictions for the vertex about to be revealed.

    incoming is the reversed arrival edge (unknown vertex -> source), or
    None for the traversal root.  Every oriented background edge whose
    label matches the arrival edge is a candidate arrival, predicting its
    own source vertex's label and full degree; with no arrival edge every
    background vertex is a candidate at score 0.  The unknown vertex
    itself contributes nothing: matching starts behind it.
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
    labels1 = state.graph.labels
    closed1 = _closed_slots(state)
    for bi, bg in enumerate(backgrounds):
        matcher = _Matcher(
            labels1, closed1, bg.labels, _graph_slots(bg), depth,
            bound2=_bounds[bi] if _bounds is not None else None,
        )
        for v2 in range(bg.vertex_count):
            outcome = VertexOutcome(bg.labels[v2], bg.degree(v2))
            for e2, far2, label2 in matcher.slots2[v2]:
                score = matcher.match_edge(
                    incoming.edge, incoming.head, incoming.label, e2, far2, label2, depth
                )
                if score > 0:
                    matches.append(ScoredMatch((bi, v2, e2), score, outcome))
                matcher.rollback(0)
    return matches


def edge_matches(
    state: TraversalState,
    backgrounds: Sequence[Graph],
    source: int,
    pending_edge: int,
    depth: int,
    candidates: Sequence[int] | None = None,
    *,
    _bounds: Sequence[list[list[int]]] | None = None,
) -> list[ScoredMatch]:
    """Scored predictions for the edge about to be revealed from source.

    Every oriented background edge is a candidate analogue of the pending
    edge; its source vertex is matched against ours (the pending pair is
    pre-bound so the background edge cannot be recounted), and admissible
    matches predict the background edge's label plus whether the step
    stays fresh or closes a loop.  A match whose implied loop target is
    not a legal candidate predicts nothing a decoder could act on and is
    dropped.
    """
    if candidates is None:
        candidates = loop_candidates(state, source)
    if not backgrounds:
        return []
    candidate_set = set(candidates)
    labels1 = state.graph.labels
    closed1 = _closed_slots(state)
    matches: list[ScoredMatch] = []
    for bi, bg in enumerate(backgrounds):
        matcher = _Matcher(
            labels1, closed1, bg.labels, _graph_slots(bg), depth,
            bound2=_bounds[bi] if _bounds is not None else None,
        )
        for v2 in range(bg.vertex_count):
            for e2, far2, label2 in matcher.slots2[v2]:
                matcher.bind_edge(pending_edge, e2)
                score = matcher.match_vertex(source, v2, depth)
                if score > 0:
                    w = matcher.vinv.get(far2)
                    if w is None:
                        matches.append(
                            ScoredMatch((bi, v2, e2), score, EdgeOutcome(label2, None))
                        )
                    elif w in candidate_set:
                        matches.append(
                            ScoredMatch((bi, v2, e2), score, EdgeOutcome(label2, w))
                        )
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
    backgrounds: tuple[str, ...]


def outcome_text(outcome: VertexOutcome | EdgeOutcome) -> str:
    """Render a step outcome for logs and tables."""
    if isinstance(outcome, VertexOutcome):
        return f"vertex {label_text(outcome.label)} degree {outcome.degree}"
    if outcome.target is None:
        return f"edge {label_text(outcome.label)} fresh"
    return f"edge {label_text(outcome.label)} closes {outcome.target}"


def _require_model_graph(g: Graph, what: str, connected: bool) -> None:
    if g.directed:
        raise ContextError(f"{what} must be undirected")
    if connected:
        if g.vertex_count == 0:
            raise ContextError(f"{what} has no vertices")
        if len(connected_components(g)) != 1:
            raise ContextError(f"{what} must be connected; split components first")


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
    background_names: Sequence[str] | None = None,
) -> InfoResult:
    """Bits to transmit g to a receiver who already knows the backgrounds.

    Replays g's traversal from vertex 0 and sums the negative log
    probability of every step's actual outcome under models built from
    the backgrounds.  An empty background list gives the unconditional
    estimate.  The step log accounts for the total exactly.
    """
    backgrounds = list(backgrounds)
    _require_model_graph(g, "the graph", connected=True)
    for bi, bg in enumerate(backgrounds):
        _require_model_graph(bg, f"background {bi}", connected=False)
    if not degrees:
        raise ContextError("the degree map is empty")
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

    space_initial = vertex_outcome_space(degrees, initial=True)
    space_later = vertex_outcome_space(degrees, initial=False)
    bounds = [_ball_bounds(_graph_slots(bg), depth) for bg in backgrounds]
    steps: list[StepRecord] = []

    def on_vertex(state: TraversalState, event) -> None:
        matches = vertex_matches(state, backgrounds, event.incoming, depth, _bounds=bounds)
        space = space_initial if event.incoming is None else space_later
        model = scored_matches_to_model(matches, space)
        outcome = VertexOutcome(event.label, event.degree)
        steps.append(StepRecord(len(steps), "V", outcome, model.nl_pr(outcome)))

    def on_edge(state: TraversalState, event) -> None:
        candidates = loop_candidates(state, event.source)
        matches = edge_matches(
            state, backgrounds, event.source, event.edge, depth,
            candidates=candidates, _bounds=bounds,
        )
        model = scored_matches_to_model(matches, edge_outcome_space(alphabet, candidates))
        resolution = event.resolution
        target = None if isinstance(resolution, FreshVertex) else resolution.target
        outcome = EdgeOutcome(event.label, target)
        steps.append(StepRecord(len(steps), "E", outcome, model.nl_pr(outcome)))

    traverse(g, 0, on_vertex, on_edge)
    if background_names is None:
        names = tuple(f"background {i}" for i in range(len(backgrounds)))
    else:
        names = tuple(background_names)
        if len(names) != len(backgrounds):
            raise ContextError("background_names does not match the background list")
    return InfoResult(
        total=sum(step.bits for step in steps),
        steps=tuple(steps),
        backgrounds=names,
    )


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


def _info_task(args) -> tuple[int, int, float]:
    (key, target, bgs, degrees, depth, alphabet, names) = args
    result = information_content(
        target, bgs, degrees, depth, edge_alphabet=alphabet, background_names=names
    )
    return (*key, result.total)


def _run_tasks(tasks: list, jobs: int) -> list[tuple[int, int, float]]:
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
    tasks = [
        ((i, j), graphs[i], [graphs[j]], dict(degrees), depth, alphabet, (names[j],))
        for i in range(len(named))
        for j in range(len(named))
    ]
    cells = {}
    for i, j, total in _run_tasks(tasks, jobs):
        cells[i, j] = total
    bits = tuple(
        tuple(cells[i, j] for j in range(len(named))) for i in range(len(named))
    )
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
    tasks = [
        ((i, 0), graphs[i], graphs[:i], dict(degrees), depth, alphabet, names[:i])
        for i in range(len(named))
    ]
    totals = {}
    for i, _j, total in _run_tasks(tasks, jobs):
        totals[i] = total
    items = tuple((names[i], totals[i]) for i in range(len(named)))
    return ChainResult(items=items, total=sum(totals.values()))
