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
import itertools
import math
import os
from dataclasses import dataclass
from typing import Any, Container, Iterable, Mapping, NamedTuple, Sequence

from .graph import Graph, TraversalState, VertexEvent, connected_components, traverse


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


def _step_bits(hit: int, total: int, size: int) -> float:
    """Bits for an outcome, one of size possible outcomes, under the weight
    rule, when the step's matches weigh total and those predicting it hit.

    The same number scored_matches_to_model(...).nl_pr(outcome) gives, bit
    for bit: every weight is a multiple of 1/2, so both sums are exact and
    the one division rounds as the distribution's does.
    """
    return -math.log2((ESCAPE + hit) / (ESCAPE * size + total))


# -- the correspondence matcher --------------------------------------------------


class _Side:
    """Matcher data for one graph, over all its edges or only the known ones.

    slots[v] lists v's known edges in adjacency order as (edge, far end,
    label).  bounds[d][v] is an upper bound on a depth-d match score
    rooted at v, and caps[d][v][i] one on what slots[v][i:] can still add
    to it.  add() keeps all three current as edges become known.  A side
    over all its edges is a background, which the matcher also looks up
    by label: buckets[v] groups slots[v] by label as (edge, far end)
    pairs in the same order.  The step loops list their candidates from
    two more lookups, each in vertex id order and then slot order, that
    share one (v, edge, far end, v's VertexOutcome, the edge's fresh
    EdgeOutcome) tuple per slot: arrivals[label] lists the slots of that
    edge label, and leaving[label] the slots of the vertices of that
    label.  vertex_memo and edge_memo map a step's context key to the
    results of its candidates here (see _Pricer).  A side over known
    edges has none of these.
    """

    __slots__ = ("graph", "depth", "known", "slots", "buckets", "arrivals", "leaving",
                 "vertex_memo", "edge_memo", "bounds", "caps")

    def __init__(self, g: Graph, depth: int, known: Container[int] | None = None):
        n = g.vertex_count
        self.graph = g
        self.depth = depth
        self.known = [known is None or e in known for e in range(g.edge_count)]
        self.slots: list[tuple[tuple[int, int, Any], ...]] = [()] * n
        for v in range(n):
            self._reslot(v)
        self.buckets: list[dict[Any, list[tuple[int, int]]]] | None = None
        self.arrivals: dict[Any, list[tuple]] | None = None
        self.leaving: dict[Any, list[tuple]] | None = None
        self.vertex_memo: dict[tuple, bytes | tuple[int, ...]] | None = None
        self.edge_memo: dict[tuple, bytes | tuple[int, ...]] | None = None
        if known is None:
            self.buckets = []
            self.arrivals = {}
            self.leaving = {}
            fresh = {label: EdgeOutcome(label, None) for _, _, label in g.edges}
            for v, here in enumerate(self.slots):
                buckets: dict[Any, list[tuple[int, int]]] = {}
                outcome = VertexOutcome(g.labels[v], len(here))
                leaving = self.leaving.setdefault(g.labels[v], [])
                for e, far, label in here:
                    buckets.setdefault(label, []).append((e, far))
                    slot = (v, e, far, outcome, fresh[label])
                    self.arrivals.setdefault(label, []).append(slot)
                    leaving.append(slot)
                self.buckets.append(buckets)
            self.vertex_memo = {}
            self.edge_memo = {}
        self.bounds = [[1] * n for _ in range(depth + 1)]
        # caps[0] is never read: a depth-0 match follows no edges.
        self.caps: list = [None] + [[None] * n for _ in range(depth)]
        for d in range(1, depth + 1):
            self._refresh(d, range(n))

    def _reslot(self, v: int) -> None:
        known = self.known
        self.slots[v] = tuple(
            (s.edge, s.head, s.label) for s in self.graph.adjacency[v] if known[s.edge])

    def _refresh(self, d: int, vertices: Iterable[int]) -> None:
        """Recompute level d of bounds and caps at the vertices."""
        slots = self.slots
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
        level d is refreshed on that ball only.
        """
        u, w, _ = self.graph.edges[edge]
        self.known[edge] = True
        self._reslot(u)
        self._reslot(w)
        ball = frontier = {u, w}
        for d in range(1, self.depth + 1):
            self._refresh(d, ball)
            if d < self.depth:
                frontier = {far for v in frontier for _, far, _ in self.slots[v]} - ball
                ball = ball | frontier


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

    The search prunes with upper bounds only, and the bounds account for
    the bindings made so far: a far end that cannot pair adds only its
    edge, and a vertex reached over an edge gets nothing back from that
    edge.  A winning value is the size of a real correspondence, the
    number of bindings it makes, so an alternative whose bound is at most
    the best value so far, or below the least value the caller can still
    use, cannot be the strictly better one and is never tried.  The
    winner is still the first alternative to reach the best value, so its
    bindings and every score are those of the unpruned search.

    _assign is the one search core.  _Pricer's step methods read each
    step's target data once, make a candidate's first bindings in place
    and enter _assign directly, or score the candidate without a search
    where none can add to it.  The tests run a search from nothing bound
    through the same core.
    """

    __slots__ = (
        "labels1", "slots1", "bounds1", "caps1", "labels2", "buckets2", "bounds2",
        "vmap", "vinv", "emap", "einv", "journal",
    )

    def __init__(self, side1: _Side, side2: _Side):
        self.labels1 = side1.graph.labels
        self.slots1 = side1.slots
        self.bounds1 = side1.bounds
        self.caps1 = side1.caps
        self.labels2 = side2.graph.labels
        self.buckets2 = side2.buckets
        self.bounds2 = side2.bounds
        self.vmap = [-1] * side1.graph.vertex_count
        self.vinv = [-1] * side2.graph.vertex_count
        self.emap = [-1] * side1.graph.edge_count
        self.einv = [-1] * side2.graph.edge_count
        self.journal: list[tuple[int, int]] = []

    # binding journal ------------------------------------------------------

    def rollback(self, mark: int) -> None:
        journal, vmap, vinv, emap, einv = self.journal, self.vmap, self.vinv, self.emap, self.einv
        for a, b in journal[mark:]:
            if a < 0:
                emap[~a] = -1
                einv[b] = -1
            else:
                vmap[a] = -1
                vinv[b] = -1
        del journal[mark:]

    def _apply(self, segment: list[tuple[int, int]]) -> None:
        for a, b in segment:
            if a < 0:
                self.emap[~a] = b
                self.einv[b] = ~a
            else:
                self.vmap[a] = b
                self.vinv[b] = a
        self.journal.extend(segment)

    def _assign(self, v1: int, i: int, v2: int, depth: int, caps: list[int],
                share: int, back: int, need: int) -> int:
        """Best total over injective assignments of v1's slots[i:] to v2's edges.

        Each known edge either pairs with an unused background edge of its
        label or is left out; pairing recurses through the far endpoints.
        A slot that is bound, or whose label no edge at v2 carries, can
        only be left out, so it is passed over without a frame of its own.
        A best of at least need is returned with the bindings of the first
        alternative to reach it applied.  A smaller best is of no use to
        the caller: some number below need comes back instead, with nothing
        applied.  i is below the slot count.  When share is not 0, the bound
        edge back is one of slots[i:], the way back to the vertex the search
        came from, and can add nothing: share, its part of caps, comes off
        every cap up to its slot.
        """
        slots = self.slots1[v1]
        emap = self.emap
        buckets = self.buckets2[v2]
        e1, far1, label1 = slots[i]
        # A bound edge pairs with nothing, and an edge of a label v2 lacks
        # pairs with nothing either: leave it out.
        while emap[e1] >= 0 or label1 not in buckets:
            if e1 == back:
                share = 0
            i += 1
            if i == len(slots):
                return 0
            e1, far1, label1 = slots[i]
        # Slot i is unbound, so back, if share still counts, lies beyond it.
        # rest is 0 when nothing but the way back follows slot i: every
        # other slot adds at least 2 to the caps.
        cap = caps[i] - share
        rest = caps[i + 1] - share
        journal = self.journal
        mark = len(journal)
        best = need - 1
        live = False  # whether best's bindings are the ones applied
        segment: list = []
        labels2, vmap, vinv, einv = self.labels2, self.vmap, self.vinv, self.einv
        label_far1 = self.labels1[far1]
        bounds2 = self.bounds2[depth - 1]
        # Paired, far1 and its match each have their slot for the pair
        # bound, the way back, so neither bound counts it.
        if depth > 1:
            back1 = 1 + self.bounds1[depth - 2][v1]
            back2 = 1 + self.bounds2[depth - 2][v2]
            reach1 = self.bounds1[depth - 1][far1] - back1
            far_caps = self.caps1[depth - 1][far1]
        for e2, far2 in buckets[label1]:
            if best >= cap:
                break  # nothing after this point can improve on best
            if live:
                segment = journal[mark:]
                self.rollback(mark)
                live = False
            if einv[e2] >= 0:
                continue
            # A far end that cannot pair adds nothing beyond the edge.
            dead = label_far1 != labels2[far2] or vmap[far1] >= 0 or vinv[far2] >= 0
            if dead:
                reach = 0
            elif depth > 1:
                reach = bounds2[far2] - back2
                if reach > reach1:
                    reach = reach1
            else:
                reach = 1
            if best >= 1 + reach + rest:
                continue  # this pairing cannot improve on best
            emap[e1] = e2
            einv[e2] = e1
            journal.append((~e1, e2))
            total = 1
            if not dead:
                vmap[far1] = far2
                vinv[far2] = far1
                journal.append((far1, far2))
                total = 2
                if reach > 1:
                    total += self._assign(far1, 0, far2, depth - 1, far_caps, back1, e1,
                                          best + 1 - total - rest)
                    if total + rest <= best:  # the rest cannot make up the shortfall
                        self.rollback(mark)
                        continue
            if rest:
                total += self._assign(v1, i + 1, v2, depth, caps, share, back, best + 1 - total)
            if total > best:
                best = total
                live = True
            else:
                self.rollback(mark)
        if best < rest:  # leaving the slot out can still win
            if best < need:
                return self._assign(v1, i + 1, v2, depth, caps, share, back, need) if rest else 0
            if live:
                segment = journal[mark:]
                self.rollback(mark)
            total = self._assign(v1, i + 1, v2, depth, caps, share, back, best + 1)
            if total > best:
                return total
            self.rollback(mark)
            live = False
        if best < need:
            return best
        if not live:
            self._apply(segment)
        return best


def _largest_component(g: Graph) -> int:
    return max((c.vertex_count for c in connected_components(g)), default=0)


def _compact(values: list[int]) -> bytes | tuple[int, ...]:
    """A memo entry: bytes when every value fits in one, else a tuple."""
    try:
        return bytes(values)
    except ValueError:
        return tuple(values)


# Stands in a vertex step's key for the arriving vertex's label, which no
# search reads: its one known edge is the arrival edge, and that is bound.
_HIDDEN = object()


class _Library:
    """Background sides shared by the pricers of one batch call, of one
    worker's share of it, or of one info command's targets.

    depth is capped at the largest component of any of the graphs the
    library will price, so no pricer's capped depth is deeper, and a
    matcher never reads the levels past its own.  side(bg) builds bg's
    side the first time a pricer asks for it, so each background is
    indexed once and its memos serve every cell the library prices.
    keys interns the context keys, so a key that several sides' memos
    hold is stored once.
    """

    __slots__ = ("depth", "sides", "keys")

    def __init__(self, depth: int, graphs: Iterable[Graph] = ()):
        self.depth = min(depth, max(map(_largest_component, graphs), default=depth))
        self.sides: dict[int, _Side] = {}
        self.keys: dict[tuple, tuple] = {}

    def side(self, bg: Graph) -> _Side:
        side = self.sides.get(id(bg))
        if side is None:
            side = self.sides[id(bg)] = _Side(bg, self.depth)
        return side


class _Pricer:
    """The matcher state of one traversal of g, built once and kept current.

    With backgrounds it holds the capped depth, one target side over g's
    known edges, a side and a matcher per background around it, and the
    table that interns context keys; the traversal makes each edge known
    on the target side as it closes it.  A table row's walk (see _walk)
    passes the backgrounds of all the row's cells, so the target side,
    each step's context key and each step's call serve every cell of the
    row.  The background sides and the key table always come from a
    library: the caller's when one is given, or one the pricer builds
    at its own capped depth.  With no backgrounds it builds no side, and
    its step methods are never called.

    The depth is capped at g's largest component's vertex count.  Each
    level of a match's recursion binds a vertex of g that no outer level
    has bound, and a vertex step never binds the vertex it reveals; a
    match stays inside one component of g.  Capped there, the depth still
    leaves every vertex a match binds at depth >= 1, where it looks at all
    its edges: no score or binding changes, and the sides' per-depth
    tables stay small.

    A step's searches read only the target's known ball of radius r
    around the root: depth from the source for an edge step, depth - 1
    from the vertex the arrival edge leads back to for a vertex step.
    The step codes that ball as its context key (see _context), and each
    background side memoises its candidates' results by key, so a step
    whose context some earlier step of the call had runs no search on
    that background.  The memoised results are a vertex step's scores,
    and an edge step's scores with each bound far end's number in the
    ball; the matches are rebuilt from them in candidate order.
    """

    __slots__ = ("depth", "target", "sides", "matchers", "keys")

    def __init__(self, g: Graph, backgrounds: Sequence[Graph], depth: int, known=(),
                 library: _Library | None = None):
        if backgrounds:
            depth = min(depth, _largest_component(g))
        if library is None:
            library = _Library(depth)
        self.depth = depth
        self.keys = library.keys
        self.target = _Side(g, depth, known) if backgrounds else None
        self.sides = [library.side(bg) for bg in backgrounds]
        self.matchers = [_Matcher(self.target, side) for side in self.sides]

    def _context(self, key: list, root: int, radius: int,
                 hidden: int = -1) -> tuple[tuple, dict[int, int]]:
        """The context key: key followed by the code of the target's known
        ball around root, interned.

        The vertices are numbered in breadth-first order from root over
        the known slots, out to radius.  A vertex inside the radius adds
        its label, its slot count and each slot as (edge label, far end's
        number), in slot order; a vertex on the radius adds its label
        alone.  That is all a search rooted there reads, and the code
        rebuilds the ball up to the numbering: two steps with one key see
        the same candidates, search them the same way and bind the same
        numbered vertices.  hidden's label is coded as _HIDDEN.  Also
        returns the map from each ball vertex to its number, which lists
        the vertices in number order.
        """
        labels, slots = self.target.graph.labels, self.target.slots
        number = {root: 0}
        order = [root]
        start = 0
        for _ in range(radius):
            end = len(order)
            for v in order[start:end]:
                here = slots[v]
                key += (_HIDDEN if v == hidden else labels[v], len(here))
                for _, far, label in here:
                    n = number.get(far)
                    if n is None:
                        n = number[far] = len(order)
                        order.append(far)
                    key += (label, n)
            start = end
        for v in order[start:]:
            key.append(_HIDDEN if v == hidden else labels[v])
        key = tuple(key)
        return self.keys.setdefault(key, key), number

    def vertex_step(self, incoming) -> list[ScoredMatch]:
        """vertex_matches for an arrival edge, over the known edges."""
        depth, target = self.depth, self.target
        # Every matcher shares the target side, so its data is read once.  The
        # arrival edge closed before this step, so it is a known slot of far1,
        # the way back from every search rooted there.
        e1, far1, label1 = incoming.edge, incoming.head, incoming.label
        key, _ = self._context([depth, label1], far1, depth - 1, incoming.tail)
        root_label = target.graph.labels[far1]
        if depth > 1:
            caps = target.caps[depth - 1][far1]
            share = 1 + target.bounds[depth - 2][incoming.tail]
        matches: list[ScoredMatch] = []
        for bi, (side, matcher) in enumerate(zip(self.sides, self.matchers)):
            arrivals = side.arrivals.get(label1)
            if arrivals is None:
                continue
            scores = side.vertex_memo.get(key)
            if scores is None:
                labels2, vmap, vinv, emap, einv = (
                    matcher.labels2, matcher.vmap, matcher.vinv, matcher.emap, matcher.einv)
                journal = matcher.journal
                scores = []
                for _, e2, far2, _, _ in arrivals:
                    # The edge scores 1 and a far end of far1's label 1 more;
                    # only below depth 2 does a search have nothing to add.
                    if labels2[far2] != root_label:
                        score = 1
                    elif depth < 2:
                        score = 2
                    else:
                        emap[e1] = e2
                        einv[e2] = e1
                        vmap[far1] = far2
                        vinv[far2] = far1
                        journal.append((~e1, e2))
                        journal.append((far1, far2))
                        score = 2 + matcher._assign(far1, 0, far2, depth - 1, caps, share, e1, 0)
                        matcher.rollback(0)
                    scores.append(score)
                scores = side.vertex_memo[key] = _compact(scores)
            matches += [ScoredMatch((bi, v2, e2), score, outcome)
                        for (v2, e2, _, outcome, _), score in zip(arrivals, scores)]
        return matches

    def edge_step(self, state: TraversalState, source: int, pending_edge: int) -> list[ScoredMatch]:
        """edge_matches for the pending edge, over the known edges."""
        depth, target = self.depth, self.target
        label = target.graph.labels[source]
        key, number = self._context([depth], source, depth)
        ball = list(number)
        # The source's own pair scores 1; a search adds what its known edges
        # match, and with none it binds no far end, so the step stays fresh.
        search = depth >= 1 and bool(target.slots[source])
        if search:
            caps = target.caps[depth][source]
        matches: list[ScoredMatch] = []
        for bi, (side, matcher) in enumerate(zip(self.sides, self.matchers)):
            leaving = side.leaving.get(label)
            if leaving is None:
                continue
            # Per candidate: its score, then 0 for a fresh outcome or 1 plus
            # the number of the ball vertex its far end is bound to.
            results = side.edge_memo.get(key)
            if results is None:
                vmap, vinv, emap, einv = matcher.vmap, matcher.vinv, matcher.emap, matcher.einv
                journal = matcher.journal
                results = []
                for v2, e2, far2, _, _ in leaving:
                    if search:
                        emap[pending_edge] = e2
                        einv[e2] = pending_edge
                        vmap[source] = v2
                        vinv[v2] = source
                        journal.append((~pending_edge, e2))
                        journal.append((source, v2))
                        score = 1 + matcher._assign(source, 0, v2, depth, caps, 0, -1, 0)
                        w = vinv[far2]
                        matcher.rollback(0)
                    else:
                        score, w = 1, -1
                    results += (score, 0 if w < 0 else 1 + number[w])
                results = side.edge_memo[key] = _compact(results)
            for (v2, e2, _, _, fresh), score, n in zip(leaving, results[::2], results[1::2]):
                if n == 0:
                    matches.append(ScoredMatch((bi, v2, e2), score, fresh))
                elif state.is_loop_candidate(source, ball[n - 1]):
                    matches.append(
                        ScoredMatch((bi, v2, e2), score, EdgeOutcome(fresh.label, ball[n - 1])))
        return matches


# -- public matching entry points -------------------------------------------------


def _own_pricer(state: TraversalState, backgrounds: Sequence[Graph], depth: int) -> _Pricer:
    """A pricer for one step alone, over the state's closed edges."""
    closed = {e for e in range(state.graph.edge_count) if state.is_closed(e)}
    return _Pricer(state.graph, backgrounds, depth, closed)


def vertex_matches(
    state: TraversalState,
    backgrounds: Sequence[Graph],
    incoming,
    depth: int,
    *,
    _pricer: _Pricer | None = None,
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
    if incoming is None:
        return [ScoredMatch((bi, v2), 0, VertexOutcome(bg.labels[v2], bg.degree(v2)))
                for bi, bg in enumerate(backgrounds) for v2 in range(bg.vertex_count)]
    if not backgrounds:
        return []
    return (_pricer or _own_pricer(state, backgrounds, depth)).vertex_step(incoming)


def edge_matches(
    state: TraversalState,
    backgrounds: Sequence[Graph],
    source: int,
    pending_edge: int,
    depth: int,
    *,
    _pricer: _Pricer | None = None,
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
    pricer = _pricer or _own_pricer(state, backgrounds, depth)
    return pricer.edge_step(state, source, pending_edge)


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


def _shared_edge_alphabet(graphs: Iterable[Graph]) -> frozenset:
    return frozenset(e.label for g in graphs for e in g.edges)


def _checked_alphabet(g: Graph, backgrounds: list[Graph], degrees: Mapping[Any, int],
                      depth: int, edge_alphabet: Iterable | None) -> frozenset:
    """The edge alphabet of pricing g given the backgrounds, once the input
    is checked; raises ContextError for the first condition it breaks."""
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

    present = _shared_edge_alphabet([g] + backgrounds)
    alphabet = present if edge_alphabet is None else frozenset(edge_alphabet)
    missing = present - alphabet
    if missing:
        raise ContextError(
            f"edge label {label_text(sorted(missing, key=label_text)[0])} "
            "is not in the edge alphabet"
        )
    return alphabet


def _walk(g: Graph, cells: list[list[Graph]], degrees: Mapping[Any, int], depth: int,
          edge_alphabet: Iterable | None, library: _Library | None) -> tuple[list, list]:
    """One traversal of g that prices it given each cell's backgrounds.

    Each cell's input is checked first, in cell order, as
    information_content checks it.  Returns the first cell's step log and,
    per cell, every step's bits.  The pricer sees the cells' backgrounds
    one after another, so a step makes one vertex_matches or edge_matches
    call for all the cells and charges each cell the integer weight sums
    of its own backgrounds' matches: every sum is exact, so the bits are
    those of pricing that cell alone.
    """
    for bgs in cells:
        alphabet = _checked_alphabet(g, bgs, degrees, depth, edge_alphabet)
    backgrounds = [bg for bgs in cells for bg in bgs]
    cell_of = [c for c, bgs in enumerate(cells) for _ in bgs]
    bits: list[list[float]] = [[] for _ in cells]
    # Outcome counts: a later vertex has degree 1..limit, a root 0..limit.
    size_later = sum(degrees.values())
    size_initial = size_later + len(degrees)
    edge_labels = len(alphabet)
    # Each background's index, from the library or the pricer's own, gets
    # one matcher for the walk; the target side they share starts with no
    # edge known and learns each edge as the traversal closes it.
    pricer = _Pricer(g, backgrounds, depth, library=library)
    target, first, single = pricer.target, bits[0], len(bits) == 1

    # Each step passes the pricer to the module's vertex_matches or
    # edge_matches instead of calling its methods, with backgrounds (and a
    # vertex step's incoming) positional: perfbench/run.py wraps those two
    # names and reads those arguments.
    def step(state: TraversalState, event) -> StepRecord:
        if isinstance(event, VertexEvent):
            kind, outcome = "V", VertexOutcome(event.label, event.degree)
            matches = vertex_matches(state, backgrounds, event.incoming, depth, _pricer=pricer)
            size = size_initial if event.incoming is None else size_later
        else:
            kind, outcome = "E", EdgeOutcome(event.label, event.target)
            matches = edge_matches(state, backgrounds, event.source, event.edge, depth,
                                   _pricer=pricer)
            size = edge_labels * (1 + state.loop_candidate_count(event.source))
            if target is not None:
                target.add(event.edge)  # traverse closes the edge as this returns
        if single:  # the one cell's sums need no lookup per match
            hit = total = 0
            for _, score, predicted in matches:
                total += score + 1
                if predicted == outcome:
                    hit += score + 1
            first.append(_step_bits(hit, total, size))
        else:
            hits, totals = [0] * len(bits), [0] * len(bits)
            for candidate, score, predicted in matches:
                c = cell_of[candidate[0]]
                totals[c] += score + 1
                if predicted == outcome:
                    hits[c] += score + 1
            for hit, total, cell in zip(hits, totals, bits):
                cell.append(_step_bits(hit, total, size))
        return StepRecord(len(first) - 1, kind, outcome, first[-1])

    return traverse(g, step, step), bits


def information_content(
    g: Graph,
    backgrounds: Sequence[Graph],
    degrees: Mapping[Any, int],
    depth: int = 3,
    *,
    edge_alphabet: Iterable | None = None,
    _library: _Library | None = None,
) -> InfoResult:
    """Bits to transmit g to a receiver who already knows the backgrounds.

    Replays g's traversal, which starts at vertex 0 and covers every
    component, and sums the negative log probability of every step's
    actual outcome under models built from the backgrounds.  An empty
    background list gives the unconditional estimate, and an empty g costs
    0 bits.  The step log accounts for the total exactly.  A caller that
    prices several graphs passes one _library, capped over all of them
    and their backgrounds, so each background is indexed once and its
    memo serves every call.
    """
    steps, (bits,) = _walk(g, [list(backgrounds)], degrees, depth, edge_alphabet, _library)
    return InfoResult(total=sum(bits, 0.0), steps=tuple(steps))


def information_contents(
    graphs: Sequence[Graph],
    backgrounds: Sequence[Graph],
    degrees: Mapping[Any, int],
    depth: int = 3,
    *,
    edge_alphabet: Iterable | None = None,
) -> list[InfoResult]:
    """information_content of each graph, in order, given the same backgrounds.

    The graphs share one library, so each background is indexed once and
    its memo serves them all.
    """
    library = _Library(depth, [*graphs, *backgrounds]) if backgrounds else None
    return [information_content(g, backgrounds, degrees, depth, edge_alphabet=edge_alphabet,
                                _library=library) for g in graphs]


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

    A run of cells with the same target, a table row or the part of one
    in a worker's share, is priced in one traversal of that target.  A
    lone cell, such as a chain item, goes through the module's
    information_content, which perfbench/run.py times as a cell.
    """
    totals = []
    for _, row in itertools.groupby(cells, key=lambda cell: id(cell[0])):
        (g, bgs), *rest = row
        if rest:
            _, bits = _walk(g, [bgs] + [b for _, b in rest], degrees, depth, alphabet, library)
            totals += [sum(cell, 0.0) for cell in bits]
        else:
            totals.append(information_content(g, bgs, degrees, depth, edge_alphabet=alphabet,
                                              _library=library).total)
    return totals


def _batch(named_graphs: Sequence[tuple[str, Graph]], degrees: Mapping[Any, int], depth: int,
           jobs: int, what: str, pairs) -> tuple[tuple[str, ...], list[float]]:
    """The names and, in cell order, the totals of the cells pairs(graphs)
    lists as (target, backgrounds).

    Every cell shares one edge-label alphabet, the union over all the
    graphs, so the numbers are comparable.  The library depth is capped
    once, at the largest component of any of the graphs.  The cells run
    in this process, or in w = min(jobs, cells, CPUs) worker processes
    when that is more than one: worker k prices cells k, k + w, k + 2w,
    ... through its own copy of the still empty library, so it too
    indexes each background once and walks each row once.  Round-robin
    shares even out a chain, whose later cells carry more backgrounds.
    """
    named = list(named_graphs)
    if not named:
        raise ContextError(f"the {what} needs at least one graph")
    graphs = [g for _, g in named]
    cells = pairs(graphs)
    settings = dict(degrees), depth, _shared_edge_alphabet(graphs), _Library(depth, graphs)
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
