"""The correspondence search between a partly known graph and a background.

A _Side holds one graph's search data, over all its edges or over the
edges known so far, and a _Matcher between two sides finds the best
correspondence rooted at a pair of edges: the most vertices plus edges
it can pair within a radius.  That is all the module holds.  It imports
only graphmml.graph and knows nothing of step outcomes: the pricing
layer in graphmml.context keeps its own candidate lists, class codes and
context keys per background, and only _Matcher.search crosses between
the two: it returns a search's score and the one binding its caller
reads, and leaves nothing bound.

The search prunes with shares: a share bounds what pairing one slot, an
edge seen from one end, can add within a depth, by counting the walks
from it that never turn straight back (see _Side).  A search frame at a
background vertex also carries a limit, the shares of that vertex's
edges that no slot has paired there yet, which its slots together cannot
exceed (see _Matcher).  Both are exact upper bounds, so they prune
without changing a score or a binding.
"""

from __future__ import annotations

from typing import Any, Container, Iterable

from .graph import Graph


class _Side:
    """Matcher data for one graph, over all its edges or only the known ones.

    A slot is an edge as seen from one end, v -> far.  Its id is twice
    the edge's id, plus 1 when v is the edge's second end, so slot ^ 1
    is the same edge seen from far.  slots[v] lists v's known slots in
    adjacency order as (edge, far end, label, slot id).

    For each d up to the side's depth, len(caps) - 1, shares[d][slot] is
    a share: an upper bound on what pairing the slot adds to a depth-d
    match whose search has bound v.  That is the edge, its far end and
    what far's other slots add at depth d - 1: the way back to v is
    bound, so it adds nothing.  A share thus counts only walks that
    never turn straight back.  shares[1] are all 2, and from there

        shares[d][v -> far] = 1 + bound(d - 1, far) - shares[d - 1][far -> v]

    where bound(d, v), 1 plus the sum of v's shares at level d, is an
    upper bound on a depth-d match rooted at v.  caps[d][v][i] is the
    sum of the shares of slots[v][i:], so bound(d, v) is
    1 + caps[d][v][0].  A depth-0 match follows no edges: level 0 has
    every share 0 and every caps[0][v] (0,).  add() keeps all three
    current as edges become known.

    A side over all its edges is a background, which the matcher also
    looks up by label: buckets[v] groups slots[v] by label as (edge, far
    end, slot id) in the same order.  A side over known edges has no
    buckets.  deepen() adds levels to shares and caps in place, so a
    matcher that holds the two lists reads the new levels too.
    """

    __slots__ = ("graph", "known", "slots", "buckets", "shares", "caps")

    def __init__(self, g: Graph, depth: int, known: Container[int] | None = None):
        n = g.vertex_count
        self.graph = g
        self.known = [known is None or e in known for e in range(g.edge_count)]
        self.slots: list[tuple[tuple[int, int, Any, int], ...]] = [()] * n
        for v in range(n):
            self._reslot(v)
        self.buckets: list[dict[Any, list[tuple[int, int, int]]]] | None = None
        if known is None:
            self.buckets = [{} for _ in range(n)]
            for buckets, here in zip(self.buckets, self.slots):
                for e, far, label, slot in here:
                    buckets.setdefault(label, []).append((e, far, slot))
        self.shares = [[0] * (2 * g.edge_count)]
        self.caps: list = [[(0,)] * n]
        self.deepen(depth)

    def deepen(self, depth: int) -> None:
        """Add the levels of shares and caps up to depth, if they are not
        there yet.  Level d reads only level d - 1, so they are the levels
        of a side built at depth."""
        n = self.graph.vertex_count
        for d in range(len(self.caps), depth + 1):
            self.shares.append([0] * (2 * self.graph.edge_count))
            self.caps.append([None] * n)
            self._refresh(d, range(n))

    def _reslot(self, v: int) -> None:
        known, edges = self.known, self.graph.edges
        self.slots[v] = tuple((s.edge, s.head, s.label, 2 * s.edge + (edges[s.edge][0] != v))
                              for s in self.graph.adjacency[v] if known[s.edge])

    def _refresh(self, d: int, vertices: Iterable[int]) -> None:
        """Recompute level d of shares and caps at the vertices' slots."""
        slots, shares, caps = self.slots, self.shares[d], self.caps[d]
        below, back = self.caps[d - 1], self.shares[d - 1]
        for v in vertices:
            here = slots[v]
            cap = [0] * (len(here) + 1)
            for i in range(len(here) - 1, -1, -1):
                _, far, _, slot = here[i]
                # 1 + bound(d - 1, far) - the way back's share.
                share = shares[slot] = 2 + below[far][0] - back[slot ^ 1]
                cap[i] = cap[i + 1] + share
            caps[v] = cap

    def add(self, edge: int) -> None:
        """Make edge known.

        Its two ends get new slots, so their level-d shares and caps
        change, and through them those of every vertex within d - 1 of
        either end: level d is refreshed on that ball only.
        """
        u, w, _ = self.graph.edges[edge]
        self.known[edge] = True
        self._reslot(u)
        self._reslot(w)
        ball = frontier = {u, w}
        for d in range(1, len(self.caps)):
            self._refresh(d, ball)
            if d + 1 < len(self.caps):
                frontier = {far for v in frontier for _, far, _, _ in self.slots[v]} - ball
                ball = ball | frontier


class _Matcher:
    """Best-correspondence search between a partly known graph and a background.

    Tracks a bijective correspondence over vertex pairs and edge pairs so
    each background vertex or edge is counted at most once per match; the
    score of a match is exactly the number of corresponded vertices plus
    edges.  The maps are lists indexed by id, -1 where unbound.  Bindings
    are journaled, (v1, v2) for a vertex pair and (~e1, e2) for an edge
    pair, so alternatives can be rolled back, and every _assign call
    leaves the bindings of its best alternative in place.  The sides'
    tables are shared, not copied, so a matcher serves every step as the
    target side learns edges.

    The search prunes with upper bounds only, the sides' shares (see
    _Side), and they account for the bindings made so far.  A frame that
    pairs v1's slots with v2's edges can add no more than the shares of
    v1's slots left, less that of the bound way back, nor more than its
    limit: the shares of v2's edges that no slot has paired at v2, less
    that of the way back on that side.  Pairing a slot with an edge adds
    no more than either one's share, and a far end that cannot pair adds
    only the edge.  A winning value is the size of a real correspondence,
    the number of bindings it makes, so an alternative whose bound is at
    most the best value so far, or below the least value the caller can
    still use, cannot be the strictly better one and is never tried.
    The winner is still the first alternative to reach the best value,
    so its bindings and every score are those of the unpruned search.

    _assign is the one search core, and search the one way into it from
    outside this module: it binds a candidate's first edge and vertex
    pair, searches from there, reads the one binding its caller asks for
    and rolls every binding back.  Only the matcher reads or writes its
    maps and journal.  The tests run a search from nothing bound through
    the same core.
    """

    __slots__ = (
        "edges1", "labels1", "slots1", "shares1", "caps1",
        "edges2", "labels2", "buckets2", "shares2", "caps2",
        "vmap", "vinv", "emap", "einv", "journal",
    )

    def __init__(self, side1: _Side, side2: _Side):
        self.edges1 = side1.graph.edges
        self.labels1 = side1.graph.labels
        self.slots1 = side1.slots
        self.shares1 = side1.shares
        self.caps1 = side1.caps
        self.edges2 = side2.graph.edges
        self.labels2 = side2.graph.labels
        self.buckets2 = side2.buckets
        self.shares2 = side2.shares
        self.caps2 = side2.caps
        self.vmap = [-1] * side1.graph.vertex_count
        self.vinv = [-1] * side2.graph.vertex_count
        self.emap = [-1] * side1.graph.edge_count
        self.einv = [-1] * side2.graph.edge_count
        self.journal: list[tuple[int, int]] = []

    # binding journal ------------------------------------------------------

    def _rollback(self, mark: int) -> None:
        journal, vmap, vinv, emap, einv = self.journal, self.vmap, self.vinv, self.emap, self.einv
        for a, b in journal[mark:]:
            if a < 0:
                emap[~a] = -1
                einv[b] = -1
            else:
                vmap[a] = -1
                vinv[b] = -1
        del journal[mark:]

    def search(self, e1: int, e2: int, v1: int, v2: int, depth: int, came_from: int = -1,
               watch: int = -1) -> tuple[int, int]:
        """Bind e1 to e2 and v1 to v2, search from that pair to the given
        depth, and return the most the search adds over v1's known slots,
        with the vertex of side1 that its best alternative binds to
        watch, a vertex of side2, or -1 where it binds none.  Every
        binding is then rolled back, so each search starts from nothing
        bound.

        v1 has a known slot, and e2 is one of v2's slots: bound here, it
        adds nothing, so the search's limit starts at the shares of v2's
        other slots.  With came_from >= 0, e1 is v1's known slot back to
        came_from, bound here too, so its share of the caps comes off.
        An edge's slot from one of its ends is read off its ends.
        """
        self.emap[e1] = e2
        self.einv[e2] = e1
        self.vmap[v1] = v2
        self.vinv[v2] = v1
        self.journal.append((~e1, e2))
        self.journal.append((v1, v2))
        share, back = 0, -1
        if came_from >= 0:
            share, back = self.shares1[depth][2 * e1 + (self.edges1[e1][0] != v1)], e1
        limit = self.caps2[depth][v2][0] - self.shares2[depth][2 * e2 + (self.edges2[e2][0] != v2)]
        score = self._assign(v1, 0, v2, depth, self.caps1[depth][v1], share, back, 0, limit)
        bound = self.vinv[watch] if watch >= 0 else -1
        self._rollback(0)
        return score, bound

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
                share: int, back: int, need: int, limit: int) -> int:
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
        every cap up to its slot.  limit is the sum of the shares of v2's
        edges that neither the way back nor an earlier slot of v1 holds.
        """
        slots = self.slots1[v1]
        emap = self.emap
        buckets = self.buckets2[v2]
        e1, far1, label1, s1 = slots[i]
        # A bound edge pairs with nothing, and an edge of a label v2 lacks
        # pairs with nothing either: leave it out.
        while emap[e1] >= 0 or label1 not in buckets:
            if e1 == back:
                share = 0
            i += 1
            if i == len(slots):
                return 0
            e1, far1, label1, s1 = slots[i]
        # Slot i is unbound, so back, if share still counts, lies beyond it.
        # rest is 0 when nothing but the way back follows slot i: every
        # other slot's share is at least 2.
        cap = caps[i] - share
        if cap > limit:
            cap = limit
        rest = caps[i + 1] - share
        journal = self.journal
        mark = len(journal)
        best = need - 1
        live = False  # whether best's bindings are the ones applied
        segment: list = []
        labels2, vmap, vinv, einv = self.labels2, self.vmap, self.vinv, self.einv
        label_far1 = self.labels1[far1]
        shares2 = self.shares2[depth]
        # Paired, far1 and its match each have their slot for the pair
        # bound, the way back, so neither share counts it.
        if depth > 1:
            back1 = self.shares1[depth - 1][s1 ^ 1]
            reach1 = self.shares1[depth][s1] - 1
            far_caps = self.caps1[depth - 1][far1]
        for e2, far2, s2 in buckets[label1]:
            if best >= cap:
                break  # nothing after this point can improve on best
            if live:
                segment = journal[mark:]
                self._rollback(mark)
                live = False
            if einv[e2] >= 0:
                continue
            # A far end that cannot pair adds nothing beyond the edge.
            dead = label_far1 != labels2[far2] or vmap[far1] >= 0 or vinv[far2] >= 0
            share2 = shares2[s2]
            if dead:
                reach = 0
            elif depth > 1:
                reach = share2 - 1
                if reach > reach1:
                    reach = reach1
            else:
                reach = 1
            # What the later slots can add, from v2's edges other than e2.
            after = limit - share2
            if after > rest:
                after = rest
            if best >= 1 + reach + after:
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
                                          best + 1 - total - after, share2 - 2)
                    if total + after <= best:  # the rest cannot make up the shortfall
                        self._rollback(mark)
                        continue
            if after > 0:
                total += self._assign(v1, i + 1, v2, depth, caps, share, back, best + 1 - total,
                                      limit - share2)
            if total > best:
                best = total
                live = True
            else:
                self._rollback(mark)
        if rest > limit:
            rest = limit
        if best < rest:  # leaving the slot out can still win
            if best < need:
                return self._assign(v1, i + 1, v2, depth, caps, share, back, need,
                                    limit) if rest else 0
            if live:
                segment = journal[mark:]
                self._rollback(mark)
            total = self._assign(v1, i + 1, v2, depth, caps, share, back, best + 1, limit)
            if total > best:
                return total
            self._rollback(mark)
            live = False
        if best < need:
            return best
        if not live:
            self._apply(segment)
        return best

