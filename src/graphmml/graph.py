"""Labelled graphs and a deterministic, decoder-faithful traversal.

A Graph is immutable once built: vertices are dense ids 0..n-1 with labels,
edges carry labels, and per-vertex adjacency lists preserve the order in
which edges were supplied.  `traverse` walks the whole graph depth-first,
one component after another, and emits a stream of vertex and edge events;
callbacks are invoked *before* the state change their event causes, so a
callback sees exactly what a decoder replaying the stream would know at
that point.  VertexOutcome and EdgeOutcome are what each kind of event
reveals to that decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Sequence

# Builds a NamedTuple record from a tuple of its fields, without the Python
# frame of the class's own __new__: the same type, fields and equality.
_new = tuple.__new__


class GraphError(ValueError):
    """Invalid graph construction or use.

    `edge` is the position in the edge list of the edge at fault, where
    one is.
    """

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same vertex pair appears twice in the edge list."""


class VertexRangeError(GraphError):
    """A vertex id is outside 0..n-1."""


class Edge(NamedTuple):
    u: int
    v: int
    label: Any


class OrientedEdge(NamedTuple):
    """One edge as seen from one endpoint (tail -> head)."""

    edge: int
    tail: int
    head: int
    label: Any


@dataclass(frozen=True)
class Graph:
    """Immutable labelled graph.  Build with `build_graph`, not directly."""

    directed: bool
    labels: tuple
    edges: tuple[Edge, ...]
    # adjacency[v]: OrientedEdge slots with tail == v, in input edge order.
    # Undirected edges appear in both endpoints' lists; directed edges only
    # in the source's list (so len(adjacency[v]) is the out-degree).
    adjacency: tuple[tuple[OrientedEdge, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, |V|={self.vertex_count}, |E|={self.edge_count})"


def build_graph(directed: bool, labels: Sequence, edges: Iterable[tuple]) -> Graph:
    """Validate and construct a Graph.

    `labels[i]` is the label of vertex i; `edges` yields (u, v, label)
    triples.  Self-loops, duplicate edges (either orientation counts as a
    duplicate in the undirected case) and out-of-range vertex ids each
    raise their own error type.
    """
    labels = tuple(labels)
    n = len(labels)
    edge_list: list[Edge] = []
    adjacency: list[list[OrientedEdge]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v, label in edges:
        if not (0 <= u < n and 0 <= v < n):
            # Named by its position: an id of any size is refused, and one of
            # thousands of digits would not print.
            raise VertexRangeError(f"edge {len(edge_list)} of the list references a vertex "
                                   f"outside 0..{n - 1}", len(edge_list))
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}", len(edge_list))
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge between {u} and {v}", len(edge_list))
        seen.add(key)
        eid = len(edge_list)
        edge_list.append(_new(Edge, (u, v, label)))
        adjacency[u].append(_new(OrientedEdge, (eid, u, v, label)))
        if not directed:
            adjacency[v].append(_new(OrientedEdge, (eid, v, u, label)))
    return Graph(
        directed=directed,
        labels=labels,
        edges=tuple(edge_list),
        adjacency=tuple(tuple(slots) for slots in adjacency),
    )


def max_edges(n: int, directed: bool) -> int:
    """Number of distinct edges an n-vertex graph of this kind can hold
    (no self-loops, which build_graph rejects)."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return n * (n - 1) if directed else n * (n - 1) // 2


# -- connected components ----------------------------------------------------


def connected_components(g: Graph) -> list[Graph]:
    """Partition into connected components (weak connectivity if directed).

    Each component is re-densified to ids 0..k-1, keeping its vertices'
    order and its edges' input order; a connected g is returned as is.
    """
    n = g.vertex_count
    # Undirected view for reachability even when g is directed.
    neigh: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in g.edges:
        neigh[u].append(v)
        neigh[v].append(u)
    component = [-1] * n
    groups: list[list[int]] = []
    for start in range(n):
        if component[start] >= 0:
            continue
        component[start] = len(groups)
        members = [start]
        for x in members:  # the list grows as the search reaches new vertices
            for y in neigh[x]:
                if component[y] < 0:
                    component[y] = component[start]
                    members.append(y)
        groups.append(members)
    if len(groups) == 1:
        return [g]  # sorted, its members are 0..n-1: the copy would equal g
    new_id = [0] * n
    for members in groups:
        members.sort()
        for new, old in enumerate(members):
            new_id[old] = new
    # One pass puts every edge, in input order, into its component's list.
    sub_edges: list[list[tuple]] = [[] for _ in groups]
    for u, v, label in g.edges:
        sub_edges[component[u]].append((new_id[u], new_id[v], label))
    return [
        build_graph(g.directed, [g.labels[m] for m in members], edges)
        for members, edges in zip(groups, sub_edges)
    ]


# -- traversal ---------------------------------------------------------------


class VertexEvent(NamedTuple):
    vertex: int
    label: Any
    degree: int
    # Reversed incoming edge (this vertex -> the vertex we came from);
    # None for a root, the first vertex of each component.
    incoming: OrientedEdge | None


class EdgeEvent(NamedTuple):
    edge: int
    source: int
    label: Any
    # The visiting vertex the edge loops back to; None when it leads to a
    # vertex not seen before, whose id the decoder assigns itself.
    target: int | None


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


class TraversalState:
    """Live, read-only view of a traversal in progress.

    Exposes only decoder-visible information: the visiting stack and
    which edges have been traversed (closed) so far.  Callbacks must not
    mutate it; `traverse` updates it in place as its events fire.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.visiting: list[int] = []
        self._closed = [False] * g.edge_count
        # Kept current as edges close: each vertex's neighbours over closed
        # edges, the index of its first slot that may still be open, the
        # visiting vertices whose degree is not yet filled, in stack order,
        # and how many of each vertex's closed-edge neighbours are among them.
        self._neighbours: list[set[int]] = [set() for _ in range(g.vertex_count)]
        self._cursor = [0] * g.vertex_count
        self._open: dict[int, None] = {}
        self._open_neighbours = [0] * g.vertex_count

    def is_closed(self, edge: int) -> bool:
        return self._closed[edge]

    def loop_candidate_count(self, source: int) -> int:
        """len(loop_candidates(self, source)), in O(1)."""
        open_ = self._open
        return len(open_) - (source in open_) - self._open_neighbours[source]

    def is_loop_candidate(self, source: int, w: int) -> bool:
        """Whether w is in loop_candidates(self, source), in O(1)."""
        return w in self._open and w != source and w not in self._neighbours[source]


def loop_candidates(state: TraversalState, source: int) -> tuple[int, ...]:
    """Vertices a new edge out of `source` could legally close a loop to.

    Decoder-computable: visiting vertices other than the source whose
    announced degree is not yet filled and which share no traversed edge
    with the source (parallel edges are impossible).  Listed in stack
    order, bottom first.
    """
    adjacent = state._neighbours[source]
    return tuple(w for w in state._open if w != source and w not in adjacent)


def traverse(
    g: Graph,
    on_vertex: Callable[[TraversalState, VertexEvent], Any] | None = None,
    on_edge: Callable[[TraversalState, EdgeEvent], Any] | None = None,
) -> list:
    """Depth-first traversal of g, one event per element.

    Every vertex yields one VertexEvent and every edge one EdgeEvent.  The
    walk starts at vertex 0, and whenever the visiting list empties it
    restarts at the lowest vertex not yet reached, with a root event
    (incoming None); an empty graph yields nothing.  The visiting list
    behaves as a stack: the top vertex's first untraversed edge (in
    adjacency order) is taken next; a vertex is popped when none remain.
    Edges already traversed from the other side are skipped, so no edge
    fires twice.

    Returns the list of callback results in event order (the events
    themselves when a callback is omitted).  The state is updated in this
    one loop, in O(1) per event plus O(degree) once per vertex.
    """
    if g.directed:
        raise GraphError("traversal is defined for undirected graphs")
    state = TraversalState(g)
    labels, adjacency = g.labels, g.adjacency
    visiting, closed, cursor = state.visiting, state._closed, state._cursor
    neighbours, open_, open_neighbours = state._neighbours, state._open, state._open_neighbours
    reached = [False] * g.vertex_count
    results: list = []
    append = results.append
    for root in range(g.vertex_count):
        if reached[root]:
            continue
        v, incoming = root, None
        while True:
            if v >= 0:
                # A vertex event, then the push: v opens if its degree is
                # not yet filled, and its closed-edge neighbour, if any,
                # gains an open one.
                slots = adjacency[v]
                event = _new(VertexEvent, (v, labels[v], len(slots), incoming))
                append(on_vertex(state, event) if on_vertex else event)
                reached[v] = True
                visiting.append(v)
                if len(neighbours[v]) < len(slots):
                    open_[v] = None
                    for x in neighbours[v]:
                        open_neighbours[x] += 1
            # Pop filled vertices until the top one has an edge to take.
            while visiting:
                u = visiting[-1]
                slots = adjacency[u]
                i = cursor[u]
                while i < len(slots) and closed[slots[i][0]]:
                    i += 1
                cursor[u] = i
                if i < len(slots):
                    break
                visiting.pop()
            else:
                break
            e, _, w, label = slots[i]
            fresh = not reached[w]
            event = _new(EdgeEvent, (e, u, label, None if fresh else w))
            append(on_edge(state, event) if on_edge else event)
            # Close e.  u is open, as e is not closed; so is w, unless fresh:
            # a reached w off the stack would have no open edge.  Each end
            # that fills leaves the open set, and its neighbours lose an
            # open one.
            closed[e] = True
            neighbours[u].add(w)
            neighbours[w].add(u)
            open_neighbours[w] += 1
            if fresh:
                v, incoming = w, _new(OrientedEdge, (e, w, u, label))
            else:
                v = -1
                open_neighbours[u] += 1
                if len(neighbours[w]) == len(adjacency[w]):
                    del open_[w]
                    for x in neighbours[w]:
                        open_neighbours[x] -= 1
            if len(neighbours[u]) == len(adjacency[u]):
                del open_[u]
                for x in neighbours[u]:
                    open_neighbours[x] -= 1
    return results
