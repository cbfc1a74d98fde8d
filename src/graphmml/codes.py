"""Code lengths for graphs and trees, measured in bits.

Covers the fixed-cost adjacency-matrix baseline, an adaptive binomial
code for sparse 0/1 matrices, succinct codes for strict-binary and
general ordered trees, and the vertex-ordering surplus a graph pays for
being transmitted as one arbitrary vertex numbering out of |V|!/|A|
distinguishable ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .graph import Graph, max_edges


class SizeLimitError(ValueError):
    """Input too large for an exact brute-force operation."""


@dataclass(frozen=True)
class CodeReport:
    """Itemized code length; total is the sum of the item costs."""

    model_name: str
    per_item: tuple[tuple[str, float], ...]

    @property
    def total(self) -> float:
        return sum(bits for _, bits in self.per_item)


def naive_bits(g: Graph) -> float:
    """One bit per adjacency-matrix cell, loops excluded: the flat baseline."""
    return float(max_edges(g.vertex_count, g.directed))


def adaptive_binomial_bits(n: int, k: int) -> float:
    """Bits to send k successes out of n binary cells, density unknown.

    Transmitting k first (uniform over 0..n) and then which k-subset
    occurred costs log2(n+1) + log2(C(n, k)).  The same total arises
    cell by cell from the successor-rule estimate (ones+1)/(seen+2),
    which is what makes the code adaptive.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    return math.log2(n + 1) + math.log2(math.comb(n, k))


def undirected_matrix_bits(g: Graph) -> CodeReport:
    """Adaptive binomial code over the upper triangle of the adjacency matrix."""
    if g.directed:
        raise ValueError("expected an undirected graph")
    n = max_edges(g.vertex_count, False)
    k = g.edge_count
    item = (f"upper triangle: {k} edges in {n} cells", adaptive_binomial_bits(n, k))
    return CodeReport(model_name="adaptive binomial over the edge set", per_item=(item,))


def directed_row_binomial_bits(g: Graph) -> CodeReport:
    """Adaptive binomial code per adjacency-matrix row (one row per vertex)."""
    if not g.directed:
        raise ValueError("expected a directed graph")
    cells = g.vertex_count - 1 if g.vertex_count else 0
    items = []
    for v in range(g.vertex_count):
        out = g.degree(v)
        items.append(
            (f"row {v}: out-degree {out} of {cells}", adaptive_binomial_bits(cells, out))
        )
    return CodeReport(model_name="adaptive binomial per row", per_item=tuple(items))


# -- succinct tree codes -------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    pass


# Equality, hashing and repr go through the codeword, which the iterative
# encoders build at any depth; the generated methods would recurse.


@dataclass(frozen=True, eq=False, repr=False)
class Fork:
    left: "StrictBinaryTree"
    right: "StrictBinaryTree"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fork):
            return NotImplemented
        return strict_binary_tree_encode(self) == strict_binary_tree_encode(other)

    def __hash__(self) -> int:
        return hash(strict_binary_tree_encode(self))

    def __repr__(self) -> str:
        return f"strict_binary_tree_decode({strict_binary_tree_encode(self)!r})"


StrictBinaryTree = Leaf | Fork


@dataclass(frozen=True, eq=False, repr=False)
class GeneralTree:
    """Ordered rooted tree; a node is just the tuple of its subtrees."""

    children: tuple["GeneralTree", ...] = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneralTree):
            return NotImplemented
        return general_tree_encode(self) == general_tree_encode(other)

    def __hash__(self) -> int:
        return hash(general_tree_encode(self))

    def __repr__(self) -> str:
        return f"general_tree_decode({general_tree_encode(self)!r})"


class TreeCodeError(ValueError):
    """Malformed tree codeword."""


def strict_binary_tree_encode(tree: StrictBinaryTree) -> str:
    """Prefix traversal over {F, L}: one symbol (= one bit) per node."""
    out: list[str] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append("L")
        elif isinstance(node, Fork):
            out.append("F")
            stack.append(node.right)
            stack.append(node.left)
        else:
            raise TypeError(f"not a strict binary tree node: {node!r}")
    return "".join(out)


def strict_binary_tree_decode(code: str) -> StrictBinaryTree:
    """Inverse of the encoder; the codeword must be consumed exactly.

    A valid codeword is the shortest prefix where leaves outnumber forks
    by one; anything shorter is truncated, anything longer is overlong.
    """
    forks: list[list[StrictBinaryTree]] = []  # open forks: subtrees read so far
    pos = 0
    while True:
        if pos >= len(code):
            raise TreeCodeError("truncated codeword")
        sym = code[pos]
        pos += 1
        if sym == "F":
            forks.append([])
            continue
        if sym != "L":
            raise TreeCodeError(f"unexpected symbol {sym!r} at position {pos - 1}")
        tree: StrictBinaryTree = Leaf()
        # A finished subtree completes every fork still waiting for its right side.
        while forks and len(forks[-1]) == 1:
            tree = Fork(forks.pop()[0], tree)
        if not forks:
            break
        forks[-1].append(tree)
    if pos != len(code):
        raise TreeCodeError(f"overlong codeword: {len(code) - pos} trailing symbols")
    return tree


def general_tree_encode(tree: GeneralTree) -> str:
    """Walk over {d, u}: descend into each child, ascend after, final u ends.

    A tree with E edges costs 2E + 1 symbols.
    """
    out: list[str] = []
    stack = [iter(tree.children)]  # children still to visit, per open node
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            out.append("u")
        else:
            out.append("d")
            stack.append(iter(child.children))
    return "".join(out)


def general_tree_decode(code: str) -> GeneralTree:
    """Inverse of the encoder; the terminating u must be the last symbol."""
    stack: list[list[GeneralTree]] = [[]]
    for i, sym in enumerate(code):
        if sym == "d":
            stack.append([])
        elif sym == "u":
            children = stack.pop()
            if not stack:
                if i != len(code) - 1:
                    raise TreeCodeError(f"overlong codeword: {len(code) - 1 - i} trailing symbols")
                return GeneralTree(tuple(children))
            stack[-1].append(GeneralTree(tuple(children)))
        else:
            raise TreeCodeError(f"unexpected symbol {sym!r} at position {i}")
    raise TreeCodeError("truncated codeword")


# -- vertex-ordering surplus ---------------------------------------------------


# The exhaustive search can try all n! vertex permutations.
AUTOMORPHISM_LIMIT = 9


def automorphism_count(g: Graph) -> int:
    """Exact size of the automorphism group, by exhaustive search.

    A permutation must preserve vertex labels and map each (non-)edge to
    a (non-)edge with the same label, respecting direction.  Refuses
    graphs above AUTOMORPHISM_LIMIT vertices rather than approximating.
    """
    n = g.vertex_count
    if n > AUTOMORPHISM_LIMIT:
        raise SizeLimitError(f"{n} vertices exceeds the brute-force limit of {AUTOMORPHISM_LIMIT}")
    if n <= 1:
        return 1

    absent = object()  # distinct from any real edge label, including None
    edge_label: dict[tuple[int, int], Any] = {}
    for u, v, label in g.edges:
        edge_label[(u, v)] = label
        if not g.directed:
            edge_label[(v, u)] = label

    def klass(v: int) -> tuple:
        if g.directed:
            indeg = sum(1 for e in g.edges if e.v == v)
            return (g.labels[v], g.degree(v), indeg)
        return (g.labels[v], g.degree(v))

    classes = [klass(v) for v in range(n)]
    image = [-1] * n
    used = [False] * n
    count = 0

    def consistent(v: int, w: int) -> bool:
        for x in range(v):
            a = edge_label.get((v, x), absent)
            if a != edge_label.get((w, image[x]), absent):
                return False
            if g.directed:
                b = edge_label.get((x, v), absent)
                if b != edge_label.get((image[x], w), absent):
                    return False
        return True

    def extend(v: int) -> None:
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used[w] or classes[w] != classes[v]:
                continue
            if consistent(v, w):
                image[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
        image[v] = -1

    extend(0)
    return count


def _surplus_bits(vertex_count: int, automorphisms: int) -> float:
    """log2(n! / a) for n vertices with a automorphisms."""
    return math.log2(math.factorial(vertex_count) // automorphisms)


def ordering_surplus_bits(g: Graph) -> float:
    """Bits wasted by fixing one vertex numbering: log2(|V|! / |A|).

    The |A| automorphic renumberings of a numbering are indistinguishable
    once vertex identities are forgotten, so only |V|!/|A| orderings are
    distinct.  Zero for fully symmetric graphs.
    """
    return _surplus_bits(g.vertex_count, automorphism_count(g))
