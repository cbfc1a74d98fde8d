"""Baseline codes, succinct tree codecs, and automorphism counting."""

import itertools
import math

import pytest

from graphmml import (
    Fork,
    GeneralTree,
    Leaf,
    SizeLimitError,
    TreeCodeError,
    adaptive_binomial_bits,
    automorphism_count,
    build_graph,
    directed_row_binomial_bits,
    general_tree_decode,
    general_tree_encode,
    max_edges,
    naive_bits,
    ordering_surplus_bits,
    strict_binary_tree_decode,
    strict_binary_tree_encode,
    undirected_matrix_bits,
)


class TestAdaptiveBinomial:
    def test_two_part_form(self):
        for n in range(11):
            for k in range(n + 1):
                expected = math.log2(n + 1) + math.log2(math.comb(n, k))
                assert adaptive_binomial_bits(n, k) == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_sequential_successor_rule(self):
        # Coding the cells one at a time with P(1) = (ones+1)/(seen+2)
        # must cost exactly the same as the two-part form, whatever the
        # order of the ones within the string.
        for n in range(9):
            for bits in itertools.product((0, 1), repeat=n):
                cost = 0.0
                ones = 0
                for i, b in enumerate(bits):
                    p_one = (ones + 1) / (i + 2)
                    cost -= math.log2(p_one if b else 1.0 - p_one)
                    ones += b
                assert cost == pytest.approx(adaptive_binomial_bits(n, ones), abs=1e-9)

    def test_kraft_sum_is_one(self):
        for n in range(11):
            total = sum(
                2.0 ** -adaptive_binomial_bits(n, sum(bits))
                for bits in itertools.product((0, 1), repeat=n)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            adaptive_binomial_bits(3, 4)
        with pytest.raises(ValueError):
            adaptive_binomial_bits(-1, 0)


class TestMatrixCodes:
    def test_naive_is_one_bit_per_cell(self, k33):
        assert naive_bits(k33) == 15.0

    def test_undirected_matrix_code(self, k33):
        report = undirected_matrix_bits(k33)
        assert report.total == pytest.approx(adaptive_binomial_bits(15, 9))

    def test_directed_rows(self):
        g = build_graph(True, ["a", "b", "c"], [(0, 1, "x"), (0, 2, "x"), (1, 2, "x")])
        report = directed_row_binomial_bits(g)
        expected = (adaptive_binomial_bits(2, 2) + adaptive_binomial_bits(2, 1)
                    + adaptive_binomial_bits(2, 0))
        assert report.total == pytest.approx(expected)
        assert len(report.per_item) == 3

    def test_wrong_direction_rejected(self, k33):
        with pytest.raises(ValueError):
            directed_row_binomial_bits(k33)
        with pytest.raises(ValueError):
            undirected_matrix_bits(build_graph(True, ["a"], []))


def strict_trees(nodes):
    """All strict binary trees with the given node count."""
    if nodes == 1:
        return [Leaf()]
    trees = []
    for left_nodes in range(1, nodes - 1, 2):
        for left in strict_trees(left_nodes):
            for right in strict_trees(nodes - 1 - left_nodes):
                trees.append(Fork(left, right))
    return trees


def general_trees(edges):
    """All ordered rooted trees with the given edge count."""
    if edges == 0:
        return [GeneralTree()]
    trees = []
    # First child's subtree takes e edges plus its own link; the rest of
    # the children hang off a smaller root.
    for first_edges in range(edges):
        for first in general_trees(first_edges):
            for rest in general_trees(edges - 1 - first_edges):
                trees.append(GeneralTree((first,) + rest.children))
    return trees


class TestTreeCodecs:
    def test_strict_counts_are_catalan(self):
        assert [len(strict_trees(n)) for n in (1, 3, 5, 7, 9)] == [1, 1, 2, 5, 14]

    def test_general_counts_are_catalan(self):
        assert [len(general_trees(e)) for e in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_strict_round_trip_exhaustive(self):
        for nodes in (1, 3, 5, 7, 9):
            seen = set()
            for tree in strict_trees(nodes):
                code = strict_binary_tree_encode(tree)
                assert len(code) == nodes  # one symbol, i.e. one bit, per node
                assert strict_binary_tree_decode(code) == tree
                seen.add(code)
            assert len(seen) == len(strict_trees(nodes))

    def test_general_round_trip_exhaustive(self):
        for edges in range(6):
            seen = set()
            for tree in general_trees(edges):
                code = general_tree_encode(tree)
                assert len(code) == 2 * edges + 1
                assert general_tree_decode(code) == tree
                seen.add(code)
            assert len(seen) == len(general_trees(edges))

    def test_known_codewords(self):
        assert strict_binary_tree_encode(Leaf()) == "L"
        assert strict_binary_tree_encode(Fork(Leaf(), Leaf())) == "FLL"
        two_leaves = GeneralTree((GeneralTree(), GeneralTree()))
        assert general_tree_encode(two_leaves) == "duduu"
        assert general_tree_decode("duduu") == two_leaves

    def test_strict_decode_rejects_malformed(self):
        for bad in ("", "F", "FL", "FLLL", "LX", "X"):
            with pytest.raises(TreeCodeError):
                strict_binary_tree_decode(bad)

    def test_general_decode_rejects_malformed(self):
        for bad in ("", "d", "du", "udu", "uu", "x"):
            with pytest.raises(TreeCodeError):
                general_tree_decode(bad)

    @pytest.mark.parametrize("decode, code", [
        (strict_binary_tree_decode, "F" * 5000 + "L" * 5001),
        (general_tree_decode, "d" * 5000 + "u" * 5001),
    ], ids=["strict", "general"])
    def test_deep_trees_compare_hash_and_repr(self, decode, code):
        tree, twin = decode(code), decode(code)
        assert tree == twin
        assert hash(tree) == hash(twin)
        assert repr(tree) == f"{decode.__name__}({code!r})"

    def test_tree_equality_follows_the_shape(self):
        assert Fork(Leaf(), Fork(Leaf(), Leaf())) != Fork(Fork(Leaf(), Leaf()), Leaf())
        assert len({Fork(Leaf(), Leaf()), strict_binary_tree_decode("FLL")}) == 1
        assert GeneralTree((GeneralTree(),)) != GeneralTree((GeneralTree(), GeneralTree()))
        assert Fork(Leaf(), Leaf()).__eq__("FLL") is NotImplemented
        assert GeneralTree().__eq__(Leaf()) is NotImplemented
        assert Fork(Leaf(), Leaf()) != Leaf()


def permutation_automorphisms(g):
    """Independent count: try every vertex permutation directly."""
    n = g.vertex_count
    edge_label = {}
    for u, v, label in g.edges:
        edge_label[(u, v)] = label
        if not g.directed:
            edge_label[(v, u)] = label
    marker = object()
    count = 0
    for perm in itertools.permutations(range(n)):
        if any(g.labels[v] != g.labels[perm[v]] for v in range(n)):
            continue
        if all(
            edge_label.get((u, v), marker) == edge_label.get((perm[u], perm[v]), marker)
            for u in range(n)
            for v in range(n)
            if u != v
        ):
            count += 1
    return count


def cycle(n, label="x"):
    return build_graph(False, ["v"] * n, [(i, (i + 1) % n, label) for i in range(n)])


class TestAutomorphisms:
    def test_complete_graph(self):
        k4 = build_graph(False, ["v"] * 4,
                         [(u, v, "x") for u in range(4) for v in range(u + 1, 4)])
        assert automorphism_count(k4) == 24
        assert ordering_surplus_bits(k4) == 0.0

    def test_square(self):
        assert automorphism_count(cycle(4)) == 8
        assert ordering_surplus_bits(cycle(4)) == pytest.approx(math.log2(3))

    def test_square_with_diagonal(self):
        g = build_graph(False, ["v"] * 4,
                        [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (3, 0, "x"), (0, 2, "x")])
        assert automorphism_count(g) == 4
        assert ordering_surplus_bits(g) == pytest.approx(math.log2(6))

    def test_two_coloured_square(self):
        g = build_graph(False, ["W", "B", "W", "B"],
                        [(i, (i + 1) % 4, "x") for i in range(4)])
        assert automorphism_count(g) == 4

    def test_k33_has_free_houses_only(self, k33):
        # Distinct supply labels pin each utility; the houses still permute.
        assert automorphism_count(k33) == 6
        assert ordering_surplus_bits(k33) == pytest.approx(math.log2(720 / 6))

    def test_unlabelled_k33(self):
        g = build_graph(False, ["v"] * 6,
                        [(u, h, "x") for u in range(3) for h in range(3, 6)])
        assert automorphism_count(g) == 72  # 3! * 3! * side swap

    def test_edge_labels_can_break_symmetry(self):
        plain = cycle(3)
        marked = build_graph(False, ["v"] * 3, [(0, 1, "y"), (1, 2, "x"), (2, 0, "x")])
        assert automorphism_count(plain) == 6
        assert automorphism_count(marked) == 2

    def test_directed_cycle(self):
        g = build_graph(True, ["v"] * 3, [(0, 1, "x"), (1, 2, "x"), (2, 0, "x")])
        assert automorphism_count(g) == 3  # rotations only, no reflections

    def test_matches_permutation_oracle(self):
        samples = [
            cycle(3), cycle(4), cycle(5),
            build_graph(False, ["v"] * 2, [(0, 1, "x")]),
            build_graph(False, ["a", "b"], [(0, 1, "x")]),
            build_graph(False, ["v"] * 5,
                        [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (3, 4, "x")]),
            build_graph(False, ["v"] * 4, []),
            build_graph(True, ["v"] * 4,
                        [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (3, 0, "x")]),
            build_graph(False, ["v"] * 5,
                        [(0, 1, "x"), (0, 2, "x"), (0, 3, "x"), (0, 4, "y")]),
        ]
        for g in samples:
            assert automorphism_count(g) == permutation_automorphisms(g)

    def test_single_vertex_and_empty(self):
        assert automorphism_count(build_graph(False, ["v"], [])) == 1
        assert automorphism_count(build_graph(False, [], [])) == 1

    def test_size_limit(self):
        big = build_graph(False, ["v"] * 10, [])
        with pytest.raises(SizeLimitError):
            automorphism_count(big)
        with pytest.raises(SizeLimitError):
            ordering_surplus_bits(big)


class TestMaxEdgesAgainstEnumeration:
    def test_all_small_sizes(self):
        for n in range(7):
            pairs = list(itertools.permutations(range(n), 2))
            assert max_edges(n, True) == len(pairs)
            assert max_edges(n, False) == len(pairs) // 2
