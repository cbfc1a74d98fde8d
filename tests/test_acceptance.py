"""Acceptance suite: seven checks, one test (and one pass/fail line) each.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
lines; add `-s` to see the explicit PASS markers too.
"""

import functools
import itertools
import math
import time
from collections import Counter

import pytest

from graphmml import (
    EdgeOutcome,
    Fork,
    GeneralTree,
    Leaf,
    VertexOutcome,
    adaptive_binomial_bits,
    automorphism_count,
    build_graph,
    chain_information,
    conditional_table,
    general_tree_decode,
    general_tree_encode,
    information_content,
    max_edges,
    ordering_surplus_bits,
    read_molecule,
    strict_binary_tree_decode,
    strict_binary_tree_encode,
    traverse,
)
from graphmml.cli import main
from graphmml.context import (
    edge_matches,
    edge_outcome_space,
    scored_matches_to_model,
    vertex_matches,
    vertex_outcome_space,
)
from graphmml.graph import loop_candidates
from conftest import DRUG_SMILES, UTILITY_DEGREES, make_k33, make_near_k33

TOL = 1e-9


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n{label}: FAIL")
                raise
            print(f"\n{label}: PASS")
        return wrapper
    return decorate


def strict_trees(nodes):
    if nodes == 1:
        return [Leaf()]
    out = []
    for left_nodes in range(1, nodes - 1, 2):
        for left in strict_trees(left_nodes):
            for right in strict_trees(nodes - 1 - left_nodes):
                out.append(Fork(left, right))
    return out


def general_trees(edges):
    if edges == 0:
        return [GeneralTree()]
    out = []
    for first_edges in range(edges):
        for first in general_trees(first_edges):
            for rest in general_trees(edges - 1 - first_edges):
                out.append(GeneralTree((first,) + rest.children))
    return out


@criterion("criterion 1 (tree codecs)")
def test_criterion_1_tree_codecs_round_trip():
    started = time.perf_counter()
    for nodes in (1, 3, 5, 7, 9):
        for tree in strict_trees(nodes):
            code = strict_binary_tree_encode(tree)
            assert len(code) == nodes
            assert strict_binary_tree_decode(code) == tree
    for edges in range(6):
        for tree in general_trees(edges):
            code = general_tree_encode(tree)
            assert len(code) == 2 * edges + 1
            assert general_tree_decode(code) == tree
    assert time.perf_counter() - started < 1.0


@criterion("criterion 2 (adaptive binomial)")
def test_criterion_2_adaptive_binomial_against_enumeration():
    started = time.perf_counter()
    for n in range(11):
        kraft = 0.0
        for cells in itertools.product((0, 1), repeat=n):
            sequential = 0.0
            ones = 0
            for seen, cell in enumerate(cells):
                p_one = (ones + 1) / (seen + 2)
                sequential -= math.log2(p_one if cell else 1.0 - p_one)
                ones += cell
            bits = adaptive_binomial_bits(n, ones)
            assert abs(sequential - bits) <= TOL
            kraft += 2.0 ** -bits
        assert abs(kraft - 1.0) <= TOL
    assert time.perf_counter() - started < 5.0


def permutation_oracle(g):
    edge_label = {}
    for u, v, label in g.edges:
        edge_label[(u, v)] = label
        if not g.directed:
            edge_label[(v, u)] = label
    marker = object()
    count = 0
    for perm in itertools.permutations(range(g.vertex_count)):
        if any(g.labels[v] != g.labels[perm[v]] for v in range(g.vertex_count)):
            continue
        if all(edge_label.get((u, v), marker) == edge_label.get((perm[u], perm[v]), marker)
               for u in range(g.vertex_count) for v in range(g.vertex_count) if u != v):
            count += 1
    return count


@criterion("criterion 3 (automorphisms)")
def test_criterion_3_automorphisms_and_surplus():
    k4 = build_graph(False, ["v"] * 4,
                     [(u, v, "x") for u in range(4) for v in range(u + 1, 4)])
    square = build_graph(False, ["v"] * 4,
                         [(i, (i + 1) % 4, "x") for i in range(4)])
    braced = build_graph(False, ["v"] * 4,
                         [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (3, 0, "x"), (0, 2, "x")])
    coloured = build_graph(False, ["W", "B", "W", "B"],
                           [(i, (i + 1) % 4, "x") for i in range(4)])
    assert automorphism_count(k4) == 24
    assert ordering_surplus_bits(k4) == 0.0
    assert automorphism_count(square) == 8
    assert abs(ordering_surplus_bits(square) - math.log2(3)) <= TOL
    assert automorphism_count(braced) == 4
    assert abs(ordering_surplus_bits(braced) - math.log2(6)) <= TOL
    assert automorphism_count(coloured) == 4

    samples = [
        k4, square, braced, coloured,
        build_graph(False, ["v"] * 5, [(i, (i + 1) % 5, "x") for i in range(5)]),
        build_graph(False, ["v"] * 5,
                    [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (3, 4, "x")]),
        build_graph(False, ["v"] * 5,
                    [(0, 1, "x"), (0, 2, "x"), (0, 3, "x"), (0, 4, "y")]),
        build_graph(False, ["a", "b", "a"], [(0, 1, "x"), (1, 2, "x")]),
        build_graph(True, ["v"] * 4, [(i, (i + 1) % 4, "x") for i in range(4)]),
        build_graph(False, ["v"] * 4, []),
    ]
    for g in samples:
        assert automorphism_count(g) == permutation_oracle(g)
    assert automorphism_count(make_k33()) == permutation_oracle(make_k33())


@criterion("criterion 4 (edge capacity)")
def test_criterion_4_max_edges_against_pair_enumeration():
    for n in range(7):
        ordered = [(u, v) for u in range(n) for v in range(n) if u != v]
        assert max_edges(n, True) == len(ordered)
        assert max_edges(n, False) == len(ordered) // 2


DRUG_SHAPES = {
    "viagra": (32, {"C": 21, "N": 6, "O": 4, "S": 1}),
    "cialis": (29, {"C": 22, "N": 3, "O": 4}),
    "valium": (20, {"C": 16, "Cl": 1, "N": 2, "O": 1}),
    "xanax": (22, {"C": 17, "Cl": 1, "N": 4}),
}


@criterion("criterion 5 (molecule reading)")
def test_criterion_5_reference_molecules_parse():
    started = time.perf_counter()
    for name, smiles in DRUG_SMILES.items():
        atoms, elements = DRUG_SHAPES[name]
        g, _ = read_molecule(smiles)
        assert g.vertex_count == atoms
        assert Counter(label.value for label in g.labels) == elements
    benzene, _ = read_molecule("c1ccccc1")
    assert benzene.vertex_count == 6
    assert benzene.edge_count == 6
    assert all(benzene.degree(v) == 2 for v in range(6))
    assert all(e.label.value == "aromatic" for e in benzene.edges)
    assert time.perf_counter() - started < 1.0


def assert_every_step_model_is_sound(g, backgrounds, degrees, depth):
    """Rebuild the per-step distributions, check they normalize, and check
    that each prices its step's actual outcome exactly as
    information_content does."""
    alphabet = tuple(sorted({e.label for h in [g] + backgrounds for e in h.edges},
                            key=lambda l: getattr(l, "value", str(l))))
    checked = []

    def on_vertex(state, event):
        space = vertex_outcome_space(degrees, initial=event.incoming is None)
        matches = vertex_matches(state, backgrounds, event.incoming, depth)
        checked.append((scored_matches_to_model(matches, space),
                        VertexOutcome(event.label, event.degree)))

    def on_edge(state, event):
        candidates = loop_candidates(state, event.source)
        matches = edge_matches(state, backgrounds, event.source, event.edge, depth)
        checked.append((scored_matches_to_model(matches, edge_outcome_space(alphabet, candidates)),
                        EdgeOutcome(event.label, event.target)))

    traverse(g, on_vertex, on_edge)
    steps = information_content(g, backgrounds, degrees, depth).steps
    assert len(checked) == len(steps) == g.vertex_count + g.edge_count
    for (dist, outcome), step in zip(checked, steps):
        assert abs(sum(dist.values()) - 1.0) <= TOL
        assert all(p > 0.0 for p in dist.values())
        assert step.outcome == outcome
        assert -math.log2(dist[outcome]) == step.bits


@criterion("criterion 6 (conditional information)")
def test_criterion_6_information_content_behaviour():
    k33 = make_k33()
    near = make_near_k33()
    depth = 3

    base = information_content(k33, [], UTILITY_DEGREES, depth).total
    given_twin = information_content(k33, [make_k33()], UTILITY_DEGREES, depth).total
    given_near = information_content(k33, [near], UTILITY_DEGREES, depth).total
    assert given_twin < given_near < base

    near_base = information_content(near, [], UTILITY_DEGREES, depth).total
    near_twin = information_content(near, [make_near_k33()], UTILITY_DEGREES, depth).total
    assert near_twin < near_base

    drugs = {name: read_molecule(s)[0] for name, s in DRUG_SMILES.items()}
    degrees = {}
    for smiles in DRUG_SMILES.values():
        for label, limit in read_molecule(smiles)[1].items():
            degrees[label] = max(degrees.get(label, limit), limit)
    named = list(drugs.items())

    started = time.perf_counter()
    table = conditional_table(named, degrees, depth)
    table_seconds = time.perf_counter() - started
    assert table_seconds < 120.0

    alphabet = tuple(sorted({e.label for g in drugs.values() for e in g.edges},
                            key=lambda l: l.value))
    unconditional = [
        information_content(g, [], degrees, depth, edge_alphabet=alphabet).total
        for _, g in named
    ]
    for i in range(len(named)):
        row = table.bits[i]
        assert row[i] == min(row)  # knowing itself is the best context
        assert all(row[j] < unconditional[i] for j in range(len(named)) if j != i)
        assert row[i] < unconditional[i]  # drug self-conditioning helps too

    chain = chain_information(named, degrees, depth)
    assert chain.total < sum(unconditional)

    for backgrounds in ([], [make_k33()], [near]):
        result = information_content(k33, backgrounds, UTILITY_DEGREES, depth)
        for step in result.steps:
            assert math.isfinite(step.bits) and step.bits >= 0.0
    assert_every_step_model_is_sound(k33, [make_k33()], UTILITY_DEGREES, depth)
    assert_every_step_model_is_sound(k33, [near], UTILITY_DEGREES, depth)


@criterion("criterion 7 (deterministic output)")
def test_criterion_7_byte_identical_tsv(tmp_path, capsys):
    molecules = tmp_path / "molecules.txt"
    molecules.write_text("".join(f"{n} {s}\n" for n, s in DRUG_SMILES.items()))

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    table_args = ["table", str(molecules), "--format", "tsv"]
    first = run(table_args)
    second = run(table_args)
    parallel = run(table_args + ["--jobs", "4"])
    assert first == second == parallel

    info_args = ["info", str(molecules), "--format", "tsv", "--steps", "--depth", "2"]
    assert run(info_args) == run(info_args)

    chain_args = ["chain", str(molecules), "--format", "tsv"]
    assert run(chain_args) == run(chain_args)
