"""Shared fixtures: two small utility-network graphs whose structure the
tests know by heart, four reference molecules, and seeded random graphs."""

import random

import pytest

from graphmml import build_graph, read_molecule

# Three utilities, three houses, one edge per (utility, house) pair,
# labelled by what the utility supplies.
K33_LABELS = ["Utility", "Utility", "Utility", "House", "House", "House"]
K33_EDGES = [
    (0, 3, "Elec"), (0, 4, "Elec"), (0, 5, "Elec"),
    (1, 3, "Gas"), (1, 4, "Gas"), (1, 5, "Gas"),
    (2, 3, "H2O"), (2, 4, "H2O"), (2, 5, "H2O"),
]

# A fourth house moved in; it gets gas and water but no electricity,
# and house 4 lost its gas line.
NEAR_K33_LABELS = K33_LABELS + ["House"]
NEAR_K33_EDGES = [
    (0, 3, "Elec"), (0, 4, "Elec"), (0, 5, "Elec"),
    (1, 3, "Gas"), (1, 5, "Gas"), (1, 6, "Gas"),
    (2, 3, "H2O"), (2, 4, "H2O"), (2, 5, "H2O"), (2, 6, "H2O"),
]

UTILITY_DEGREES = {"Utility": 4, "House": 3}

DRUG_SMILES = {
    "viagra": "CCc1nn(C)c2c(=O)[nH]c(nc12)c3cc(ccc3OCC)S(=O)(=O)N4CCN(C)CC4",
    "cialis": "CN1CC(=O)N2[C@@H](c3[nH]c4ccccc4c3C[C@@H]2C1=O)c5ccc6OCOc6c5",
    "valium": "CN1C(=O)CN=C(c2ccccc2)c3cc(Cl)ccc13",
    "xanax": "Cc1nnc2CN=C(c3ccccc3)c4cc(Cl)ccc4-n12",
}


def random_connected_graph(rng, n, vertex_labels, edge_labels):
    """A random spanning tree plus extra edges, listed in shuffled order."""
    edges = {(rng.randrange(v), v): rng.choice(edge_labels) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.35:
                edges[u, v] = rng.choice(edge_labels)
    listed = [(u, v, label) for (u, v), label in edges.items()]
    rng.shuffle(listed)
    return build_graph(False, [rng.choice(vertex_labels) for _ in range(n)], listed)


def star(leaves):
    return build_graph(False, ["h"] + ["l"] * leaves, [(0, i, "x") for i in range(1, leaves + 1)])


def rails_first_ladder(rungs):
    """Both rails first, then the rungs: the walk along the second rail
    keeps every vertex of the first one open."""
    edges = [(i, i + 1, "x") for i in range(rungs - 1)]
    edges += [(rungs + i, rungs + i + 1, "x") for i in range(rungs - 1)]
    edges += [(i, rungs + i, "y") for i in range(rungs)]
    return build_graph(False, ["a"] * (2 * rungs), edges)


def grid(rows, cols):
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    edges = [(r * cols + c, r * cols + c + 1, "x") for r, c in cells if c + 1 < cols]
    edges += [(r * cols + c, (r + 1) * cols + c, "x") for r, c in cells if r + 1 < rows]
    return build_graph(False, ["a"] * (rows * cols), edges)


def hex_sheet(rows, cols):
    """rows x cols fused hexagons in brick-wall form: rows + 1 lines of
    vertices, neighbouring lines joined at alternate vertices, and the
    pendant corners this leaves removed."""
    width = 2 * cols + 2
    edges = [(i * width + j, i * width + j + 1) for i in range(rows + 1) for j in range(width - 1)]
    edges += [(i * width + j, (i + 1) * width + j)
              for i in range(rows) for j in range(width) if (i + j) % 2 == 0]
    vertices = range((rows + 1) * width)
    while True:
        degree = {v: 0 for v in vertices}
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        kept = [v for v in vertices if degree[v] > 1]
        if len(kept) == len(vertices):
            break
        vertices = kept
        edges = [(u, v) for u, v in edges if degree[u] > 1 and degree[v] > 1]
    new = {v: i for i, v in enumerate(vertices)}
    return build_graph(False, ["a"] * len(new), [(new[u], new[v], "x") for u, v in edges])


def relabelled(g, share, seed):
    """g with a seeded share of its vertices relabelled "b"."""
    n = g.vertex_count
    chosen = set(random.Random(seed).sample(range(n), round(share * n)))
    labels = ["b" if v in chosen else label for v, label in enumerate(g.labels)]
    return build_graph(False, labels, g.edges)


def make_k33():
    return build_graph(False, K33_LABELS, K33_EDGES)


def make_near_k33():
    return build_graph(False, NEAR_K33_LABELS, NEAR_K33_EDGES)


@pytest.fixture(scope="session")
def k33():
    return make_k33()


@pytest.fixture(scope="session")
def near_k33():
    return make_near_k33()


@pytest.fixture(scope="session")
def utility_degrees():
    return dict(UTILITY_DEGREES)


@pytest.fixture(scope="session")
def drug_graphs():
    return {name: read_molecule(s)[0] for name, s in DRUG_SMILES.items()}


@pytest.fixture(scope="session")
def drug_degrees():
    merged = {}
    for smiles in DRUG_SMILES.values():
        _, degrees = read_molecule(smiles)
        for label, limit in degrees.items():
            merged[label] = max(merged.get(label, limit), limit)
    return merged
