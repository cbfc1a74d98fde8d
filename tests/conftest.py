"""Shared fixtures: two small utility-network graphs whose structure the
tests know by heart, four reference molecules, and seeded random graphs."""

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
