"""Seeded input generators and the benchmark's own, independent graph model.

Everything here is deterministic in its seed and imports nothing from
graphmml: the generators validate their SMILES with the reader below, and
the closed-form cold price uses its own depth-first traversal, so the
output checks do not trust the code they check.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

# Degree limits per element, as graphmml's DEFAULT_VALENCES declares them.
VALENCES = {"H": 1, "C": 4, "N": 4, "O": 2, "P": 5, "S": 6, "Br": 1, "Cl": 1, "I": 1}

@dataclass(frozen=True)
class Mol:
    """A labelled graph with edges in the order graphmml numbers them."""

    labels: tuple
    edges: tuple  # (u, v, label)

    @property
    def size(self) -> int:
        """Traversal steps to price it: one per vertex and one per edge."""
        return len(self.labels) + len(self.edges)


# -- an independent reader for the SMILES the generators write -------------------

_TOKEN = re.compile(r"\[(?P<bracket>[^\]]*)\]|(?P<atom>Cl|Br|[CNOPSIcnos])|(?P<bond>[-=#:])"
                    r"|(?P<ring>%\d\d|\d)|(?P<paren>[()])")
_BRACKET_SYMBOL = re.compile(r"(Cl|Br|[CNOPSIcnos])")
_BOND_NAMES = {"-": "single", "=": "double", "#": "triple", ":": "aromatic"}


class InputError(ValueError):
    """A generated input is not a valid molecule."""


def read_smiles(text: str) -> Mol:
    """Heavy-atom graph of a SMILES string, numbered as graphmml numbers it.

    Vertices follow the atoms' written order.  Edges come per atom in
    written order: first the ring bonds that close at it, then the bonds
    to its branches and chain successor.  Raises InputError on anything
    outside the subset the generators write or on a valence violation.
    """
    atoms: list[tuple[str, bool]] = []
    junctions: dict[int, list[tuple[int, str | None]]] = {}
    closures: dict[int, list[tuple[int, str]]] = {}
    open_rings: dict[str, tuple[int, str | None]] = {}
    stack: list[int | None] = []
    prev: int | None = None
    bond: str | None = None
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise InputError(f"unexpected text at {pos} in {text!r}")
        pos = m.end()
        if m["bracket"] is not None or m["atom"] is not None:
            symbol = m["atom"]
            if symbol is None:
                sm = _BRACKET_SYMBOL.match(m["bracket"])
                if sm is None:
                    raise InputError(f"unsupported bracket atom in {text!r}")
                symbol = sm.group(1)
            index = len(atoms)
            atoms.append((symbol.capitalize(), symbol.islower()))
            if prev is not None:
                junctions.setdefault(prev, []).append((index, bond))
            prev, bond = index, None
        elif m["bond"] is not None:
            bond = _BOND_NAMES[m["bond"]]
        elif m["ring"] is not None:
            if prev is None:
                raise InputError(f"ring digit before any atom in {text!r}")
            digit = m["ring"]
            if digit in open_rings:
                opener, open_bond = open_rings.pop(digit)
                closures.setdefault(prev, []).append(
                    (opener, open_bond or bond or _implied(atoms, opener, prev))
                )
            else:
                open_rings[digit] = (prev, bond)
            bond = None
        elif m["paren"] == "(":
            stack.append(prev)
        else:
            if not stack:
                raise InputError(f"unbalanced ')' in {text!r}")
            prev = stack.pop()
    if pos != len(text) or not atoms or open_rings or stack:
        raise InputError(f"malformed SMILES {text!r}")
    edges = []
    for a in range(len(atoms)):
        edges.extend((opener, a, b) for opener, b in closures.get(a, ()))
        edges.extend((a, child, b or _implied(atoms, a, child))
                     for child, b in junctions.get(a, ()))
    mol = Mol(tuple(symbol for symbol, _ in atoms), tuple(edges))
    check_valences(mol)
    return mol


def _implied(atoms, a: int, b: int) -> str:
    return "aromatic" if atoms[a][1] and atoms[b][1] else "single"


def check_valences(mol: Mol) -> None:
    degree = [0] * len(mol.labels)
    seen = set()
    for u, v, _ in mol.edges:
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            raise InputError("self-loop or repeated bond")
        seen.add(key)
        degree[u] += 1
        degree[v] += 1
    for v, label in enumerate(mol.labels):
        if degree[v] > VALENCES[label]:
            raise InputError(f"atom {v} ({label}) has degree {degree[v]} > {VALENCES[label]}")


# -- closed-form cold price ---------------------------------------------------------


def observed_degrees(mol: Mol) -> dict:
    """Degree limits graphmml infers for an edge-list file."""
    degree = [0] * len(mol.labels)
    for u, v, _ in mol.edges:
        degree[u] += 1
        degree[v] += 1
    limits: dict = {}
    for v, label in enumerate(mol.labels):
        limits[label] = max(limits.get(label, 1), degree[v])
    return limits


def molecule_degrees(mol: Mol) -> dict:
    return {label: VALENCES[label] for label in set(mol.labels)}


def cold_bits(mol: Mol, degrees: dict) -> float:
    """Bits to send a connected graph with no backgrounds, in closed form.

    With no matches every step's model is uniform over its outcome space.
    The root vertex step has sum(maxdeg + 1) outcomes, every later vertex
    step sum(maxdeg); an edge step has |alphabet| * (1 + |loop candidates|).
    The loop candidates come from this module's own replay of the
    depth-first order: the top vertex on the visiting stack takes its
    first untraversed edge in edge-list order.
    """
    n = len(mol.labels)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, v, _) in enumerate(mol.edges):
        adjacency[u].append((e, v))
        adjacency[v].append((e, u))
    alphabet = len({label for _, _, label in mol.edges})
    bits = math.log2(sum(d + 1 for d in degrees.values()))
    later = math.log2(sum(degrees.values()))
    closed = [False] * len(mol.edges)
    filled = [0] * n
    seen = [False] * n
    visiting = [0]
    seen[0] = True
    while visiting:
        u = visiting[-1]
        step = next(((e, w) for e, w in adjacency[u] if not closed[e]), None)
        if step is None:
            visiting.pop()
            continue
        e, w = step
        adjacent = {x for f, x in adjacency[u] if closed[f]}
        candidates = sum(
            1 for x in visiting
            if x != u and filled[x] < len(adjacency[x]) and x not in adjacent
        )
        bits += math.log2(alphabet * (1 + candidates))
        closed[e] = True
        filled[u] += 1
        filled[w] += 1
        if not seen[w]:
            seen[w] = True
            bits += later
            visiting.append(w)
    if not all(seen):
        raise InputError("cold_bits needs a connected graph")
    return bits


# -- molecule generators ------------------------------------------------------------

# Ring systems: the first atom bonds to what comes before, the last atom to
# what follows, and '*' marks an atom that may carry a substituent.  Every
# ring digit closes inside the fragment, so fragments concatenate freely.
RING_CLASSES = {
    "aromatic6": ("c1cc*c*cc1", "c1ccnc*c1", "c1nc*nc*c1"),
    "aromatic5": ("c1cc*sc1", "c1cc*oc1", "c1cc*[nH]c1"),
    "aliphatic": ("C1CCN*CC1", "N1CCN*CC1", "C1CC*CCC1", "C1CC*CC1", "C1CC*OC1"),
    "fused": ("c1cc*c2ccc*cc2c1", "c1cc*c2[nH]ccc2c1", "c1cc*c2ncccc2c1",
              "c1cc*c2nc*[nH]c2c1", "c1cc2OCOc2cc1*"),
}
LINKERS = ("", "C", "CC", "C(=O)N", "NC(=O)", "O", "OC", "N", "S(=O)(=O)N", "C(=O)", "CN")
# Substituents may open only ring digit 9, which no ring system uses.
SUBSTITUENTS = (
    "C", "CC", "C(C)C", "O", "OC", "OCC", "N", "NC", "N(C)C", "Cl", "Br", "I",
    "C#N", "C(=O)O", "C(=O)N", "C(=O)OC", "S(=O)(=O)C", "S(=O)(=O)N", "C=O",
    "CO", "CCO", "CN", "c9ccccc9", "C9CC9", "N9CCOCC9",
)


def fill_sites(template: str, subs) -> str:
    """Replace each '*' in template by a branch '(sub)', or drop it for ''."""
    parts = template.split("*")
    if len(parts) - 1 != len(subs):
        raise ValueError("one substituent per site")
    out = [parts[0]]
    for sub, rest in zip(subs, parts[1:]):
        out.append(f"({sub})" if sub else "")
        out.append(rest)
    return "".join(out)


def _core(rng: random.Random, classes) -> str:
    """Ring systems drawn from the given classes, joined by seeded linkers."""
    pieces = []
    for k, cls in enumerate(classes):
        if k:
            pieces.append(rng.choice(LINKERS))
        pieces.append(rng.choice(RING_CLASSES[cls]))
    return "".join(pieces)


def _decorate(rng: random.Random, core: str, fill: float, pool=SUBSTITUENTS) -> str:
    """Fill each site of core, with probability fill, from pool."""
    subs = [rng.choice(pool) if rng.random() < fill else "" for _ in range(core.count("*"))]
    return fill_sites(core, subs)


# Scaffolds of the analog series, after common drug classes: a
# benzamide-piperidine, an indole, an anilinopyrimidine and a thiophene
# piperazine amide.
SCAFFOLDS = (
    "c1cc*c*cc1C(=O)NC1CCN*CC1",
    "c1cc*c2[nH]cc*c2c1*",
    "c1nc*nc*c1Nc1ccc*cc1",
    "c1cc*sc1C(=O)N1CCN*CC1",
)


# Acyclic R groups for the analog series.
R_GROUPS = tuple(sub for sub in SUBSTITUENTS if "9" not in sub)


def analog_series(rng: random.Random, scaffold: str, count: int, extra: int) -> list[str]:
    """count distinct analogs of scaffold, each with extra atoms on its sites.

    The analogs share the scaffold and differ in the seeded acyclic R
    groups on its sites, so they are near-copies of each other.  Fixing
    the atom count keeps the work per series alike from seed to seed.
    """
    atoms = len(read_smiles(fill_sites(scaffold, [""] * scaffold.count("*"))).labels) + extra
    members: list[str] = []
    for _ in range(10000):
        smiles = _decorate(rng, scaffold, 0.6, R_GROUPS)
        if smiles in members:
            continue
        mol = _valid(smiles)
        if mol is not None and len(mol.labels) == atoms:
            members.append(smiles)
            if len(members) == count:
                return members
    raise InputError(f"no {count} analogs of {scaffold} with {atoms} atoms")


def drug_like(rng: random.Random, atoms: int) -> str:
    """A seeded molecule of ring systems, linkers and substituents.

    Its heavy-atom count lies within 3 of atoms.
    """
    for _ in range(1000):
        fragments = max(1, round(atoms / 9))
        core = _core(rng, [rng.choice(tuple(RING_CLASSES)) for _ in range(fragments)])
        for _ in range(50):
            smiles = _decorate(rng, core, rng.random())
            mol = _valid(smiles)
            if mol is not None and abs(len(mol.labels) - atoms) <= 3:
                return smiles
    raise InputError(f"no molecule with about {atoms} atoms")


def _valid(smiles: str) -> Mol | None:
    try:
        return read_smiles(smiles)
    except InputError:
        return None


# -- edge-list graphs ----------------------------------------------------------------


def grid(rows: int, cols: int) -> Mol:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1, "b"))
            if i + 1 < rows:
                edges.append((v, v + cols, "b"))
    return Mol(("C",) * (rows * cols), tuple(edges))


def ladder(rungs: int, rail: str = "b", rung: str = "b") -> Mol:
    edges = []
    for i in range(rungs):
        edges.append((2 * i, 2 * i + 1, rung))
        if i + 1 < rungs:
            edges.append((2 * i, 2 * i + 2, rail))
            edges.append((2 * i + 1, 2 * i + 3, rail))
    return Mol(("C",) * (2 * rungs), tuple(edges))


def hex_sheet(rows: int, cols: int) -> Mol:
    """Fused hexagons: a rows x cols patch of the honeycomb (brick-wall form)."""
    width = 2 * cols + 2
    edges = []
    for i in range(rows + 1):
        for j in range(width):
            v = i * width + j
            if j + 1 < width:
                edges.append((v, v + 1, "b"))
            if i < rows and (i + j) % 2 == 0:
                edges.append((v, v + width, "b"))
    mol = Mol(("C",) * ((rows + 1) * width), tuple(edges))
    return _drop_pendants(mol)


def _drop_pendants(mol: Mol) -> Mol:
    """Remove degree-1 corner vertices left by the brick-wall layout."""
    while True:
        degree = [0] * len(mol.labels)
        for u, v, _ in mol.edges:
            degree[u] += 1
            degree[v] += 1
        keep = [v for v in range(len(mol.labels)) if degree[v] > 1]
        if len(keep) == len(mol.labels):
            return mol
        remap = {old: new for new, old in enumerate(keep)}
        mol = Mol(tuple(mol.labels[v] for v in keep),
                  tuple((remap[u], remap[v], lab) for u, v, lab in mol.edges
                        if u in remap and v in remap))


def polymer_chain(rng: random.Random, n: int) -> Mol:
    """A backbone of n atoms with a seeded repeat unit of labels and bonds."""
    unit = rng.choice((("C", "C", "O"), ("C", "C", "N"), ("C", "C", "C", "O"), ("C", "S")))
    bonds = rng.choice((("s",), ("s", "s", "d"), ("s", "d")))
    labels = tuple(unit[i % len(unit)] for i in range(n))
    edges = tuple((i, i + 1, bonds[i % len(bonds)]) for i in range(n - 1))
    return Mol(labels, edges)


def relabel(mol: Mol, share: float, offset: float) -> Mol:
    """Relabel a share of the vertices "N", evenly spaced in id order.

    The offset, from 0 to 1, places them.  Even spacing keeps the cost of
    a given share alike from seed to seed; clustered picks can leave most
    of a lattice's symmetry in place.
    """
    n = len(mol.labels)
    count = round(share * n)
    chosen = {int((i + offset) * n / count) for i in range(count)}
    labels = tuple("N" if v in chosen else lab for v, lab in enumerate(mol.labels))
    return Mol(labels, mol.edges)


def edge_list_text(mol: Mol) -> str:
    lines = ["undirected"]
    lines += [f"v {v} {label}" for v, label in enumerate(mol.labels)]
    lines += [f"e {u} {v} {label}" for u, v, label in mol.edges]
    return "\n".join(lines) + "\n"
