"""A small SMILES reader producing labelled graphs of heavy atoms.

Accepted subset: the organic-subset atoms C N O P S Br Cl I (plus any of
the nine supported elements in brackets), aromatic lowercase c n o s,
bonds - = # :, branches, ring closures 1-9 and %nn, and bracket
annotations for charge, chirality and explicit hydrogen counts.  The
annotations are kept in the parse tree but play no part in the graph.
Everything else (isotopes, wildcards, multi-component dots, stereo
slashes, other elements) is rejected with a position-stamped error.

Aromaticity here is purely syntactic: a bond with no written symbol is
aromatic when both of its atoms were written lowercase, single otherwise.
No chemical perception is attempted.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Mapping

from .graph import Graph, build_graph


class SmilesError(ValueError):
    """The string is outside the accepted SMILES subset or malformed."""


class ValenceError(SmilesError):
    """An atom's degree exceeds its configured valence limit."""


class Element(str, enum.Enum):
    HYDROGEN = "H"
    CARBON = "C"
    NITROGEN = "N"
    OXYGEN = "O"
    PHOSPHOROUS = "P"
    SULPHUR = "S"
    BROMINE = "Br"
    CHLORINE = "Cl"
    IODINE = "I"


class Bond(str, enum.Enum):
    NONE = "none"
    SINGLE = "single"
    DOUBLE = "double"
    TRIPLE = "triple"
    AROMATIC = "aromatic"


# Valence limits used when the caller supplies none.
DEFAULT_VALENCES: dict[Element, int] = {
    Element.HYDROGEN: 1,
    Element.CARBON: 4,
    Element.NITROGEN: 4,
    Element.OXYGEN: 2,
    Element.PHOSPHOROUS: 5,
    Element.SULPHUR: 6,
    Element.BROMINE: 1,
    Element.CHLORINE: 1,
    Element.IODINE: 1,
}

ValenceConfig = Mapping[Element, int]

_BOND_SYMBOLS = {"-": Bond.SINGLE, "=": Bond.DOUBLE, "#": Bond.TRIPLE, ":": Bond.AROMATIC}
_ORGANIC = {
    "Cl": (Element.CHLORINE, False),
    "Br": (Element.BROMINE, False),
    "C": (Element.CARBON, False),
    "N": (Element.NITROGEN, False),
    "O": (Element.OXYGEN, False),
    "P": (Element.PHOSPHOROUS, False),
    "S": (Element.SULPHUR, False),
    "I": (Element.IODINE, False),
    "c": (Element.CARBON, True),
    "n": (Element.NITROGEN, True),
    "o": (Element.OXYGEN, True),
    "s": (Element.SULPHUR, True),
}

_BRACKET = re.compile(
    r"""\[
        (?P<symbol>Br|Cl|[HCNOPSI]|[cnos])
        (?P<chiral>@@|@)?
        (?P<hcount>H[0-9]*)?
        (?P<charge>\+[0-9]+|-[0-9]+|\++|-+)?
        \]""",
    re.VERBOSE,
)


# -- parse tree ----------------------------------------------------------------


@dataclass
class SmilesAtom:
    """One atom occurrence; `index` is its document-order position."""

    index: int
    element: Element
    aromatic: bool
    charge: int = 0
    chirality: str | None = None
    h_count: int | None = None
    bracket: bool = False
    # Junctions to the atom's branches and chain continuation, in written
    # order; each is (bond, child atom index), bond None until inferred.
    children: list[tuple[Bond | None, int]] = field(default_factory=list)


@dataclass
class RingBond:
    """One ring closure: the digit, the atoms it joins, the bond at each end.

    Each end's bond is the symbol written before its digit, None when
    none was written; inference fills both ends with the same bond.
    """

    digit: int
    opener: int
    closer: int
    open_bond: Bond | None = None
    close_bond: Bond | None = None


@dataclass
class SmilesAst:
    # Atoms in document order, so every junction points forward.
    atoms: list[SmilesAtom]
    # Ring closures in closing order, the order the ring bonds are written.
    rings: list[RingBond]


# -- tokenizer -----------------------------------------------------------------

_T_ATOM, _T_BOND, _T_RING, _T_OPEN, _T_CLOSE = "atom", "bond", "ring", "open", "close"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise SmilesError(f"unterminated bracket atom at position {i}")
            m = _BRACKET.fullmatch(text[i : end + 1])
            if not m:
                raise SmilesError(f"malformed bracket atom {text[i:end + 1]!r} at position {i}")
            tokens.append((_T_ATOM, _bracket_atom(m), i))
            i = end + 1
        elif text[i : i + 2] in _ORGANIC:
            tokens.append((_T_ATOM, _ORGANIC[text[i : i + 2]] + (0, None, None, False), i))
            i += 2
        elif ch in _ORGANIC:
            tokens.append((_T_ATOM, _ORGANIC[ch] + (0, None, None, False), i))
            i += 1
        elif ch in _BOND_SYMBOLS:
            tokens.append((_T_BOND, _BOND_SYMBOLS[ch], i))
            i += 1
        elif "0" <= ch <= "9":
            if ch == "0":
                raise SmilesError(f"ring closure digit 0 at position {i} (use %nn)")
            tokens.append((_T_RING, int(ch), i))
            i += 1
        elif ch == "%":
            pair = text[i + 1 : i + 3]
            if len(pair) != 2 or not (pair.isascii() and pair.isdigit()):
                raise SmilesError(f"'%' must be followed by two digits at position {i}")
            tokens.append((_T_RING, int(pair), i))
            i += 3
        elif ch == "(":
            tokens.append((_T_OPEN, None, i))
            i += 1
        elif ch == ")":
            tokens.append((_T_CLOSE, None, i))
            i += 1
        elif ch == ".":
            raise SmilesError(f"multi-component '.' at position {i} is not supported")
        elif ch in "/\\":
            raise SmilesError(f"stereo bond {ch!r} at position {i} is not supported")
        else:
            raise SmilesError(f"unexpected character {ch!r} at position {i}")
    return tokens


def _ascii_int(text: str) -> int:
    """text as a number if it is ASCII digits alone, else ValueError: the
    one reader of every decimal count in the input files and options.
    int() would also take other scripts' digits, a sign and underscores,
    and it refuses a text of more digits than the interpreter's limit:
    one it refuses is read as two halves."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} must be ASCII digits")
    try:
        return int(text)
    except ValueError:
        half = len(text) // 2
        return _ascii_int(text[:half]) * 10 ** (len(text) - half) + _ascii_int(text[half:])


def _bracket_atom(m: re.Match) -> tuple[Element, bool, int, str | None, int | None, bool]:
    """An atom token's value: SmilesAtom's fields after `index`, in order."""
    element, aromatic = _ORGANIC.get(m["symbol"]) or (Element.HYDROGEN, False)
    charge_text = m["charge"] or ""  # a sign and digits, repeated signs, or nothing
    sign = -1 if charge_text.startswith("-") else 1
    charge = sign * (_ascii_int(charge_text[1:]) if charge_text.strip("+-") else len(charge_text))
    hcount_text = m["hcount"]
    if hcount_text is None:
        h_count = None
    else:
        h_count = _ascii_int(hcount_text[1:]) if len(hcount_text) > 1 else 1
    return (element, aromatic, charge, m["chiral"], h_count, True)


# -- parser --------------------------------------------------------------------


def parse_smiles(text: str) -> SmilesAst:
    """Parse a SMILES string into its atoms, junctions and ring closures.

    One pass over the tokens: a stack holds the atom each open branch
    hangs from, and a table of open ring digits pairs each digit as soon
    as it recurs.  A digit is reusable once closed.
    """
    text = text.strip()
    if not text:
        raise SmilesError("empty SMILES string")
    tokens = _tokenize(text)
    tokens.append((None, None, len(text)))  # end sentinel
    atoms: list[SmilesAtom] = []
    rings: list[RingBond] = []
    open_rings: dict[int, tuple[int, Bond | None]] = {}
    branch_points: list[int] = []
    parent: int | None = None  # the atom the next one bonds to
    bond: Bond | None = None  # the symbol written for that bond
    i = 0
    while True:
        kind, value, at = tokens[i]
        if kind is not _T_ATOM:
            raise SmilesError(f"expected an atom at position {at}")
        atom = SmilesAtom(len(atoms), *value)
        atoms.append(atom)
        if parent is not None:
            atoms[parent].children.append((bond, atom.index))
        i += 1
        # Ring digits written on this atom, each optionally after a bond.
        while True:
            kind, value, _ = tokens[i]
            if kind is _T_RING:
                digit, ring_bond = value, None
                i += 1
            elif kind is _T_BOND and tokens[i + 1][0] is _T_RING:
                digit, ring_bond = tokens[i + 1][1], value
                i += 2
            else:
                break
            if digit in open_rings:
                opener, open_bond = open_rings.pop(digit)
                rings.append(RingBond(digit, opener, atom.index, open_bond, ring_bond))
            else:
                open_rings[digit] = (atom.index, ring_bond)
        # What joins the next atom: a branch, a bond, plain adjacency, or
        # closing branches back to where they hang.
        parent = atom.index
        while True:
            kind, value, at = tokens[i]
            if kind is _T_OPEN:
                branch_points.append(parent)
                bond = None
                i += 1
                if tokens[i][0] is _T_BOND:
                    bond = tokens[i][1]
                    i += 1
                break
            if kind is _T_BOND:
                if tokens[i + 1][0] is not _T_ATOM:
                    raise SmilesError(f"bond symbol at position {at} is not followed by an atom")
                bond = value
                i += 1
                break
            if kind is _T_ATOM:
                bond = None
                break
            if branch_points:
                if kind is not _T_CLOSE:
                    raise SmilesError(f"unbalanced parenthesis at position {at}")
                parent = branch_points.pop()
                i += 1
            elif kind is not None:
                raise SmilesError(f"unexpected {kind} token at position {at}")
            elif open_rings:
                raise SmilesError(f"unmatched ring closure digit {min(open_rings)}")
            else:
                return SmilesAst(atoms=atoms, rings=rings)


# -- bond inference and graph construction --------------------------------------


def infer_implicit_bonds(ast: SmilesAst) -> SmilesAst:
    """Fill every bond slot of the tree in place and return the tree.

    Junctions and ring closures with no written symbol become aromatic
    when both atoms are aromatic, single otherwise.  Written symbols are
    preserved; a ring closure written with conflicting symbols at its two
    ends is an error.
    """
    atoms = ast.atoms
    for atom in atoms:
        atom.children = [
            (bond or _implied(atom, atoms[child]), child) for bond, child in atom.children
        ]
    for ring in ast.rings:
        if ring.open_bond and ring.close_bond and ring.open_bond != ring.close_bond:
            raise SmilesError(
                f"ring closure {ring.digit} has conflicting bond symbols "
                f"({ring.open_bond.value} vs {ring.close_bond.value})"
            )
        bond = ring.open_bond or ring.close_bond or _implied(atoms[ring.opener], atoms[ring.closer])
        ring.open_bond = ring.close_bond = bond
    return ast


def _implied(a: SmilesAtom, b: SmilesAtom) -> Bond:
    return Bond.AROMATIC if a.aromatic and b.aromatic else Bond.SINGLE


def smiles_to_graph(ast: SmilesAst) -> Graph:
    """Graph of the heavy atoms: bonds must already be inferred.

    Vertex ids follow the atoms' order in the string, hydrogens skipped;
    explicit hydrogens and every bond touching one are dropped.  Edges
    appear in written order: each atom's closing ring bonds, then its
    junctions, document order throughout.
    """
    heavy: dict[int, int] = {}
    labels: list[Element] = []
    for atom in ast.atoms:
        if atom.element is not Element.HYDROGEN:
            heavy[atom.index] = len(labels)
            labels.append(atom.element)

    closing: dict[int, list[RingBond]] = {}
    for ring in ast.rings:
        if ring.close_bond is None:
            raise SmilesError("bonds not inferred; run infer_implicit_bonds first")
        if ring.opener == ring.closer:
            raise SmilesError(f"ring closure {ring.digit} forms a self-loop")
        closing.setdefault(ring.closer, []).append(ring)

    edges: list[tuple[int, int, Bond]] = []
    seen: set[tuple[int, int]] = set()

    def add_edge(a: int, b: int, bond: Bond, what: str) -> None:
        if a not in heavy or b not in heavy:
            return
        u, v = heavy[a], heavy[b]
        key = (min(u, v), max(u, v))
        if key in seen:
            raise SmilesError(f"{what} duplicates the bond between atoms {u} and {v}")
        seen.add(key)
        edges.append((u, v, bond))

    for atom in ast.atoms:
        for ring in closing.get(atom.index, ()):
            add_edge(ring.opener, atom.index, ring.close_bond, f"ring closure {ring.digit}")
        for bond, child in atom.children:
            if bond is None:
                raise SmilesError("bonds not inferred; run infer_implicit_bonds first")
            add_edge(atom.index, child, bond, "the chain")
    return build_graph(False, labels, edges)


def read_molecule(
    text: str, valences: ValenceConfig | None = None
) -> tuple[Graph, dict[Element, int]]:
    """Parse a SMILES string and check valences.

    Returns the heavy-atom graph together with the valence map restricted
    to the elements actually present.  An atom whose degree exceeds its
    limit, or an element with no configured limit, raises ValenceError.
    """
    if valences is None:
        valences = DEFAULT_VALENCES
    graph = smiles_to_graph(infer_implicit_bonds(parse_smiles(text)))
    degrees: dict[Element, int] = {}
    for element in sorted(set(graph.labels)):
        if element not in valences:
            raise ValenceError(f"no valence limit configured for element {element.value}")
        degrees[element] = valences[element]
    for v in range(graph.vertex_count):
        limit = degrees[graph.labels[v]]
        if graph.degree(v) > limit:
            raise ValenceError(
                f"atom {v} ({graph.labels[v].value}) has degree {graph.degree(v)}, "
                f"exceeding its valence limit {limit}"
            )
    return graph, degrees
