"""SMILES reading: tokens, ring bonds, aromaticity, valence checks."""

from collections import Counter

import pytest

from graphmml import (
    DEFAULT_VALENCES,
    Bond,
    Element,
    SmilesError,
    ValenceError,
    infer_implicit_bonds,
    parse_smiles,
    read_molecule,
    smiles_to_graph,
)
from conftest import DRUG_SMILES

# name -> (heavy atoms, edges, element counts)
DRUG_SHAPES = {
    "viagra": (32, 35, {"C": 21, "N": 6, "O": 4, "S": 1}),
    "cialis": (29, 34, {"C": 22, "N": 3, "O": 4}),
    "valium": (20, 22, {"C": 16, "Cl": 1, "N": 2, "O": 1}),
    "xanax": (22, 25, {"C": 17, "Cl": 1, "N": 4}),
}


def graph_of(text):
    return smiles_to_graph(infer_implicit_bonds(parse_smiles(text)))


class TestReferenceMolecules:
    @pytest.mark.parametrize("name", sorted(DRUG_SMILES))
    def test_shapes(self, name):
        atoms, edges, elements = DRUG_SHAPES[name]
        g, _ = read_molecule(DRUG_SMILES[name])
        assert g.vertex_count == atoms
        assert g.edge_count == edges
        assert Counter(label.value for label in g.labels) == elements

    def test_degrees_reported_for_present_elements(self):
        _, degrees = read_molecule(DRUG_SMILES["viagra"])
        assert degrees == {
            Element.CARBON: 4, Element.NITROGEN: 4,
            Element.OXYGEN: 2, Element.SULPHUR: 6,
        }

    def test_xanax_explicit_single_bond_between_aromatics(self):
        g, _ = read_molecule(DRUG_SMILES["xanax"])
        # The trailing "-n12" hangs the bridgehead nitrogen (last atom)
        # off the preceding aromatic carbon with an explicit single bond.
        n = g.vertex_count - 1
        assert g.labels[n] is Element.NITROGEN
        junction = next(e.label for e in g.edges if {e.u, e.v} == {n - 1, n})
        assert junction is Bond.SINGLE
        assert g.degree(n) == 3


class TestBasicParsing:
    def test_benzene_is_an_aromatic_hexagon(self):
        g = graph_of("c1ccccc1")
        assert g.vertex_count == 6
        assert g.edge_count == 6
        assert all(g.degree(v) == 2 for v in range(6))
        assert all(e.label is Bond.AROMATIC for e in g.edges)
        assert all(label is Element.CARBON for label in g.labels)

    def test_chain_bonds_default_to_single(self):
        g = graph_of("CCO")
        assert [e.label for e in g.edges] == [Bond.SINGLE, Bond.SINGLE]
        assert g.labels[2] is Element.OXYGEN

    def test_explicit_bond_orders(self):
        g = graph_of("C=C")
        assert g.edges[0].label is Bond.DOUBLE
        g = graph_of("C#N")
        assert g.edges[0].label is Bond.TRIPLE

    def test_branches(self):
        g = graph_of("CC(C)(C)C")  # neopentane: central carbon of degree 4
        assert g.vertex_count == 5
        assert g.degree(1) == 4

    def test_two_letter_organic_atoms(self):
        g = graph_of("ClCCBr")
        assert g.labels[0] is Element.CHLORINE
        assert g.labels[3] is Element.BROMINE
        assert g.vertex_count == 4

    def test_ring_digits_can_be_reused(self):
        g = graph_of("C1CC1C1CC1")  # two triangles joined by one bond
        assert g.vertex_count == 6
        assert g.edge_count == 7
        assert sorted(g.degree(v) for v in range(6)) == [2, 2, 2, 2, 3, 3]

    def test_percent_ring_numbers(self):
        g = graph_of("C%12CC%12")
        assert g.edge_count == 3

    def test_ring_bond_order_may_sit_on_either_end(self):
        for text in ("C=1CCCCC=1", "C=1CCCCC1", "C1CCCCC=1"):
            g = graph_of(text)
            closures = [e for e in g.edges if e.label is Bond.DOUBLE]
            assert len(closures) == 1, text


class TestBracketAtoms:
    def test_charge_and_hydrogens(self):
        ast = parse_smiles("[NH4+]")
        atom = ast.atoms[0]
        assert atom.element is Element.NITROGEN
        assert atom.h_count == 4
        assert atom.charge == 1

    def test_numbered_charge(self):
        assert parse_smiles("[O-2]").atoms[0].charge == -2
        assert parse_smiles("[N+2]").atoms[0].charge == 2

    def test_counts_of_any_length_are_read(self):
        # int() refuses more than 4,300 digits at once; the reader does not.
        nines = "9" * 5_000
        count = 10 ** 5_000 - 1
        assert parse_smiles(f"C[CH{nines}]C").atoms[1].h_count == count
        assert parse_smiles(f"[N+{nines}]").atoms[0].charge == count
        assert parse_smiles(f"[O-{nines}]").atoms[0].charge == -count
        # The annotations play no part in the graph.
        assert graph_of(f"C[CH{nines}]C") == graph_of("C[CH]C")

    def test_chirality_markers(self):
        ast = parse_smiles("C[C@@H](N)O")
        assert ast.atoms[1].chirality == "@@"
        assert ast.atoms[1].h_count == 1

    def test_aromatic_bracket_nitrogen(self):
        ast = parse_smiles("c1cc[nH]c1")
        pyrrole_n = ast.atoms[3]
        assert pyrrole_n.element is Element.NITROGEN
        assert pyrrole_n.aromatic
        assert pyrrole_n.h_count == 1

    def test_explicit_hydrogen_atoms_are_dropped(self):
        g = graph_of("[H]C")
        assert g.vertex_count == 1
        assert g.edge_count == 0


class TestRejectedInput:
    @pytest.mark.parametrize("text", [
        "", "C(", "C)C", "C(C", "CC)",
        "C1CC",        # unmatched ring digit
        "C11",         # ring closed onto the same atom
        "C1C1",        # ring bond duplicates the chain bond
        "C-1CC=1",     # conflicting orders on one ring bond
        "C0",          # digit zero is reserved
        "C.C",         # disconnected parts are not accepted
        "C%1C",        # percent needs two digits
        "C1CC%1",      # ... also at the end of the string
        "C\u0661CC\u0661",  # ring digits are ASCII only
        "[CH\u0663]",  # so are hydrogen counts
        "C\u00b2",     # a superscript digit is no ring digit
        "[C",          # unterminated bracket
        "[Xx]",        # unknown bracket symbol
        "C/C=C/C",     # geometry markers are not supported
        "Cq",          # unknown character
        "=C",          # bond with nothing before it
        "C(=)C",       # bond with nothing after it
    ])
    def test_rejected(self, text):
        with pytest.raises(SmilesError):
            graph_of(text)

    def test_bonds_must_be_inferred_before_building(self):
        with pytest.raises(SmilesError):
            smiles_to_graph(parse_smiles("CC"))


class TestLongInput:
    def test_ten_thousand_atom_chain(self):
        g, _ = read_molecule("C" * 10_000)
        assert g.vertex_count == 10_000
        assert g.edge_count == 9_999

    def test_deeply_nested_branches(self):
        g, _ = read_molecule("C(" * 2000 + "C" + ")" * 2000)
        assert g.vertex_count == 2001
        assert g.edge_count == 2000
        assert all(g.degree(v) <= 2 for v in range(2001))


class TestBondInference:
    def test_fills_the_tree_in_place(self):
        ast = parse_smiles("c1ccccc1C=1CC1")
        assert infer_implicit_bonds(ast) is ast
        assert all(bond is not None for atom in ast.atoms for bond, _ in atom.children)
        assert [(r.open_bond, r.close_bond) for r in ast.rings] == [
            (Bond.AROMATIC, Bond.AROMATIC), (Bond.DOUBLE, Bond.DOUBLE)]


class TestValences:
    def test_overfilled_carbon(self):
        with pytest.raises(ValenceError):
            read_molecule("C(C)(C)(C)(C)C")

    def test_error_names_the_atom(self):
        with pytest.raises(ValenceError, match="atom 0"):
            read_molecule("C(C)(C)(C)(C)C")

    def test_custom_limits(self):
        relaxed = dict(DEFAULT_VALENCES)
        relaxed[Element.CARBON] = 6
        g, degrees = read_molecule("C(C)(C)(C)(C)C", relaxed)
        assert g.degree(0) == 5
        assert degrees[Element.CARBON] == 6

    def test_tight_limit_rejects_ethane(self):
        tight = dict(DEFAULT_VALENCES)
        tight[Element.CARBON] = 1
        read_molecule("CC", tight)
        with pytest.raises(ValenceError):
            read_molecule("CCC", tight)

    def test_missing_limit_for_present_element(self):
        with pytest.raises(ValenceError):
            read_molecule("CO", {Element.CARBON: 4})
