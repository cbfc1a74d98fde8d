"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests"""

import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import bench_inputs as bi  # noqa: E402
import bench_trace as bt  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import graphmml  # noqa: E402
import graphmml.cli  # noqa: E402
from graphmml import DEFAULT_VALENCES, build_graph, information_content, read_molecule  # noqa: E402


REFERENCE_DRUGS = {  # the README's four molecules
    "viagra": "CCc1nn(C)c2c(=O)[nH]c(nc12)c3cc(ccc3OCC)S(=O)(=O)N4CCN(C)CC4",
    "cialis": "CN1CC(=O)N2[C@@H](c3[nH]c4ccccc4c3C[C@@H]2C1=O)c5ccc6OCOc6c5",
    "valium": "CN1C(=O)CN=C(c2ccccc2)c3cc(Cl)ccc13",
    "xanax": "Cc1nnc2CN=C(c3ccccc3)c4cc(Cl)ccc4-n12",
}


def _generate(workload, seed, work):
    work.mkdir()
    generated = run.WORKLOADS[workload](seed, work)
    files = {p.name: p.read_text() for p in sorted(work.iterdir())}
    ops = [(op.id, [a.replace(str(work), "") for a in op.argv], op.steps) for op in generated.ops]
    return files, ops


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_are_deterministic_in_the_seed(workload, tmp_path):
    first = _generate(workload, 3, tmp_path / "a")
    assert _generate(workload, 3, tmp_path / "b") == first
    assert _generate(workload, 4, tmp_path / "c")[0] != first[0]


def test_generated_molecules_respect_graphmml_valences():
    assert {e.value: limit for e, limit in DEFAULT_VALENCES.items()} == bi.VALENCES
    with pytest.raises(bi.InputError):
        bi.read_smiles("CCl(C)C")  # chlorine mid-chain
    rng = random.Random(0)
    for scaffold in bi.SCAFFOLDS:
        for smiles in bi.analog_series(rng, scaffold, 3, 3):
            read_molecule(smiles)  # raises on a valence violation
    for atoms in (10, 35, 60):
        mol = bi.read_smiles(bi.drug_like(rng, atoms))
        assert abs(len(mol.labels) - atoms) <= 3


def test_reader_numbers_atoms_and_bonds_as_graphmml_does():
    rng = random.Random(1)
    smiles = list(REFERENCE_DRUGS.values()) + [bi.drug_like(rng, n) for n in (12, 30, 50)]
    for text in smiles:
        g, _ = read_molecule(text)
        mol = bi.read_smiles(text)
        assert mol.labels == tuple(label.value for label in g.labels)
        assert mol.edges == tuple((e.u, e.v, e.label.value) for e in g.edges)


def test_closed_form_cold_price_reproduces_the_readme_k33():
    edges = tuple((u, h, label) for u, label in enumerate(("Elec", "Gas", "H2O"))
                  for h in (3, 4, 5))
    k33 = bi.Mol(("Utility",) * 3 + ("House",) * 3, edges)
    bits = bi.cold_bits(k33, {"Utility": 4, "House": 3})
    assert f"{bits:.3f}" == "41.226"
    g = build_graph(False, k33.labels, k33.edges)
    assert bits == pytest.approx(information_content(g, [], {"Utility": 4, "House": 3}).total)


def test_closed_form_cold_price_matches_graphmml_on_lattices():
    rng = random.Random(2)
    for mol in (bi.grid(3, 4), bi.hex_sheet(2, 3), bi.ladder(9, "s", "d"),
                bi.polymer_chain(rng, 40), bi.relabel(bi.grid(4, 4), 0.3, rng.random())):
        degrees = bi.observed_degrees(mol)
        g = build_graph(False, mol.labels, mol.edges)
        assert bi.cold_bits(mol, degrees) == pytest.approx(information_content(g, [], degrees).total)


def _span(id, start, end, parent=None, name="x"):
    return bt.Span(id, name, start, end, parent, "op")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, 0),
        _span(2, 2.0, 4.0, 0),  # overlaps its sibling: covered once
        _span(3, 9.0, 12.0, 0),  # runs past its parent: clipped
        _span(4, 1.5, 2.5, 1),  # a grandchild does not count for span 0
    ]
    children = bt.children_of(spans)
    assert bt.self_time(spans[0], children) == pytest.approx(10.0 - 3.0 - 1.0)
    assert bt.self_time(spans[1], children) == pytest.approx(1.0)
    assert bt.self_time(spans[4], children) == pytest.approx(1.0)


def test_total_time_counts_nested_calls_of_one_name_once():
    spans = [_span(0, 0.0, 4.0, name="f"), _span(1, 1.0, 2.0, 0, name="f"),
             _span(2, 5.0, 6.0, name="f"), _span(3, 5.0, 5.5, 2, name="g")]
    assert bt.total_time(spans, "f") == pytest.approx(5.0)
    assert bt.total_time(spans, "g") == pytest.approx(0.5)
    assert bt.total_time(spans, "h") == 0.0


def test_percentile_interpolates_between_ranks():
    assert bt.percentile([], 50) is None
    assert bt.percentile([7.0], 90) == 7.0
    assert bt.percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
    assert bt.percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert bt.percentile([1.0, 2.0, float("inf")], 50) == 2.0


def test_scaled_time_cancels_the_host_speed():
    ref = run.PROBE_REF_S
    assert run.scaled(1.5, ref, ref) == pytest.approx(1.5)
    assert run.scaled(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)  # a host at half speed
    assert run.scaled(2.0, ref, 3 * ref) == pytest.approx(1.0)  # slowed during the op
    assert run.probe() > 0


def _attributes():
    return {(m.__name__, a): getattr(m, a)
            for m in (graphmml.cli, graphmml.context, graphmml.graph, graphmml.smiles)
            for a in dir(m) if callable(getattr(m, a))}


def test_wrappers_are_restored(tmp_path):
    before = _attributes()
    path = tmp_path / "m.smi"
    path.write_text("a c1ccccc1CCN\nb c1ccncc1CCO\n")
    tracer = bt.Tracer()
    try:
        absent = run.install(tracer, graphmml)
        assert graphmml.context.traverse is not before["graphmml.context", "traverse"]
        _, text, error = run.call(graphmml.cli, ["table", str(path), "--format", "tsv"])
    finally:
        tracer.restore()
    assert error is None and text.startswith("name\ta\tb\n")
    assert absent == set()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = run.layer_metrics(tracer.spans, absent)
    assert metrics["graph.steps"][0] == 2 * sum(bi.read_smiles(s).size for s in
                                                ("c1ccccc1CCN", "c1ccncc1CCO"))
    assert metrics["context.backgrounds_per_step"][0] == 1


def test_metrics_of_a_missing_function_are_absent_not_fatal():
    tracer = bt.Tracer()
    module = SimpleNamespace(__name__="fake")
    assert tracer.patch(module, "gone", "context.vertex_matches") is False
    metrics = run.layer_metrics([], {"context.vertex_matches", "context.edge_matches"})
    assert "context.vertex_matches_s" not in metrics and "context.matches" not in metrics
    assert "cli.self_s" in metrics


@pytest.mark.parametrize("limit", [1, 109, 700, 20_000])
def test_chain_probe_finds_the_recursion_limit(limit):
    def read_molecule(text):
        if len(text) > limit:
            raise RecursionError
    fake = SimpleNamespace(smiles=SimpleNamespace(read_molecule=read_molecule))
    assert run.max_chain_atoms(fake) == min(limit, run.MAX_CHAIN_CAP)
