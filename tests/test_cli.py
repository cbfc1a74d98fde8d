"""The command-line interface: formats, exit codes, and agreement with
the library."""

import argparse
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import graphmml
from graphmml import (
    chain_information,
    conditional_table,
    information_content,
    label_text,
    outcome_text,
    read_molecule,
)
from graphmml.cli import build_parser, main
from conftest import (
    DRUG_SMILES,
    K33_EDGES,
    K33_LABELS,
    NEAR_K33_EDGES,
    NEAR_K33_LABELS,
    UTILITY_DEGREES,
    make_k33,
    make_near_k33,
)


def edge_list_text(labels, edges):
    lines = ["undirected"]
    lines += [f"v {i} {label}" for i, label in enumerate(labels)]
    lines += [f"e {u} {v} {label}" for u, v, label in edges]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = SimpleNamespace(root=root)
    paths.drugs = root / "drugs.txt"
    paths.drugs.write_text(
        "# reference molecules\n"
        + "".join(f"{name} {smiles}\n" for name, smiles in DRUG_SMILES.items())
    )
    paths.k33 = root / "k33.graph"
    paths.k33.write_text(edge_list_text(K33_LABELS, K33_EDGES))
    paths.near = root / "near_k33.graph"
    paths.near.write_text(edge_list_text(NEAR_K33_LABELS, NEAR_K33_EDGES))
    paths.square = root / "square.graph"
    paths.square.write_text(
        edge_list_text(["v"] * 4, [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (3, 0, "x")]))
    paths.k4 = root / "k4.graph"
    paths.k4.write_text(
        edge_list_text(["v"] * 4, [(u, v, "x") for u in range(4) for v in range(u + 1, 4)]))
    paths.bond = root / "bond.graph"
    paths.bond.write_text(edge_list_text(["v", "v"], [(0, 1, "x")]))
    return paths


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


K33_FLAGS = ["--valence", "Utility=4", "--valence", "House=3"]


class TestInfo:
    def test_unconditional_k33(self, files, capsys):
        code, out, _ = run(["info", files.k33, *K33_FLAGS, "--format", "tsv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name\tbits\tvertices\tedges"
        assert lines[1] == "k33\t41.226\t6\t9"

    def test_given_backgrounds_match_library(self, files, capsys):
        code, out, _ = run(
            ["info", files.k33, "--given", files.near, *K33_FLAGS, "--format", "tsv"],
            capsys)
        assert code == 0
        expected = information_content(
            make_k33(), [make_near_k33()], UTILITY_DEGREES, 3).total
        assert out.splitlines()[1] == f"k33\t{expected:.3f}\t6\t9"

    def test_molecule_rows_match_library(self, files, drug_graphs, drug_degrees, capsys):
        code, out, _ = run(["info", files.drugs, "--format", "tsv"], capsys)
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 4
        for row, (name, g) in zip(rows, drug_graphs.items()):
            expected = information_content(g, [], drug_degrees, 3).total
            cells = row.split("\t")
            assert cells == [name, f"{expected:.3f}",
                             str(g.vertex_count), str(g.edge_count)]

    def test_depth_comes_only_from_the_flag(self, files, capsys, monkeypatch):
        argv = ["info", files.k33, "--given", files.near, *K33_FLAGS, "--format", "tsv"]
        _, by_default, _ = run(argv, capsys)
        _, by_flag, _ = run([*argv, "--depth", "3"], capsys)
        _, shallow, _ = run([*argv, "--depth", "1"], capsys)
        assert by_default == by_flag != shallow
        monkeypatch.setenv("GRAPHMML_DEPTH", "1")  # a removed setting, now ignored
        assert run(argv, capsys)[1] == by_default
        code, out, err = run([*argv, "--depth", "-1"], capsys)
        assert code == 2 and out == "" and "depth" in err

    def test_steps_listing(self, files, capsys):
        plain_code, plain, _ = run(
            ["info", files.k33, "--given", files.k33, *K33_FLAGS, "--format", "tsv"],
            capsys)
        code, out, _ = run(
            ["info", files.k33, "--given", files.k33, *K33_FLAGS,
             "--format", "tsv", "--steps"], capsys)
        assert plain_code == code == 0
        lines = out.splitlines()
        assert lines[:2] == plain.splitlines()  # data rows stay put
        steps = [line for line in lines if line.startswith("#step")]
        assert len(steps) == 15
        first = steps[0].split("\t")
        assert first == ["#step", "k33", "0", "V", "vertex Utility degree 3", "1.585"]

    def test_targets_share_one_index_of_each_given(self, files, drug_graphs, drug_degrees, capsys,
                                                   monkeypatch, tmp_path):
        given = tmp_path / "valium.txt"
        given.write_text(f"valium {DRUG_SMILES['valium']}\n")
        options = ["--given", given, "--format", "tsv", "--steps"]
        built = []
        side = graphmml.context._Side

        def counting_side(g, depth, known=None):
            built.append(known is None)
            return side(g, depth, known)

        monkeypatch.setattr(graphmml.context, "_Side", counting_side)
        code, shared, _ = run(["info", files.drugs, *options], capsys)
        assert code == 0 and built.count(True) == 1  # one background side, four targets
        # Each target priced on its own, over the same edge alphabet, gives
        # the same rows and steps.
        alphabet = {e.label for g in drug_graphs.values() for e in g.edges}
        rows, steps = ["name\tbits\tvertices\tedges"], []
        for name, g in drug_graphs.items():
            result = information_content(g, [drug_graphs["valium"]], drug_degrees, 3,
                                         edge_alphabet=alphabet)
            rows.append(f"{name}\t{result.total:.3f}\t{g.vertex_count}\t{g.edge_count}")
            steps += [f"#step\t{name}\t{step.index}\t{step.kind}\t{outcome_text(step.outcome)}"
                      f"\t{step.bits + 0.0:.3f}" for step in result.steps]
        assert shared.splitlines() == rows + steps
        assert built.count(True) == 1 + 4  # each lone call indexes valium again
        assert len(steps) == sum(g.vertex_count + g.edge_count for g in drug_graphs.values())

    def test_huge_depth_prices_like_the_vertex_count(self, capsys, tmp_path):
        benzene = tmp_path / "benzene.txt"
        benzene.write_text("benzene c1ccccc1\n")
        argv = ["info", benzene, "--given", benzene, "--format", "tsv", "--steps"]
        code, capped, _ = run([*argv, "--depth", "6"], capsys)
        assert code == 0
        code, huge, _ = run([*argv, "--depth", str(10**9)], capsys)
        assert code == 0
        assert huge == capped

    def test_long_chain(self, capsys, tmp_path):
        chain = tmp_path / "chain.txt"
        chain.write_text("chain " + "C" * 2000 + "\n")
        code, out, _ = run(["info", chain, "--format", "tsv"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "chain\t4000.322\t2000\t1999"

        # Neither graph has a loop candidate, so every edge step costs 0
        # bits and every vertex step log2 of its outcome count.
        star = tmp_path / "star.graph"
        star.write_text(edge_list_text(
            ["hub"] + ["leaf"] * 20000, [(0, i, "x") for i in range(1, 20001)]))
        code, out, _ = run(["info", star, "--format", "tsv"], capsys)
        assert code == 0
        # Degree limits hub 20000, leaf 1: the root hub has 20003 possible
        # outcomes (degree 0 counts there), each leaf 20001.
        bits = math.log2(20003) + 20000 * math.log2(20001)
        assert out.splitlines()[1] == f"star\t{bits:.3f}\t20001\t20000"

        pairs = tmp_path / "pairs.graph"
        pairs.write_text(edge_list_text(
            ["a", "b"] * 10000, [(2 * i, 2 * i + 1, "x") for i in range(10000)]))
        code, out, _ = run(["info", pairs, "--format", "tsv"], capsys)
        assert code == 0
        # Each of the 10,000 components costs log2(4) + 0 + log2(2).
        assert out.splitlines()[1] == "pairs\t30000.000\t20000\t10000"

    def test_disconnected_target_sums_components(self, files, capsys, tmp_path):
        two = tmp_path / "two.graph"
        two.write_text(edge_list_text(
            ["Utility", "House", "Utility", "House"],
            [(0, 1, "Elec"), (2, 3, "Elec")]))
        code, out, _ = run(["info", two, "--format", "tsv"], capsys)
        assert code == 0
        # Observed degrees are 1; each half costs log2(4) + 0 + log2(2).
        assert out.splitlines()[1] == "two\t6.000\t4\t2"

    def test_steps_of_a_disconnected_target_use_input_ids(self, capsys, tmp_path):
        # An edge 0-1, a triangle 2-3-4 and an isolated vertex 5.
        six = tmp_path / "six.graph"
        six.write_text(edge_list_text(
            ["a"] * 6, [(0, 1, "x"), (2, 3, "x"), (3, 4, "x"), (4, 2, "x")]))
        code, out, _ = run(["info", six, "--steps", "--format", "tsv"], capsys)
        assert code == 0
        closing = [line for line in out.splitlines() if "closes" in line]
        assert [line.split("\t")[4] for line in closing] == ["edge x closes 2"]
        # Edge steps with one possible outcome cost 0 bits, printed unsigned.
        assert "\t0.000" in out
        assert not any("-0.000" in line for line in out.splitlines())


class TestTableAndChainCommands:
    def test_table_matches_library_and_is_deterministic(
            self, files, drug_graphs, drug_degrees, capsys):
        code, first, _ = run(["table", files.drugs, "--format", "tsv"], capsys)
        assert code == 0
        _, second, _ = run(["table", files.drugs, "--format", "tsv"], capsys)
        _, parallel, _ = run(
            ["table", files.drugs, "--format", "tsv", "--jobs", "3"], capsys)
        assert first == second == parallel

        table = conditional_table(list(drug_graphs.items()), drug_degrees, 3)
        lines = first.splitlines()
        assert lines[0] == "name\t" + "\t".join(drug_graphs)
        for i, line in enumerate(lines[1:]):
            cells = line.split("\t")
            assert cells[0] == table.names[i]
            assert cells[1:] == [f"{b:.3f}" for b in table.bits[i]]

    def test_human_table_parenthesizes_the_diagonal(self, files, capsys):
        code, out, _ = run(["table", files.k33, files.near], capsys)
        assert code == 0
        rows = out.splitlines()[1:]
        assert "(13.115)" in rows[0]
        assert "(" not in rows[0].replace("(13.115)", "")
        assert rows[1].count("(") == 1

    def test_chain_matches_library(self, files, drug_graphs, drug_degrees, capsys):
        code, out, _ = run(["chain", files.drugs, "--format", "tsv"], capsys)
        assert code == 0
        chain = chain_information(list(drug_graphs.items()), drug_degrees, 3)
        lines = out.splitlines()
        assert lines[0] == "name\tgiven\tbits"
        names = list(drug_graphs)
        for i, (name, bits) in enumerate(chain.items):
            assert lines[1 + i] == f"{name}\t{','.join(names[:i])}\t{bits:.3f}"
        assert lines[-1] == f"total\t\t{chain.total:.3f}"

    @pytest.mark.parametrize("command", ["table", "chain"])
    def test_disconnected_target(self, files, command, capsys, tmp_path):
        two = tmp_path / "two.graph"
        two.write_text(edge_list_text(
            ["Utility", "House", "Utility", "House"], [(0, 1, "Elec"), (2, 3, "Elec")]))
        code, out, err = run([command, files.k33, two, "--format", "tsv"], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[2].startswith("two\t")

    @pytest.mark.parametrize("command", ["table", "chain"])
    def test_readme_quick_start(self, command, capsys, tmp_path):
        # The README's quick-start outputs, human format, for its own
        # drugs.txt: the first block under "Quick start".
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        drugs = tmp_path / "drugs.txt"
        drugs.write_text(readme.split("## Quick start\n", 1)[1].split("```\n", 2)[1])
        block = readme.split(f"$ graphmml {command} drugs.txt\n", 1)[1].split("```", 1)[0]
        code, out, _ = run([command, drugs], capsys)
        assert code == 0
        assert out == block


class TestTreeCommand:
    def test_strict_round_trip(self, capsys):
        code, out, _ = run(["tree", "encode", "strict", "(F (L) (L))"], capsys)
        assert code == 0 and out == "FLL\n"
        code, out, _ = run(["tree", "decode", "strict", "FLL"], capsys)
        assert code == 0 and out == "(F (L) (L))\n"

    def test_general_round_trip(self, capsys):
        code, out, _ = run(["tree", "encode", "general", "(()())"], capsys)
        assert code == 0 and out == "duduu\n"
        code, out, _ = run(["tree", "decode", "general", "duduu"], capsys)
        assert code == 0 and out == "(()())\n"

    def test_deep_strict_round_trip(self, capsys):
        depth = 5000
        code_word = "F" * depth + "L" * (depth + 1)
        text = "(F " * depth + "(L)" + " (L))" * depth
        code, out, _ = run(["tree", "decode", "strict", code_word], capsys)
        assert code == 0 and out == text + "\n"
        code, out, _ = run(["tree", "encode", "strict", text], capsys)
        assert code == 0 and out == code_word + "\n"

    def test_deep_general_round_trip(self, capsys):
        depth = 5000
        code_word = "d" * depth + "u" * (depth + 1)
        text = "(" * (depth + 1) + ")" * (depth + 1)
        code, out, _ = run(["tree", "decode", "general", code_word], capsys)
        assert code == 0 and out == text + "\n"
        code, out, _ = run(["tree", "encode", "general", text], capsys)
        assert code == 0 and out == code_word + "\n"

    def test_malformed_input_is_a_format_error(self, capsys):
        assert run(["tree", "decode", "strict", "FLQ"], capsys)[0] == 2
        assert run(["tree", "decode", "general", "dud"], capsys)[0] == 2
        assert run(["tree", "encode", "strict", "(F (L)"], capsys)[0] == 2
        assert run(["tree", "encode", "general", "(L)"], capsys)[0] == 2


class TestOrderingCommand:
    def test_known_symmetries(self, files, capsys):
        code, out, _ = run(
            ["ordering", files.square, files.k4, files.bond, files.k33,
             "--format", "tsv"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "name\tautomorphisms\tsurplus_bits",
            "square\t8\t1.585",
            "k4\t24\t0.000",
            "bond\t2\t0.000",
            "k33\t6\t6.907",
        ]

    def test_too_large_for_brute_force(self, files, capsys):
        code, _, err = run(["ordering", files.drugs], capsys)
        assert code == 4
        assert "limit" in err

    def test_label_overrides_apply_as_in_pricing_commands(self, files, capsys):
        code, out, _ = run(["ordering", files.k33, *K33_FLAGS, "--format", "tsv"], capsys)
        assert code == 0 and out.splitlines()[1] == "k33\t6\t6.907"
        code, out, err = run(["ordering", files.k33, "--valence", "Zz=1"], capsys)
        assert code == 2 and out == "" and "'Zz'" in err

    def test_depth_is_not_an_option(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ordering", str(files.k33), "--depth", "2"])
        assert exc.value.code == 2
        assert "--depth" in capsys.readouterr().err


class TestParseCommand:
    def test_dump_matches_the_reader(self, files, capsys):
        code, out, _ = run(["parse", files.drugs], capsys)
        assert code == 0
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 4
        for block, (name, smiles) in zip(blocks, DRUG_SMILES.items()):
            lines = block.splitlines()
            assert lines[0] == f"# {name}"
            assert lines[1] == "undirected"
            g, _ = read_molecule(smiles)
            v_lines = [line for line in lines if line.startswith("v ")]
            e_lines = [line for line in lines if line.startswith("e ")]
            assert v_lines == [f"v {v} {label_text(g.labels[v])}"
                               for v in range(g.vertex_count)]
            assert e_lines == [f"e {e.u} {e.v} {label_text(e.label)}" for e in g.edges]

    def test_dump_reloads_with_identical_bits(self, files, capsys, tmp_path):
        single = tmp_path / "one.txt"
        single.write_text(f"viagra {DRUG_SMILES['viagra']}\n")
        _, molecule_out, _ = run(["info", single, "--format", "tsv"], capsys)
        _, dump, _ = run(["parse", single], capsys)
        redumped = tmp_path / "viagra.graph"
        redumped.write_text(dump)
        flags = ["--valence", "C=4", "--valence", "N=4",
                 "--valence", "O=2", "--valence", "S=6"]
        _, edge_list_out, _ = run(["info", redumped, *flags, "--format", "tsv"], capsys)
        bits = molecule_out.splitlines()[1].split("\t")[1]
        assert edge_list_out.splitlines()[1].split("\t")[1] == bits

    def test_edge_list_input_is_refused(self, files, capsys):
        code, _, err = run(["parse", files.k33], capsys)
        assert code == 2 and "edge-list" in err


class TestExitCodes:
    def test_malformed_molecule(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("broken C1CC\n")
        code, _, err = run(["info", bad], capsys)
        assert code == 2 and "ring" in err

    def test_missing_file(self, capsys):
        code, _, err = run(["info", "does-not-exist.txt"], capsys)
        assert code == 2 and "does-not-exist.txt" in err

    def test_valence_violation(self, capsys, tmp_path):
        bad = tmp_path / "penta.txt"
        bad.write_text("penta C(C)(C)(C)(C)C\n")
        assert run(["info", bad], capsys)[0] == 3

    def test_declared_degree_violation(self, files, capsys):
        code, _, err = run(
            ["info", files.k33, "--valence", "Utility=2", "--valence", "House=3"],
            capsys)
        assert code == 3 and "Utility" in err

    def test_unknown_override_label(self, files, capsys):
        assert run(["info", files.k33, "--valence", "Bogus=3"], capsys)[0] == 2

    def test_malformed_override(self, files, capsys):
        assert run(["info", files.k33, "--valence", "Utility"], capsys)[0] == 2
        assert run(["info", files.k33, "--valence", "Utility=zero"], capsys)[0] == 2
        assert run(["info", files.k33, "--valence", "Utility=0"], capsys)[0] == 2

    def test_duplicate_names(self, capsys, tmp_path):
        dup = tmp_path / "dup.txt"
        dup.write_text("same C\nsame CC\n")
        assert run(["info", dup], capsys)[0] == 2

    def test_bad_edge_list(self, capsys, tmp_path):
        broken = tmp_path / "broken.graph"
        broken.write_text("undirected\nv 0 a\nv 2 b\ne 0 2 x\n")
        code, _, err = run(["info", broken], capsys)
        assert code == 2 and "ids" in err
        headerless = tmp_path / "headerless.graph"
        headerless.write_text("v 0 a\n")
        # No header means molecule records, and "v 0 a" is no molecule.
        assert run(["info", headerless], capsys)[0] == 2

    def test_usage_error(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_search_too_deep_for_the_stack_is_a_size_error(self, capsys, tmp_path):
        # A chain of distinct labels given itself matches along its whole
        # length, so the matcher recurses as deep as --depth allows: about
        # one frame per level, so 150 levels overflow 100 spare frames.
        n = 150
        chain = tmp_path / "chain.graph"
        chain.write_text(edge_list_text([f"a{i}" for i in range(n)],
                                        [(i, i + 1, "x") for i in range(n - 1)]))
        argv = ["info", str(chain), "--given", str(chain), "--depth", str(n)]
        assert run(argv, capsys)[0] == 0
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            shallow = main([*argv, "--depth", "2"])  # the stack is short only for deep searches
            capsys.readouterr()
            code = main(argv)
        finally:
            sys.setrecursionlimit(limit)
        captured = capsys.readouterr()
        assert shallow == 0
        assert code == 4 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("graphmml: ")
        assert "--depth" in captured.err and "Traceback" not in captured.err


class TestValenceConfiguration:
    def test_file_applies_and_flags_win(self, capsys, tmp_path):
        neo = tmp_path / "neo.txt"
        neo.write_text("neo CC(C)(C)C\n")
        config = tmp_path / "valences.cfg"
        config.write_text("# tight carbon\nC=3\n")
        assert run(["info", neo, "--valence-file", config], capsys)[0] == 3
        code, out, _ = run(
            ["info", neo, "--valence-file", config, "--valence", "C=4",
             "--format", "tsv"], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("neo\t")


SUBCOMMANDS = ["info", "table", "chain", "tree", "ordering", "parse"]


class TestRepeatedCalls:
    """main keeps no state between calls but the parser it builds once."""

    def test_parser_is_built_once(self, files, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        argv = ["info", files.k33, *K33_FLAGS, "--format", "tsv"]
        first = run(argv, capsys)
        count = len(built)
        assert count > 0
        assert run(argv, capsys) == first
        assert len(built) == count  # the second call constructs no parser

    def test_backgrounds_do_not_carry_over(self, files, capsys):
        argv = ["info", files.k33, *K33_FLAGS, "--format", "tsv"]
        code, given, _ = run([*argv, "--given", files.near], capsys)
        assert code == 0 and given.splitlines()[1] != "k33\t41.226\t6\t9"
        code, cold, _ = run(argv, capsys)
        assert code == 0 and cold.splitlines()[1] == "k33\t41.226\t6\t9"

    def test_valence_flags_do_not_build_up(self, capsys, tmp_path):
        neo = tmp_path / "neo.txt"
        neo.write_text("neo CC(C)(C)C\n")
        assert run(["info", neo, "--valence", "C=3"], capsys)[0] == 3
        assert run(["info", neo], capsys)[0] == 0
        parser = build_parser()
        parser.parse_args(["info", "x", "--valence", "a=1"])
        assert parser.parse_args(["info", "x", "--valence", "b=2"]).valence == ["b=2"]
        assert parser.parse_args(["info", "x"]).valence is None

    def test_usage_error_then_valid_call(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info", str(files.k33), "--depth", "three"])
        assert exc.value.code == 2
        assert "--depth" in capsys.readouterr().err
        code, out, err = run(["info", files.k33, *K33_FLAGS, "--format", "tsv"], capsys)
        assert code == 0 and err == ""
        assert out == "name\tbits\tvertices\tedges\nk33\t41.226\t6\t9\n"

    @pytest.mark.parametrize("command", [[], *[[name] for name in SUBCOMMANDS]],
                             ids=lambda command: " ".join(command) or "graphmml")
    def test_help_is_the_same_on_every_call(self, command, capsys):
        build_parser.cache_clear()
        fresh = build_parser.__wrapped__()  # a parser that no call has used
        texts = []
        for parse in (main, main, fresh.parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([*command, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2]


def src_env():
    """This environment with the checkout's src/ on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=str(Path(graphmml.__file__).resolve().parent.parent))


def python_with_src(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=src_env())


# Prints the process-pool modules the process has loaded.
PRINT_POOL_MODULES = ("print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")


def test_import_loads_no_process_pool():
    # Only --jobs above 1 needs a process pool; a one-shot call never pays
    # for importing one.
    proc = python_with_src("-c", "import sys, graphmml.cli; " + PRINT_POOL_MODULES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_one_cell_table_loads_no_process_pool(tmp_path):
    # A one-graph table has one cell, so --jobs 4 needs one worker: this one.
    one = tmp_path / "one.txt"
    one.write_text("benzene c1ccccc1\n")
    proc = python_with_src(
        "-c", "import sys, graphmml.cli; graphmml.cli.main(sys.argv[1:]); " + PRINT_POOL_MODULES,
        "table", str(one), "--format", "tsv", "--jobs", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "name\tbenzene"
    assert proc.stdout.splitlines()[-1] == "[]"


def test_python_dash_m_runs_the_cli():
    proc = python_with_src("-m", "graphmml", "tree", "encode", "strict", "(L)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "L\n", "")


def console_scripts():
    """The `[project.scripts]` table of this checkout's `pyproject.toml`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def test_console_script_is_installed(tmp_path):
    # The wrapper an installer writes for a console script (PyPA
    # entry-points specification), made here from the project's own
    # declaration so the suite needs no install and never runs a
    # `graphmml` from elsewhere on PATH.
    module, _, attr = console_scripts()["graphmml"].partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "graphmml"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n")
    script.chmod(0o755)
    env = dict(src_env(), PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))

    exe = shutil.which("graphmml", path=str(bin_dir))
    assert exe, "console script not on PATH"
    proc = subprocess.run([exe, "tree", "encode", "strict", "(L)"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "L\n"
