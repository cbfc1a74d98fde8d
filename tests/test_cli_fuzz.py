"""Random SMILES-like molecule files, edge-list files and tree texts through
the command line, up to the readers' limits: digit runs longer than int()
reads, branches nested thousands deep, a byte-order mark or a byte that is
not UTF-8, and depths of 0, 1 and 10**9.  Every run ends in a documented
exit code, never an uncaught exception, and valid tree text survives a
round trip."""

import contextlib
import io
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from graphmml.cli import EXIT_FORMAT, EXIT_OK, EXIT_SIZE, EXIT_VALENCE, main

TOKENS = [
    "C", "c", "N", "n", "O", "o", "S", "s", "Cl", "Br", "I", "P",
    "[NH4+]", "[nH]", "[H]", "[O-]", "[C@@H]",
    "-", "=", "#", ":", "1", "2", "%12", "(", ")",
    ".", "/", "0", "q", "[Xx]", "[C", "%1",
]

noise = st.lists(st.sampled_from(TOKENS), max_size=14).map("".join)


def _chain(parts, ring):
    """Atoms each followed by nothing, a bond or a short branch; `ring`
    after the first atom and at the end closes a ring through the chain."""
    (first, tail), rest = parts[0], parts[1:]
    return first + ring + tail + "".join(atom + t for atom, t in rest) + ring


chain = st.builds(
    _chain,
    st.lists(st.tuples(st.sampled_from(TOKENS[:8]), st.sampled_from(["", "=", "(C)"])),
             min_size=1, max_size=10),
    st.sampled_from(["", "1"]),
)
smiles = st.one_of(chain, noise)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(molecules=st.lists(smiles, min_size=1, max_size=3))
def test_cli_exits_with_a_documented_code(tmp_path_factory, molecules):
    path = tmp_path_factory.mktemp("fuzz") / "molecules.txt"
    path.write_text("".join(f"m{i} {text}\n" for i, text in enumerate(molecules)))
    for command in ("info", "table", "chain", "parse"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path)])
        assert code in (EXIT_OK, EXIT_FORMAT, EXIT_VALENCE, EXIT_SIZE), (command, molecules)


@st.composite
def edge_list(draw):
    """An edge-list file, in one case in four with a flaw: bad, negative
    or repeated vertex ids, an edge to a bad id, a self-loop or a repeated
    edge.  Sparse edges leave several components, and a hub may join
    vertex 0 to many others."""
    n = draw(st.integers(0, 10))
    ids = list(range(n))
    end = st.integers(0, max(n - 1, 0))
    pairs = sorted(draw(st.sets(st.tuples(end, end).filter(lambda p: p[0] < p[1]), max_size=12)))
    if n > 1 and draw(st.booleans()):
        pairs += [(0, v) for v in draw(st.sets(st.integers(1, n - 1), min_size=1))
                  if (0, v) not in pairs]
    flaw = draw(st.sampled_from(["none"] * 3 + ["ids", "end", "self-loop", "repeat"]))
    if flaw == "ids":
        ids = draw(st.lists(st.integers(-2, n + 1), max_size=n + 2))
    elif flaw == "end":
        pairs.append((draw(end), draw(st.sampled_from([-1, n, n + 1]))))
    elif flaw == "self-loop":
        pairs.append((draw(end),) * 2)
    elif flaw == "repeat" and pairs:
        u, v = draw(st.sampled_from(pairs))
        pairs.append(draw(st.sampled_from([(u, v), (v, u)])))
    lines = [draw(st.sampled_from(["undirected"] * 3 + ["directed"]))]
    lines += [f"v {i} {draw(st.sampled_from('abc'))}" for i in ids]
    lines += [f"e {u} {v} {draw(st.sampled_from('xy'))}" for u, v in pairs]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=edge_list())
def test_cli_exits_with_a_documented_code_on_edge_lists(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("fuzz") / "graph.graph")
    Path(path).write_text(text)
    for args in (["info", path], ["info", path, "--given", path], ["table", path],
                 ["chain", path]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        assert code in (EXIT_OK, EXIT_FORMAT, EXIT_VALENCE, EXIT_SIZE), (args, text)


# A run of more digits than int() reads at once, its first digit drawn
# apart so that some runs start with 0.
digit_run = st.builds(lambda first, rest, n: first + rest * n, st.sampled_from("0123456789"),
                      st.sampled_from("0123456789"), st.integers(4_301, 6_000))


@st.composite
def long_digit_runs(draw):
    """A molecule or edge-list file, and its options, with one long digit
    run: in a bracket atom's H-count or charge, an edge-list vertex id or
    edge end, or a --valence or --valence-file limit."""
    digits = draw(digit_run)
    spot = draw(st.sampled_from(["H", "+", "-", "vertex", "end", "flag", "file"]))
    molecule = draw(st.booleans()) if spot in ("flag", "file") else spot in ("H", "+", "-")
    if molecule:
        bracket = f"[C{spot}{digits}]" if spot in ("H", "+", "-") else "C"
        name, label, text = "molecules.txt", "C", f"m {bracket}{draw(chain)}\n"
    else:
        lines = ["undirected", "v 0 a", "v 1 a", "e 0 1 x"]
        lines += {"vertex": [f"v {digits} a"], "end": [f"e 1 {digits} x"]}.get(spot, [])
        name, label, text = "graph.graph", "a", "\n".join(lines) + "\n"
    options = {"flag": [["--valence", f"{label}={digits}"]],
               "file": [["--valence-file", f"{label}={digits}\n"]]}.get(spot, [])
    return name, text, options


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=long_digit_runs())
def test_long_digit_runs_exit_with_a_documented_code(tmp_path_factory, case):
    name, text, options = case
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / name
    path.write_text(text)
    argv = []
    for option, value in options:
        if option == "--valence-file":
            (folder / "limits.cfg").write_text(value)
            value = str(folder / "limits.cfg")
        argv += [option, value]
    for command in ("info", "parse", "table"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(path), *argv])
        assert code in (EXIT_OK, EXIT_FORMAT, EXIT_VALENCE, EXIT_SIZE), (command, case)
        assert "Traceback" not in err.getvalue() and "set_int_max_str_digits" not in err.getvalue()


def _tree_command(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


tree_tokens = st.lists(st.sampled_from(["(", ")", "L", "F", " ", "(L)", "(F", "x", "d"]),
                       max_size=16).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["strict", "general"]), text=tree_tokens)
def test_tree_text_exits_with_a_documented_code(kind, text):
    code, out = _tree_command(["tree", "encode", kind, text])
    assert code in (EXIT_OK, EXIT_FORMAT), (kind, text)
    if code == EXIT_OK:  # accepted text decodes back to itself, up to spacing
        decoded = _tree_command(["tree", "decode", kind, out.strip()])[1]
        assert "".join(decoded.split()) == "".join(text.split())


strict_text = st.recursive(
    st.just("(L)"), lambda sub: st.builds("(F {} {})".format, sub, sub), max_leaves=40)
general_text = st.recursive(
    st.just("()"), lambda sub: st.lists(sub, max_size=4).map(lambda kids: f"({''.join(kids)})"),
    max_leaves=40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind_and_text=st.one_of(st.tuples(st.just("strict"), strict_text),
                               st.tuples(st.just("general"), general_text)))
def test_valid_tree_text_round_trips(kind_and_text):
    kind, text = kind_and_text
    code, word = _tree_command(["tree", "encode", kind, text])
    assert code == EXIT_OK, text
    word = word.strip()
    if kind == "strict":  # strict text lists its codeword's letters in order
        assert word == "".join(c for c in text if c in "LF")
    assert _tree_command(["tree", "decode", kind, word]) == (EXIT_OK, text + "\n")


def _run(argv):
    """The exit code and stderr of one command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_documented(argv, case):
    code, err = _run(argv)
    assert code in (EXIT_OK, EXIT_FORMAT, EXIT_VALENCE, EXIT_SIZE), (argv, case)
    assert "Traceback" not in err, (argv, case)


@st.composite
def deep_branches(draw):
    """A molecule whose branches nest 500 to 3,000 deep, each opened by an
    atom and an optional bond; one case in four drops or adds a closing
    parenthesis."""
    nesting = draw(st.integers(500, 3_000))
    atom = draw(st.sampled_from(["C", "C", "N", "O", "Cl", "c"]))
    bond = draw(st.sampled_from(["", "", "=", "-"]))
    closing = nesting + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return f"m {(atom + '(' + bond) * nesting}C{')' * closing}\n"


@settings(max_examples=8, deadline=None, derandomize=True)
@given(text=deep_branches(), depth=st.integers(0, 3))
@example(text=f"m {'C(' * 3_000}C{')' * 3_000}\n", depth=3)
def test_deep_branches_exit_with_a_documented_code(tmp_path_factory, text, depth):
    # Priced cold and given itself at a small depth: a long chain given
    # itself at a huge depth is the matcher's worst case, not the reader's.
    path = str(tmp_path_factory.mktemp("fuzz") / "deep.smi")
    Path(path).write_text(text)
    for argv in (["info", path], ["info", path, "--given", path, "--depth", str(depth)]):
        _assert_documented(argv, text[:40])


@st.composite
def odd_bytes(draw):
    """A molecule or edge-list file as bytes, with a leading byte-order mark
    or one stray 0xFF byte at a drawn place."""
    if draw(st.booleans()):
        text = "".join(f"m{i} {s}\n" for i, s in enumerate(draw(st.lists(chain, min_size=1,
                                                                           max_size=2))))
        name = "molecules.txt"
    else:
        text, name = draw(edge_list()), "graph.graph"
    data = text.encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    else:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return name, data


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=odd_bytes())
def test_odd_bytes_exit_with_a_documented_code(tmp_path_factory, case):
    name, data = case
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_bytes(data)
    for command in ("info", "parse", "table"):
        _assert_documented([command, str(path)], case)


# At most 12 atoms.
small_chain = st.builds(
    _chain,
    st.lists(st.tuples(st.sampled_from(["C", "C", "N", "O", "S"]),
                       st.sampled_from(["", "=", "(C)"])), min_size=1, max_size=6),
    st.sampled_from(["", "1"]),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(molecules=st.lists(small_chain, min_size=1, max_size=2),
       depth=st.sampled_from([0, 1, 10**9]))
def test_extreme_depths_exit_with_a_documented_code(tmp_path_factory, molecules, depth):
    # A depth of 10**9 is capped at the size of the largest component.
    path = str(tmp_path_factory.mktemp("fuzz") / "molecules.txt")
    Path(path).write_text("".join(f"m{i} {text}\n" for i, text in enumerate(molecules)))
    for argv in (["info", path], ["info", path, "--given", path], ["table", path],
                 ["chain", path]):
        _assert_documented([*argv, "--depth", str(depth)], molecules)
