"""Random SMILES-like molecule files through the command line: every run
ends in a documented exit code, never an uncaught exception."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

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
