"""Command-line front end: price graphs in bits, run the tree codecs,
count automorphisms, and convert molecules to edge lists.

Two input file formats are understood, told apart by their first
meaningful line.  An edge-list file starts with "undirected" or
"directed" and then holds one "v <id> <label>" line per vertex and one
"e <u> <v> <label>" line per edge.  Anything else is read as a molecule
file with one "<name> <smiles>" record per line.  In both, '#' starts a
comment line and blank lines are ignored.

The tsv output format is the stable, machine-readable contract: fixed
column counts, tab separators, bits with three fractional digits, and
byte-identical output for identical inputs.  The human format favours
aligned columns and mirrors conditional tables with a parenthesized
diagonal.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

from .codes import (
    GeneralTree,
    Leaf,
    SizeLimitError,
    StrictBinaryTree,
    TreeCodeError,
    automorphism_count,
    general_tree_decode,
    general_tree_encode,
    strict_binary_tree_decode,
)
from .context import (
    ContextError,
    chain_information,
    conditional_table,
    information_contents,
    label_text,
    outcome_text,
)
from .graph import Graph, GraphError, build_graph
from .smiles import DEFAULT_VALENCES, Element, SmilesError, ValenceError, _ascii_int, read_molecule

EXIT_OK = 0
EXIT_FORMAT = 2  # unreadable files, malformed input, bad usage
EXIT_VALENCE = 3  # valence or degree violations
EXIT_SIZE = 4  # brute-force size limits, searches too deep for the stack


class FileFormatError(ValueError):
    """An input file or option value does not follow its format."""


# -- input files -----------------------------------------------------------------


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _load_edge_list(text: str, path: str) -> Graph:
    directed: bool | None = None
    labels: dict[int, str] = {}
    edges: list[tuple[int, int, str]] = []
    for lineno, line in _meaningful_lines(text):
        if directed is None:
            if line not in ("undirected", "directed"):
                raise FileFormatError(
                    f"{path}:{lineno}: expected header 'undirected' or 'directed'"
                )
            directed = line == "directed"
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 3:
                vid = _ascii_int(parts[1])
                if vid in labels:
                    raise FileFormatError(f"{path}:{lineno}: vertex {parts[1]} declared twice")
                labels[vid] = parts[2]
            elif parts[0] == "e" and len(parts) == 4:
                edges.append((_ascii_int(parts[1]), _ascii_int(parts[2]), parts[3]))
            else:
                raise FileFormatError(
                    f"{path}:{lineno}: expected 'v <id> <label>' or 'e <u> <v> <label>'"
                )
        except ValueError as exc:
            if isinstance(exc, FileFormatError):
                raise
            raise FileFormatError(f"{path}:{lineno}: vertex id {exc}") from exc
    if directed is None:
        raise FileFormatError(f"{path}: empty edge-list file")
    # The n declared ids are distinct, so they are 0..n-1 unless one is n
    # or more, and an edge's ends are among them unless one is.  The first
    # line with such an id is named, and the id, which may be too long to
    # print, is not.
    n = len(labels)
    if max(labels, default=-1) >= n or any(u >= n or v >= n for u, v, _ in edges):
        stray = next(lineno for lineno, line in _meaningful_lines(text)
                     if any(_ascii_int(vid) >= n for vid in line.split()[1:-1]))
        raise FileFormatError(f"{path}:{stray}: vertex ids must be exactly 0..{n - 1}")
    try:
        return build_graph(directed, [labels[i] for i in range(len(labels))], edges)
    except GraphError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _load_molecules(text: str, path: str, valences) -> list[tuple[str, Graph]]:
    records: list[tuple[str, Graph]] = []
    seen: set[str] = set()
    for lineno, line in _meaningful_lines(text):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise FileFormatError(f"{path}:{lineno}: expected '<name> <smiles>'")
        name, smiles = parts[0], parts[1].strip()
        if name in seen:
            raise FileFormatError(f"{path}:{lineno}: duplicate molecule name {name!r}")
        seen.add(name)
        try:
            graph, _ = read_molecule(smiles, valences)
        except SmilesError as exc:
            raise type(exc)(f"{path}:{lineno} ({name}): {exc}") from exc
        records.append((name, graph))
    if not records:
        raise FileFormatError(f"{path}: no molecule records found")
    return records


def _read_text(path: str) -> str:
    """The file's UTF-8 text, less one leading byte-order mark.  Decoded
    with the mark, so a decoding error names the file's own byte offset."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _read_input(path: str) -> tuple[str, bool]:
    """An input file's text, and whether it is an edge list (else molecules)."""
    text = _read_text(path)
    first = next((line for _, line in _meaningful_lines(text)), "")
    return text, first in ("undirected", "directed")


def load_graph_file(path: str, valences) -> list[tuple[str, Graph]]:
    """Read one input file into named graphs."""
    text, edge_list = _read_input(path)
    if edge_list:
        return [(Path(path).stem, _load_edge_list(text, path))]
    return _load_molecules(text, path, valences)


# -- valence configuration ---------------------------------------------------------


def _parse_limit(entry: str, where: str) -> tuple[str, int]:
    key, sep, value = entry.partition("=")
    key = key.strip()
    value = value.strip()
    if not sep or not key or not value:
        raise FileFormatError(f"{where}: expected '<label>=<limit>', got {entry!r}")
    try:
        limit = _ascii_int(value)
    except ValueError as exc:
        raise FileFormatError(f"{where}: limit {exc}") from exc
    if limit < 1:
        raise FileFormatError(f"{where}: limit for {key!r} must be at least 1")
    return key, limit


def _valence_overrides(args) -> dict[str, int]:
    overrides: dict[str, int] = {}
    if args.valence_file:
        text = _read_text(args.valence_file)
        for lineno, line in _meaningful_lines(text):
            key, limit = _parse_limit(line, f"{args.valence_file}:{lineno}")
            overrides[key] = limit
    for entry in args.valence or []:  # flags win over the file
        key, limit = _parse_limit(entry, "--valence")
        overrides[key] = limit
    return overrides


_ELEMENT_SYMBOLS = {element.value for element in Element}


def _configure_valences(overrides: dict[str, int]):
    valences = dict(DEFAULT_VALENCES)
    for key, limit in overrides.items():
        if key in _ELEMENT_SYMBOLS:
            valences[Element(key)] = limit
    return valences


def _degree_limits(graphs: list[Graph], valences, overrides: dict[str, int]) -> dict[Any, int]:
    """Each vertex label's degree limit over all the graphs of one command.

    An element's limit is its configured valence; any other label's is its
    largest degree in any graph, and at least 1; a label in several inputs
    keeps the largest.  Each override then replaces a present label's limit,
    and one for a label that is neither present nor an element is an error.
    """
    limits: dict[Any, int] = {}
    for g in graphs:
        for label, slots in zip(g.labels, g.adjacency):
            limit = valences[label] if isinstance(label, Element) else len(slots) or 1
            if limit > limits.get(label, 0):
                limits[label] = limit
    for key, limit in overrides.items():
        if key in limits:
            limits[key] = limit
        elif key not in _ELEMENT_SYMBOLS:
            raise FileFormatError(f"--valence override for unknown label {key!r}")
    return limits


# -- shared input loader --------------------------------------------------------------


def _named_once(files: Iterable[list[tuple[str, Graph]]]) -> list[tuple[str, Graph]]:
    """The named graphs of the files, read one file at a time, once no name
    repeats across them."""
    records: list[tuple[str, Graph]] = []
    seen: set[str] = set()
    for file_records in files:
        for name, g in file_records:
            if name in seen:
                raise FileFormatError(f"duplicate graph name {name!r} across inputs")
            seen.add(name)
            records.append((name, g))
    return records


def _load_inputs(args):
    """The FILE graphs, the --given backgrounds and the degree limits of one
    command, read with --valence/--valence-file applied.

    Element limits apply while molecules are read; the degree limits are
    decided once every input is read.
    """
    overrides = _valence_overrides(args)
    valences = _configure_valences(overrides)
    targets = _named_once(load_graph_file(path, valences) for path in args.files)
    givens = [record for path in getattr(args, "given", None) or []
              for record in load_graph_file(path, valences)]
    degrees = _degree_limits([g for _, g in targets + givens], valences, overrides)
    if getattr(args, "depth", 0) < 0:
        raise FileFormatError("depth must be non-negative")
    if getattr(args, "jobs", 1) < 1:
        raise FileFormatError("--jobs must be at least 1")
    return targets, givens, degrees


def _bits(x: float) -> str:
    return f"{x + 0.0:.3f}"  # a 0-bit step is -log2(1.0), which is -0.0


def _print_rows(rows: list[list[str]], tsv: bool) -> None:
    if tsv:
        for row in rows:
            print("\t".join(row))
        return
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[c].rjust(widths[c]) for c in range(1, len(row))]
        print("  ".join(cells).rstrip())


# -- subcommands --------------------------------------------------------------------


def cmd_info(args) -> int:
    targets, givens, degrees = _load_inputs(args)
    results = information_contents([g for _, g in targets], [g for _, g in givens], degrees,
                                   args.depth)

    rows = [["name", "bits", "vertices", "edges"]]
    step_blocks: list[tuple[str, tuple]] = []
    for (name, g), result in zip(targets, results):
        rows.append([name, _bits(result.total), str(g.vertex_count), str(g.edge_count)])
        step_blocks.append((name, result.steps))

    tsv = args.format == "tsv"
    _print_rows(rows, tsv)
    if args.steps:
        for name, steps in step_blocks:
            for step in steps:
                if tsv:
                    print("\t".join([
                        "#step", name, str(step.index), step.kind,
                        outcome_text(step.outcome), _bits(step.bits),
                    ]))
                else:
                    print(f"  {name} step {step.index:>3} {step.kind} "
                          f"{outcome_text(step.outcome):<28} {_bits(step.bits)}")
    return EXIT_OK


def cmd_table(args) -> int:
    named, _, degrees = _load_inputs(args)
    result = conditional_table(named, degrees, args.depth, jobs=args.jobs)
    tsv = args.format == "tsv"
    rows = [["name", *result.names]]
    for i, name in enumerate(result.names):
        cells = []
        for j in range(len(result.names)):
            text = _bits(result.bits[i][j])
            if i == j and not tsv:
                text = f"({text})"
            cells.append(text)
        rows.append([name, *cells])
    _print_rows(rows, tsv)
    return EXIT_OK


def cmd_chain(args) -> int:
    named, _, degrees = _load_inputs(args)
    result = chain_information(named, degrees, args.depth, jobs=args.jobs)
    rows = [["name", "given", "bits"]]
    names = [name for name, _ in result.items]
    for i, (name, bits) in enumerate(result.items):
        rows.append([name, ",".join(names[:i]), _bits(bits)])
    rows.append(["total", "", _bits(result.total)])
    _print_rows(rows, args.format == "tsv")
    return EXIT_OK


# Tree text format: a strict binary tree is "(L)" or "(F <left> <right>)";
# a general tree is "(" followed by its children ")".  Whitespace between
# tokens is free on input.  Text is read through the codecs: strict text
# lists its codeword's letters in order, and general text is "(" followed
# by its codeword with d written "(" and u written ")".


def _tree_tokens(text: str) -> str:
    """The text's tokens, each one character, with the whitespace dropped."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    for raw in tokens:
        if raw not in ("(", ")", "L", "F"):
            raise FileFormatError(f"unexpected token {raw!r} in tree text")
    return "".join(tokens)


def _strict_codeword(text: str) -> str:
    tokens = _tree_tokens(text)
    code = tokens.replace("(", "").replace(")", "")
    if _render_strict(strict_binary_tree_decode(code)).replace(" ", "") != tokens:
        raise FileFormatError("strict tree text must be (L) or (F <left> <right>)")
    return code


def _render_strict(tree: StrictBinaryTree) -> str:
    out: list[str] = []
    stack: list = [tree]  # nodes still to render, and text that follows them
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append("(L)")
        else:
            out.append("(F ")
            stack += [")", item.right, " ", item.left]
    return "".join(out)


def _general_codeword(text: str) -> str:
    tokens = _tree_tokens(text)
    if not tokens.startswith("("):
        raise FileFormatError("general tree text must start with '('")
    code = tokens[1:].replace("(", "d").replace(")", "u")
    general_tree_decode(code)  # refuses letters, unbalanced and trailing text
    return code


def _render_general(tree: GeneralTree) -> str:
    # The codeword descends into every node but the root and ascends out of
    # every node, so the text is "(" for the root, then d as "(" and u as ")".
    return "(" + general_tree_encode(tree).replace("d", "(").replace("u", ")")


def cmd_tree(args) -> int:
    strict = args.kind == "strict"
    if args.action == "encode":
        print(_strict_codeword(args.text) if strict else _general_codeword(args.text))
    elif strict:
        print(_render_strict(strict_binary_tree_decode(args.text)))
    else:
        print(_render_general(general_tree_decode(args.text)))
    return EXIT_OK


def cmd_ordering(args) -> int:
    named, _, _ = _load_inputs(args)
    rows = [["name", "automorphisms", "surplus_bits"]]
    for name, g in named:
        count = automorphism_count(g)
        # ordering_surplus_bits(g), from the count already made: counting is
        # the slow part.
        surplus = math.log2(math.factorial(g.vertex_count) // count)
        rows.append([name, str(count), _bits(surplus)])
    _print_rows(rows, args.format == "tsv")
    return EXIT_OK


def cmd_parse(args) -> int:
    overrides = _valence_overrides(args)
    valences = _configure_valences(overrides)

    def molecules(path: str) -> list[tuple[str, Graph]]:
        text, edge_list = _read_input(path)
        if edge_list:
            raise FileFormatError(f"{path}: already an edge-list file")
        return _load_molecules(text, path, valences)

    records = _named_once(map(molecules, args.files))
    _degree_limits([g for _, g in records], valences, overrides)  # refuses unknown labels
    for name, g in records:
        print(f"# {name}")
        print("undirected")
        for v in range(g.vertex_count):
            print(f"v {v} {label_text(g.labels[v])}")
        for e in g.edges:
            print(f"e {e.u} {e.v} {label_text(e.label)}")
        print()
    return EXIT_OK


# -- parser and entry point -----------------------------------------------------------


def _add_common(sub, *, depth=True, given=False, steps=False, jobs=False) -> None:
    sub.add_argument("files", nargs="+", metavar="FILE",
                     help="molecule or edge-list input files")
    if given:
        sub.add_argument("--given", action="append", metavar="FILE",
                         help="background graphs the receiver already knows (repeatable)")
    if depth:
        sub.add_argument("--depth", type=int, default=3,
                         help="context match radius (default: 3)")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1,
                         help="worker processes for independent cells")
    if steps:
        sub.add_argument("--steps", action="store_true",
                         help="also dump the per-step cost log")
    sub.add_argument("--format", choices=("tsv", "human"), default="human",
                     help="tsv is the stable machine-readable contract")
    _add_valence(sub)


def _add_valence(sub) -> None:
    sub.add_argument("--valence", action="append", metavar="LABEL=N",
                     help="override a degree limit, e.g. C=4 (repeatable; wins over --valence-file)")
    sub.add_argument("--valence-file", metavar="FILE",
                     help="file of LABEL=N lines with degree limits")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    parsing leaves it unchanged, so every main call in a process reuses it."""
    parser = argparse.ArgumentParser(
        prog="graphmml",
        description="Information content of labelled graphs, absolute or "
                    "relative to graphs the receiver already knows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="bits per graph, optionally given backgrounds")
    _add_common(p, given=True, steps=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("table", help="pairwise conditional bits, every graph given every other")
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("chain", help="bits per graph given all earlier graphs, plus the total")
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("tree", help="succinct tree codecs")
    p.add_argument("action", choices=("encode", "decode"))
    p.add_argument("kind", choices=("strict", "general"))
    p.add_argument("text", help="tree as nested parentheses, or a codeword to decode")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("ordering", help="automorphism count and vertex-ordering surplus")
    _add_common(p, depth=False)
    p.set_defaults(func=cmd_ordering)

    p = sub.add_parser("parse", help="dump molecule files as edge-list text")
    p.add_argument("files", nargs="+", metavar="FILE", help="molecule input files")
    _add_valence(p)
    p.set_defaults(func=cmd_parse)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"graphmml: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except RecursionError:
        print("graphmml: the context match search ran out of stack; try a smaller --depth",
              file=sys.stderr)
        return EXIT_SIZE
    except (ValenceError, ContextError) as exc:
        print(f"graphmml: {exc}", file=sys.stderr)
        return EXIT_VALENCE
    except (SmilesError, GraphError, TreeCodeError, OSError, ValueError) as exc:
        print(f"graphmml: {exc}", file=sys.stderr)
        return EXIT_FORMAT
