#!/usr/bin/env python3
"""graphmml benchmark: closed-loop CLI ops on seeded inputs, with output checks.

    python3 perfbench/run.py --workload analog-table --seed 0 --seconds 20 --trace 0

One client calls graphmml.cli.main in-process with --format tsv and sends
the next command only when the previous one has returned.  Every output is
checked.  With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced round, and the spans are written to .perfbench/ in the checkout.
See perfbench/README.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import bench_inputs as bi  # noqa: E402
import bench_trace as bt  # noqa: E402

DEFAULT_SEED = 0
DEPTH = "3"
JOBS_REPS = 2
MAX_CHAIN_CAP = 10_000
# Wall time of probe() at the reference speed: about its time in a fast
# spell on the 2-vCPU Linux VM with Python 3.11 of the baseline.
PROBE_REF_S = 0.0015


@dataclass
class Op:
    id: str
    argv: list[str]
    steps: int  # traversal steps the op prices, summed over information_content calls
    check: Callable[[str], str | None]  # None when the TSV output is right
    round: int


@dataclass
class Workload:
    ops: list[Op]
    jobs_argv: list[str]  # a table or chain command, run at --jobs 1 and --jobs 2
    # The op each set-up runs cold, one set-up per entry; setup_s is their
    # median.  A fixed count keeps the memory the discarded imports leave
    # behind alike from run to run.
    setup_ops: list[Op]


# -- output checks ------------------------------------------------------------------


def _rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines()]


def _bits(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value) or value <= 0.0 or cell != f"{value:.3f}":
        raise ValueError(f"bad bits cell {cell!r}")
    return value


def _check_table(names: list[str]) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        rows = _rows(text)
        if rows[0] != ["name", *names] or [r[0] for r in rows[1:]] != names:
            return "table names differ from the inputs"
        for row in rows[1:]:
            if len(row) != len(names) + 1:
                return "ragged table row"
            for cell in row[1:]:
                _bits(cell)
        return None
    return check


def _check_chain(names: list[str]) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        rows = _rows(text)
        expected = [["name", "given"]] + [[n, ",".join(names[:i])] for i, n in enumerate(names)]
        expected.append(["total", ""])
        if len(rows) != len(expected) or any(r[:2] != e for r, e in zip(rows, expected)):
            return "chain rows differ from the inputs"
        parts = [_bits(r[2]) for r in rows[1:-1]]
        if abs(_bits(rows[-1][2]) - sum(parts)) > 0.0005 * len(parts) + 1e-9:
            return "chain total is not the sum of its rows"
        return None
    return check


def _check_info(name: str, mol: bi.Mol, cold: float | None) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        rows = _rows(text)
        if len(rows) != 2 or rows[0] != ["name", "bits", "vertices", "edges"]:
            return "info output is not one header and one row"
        row = rows[1]
        if row[0] != name or row[2:] != [str(len(mol.labels)), str(len(mol.edges))]:
            return "info row names or counts differ from the input"
        bits = _bits(row[1])
        if cold is not None and abs(bits - cold) > 0.0005 + 1e-9:
            return f"cold price {bits} is not the closed-form {cold:.6f}"
        return None
    return check


# -- workloads ----------------------------------------------------------------------


def _write_molecules(path: Path, named: list[tuple[str, str]]) -> None:
    path.write_text("".join(f"{name} {smiles}\n" for name, smiles in named))


def _tsv(*argv: str) -> list[str]:
    return [*argv, "--depth", DEPTH, "--format", "tsv"]


# Panels per seed.  A run cycles through them, so its op times average
# over three draws of R groups rather than hang on one.
PANELS = 3


def analog_table(seed: int, work: Path) -> Workload:
    """table over four analog series of three, one series per scaffold;
    one op and one round per panel."""
    rng = random.Random(f"analog-table:{seed}")
    ops = []
    for p in range(PANELS):
        named = []
        for k, scaffold in enumerate(bi.SCAFFOLDS):
            for i, smiles in enumerate(bi.analog_series(rng, scaffold, 3, 4)):
                named.append((f"s{k}a{i}", smiles))
        path = work / f"panel{p}.smi"
        _write_molecules(path, named)
        names = [name for name, _ in named]
        steps = len(named) * sum(bi.read_smiles(s).size for _, s in named)
        ops.append(Op(f"table{p}", _tsv("table", str(path)), steps, _check_table(names), p))
    return Workload(ops, ops[0].argv, ops)


def analog_chain(seed: int, work: Path) -> Workload:
    """chain over three analog series of eight, sent series by series;
    one op and one round per panel."""
    rng = random.Random(f"analog-chain:{seed}")
    ops = []
    for p in range(PANELS):
        named = []
        for k, scaffold in enumerate(bi.SCAFFOLDS[1:]):
            for i, smiles in enumerate(bi.analog_series(rng, scaffold, 8, 3)):
                named.append((f"s{k}a{i}", smiles))
        path = work / f"series{p}.smi"
        _write_molecules(path, named)
        names = [name for name, _ in named]
        steps = sum(bi.read_smiles(s).size for _, s in named)
        ops.append(Op(f"chain{p}", _tsv("chain", str(path)), steps, _check_chain(names), p))
    return Workload(ops, ops[0].argv, ops)


LATTICES = (
    ("grid", (3, 3)), ("ladder", (6,)), ("hex", (2, 2)), ("grid", (3, 4)),
    ("ladder", (10,)), ("hex", (2, 3)), ("grid", (4, 4)), ("ladder", (14,)),
    ("hex", (3, 3)), ("grid", (4, 5)), ("grid", (3, 8)), ("grid", (5, 5)),
)
# Relabelled shares.  Below about 0.3 the cost of a grid swings by half
# with where the relabelled vertices fall; from 0.3 up it is steady, and
# a 5x5 grid given itself, the heaviest op, takes about a second.  The
# 3x8 grid, whose cost barely moves with the placement, fills the tenth
# of the ops where op_p90_s falls.
SHARES = (0.3, 0.35, 0.4, 0.45)
_FAMILIES = {"grid": bi.grid, "ladder": bi.ladder, "hex": bi.hex_sheet}


def lattice_self(seed: int, work: Path) -> Workload:
    """info G --given G, one op per lattice and relabelled share.

    A lattice's shares take offsets a quarter apart from one seeded start,
    so each lattice meets the whole range of placements in every seed.
    A round is one share over every lattice, so a run that stops between
    rounds still has the full range of lattice sizes.
    """
    rng = random.Random(f"lattice-self:{seed}")
    starts = [rng.random() for _ in LATTICES]
    ops = []
    for k, share in enumerate(SHARES):
        for (family, size), start in zip(LATTICES, starts):
            offset = (start + k / len(SHARES)) % 1.0
            mol = bi.relabel(_FAMILIES[family](*size), share, offset)
            name = f"{family}{'x'.join(map(str, size))}_{round(share * 100)}"
            path = work / f"{name}.graph"
            path.write_text(bi.edge_list_text(mol))
            argv = _tsv("info", str(path), "--given", str(path))
            ops.append(Op(name, argv, mol.size, _check_info(name, mol, None), k))
    jobs = [op.argv[1] for op in ops[:3]]
    return Workload(ops, _tsv("table", *jobs), [ops[0]] * 15)


CORPUS_ROUNDS = 15
CORPUS_SMILES = 32  # per round, 10..60 heavy atoms
CORPUS_LARGE = 8  # per round, 100..400 vertices


def cold_corpus(seed: int, work: Path) -> Workload:
    """info with no backgrounds over drug-like SMILES and large edge lists.

    Each round holds four SMILES to one large graph, with sizes spread
    evenly over their ranges and the large graphs alternating between
    chains and ladders along the sizes, so any run of whole rounds has the
    same mix.  A large graph's size keeps within four vertices of the
    middle of its slot on the schedule, because op_p90_s falls among them
    and their time grows with the square of their size.
    """
    rng = random.Random(f"cold-corpus:{seed}")
    ops = []
    for r in range(CORPUS_ROUNDS):
        small = [round(10 + (j + rng.random()) * 50 / CORPUS_SMILES) for j in range(CORPUS_SMILES)]
        parity = rng.randrange(2)
        large = [(round(100 + (j + 0.4 + 0.2 * rng.random()) * 300 / CORPUS_LARGE),
                  (j + parity) % 2) for j in range(CORPUS_LARGE)]
        rng.shuffle(small)
        rng.shuffle(large)
        for k in range(CORPUS_SMILES + CORPUS_LARGE):
            if k % 5 == 4:
                n, is_chain = large.pop()
                if is_chain:
                    mol = bi.polymer_chain(rng, n)
                else:
                    mol = bi.ladder(n // 2, *rng.choice((("b", "b"), ("s", "d"), ("d", "s"))))
                name = f"g{r}_{k}"
                path = work / f"{name}.graph"
                path.write_text(bi.edge_list_text(mol))
                cold = bi.cold_bits(mol, bi.observed_degrees(mol))
            else:
                smiles = bi.drug_like(rng, small.pop())
                mol = bi.read_smiles(smiles)
                name = f"m{r}_{k}"
                path = work / f"{name}.smi"
                _write_molecules(path, [(name, smiles)])
                cold = bi.cold_bits(mol, bi.molecule_degrees(mol))
            ops.append(Op(name, _tsv("info", str(path)), mol.size,
                          _check_info(name, mol, cold), r))
    molecules = [op for op in ops if op.id.startswith("m")]
    jobs = [op.argv[1] for op in molecules[:4]]
    # Fifteen molecules of seeded sizes, so the median does not hang on one.
    return Workload(ops, _tsv("table", *jobs), molecules[:15])


WORKLOADS = {
    "analog-table": analog_table,
    "analog-chain": analog_chain,
    "lattice-self": lattice_self,
    "cold-corpus": cold_corpus,
}


# -- driving the CLI ----------------------------------------------------------------


def fresh_import():
    """Import graphmml.cli from the checkout's sources, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "graphmml" or n.startswith("graphmml.")]:
        del sys.modules[name]
    cli = importlib.import_module("graphmml.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"graphmml was imported from {cli.__file__}, not from {SRC}")
    return cli


def _probe_loop() -> float:
    start = time.perf_counter()
    table: dict[tuple[int, int], list[int]] = {}
    total = 0
    for i in range(5000):
        row = table.setdefault((i % 97, i % 13), [])
        row.append(i)
        total += len(row)
    total += len(sorted(table, key=lambda key: (key[1], key[0])))
    elapsed = time.perf_counter() - start
    if total <= 0:
        raise RuntimeError("the speed probe computed nothing")
    return elapsed


def probe() -> float:
    """Median wall time of three runs of a fixed pure-Python loop of tuples,
    dicts and lists.

    A shared host runs the same Python code up to 1.7 times slower for
    tens of seconds at a time.  The probe slows with it, so an op's time
    times PROBE_REF_S over the probe's time next to it is the op's time at
    the reference speed, whatever spell the host is in.  The median of
    three ignores a pause of a few milliseconds that hits one run.
    """
    return statistics.median(_probe_loop() for _ in range(3))


def scaled(elapsed: float, before: float, after: float) -> float:
    """elapsed at the reference speed, given the probe's times around it."""
    return elapsed * PROBE_REF_S * 2 / (before + after)


def call(cli, argv: list[str]) -> tuple[float, str, str | None]:
    """Run one CLI command; returns (wall seconds, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed op, not the end of the run
        code, error = None, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return elapsed, out.getvalue(), error


class Checker:
    """Checks each output against its op's check, the reference and earlier runs."""

    def __init__(self, reference: dict[str, str] | None):
        self.reference = reference
        self.first: dict[str, str] = {}
        self.errors: list[str] = []

    def __call__(self, op: Op, text: str, error: str | None) -> bool:
        if error is None:
            try:
                error = op.check(text)
            except (ValueError, IndexError) as exc:
                error = f"unparsable output: {exc}"
        if error is None and self.reference is not None and self.reference.get(op.id) != text:
            error = "output differs from the committed reference"
        if error is None and self.first.setdefault(op.id, text) != text:
            error = "output differs from an earlier run of the same op"
        if error is not None:
            self.errors.append(f"{op.id}: {error}")
        return error is None


@dataclass
class Sample:
    op: Op
    seconds: float  # at the reference speed
    wall: float  # as the clock read it
    ok: bool
    lap: int


class Meter:
    """Runs ops between speed probes and checks their outputs.

    The probe after one op also serves as the probe before the next.
    """

    def __init__(self, cli, checker: Checker):
        self.cli = cli
        self.checker = checker
        self.last: float | None = None

    def __call__(self, op: Op, lap: int) -> Sample:
        before = probe() if self.last is None else self.last
        elapsed, text, error = call(self.cli, op.argv)
        self.last = probe()
        return Sample(op, scaled(elapsed, before, self.last), elapsed,
                      self.checker(op, text, error), lap)


def closed_loop(cli, ops: list[Op], seconds: float, checker: Checker) -> list[Sample]:
    """Run ops one at a time, a whole round per lap, until seconds have passed.

    Laps cycle through the rounds.  Stopping only between laps gives every
    run the same mix of ops.
    """
    rounds: dict[int, list[Op]] = {}
    for op in ops:
        rounds.setdefault(op.round, []).append(op)
    order = [rounds[r] for r in sorted(rounds)]
    meter = Meter(cli, checker)
    samples = []
    deadline = time.perf_counter() + seconds
    lap = 0
    while not samples or time.perf_counter() < deadline:
        for op in order[lap % len(order)]:
            samples.append(meter(op, lap))
        lap += 1
    return samples


def steps_rate(samples: list[Sample]) -> float:
    """Median over laps of the steps priced per second of op time (reference speed)."""
    laps: dict[int, list[Sample]] = {}
    for s in samples:
        laps.setdefault(s.lap, []).append(s)
    return statistics.median(
        sum(s.op.steps for s in lap if s.ok) / sum(s.seconds for s in lap)
        for lap in laps.values()
    )


def latency(samples: list[Sample], q: float, wall: bool = False) -> float:
    """Percentile of op time at the reference speed (or as the clock read it,
    with wall=True); a failed op counts as infinitely slow."""
    return bt.percentile([(s.wall if wall else s.seconds) if s.ok else math.inf
                          for s in samples], q)


# -- end-to-end run -----------------------------------------------------------------


def end_to_end(workload: Workload, seconds: float, checker: Checker) -> tuple[dict, list[Sample]]:
    setup = []
    for op in workload.setup_ops:
        gc.collect()  # frees the modules of the last import, which hold cycles
        before = probe()
        start = time.perf_counter()
        cli = fresh_import()
        imported = time.perf_counter() - start
        elapsed, text, error = call(cli, op.argv)
        setup.append(scaled(imported + elapsed, before, probe()))
        checker(op, text, error)
    samples = closed_loop(cli, workload.ops, seconds, checker)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (latency(samples, 50), "s"),
        "op_p90_s": (latency(samples, 90), "s"),
        "steps_per_s": (steps_rate(samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, samples


# -- traced run ---------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _atoms_work(args, kwargs, result):
    return {"atoms": result[0].vertex_count}


def _space_work(args, kwargs, result):
    return {"space": len(_arg(args, kwargs, 1, "outcome_space"))}


def _match_work(incoming_index: int | None):
    def work(args, kwargs, result):
        backgrounds = _arg(args, kwargs, 1, "backgrounds")
        root = incoming_index is not None and _arg(args, kwargs, incoming_index, "incoming") is None
        pairs = sum(bg.vertex_count if root else 2 * bg.edge_count for bg in backgrounds)
        return {"matches": len(result), "pairs": pairs, "backgrounds": len(backgrounds)}
    return work


def install(tracer: bt.Tracer, graphmml) -> set[str]:
    """Wrap each public function where its callers look it up; returns absent span names."""
    cli, context, graph, smiles = graphmml.cli, graphmml.context, graphmml.graph, graphmml.smiles
    plan = [
        (cli, "main", "cli.main", {}),
        (cli, "load_graph_file", "cli.load_graph_file", {}),
        (cli, "read_molecule", "smiles.read_molecule", {"work": _atoms_work}),
        (cli, "build_graph", "graph.build_graph", {}),
        (cli, "connected_components", "graph.connected_components", {}),
        (cli, "information_content", "context.information_content", {}),
        (cli, "conditional_table", "context.batch", {}),
        (cli, "chain_information", "context.batch", {}),
        (smiles, "parse_smiles", "smiles.parse_smiles", {}),
        (smiles, "infer_implicit_bonds", "smiles.infer_implicit_bonds", {}),
        (smiles, "smiles_to_graph", "smiles.smiles_to_graph", {}),
        (smiles, "build_graph", "graph.build_graph", {}),
        (graph, "build_graph", "graph.build_graph", {}),
        (graph, "loop_candidates", "graph.loop_candidates", {}),
        (context, "traverse", "graph.traverse", {"callbacks": True}),
        (context, "loop_candidates", "graph.loop_candidates", {}),
        (context, "connected_components", "graph.connected_components", {}),
        (context, "information_content", "context.information_content", {}),
        (context, "vertex_matches", "context.vertex_matches", {"work": _match_work(2)}),
        (context, "edge_matches", "context.edge_matches", {"work": _match_work(None)}),
        (context, "scored_matches_to_model", "context.model", {"work": _space_work}),
        (context, "vertex_outcome_space", "context.space", {}),
        (context, "edge_outcome_space", "context.space", {}),
    ]
    present, absent = set(), set()
    for module, attr, name, options in plan:
        (present if tracer.patch(module, attr, name, **options) else absent).add(name)
    return absent - present


def layer_metrics(spans: list[bt.Span], absent: set[str]) -> dict:
    """Per-layer metrics of one traced round, keyed by metric name."""
    children = bt.children_of(spans)
    by_name: dict[str, list[bt.Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name):
        return bt.total_time(spans, name)

    def selftime(*names):
        return sum(bt.self_time(s, children) for n in names for s in by_name.get(n, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def work(names, key):
        return sum(s.work[key] for n in names for s in by_name.get(n, ()) if s.work)

    matchers = ("context.vertex_matches", "context.edge_matches")
    match_calls = calls(matchers[0]) + calls(matchers[1])
    pairs = work(matchers, "pairs")
    cells = [s.duration * 1000 for s in by_name.get("context.information_content", ())]
    # (metric, unit, spans it needs, value); a metric whose spans could not be
    # installed is left out rather than reported as zero.
    table = [
        ("smiles.read_s", "s", ["smiles.read_molecule"], total("smiles.read_molecule")),
        ("smiles.parse_s", "s", ["smiles.parse_smiles"], total("smiles.parse_smiles")),
        ("smiles.infer_s", "s", ["smiles.infer_implicit_bonds"],
         total("smiles.infer_implicit_bonds")),
        ("smiles.build_s", "s", ["smiles.smiles_to_graph"], total("smiles.smiles_to_graph")),
        ("smiles.atoms", "count", ["smiles.read_molecule"],
         work(["smiles.read_molecule"], "atoms")),
        ("graph.traverse_self_s", "s", ["graph.traverse"], selftime("graph.traverse")),
        ("graph.steps", "count", ["graph.traverse"], calls("graph.traverse.callback")),
        ("graph.loop_candidates_s", "s", ["graph.loop_candidates"],
         total("graph.loop_candidates")),
        ("graph.loop_candidates_calls", "count", ["graph.loop_candidates"],
         calls("graph.loop_candidates")),
        ("graph.build_s", "s", ["graph.build_graph"], total("graph.build_graph")),
        ("graph.components_s", "s", ["graph.connected_components"],
         total("graph.connected_components")),
        ("context.vertex_matches_s", "s", [matchers[0]], total(matchers[0])),
        ("context.vertex_matches_calls", "count", [matchers[0]], calls(matchers[0])),
        ("context.edge_matches_s", "s", [matchers[1]], total(matchers[1])),
        ("context.edge_matches_calls", "count", [matchers[1]], calls(matchers[1])),
        ("context.matches", "count", matchers, work(matchers, "matches")),
        ("context.pairs_tried", "count", matchers, pairs),
        ("context.match_yield", "ratio", matchers,
         work(matchers, "matches") / pairs if pairs else 0.0),
        ("context.backgrounds_per_step", "count", matchers,
         work(matchers, "backgrounds") / match_calls if match_calls else 0.0),
        ("context.model_s", "s", ["context.model"], total("context.model")),
        ("context.space_s", "s", ["context.space"], total("context.space")),
        ("context.space_size", "count", ["context.model"],
         work(["context.model"], "space") / calls("context.model")
         if calls("context.model") else 0.0),
        ("context.price_self_s", "s", ["context.information_content", "graph.traverse"],
         selftime("context.information_content", "graph.traverse.callback")),
        ("context.cell_p50_ms", "ms", ["context.information_content"],
         bt.percentile(cells, 50) or 0.0),
        ("context.cell_p90_ms", "ms", ["context.information_content"],
         bt.percentile(cells, 90) or 0.0),
        ("context.batch_self_s", "s", ["context.batch"], selftime("context.batch")),
        ("cli.load_s", "s", ["cli.load_graph_file"], total("cli.load_graph_file")),
        ("cli.self_s", "s", ["cli.main"], selftime("cli.main")),
    ]
    return {metric: (value, unit) for metric, unit, needs, value in table
            if not absent.intersection(needs)}


def max_chain_atoms(graphmml) -> int:
    """Longest unbranched carbon chain read_molecule accepts, up to MAX_CHAIN_CAP."""
    def accepts(n: int) -> bool:
        try:
            graphmml.smiles.read_molecule("C" * n)
        except RecursionError:
            return False
        return True

    good, bad = 0, None
    n = 1
    while bad is None and good < MAX_CHAIN_CAP:
        if accepts(n):
            good, n = n, min(2 * n, MAX_CHAIN_CAP)
        else:
            bad = n
    while bad is not None and bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if accepts(mid) else (good, mid)
    return good


def jobs_speedup(cli, argv: list[str], checker: Checker) -> float:
    """Wall time at --jobs 1 over wall time at --jobs 2; the outputs must agree."""
    times: dict[int, list[float]] = {1: [], 2: []}
    outputs: dict[int, str] = {}
    for _ in range(JOBS_REPS):
        for jobs in (1, 2):
            elapsed, text, error = call(cli, [*argv, "--jobs", str(jobs)])
            times[jobs].append(elapsed)
            if error is not None:
                checker.errors.append(f"--jobs {jobs}: {error}")
            outputs.setdefault(jobs, text)
    if outputs[1] != outputs[2]:
        checker.errors.append("table --jobs 2 output differs from --jobs 1")
    return statistics.median(times[1]) / statistics.median(times[2])


def traced(workload: Workload, seconds: float, checker: Checker,
           span_path: Path) -> tuple[dict, list[Sample]]:
    """Per-layer metrics from the spans of one traced round.

    The first round runs in laps for seconds / 2, each op once untraced
    and then once traced, so drift in machine speed hits both sides of
    the overhead ratio alike.  Only the first lap's spans are kept.
    """
    cli = fresh_import()
    graphmml = sys.modules["graphmml"]
    first_round = [op for op in workload.ops if op.round == 0]
    kept = bt.Tracer()
    meter = Meter(cli, checker)
    plain, samples = [], []
    deadline = time.perf_counter() + seconds / 2
    lap = 0
    while lap == 0 or time.perf_counter() < deadline:
        for op in first_round:
            plain.append(meter(op, lap))
            tracer = kept if lap == 0 else bt.Tracer()
            tracer.op = op.id
            try:
                absent = install(tracer, graphmml)
                samples.append(meter(op, lap))
            finally:
                tracer.restore()
        lap += 1
    metrics = layer_metrics(kept.spans, absent)
    metrics["smiles.max_chain_atoms"] = (max_chain_atoms(graphmml), "count")
    metrics["context.jobs2_speedup"] = (jobs_speedup(cli, workload.jobs_argv, checker), "ratio")
    metrics["trace.overhead"] = (latency(samples, 50) / latency(plain, 50), "ratio")
    kept.write(span_path)
    return metrics, plain + samples


# -- entry point --------------------------------------------------------------------


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def write_reference(workload: Workload, path: Path) -> None:
    cli = fresh_import()
    outputs = {}
    for op in workload.ops:
        _, text, error = call(cli, op.argv)
        if error is not None or op.check(text) is not None:
            raise RuntimeError(f"{op.id}: {error or op.check(text)}")
        outputs[op.id] = text
    path.write_text(json.dumps(outputs, indent=0, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record the outputs for seed {DEFAULT_SEED} instead of measuring")
    args = parser.parse_args(argv)

    if not (SRC / "graphmml" / "__init__.py").is_file():
        print(f"perfbench: no graphmml sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".perfbench"
    work = work_root / f"{args.workload}-{args.seed}-inputs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.write_reference:
            if args.seed != DEFAULT_SEED:
                parser.error(f"references are recorded for seed {DEFAULT_SEED} only")
            write_reference(workload, reference_path(args.workload))
            return 0
        reference = None
        if args.seed == DEFAULT_SEED:
            reference = json.loads(reference_path(args.workload).read_text())
        checker = Checker(reference)
        if args.trace:
            span_path = work_root / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, samples = traced(workload, args.seconds, checker, span_path)
        else:
            metrics, samples = end_to_end(workload, args.seconds, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(samples)
    failed = sum(not s.ok for s in samples)
    for line in checker.errors[:20]:
        print(f"check failed: {line}")
    print(f"{args.workload} seed {args.seed}: closed loop, one client, depth {DEPTH}, "
          f"{'traced round' if args.trace else f'{len(samples)} ops'}")
    print(f"  error_rate {failed / attempted:.4f} ({failed} failed of {attempted} ops)")
    print(f"  op p50 as the clock read it {latency(samples, 50, wall=True):.6g} s "
          f"(end-to-end times are at the reference speed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:12.6g} {unit}")
    result = {
        "correct": not checker.errors,
        "attempted": attempted,
        "failed": failed,
        # JSON has no infinity: a latency that failed ops made infinite is null.
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
