"""The names the benchmark's tracer wraps must all exist.

perfbench/run.py reports a per-layer metric only when it could wrap every
function the metric reads, so a renamed or removed function would drop
metrics from a traced run without failing it.
"""

import importlib.util
import sys
from pathlib import Path

import graphmml
import graphmml.cli

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_the_tracer_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py adds its own directory
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    tracer = run.bt.Tracer()
    try:
        absent = run.install(tracer, graphmml)
    finally:
        tracer.restore()  # raises if any name was not put back
    assert absent == set()
