"""Check the result line of a perfbench/run.py run, read from stdin.

    python3 perfbench/run.py --workload W --trace T | tail -n 1 | python3 .github/bench_result.py T

Exits 1, naming what is wrong, unless every output check passed, no op
failed and the line holds every metric BENCHMARK.json declares for the
run: the end_to_end metrics at --trace 0, the per_layer ones at --trace 1.
"""

import json
import sys
from pathlib import Path

trace = sys.argv[1]
declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
result = json.loads(sys.stdin.read())
missing = sorted({m["name"] for m in declared["per_layer" if trace == "1" else "end_to_end"]}
                 - result["metrics"].keys())
failed = result["correct"] is not True or result["failed"] != 0
if missing:
    print(f"the result lacks {', '.join(missing)}")
if failed:
    print("an output check failed or ops failed")
sys.exit(bool(missing) or failed)
