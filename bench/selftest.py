"""Self-test of the benchmark's determinism and of its metric names.

Run from the repository root:

    python3 bench/selftest.py [--seed 0] [--workload NAME ...]

For each workload it makes two traced runs with one seed and one with the
next seed, plus one untraced run. It checks that every run answers
correctly and reports exactly the metrics ``BENCHMARK.json`` names, that the
exact counts repeat for the same seed, and that they change with the other
seed, which shows the seed reaches the instance generator. Exits 1 on any
failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import EXACT_COUNTS  # noqa: E402


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = {
            "untraced": _run(workload, args.seed, 0),
            "first": _run(workload, args.seed, 1),
            "repeat": _run(workload, args.seed, 1),
            "next seed": _run(workload, args.seed + 1, 1),
        }
        for label, result in runs.items():
            expected = names[0 if label == "untraced" else 1]
            if set(result["metrics"]) != expected:
                problems.append(f"{workload} {label}: metric names differ from "
                                f"BENCHMARK.json: {sorted(set(result['metrics']) ^ expected)}")
            if not result["correct"]:
                problems.append(f"{workload} {label}: wrong answers")
        counts = {label: [runs[label]["metrics"][c]["value"] for c in EXACT_COUNTS]
                  for label in ("first", "repeat", "next seed")}
        print(f"{workload}: " + "; ".join(
            f"{label} " + " ".join(f"{c}={v:g}" for c, v in zip(EXACT_COUNTS, vals))
            for label, vals in counts.items()))
        if counts["first"] != counts["repeat"]:
            problems.append(f"{workload}: exact counts differ between same-seed runs")
        pivots = EXACT_COUNTS.index("lp.pivots")
        if counts["first"][pivots] == counts["next seed"][pivots]:
            problems.append(f"{workload}: lp.pivots did not change with the seed")
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
