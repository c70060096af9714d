"""Time whole passes of one benchmark workload on two source trees in one process.

Usage: python tools/ab_pass.py PARENT_TREE CHANGE_TREE --workload NAME [--rounds N]

Each tree is a repository checkout. Its ``src/dscnopt`` and its
``bench/workloads.py`` are imported in this process, one tree after the
other, under their own module objects; nothing is written into either tree.
Both trees' modules are loaded up front, so an import made inside a
function at run time would find the tree loaded last.
Each side builds its workload's batch (seed 0), runs its warm-up calls and
checks every unit's answer against that batch's reference, so a side that
answers wrongly stops the run. Then each round times one pass over every
unit of each side, alternating which side runs first. Each unit is timed
alone, right after one calibration slice of the benchmark (``HostSpeed``,
loaded from this checkout's ``bench/run.py``), the state in which
``bench/run.py`` times it; a pass time is the sum of its units' times, and
the slices are not counted. It prints each
side's least and median pass time, and the median change/parent ratio of
the rounds' pass times with its quartiles. Both sides share the host, so
its drift cancels in the ratio; the numbers are leads for a change, and a
claim still comes from ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from master_sets import alternate, load_tree, setup  # noqa: E402

SEED = 0
ROOT = Path(__file__).resolve().parent.parent


def load_module(name: str, path: Path):
    """The module run from ``path`` under ``name``, registered in ``sys.modules``
    (a dataclass looks its module up by name while it is made)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def checked_units(label: str, tree: Path, workload: str, workdir: str):
    """The units of ``tree``'s batch of ``workload``, warmed up and each checked."""
    os.mkdir(workdir)
    load_tree(tree)
    # run while the tree's dscnopt is loaded, so it imports that package
    workloads = load_module(f"workloads_{label}", tree / "bench" / "workloads.py")
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: {tree} has no workload {workload!r}")
    batch = workloads.WORKLOADS[workload][0](SEED, workdir)
    for warm in batch.warmup:
        warm()
    failed = 0
    for unit in batch.units:
        try:
            answer = unit.run()
        except Exception:   # a raised unit is a wrong answer, checked below
            answer = None
        failed += unit.check(answer, unit.reference()).failed
    if failed:
        raise SystemExit(f"error: {label} answered {failed} unit(s) wrongly")
    return batch.units


def timed_pass(host, units) -> float:
    """Seconds of one pass over ``units``, each timed after a calibration slice."""
    total = 0.0
    for unit in units:
        host.sample()
        start = time.perf_counter()
        unit.run()
        total += time.perf_counter() - start
    return total


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent commit's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv[1:])
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    setup()
    host = load_module("bench_run", ROOT / "bench" / "run.py").HostSpeed()
    labels = ("parent", "change")
    with tempfile.TemporaryDirectory(prefix="ab-pass-") as workdir:
        sides = [
            checked_units(label, tree.resolve(), args.workload, os.path.join(workdir, label))
            for label, tree in zip(labels, (args.parent, args.change))
        ]
        passes, (q1, median, q3) = alternate(
            args.rounds, *[lambda units=units: timed_pass(host, units) for units in sides]
        )
    print(f"workload {args.workload}: {len(sides[0])} and {len(sides[1])} "
          f"units, {args.rounds} rounds, seed {SEED}")
    for label, times in zip(labels, passes):
        print(f"{label}: min {min(times):.6f} s, "
              f"median {statistics.median(times):.6f} s per pass")
    print(f"change/parent ratio: median {median:.3f} [Q1 {q1:.3f}, Q3 {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
