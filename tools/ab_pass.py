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

import os
import sys

# pinned before numpy is imported, as bench/run.py does: one closed-loop client
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SEED = 0
ROOT = Path(__file__).resolve().parent.parent


def load_host_speed():
    """A ``HostSpeed`` of this checkout's ``bench/run.py``, the benchmark's own."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.HostSpeed()


def load_tree(tree: Path, name: str):
    """The ``bench/workloads.py`` module of ``tree``, over that tree's ``dscnopt``."""
    src = tree / "src"
    if not (src / "dscnopt" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'dscnopt'} is missing")
    for module in [m for m in sys.modules if m == "dscnopt" or m.startswith("dscnopt.")]:
        del sys.modules[module]
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.spec_from_file_location(name, tree / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # a dataclass looks its module up by name while it is made
        sys.modules[name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(src))
    loaded = Path(sys.modules["dscnopt"].__file__).resolve().parent
    if loaded != (src / "dscnopt").resolve():
        raise SystemExit(f"error: dscnopt was imported from {loaded}, not {src}")
    return workloads


class Side:
    """One tree's batch of a workload, checked once and then timed per pass."""

    def __init__(self, label: str, tree: Path, workload: str, workdir: str):
        self.label = label
        os.mkdir(workdir)
        workloads = load_tree(tree, f"workloads_{label}")
        if workload not in workloads.WORKLOADS:
            raise SystemExit(f"error: {tree} has no workload {workload!r}")
        batch = workloads.WORKLOADS[workload][0](SEED, workdir)
        for warm in batch.warmup:
            warm()
        self.units = batch.units
        failed = 0
        for unit in self.units:
            try:
                answer = unit.run()
            except Exception:   # a raised unit is a wrong answer, checked below
                answer = None
            failed += unit.check(answer, unit.reference()).failed
        if failed:
            raise SystemExit(f"error: {label} answered {failed} unit(s) wrongly")
        self.passes: list = []

    def timed_pass(self, host) -> None:
        total = 0.0
        for unit in self.units:
            host.sample()
            start = time.perf_counter()
            unit.run()
            total += time.perf_counter() - start
        self.passes.append(total)


def quartiles(values):
    """(Q1, median, Q3) of ``values``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent commit's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv[1:])
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.dont_write_bytecode = True
    host = load_host_speed()
    with tempfile.TemporaryDirectory(prefix="ab-pass-") as workdir:
        sides = [
            Side(label, tree.resolve(), args.workload, os.path.join(workdir, label))
            for label, tree in (("parent", args.parent), ("change", args.change))
        ]
        for k in range(args.rounds):
            for side in (sides if k % 2 == 0 else sides[::-1]):
                side.timed_pass(host)
    parent, change = sides
    print(f"workload {args.workload}: {len(parent.units)} and {len(change.units)} "
          f"units, {args.rounds} rounds, seed {SEED}")
    for side in sides:
        print(f"{side.label}: min {min(side.passes):.6f} s, "
              f"median {statistics.median(side.passes):.6f} s per pass")
    ratios = [c / p for p, c in zip(parent.passes, change.passes)]
    q1, median, q3 = quartiles(ratios)
    print(f"change/parent ratio: median {median:.3f} [Q1 {q1:.3f}, Q3 {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
