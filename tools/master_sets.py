"""Digest and time the master's solve sets on one source tree, or two.

Usage: python tools/master_sets.py TREE [CHANGE_TREE]

Each tree is a repository checkout; its ``src/dscnopt`` is imported, and
nothing is written into it. Three sets of ``ucwt`` solves are run, each
solve with a fresh ``InstanceMaster``:

- ``desk-38``: desk B=3 with U=10 seeds 0-3 and U=11, 12, 16 seeds 0-2;
  B=5 with U=12 seed 0 and U=16 seeds 0-2; B=7, U=14 seeds 0-1; each at
  alpha 0 and 1/2, at the default enumeration limit;
- ``desk-38-limit-0``: the same solves with ``_MASTER_ENUMERATION_LIMIT``
  patched to 0, so every master is searched;
- ``desk-b9``: B=9 with U=20 seed 0 and U=30 seeds 0-1, at alpha 1/2 and
  1, at the default limit.

Per set it prints a SHA-256 over each solve's objective by ``float.hex``,
its association, its powers by ``float.hex`` and every ``csv_rows`` line;
the wall time of its solves (instances and placements are built before
the clock starts); and how many of its instances' masters were searched
(``rows`` None). Two trees give the same answers and trace rows on a set
exactly when they print the same digest for it.

Given two trees, both are loaded in this process under their own module
objects, and each set's line is given per tree. Then ``ROUNDS``
alternating rounds time one pass of the set on each tree, and the median
change/parent ratio of the pass times is printed with its quartiles.
Both trees share the process and the host, so drift between processes
does not enter the ratio.

The set-up, the tree loader, the lpf case builder and the alternating
rounds here are also those of ``tools/ab_pass.py`` and
``tools/paper_physics.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

# (B, U, seeds) of the desk instances of each set, and its alphas
DESK_38 = (
    [(3, 10, range(4))] + [(3, U, range(3)) for U in (11, 12, 16)]
    + [(5, 12, range(1)), (5, 16, range(3)), (7, 14, range(2))]
)
DESK_B9 = [(9, 20, range(1)), (9, 30, range(2))]
SETS = (
    ("desk-38", DESK_38, (0.0, 0.5), None),
    ("desk-38-limit-0", DESK_38, (0.0, 0.5), 0),
    ("desk-b9", DESK_B9, (0.5, 1.0), None),
)
# alternating timed rounds per set, given two trees
ROUNDS = 10


def setup() -> None:
    """Pin BLAS to one thread before numpy is imported, as ``bench/run.py``
    does, and write no bytecode into the trees."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True


def load_tree(tree: Path):
    """The ``dscnopt`` package of ``tree``, imported from its ``src/``.

    Its modules stay in ``sys.modules`` until the next call, so a module
    run in between imports this tree's ``dscnopt``.
    """
    src = tree / "src"
    if not (src / "dscnopt" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'dscnopt'} is missing")
    for module in [m for m in sys.modules if m == "dscnopt" or m.startswith("dscnopt.")]:
        del sys.modules[module]
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("dscnopt")
    finally:
        sys.path.remove(str(src))
    loaded = Path(package.__file__).resolve().parent
    if loaded != (src / "dscnopt").resolve():
        raise SystemExit(f"error: dscnopt was imported from {loaded}, not {src}")
    return package


def lpf_cases(dscnopt, preset: str, spec):
    """(scenario, demands, placement) per instance of ``spec``, lpf placement.

    ``spec`` lists (B, U, seeds); each instance is the ``scenario`` preset
    named ``preset`` with B SBSs and U users.
    """
    scn = dscnopt.scenario
    cases = []
    for B, U, seeds in spec:
        config = replace(getattr(scn, preset)(), sbs_count=B, user_count=U)
        for seed in seeds:
            inst = scn.generate(config, seed)
            s = inst.scenario
            pop = dscnopt.popularity.local_popularity(s, inst.preferences)
            placement, _ = dscnopt.placement.lpf_greedy(s, pop)
            cases.append((s, inst.demands, placement))
    return cases


def alternate(rounds: int, parent, change):
    """(parent times, change times) of ``rounds`` calls of each timer, and
    the (Q1, median, Q3) of the rounds' change/parent ratios.

    Each round runs both timers, alternating which runs first; a single
    round's ratio is all three quartiles.
    """
    times = ([], [])
    for k in range(rounds):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            times[side].append((parent, change)[side]())
    ratios = [c / p for p, c in zip(*times)]
    if rounds == 1:
        return times, ratios * 3
    return times, statistics.quantiles(ratios, n=4, method="inclusive")


def solve_set(benders, cases, alphas, limit=None):
    """(SHA-256 hex, seconds, searched masters) of ``ucwt`` over ``cases`` x ``alphas``.

    ``limit``, when given, replaces ``_MASTER_ENUMERATION_LIMIT`` for the
    set's solves and is restored after them.
    """
    digest = hashlib.sha256()
    saved = benders._MASTER_ENUMERATION_LIMIT
    if limit is not None:
        benders._MASTER_ENUMERATION_LIMIT = limit
    try:
        searched = sum(
            benders.InstanceMaster(s, demands).rows is None for s, demands, _ in cases
        )
        start = time.perf_counter()
        results = [
            benders.ucwt(s, demands, placement, alpha)
            for s, demands, placement in cases for alpha in alphas
        ]
        seconds = time.perf_counter() - start
    finally:
        benders._MASTER_ENUMERATION_LIMIT = saved
    for result in results:
        power = ",".join(map(float.hex, result.power.p.tolist()))
        digest.update(
            f"{result.trace.final_objective.hex()}|"
            f"{result.assoc.assigned_sbs.tolist()}|{power}\n".encode()
        )
        digest.update("\n".join(result.trace.csv_rows()).encode() + b"\n")
    return digest.hexdigest(), seconds, searched


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="a repository checkout (the parent, given two)")
    parser.add_argument("change", type=Path, nargs="?",
                        help="a second checkout, timed against the first")
    args = parser.parse_args(argv[1:])
    setup()
    trees = [load_tree(tree.resolve()) for tree in (args.tree, args.change) if tree]
    for name, spec, alphas, limit in SETS:
        sides = [(dscnopt.benders, lpf_cases(dscnopt, "desk_scale", spec))
                 for dscnopt in trees]
        solves = len(sides[0][1]) * len(alphas)
        lines = []
        for benders, cases in sides:
            digest, seconds, searched = solve_set(benders, cases, alphas, limit)
            lines.append(f"{searched} of {len(cases)} masters searched, "
                         f"{seconds:.3f} s, sha256 {digest}")
        if len(sides) == 1:
            print(f"{name}: {solves} solves, {lines[0]}")
            continue
        print(f"{name}: {solves} solves")
        for label, line in zip(("parent", "change"), lines):
            print(f"  {label}: {line}")
        _, (q1, median, q3) = alternate(ROUNDS, *[
            lambda b=benders, c=cases: solve_set(b, c, alphas, limit)[1]
            for benders, cases in sides
        ])
        print(f"  {ROUNDS} rounds: change/parent ratio median {median:.3f} "
              f"[Q1 {q1:.3f}, Q3 {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
