"""Digest and time the master's solve sets on one source tree.

Usage: python tools/master_sets.py TREE

TREE is a repository checkout; its ``src/dscnopt`` is imported, and
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
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import sys
import time
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


def load_tree(tree: Path):
    """The ``dscnopt`` package of ``tree``, imported from its ``src/``."""
    src = tree / "src"
    if not (src / "dscnopt" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'dscnopt'} is missing")
    for module in [m for m in sys.modules if m == "dscnopt" or m.startswith("dscnopt.")]:
        del sys.modules[module]
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("dscnopt")
        for name in ("benders", "placement", "popularity", "scenario"):
            importlib.import_module(f"dscnopt.{name}")
    finally:
        sys.path.remove(str(src))
    loaded = Path(package.__file__).resolve().parent
    if loaded != (src / "dscnopt").resolve():
        raise SystemExit(f"error: dscnopt was imported from {loaded}, not {src}")
    return package


def instances(dscnopt, spec):
    """(scenario, demands, placement) per desk instance of ``spec``."""
    scn = dscnopt.scenario
    cases = []
    for B, U, seeds in spec:
        for seed in seeds:
            inst = scn.generate(scn.desk_scale(sbs_count=B, user_count=U), seed)
            s = inst.scenario
            pop = dscnopt.popularity.local_popularity(s, inst.preferences)
            placement, _ = dscnopt.placement.lpf_greedy(s, pop)
            cases.append((s, inst.demands, placement))
    return cases


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
    parser.add_argument("tree", type=Path, help="a repository checkout")
    args = parser.parse_args(argv[1:])
    # pinned before the tree imports numpy, as bench/run.py does
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    dscnopt = load_tree(args.tree.resolve())
    for name, spec, alphas, limit in SETS:
        cases = instances(dscnopt, spec)
        digest, seconds, searched = solve_set(dscnopt.benders, cases, alphas, limit)
        print(f"{name}: {len(cases) * len(alphas)} solves, {searched} of "
              f"{len(cases)} masters searched, {seconds:.3f} s, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
