"""Check ``ucwt`` against the oracle under paper physics, at oracle size.

Usage: python tools/paper_physics.py [TREE]

TREE is a repository checkout, by default the one holding this tool; its
``src/dscnopt`` is imported, and nothing is written into it. Paper
physics is ``replace(paper_scale(), sbs_count=B, user_count=U)``: the
paper preset's noise, powers and thresholds at a size the oracle can
enumerate. Two rungs, (B=4, U=8) and (B=9, U=6), each over seeds 0-9
with lpf placement, are solved by ``ucwt`` at alpha 0, 1/2 and 1; one
oracle enumeration per instance serves its three alphas.

Per rung it prints the oracle's time and its "unverified" exact re-runs,
split by the float answer that failed ``benders._verified``: a Farkas ray
with mu = 0 (a spectral radius of at least 1), a ray on a power cap, or
powers; policy iteration that runs out of steps gives no float answer.
Per rung and alpha it prints how many ``ucwt`` objectives match the
oracle's to a relative 1e-9, the worst relative error, the iterations
summed over the seeds, the runs that ended unconverged, and the
"unverified" exact re-runs of the ``ucwt`` solves. Re-runs are counted
from the warnings of the ``dscnopt.benders`` logger. It exits 1 when any
solve misses the oracle beyond ``MATCH`` or ends unconverged, else 0.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from master_sets import load_tree, lpf_cases, setup  # noqa: E402

RUNGS = ((4, 8), (9, 6))
SEEDS = range(10)
ALPHAS = (0.0, 0.5, 1.0)
# a ucwt objective matches the oracle's within this relative error
MATCH = 1e-9
# the float answers whose failed check leads to an exact re-run
KINDS = ("rays with mu = 0", "rays on a cap", "powers", "no float answer")


@dataclass
class Reading:
    """One rung's ``ucwt`` solves at one alpha, against the oracle."""

    solves: int = 0
    matches: int = 0
    worst: float = 0.0
    iterations: int = 0
    unconverged: int = 0
    unverified: int = 0


class _Unverified(logging.Handler):
    """Counts the exact re-runs that ``dscnopt.benders`` logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += "unverified" in record.getMessage()


def _kind(answer) -> str:
    """Which of ``KINDS`` a float answer of ``benders._min_power`` is."""
    if answer.power is not None:
        return "powers"
    return "rays on a cap" if answer.mu.any() else "rays with mu = 0"


def campaign(dscnopt, cases, alphas):
    """(per-alpha ``Reading``s, oracle re-runs per kind, oracle seconds) over ``cases``.

    The handler that counts re-runs is on the ``dscnopt.benders`` logger
    only while the solves run; it also keeps their warnings off stderr.
    For as long, ``benders._verified`` is wrapped to tally the answers it
    fails by kind; re-runs with no failed answer had no float answer.
    """
    benders = dscnopt.benders
    logger = logging.getLogger("dscnopt.benders")
    counter = _Unverified()
    logger.addHandler(counter)
    verified, failed = benders._verified, Counter()

    def tallied(system, answer):
        passed = verified(system, answer)
        failed[_kind(answer)] += not passed
        return passed

    readings = {alpha: Reading() for alpha in alphas}
    oracle_reruns, oracle_s = Counter({kind: 0 for kind in KINDS}), 0.0
    benders._verified = tallied
    try:
        for s, demands, placement in cases:
            counter.count = 0
            failed.clear()
            start = time.perf_counter()
            candidates = dscnopt.oracle.enumerate_candidates(s, demands, placement)
            oracle_s += time.perf_counter() - start
            oracle_reruns.update(failed)
            oracle_reruns["no float answer"] += counter.count - sum(failed.values())
            for alpha in alphas:
                reading = readings[alpha]
                reading.solves += 1
                counter.count = 0
                best = min(alpha * c.energy + (1.0 - alpha) * c.delay
                           for c in candidates)
                trace = benders.ucwt(s, demands, placement, alpha).trace
                reading.iterations += len(trace.iterations)
                reading.unconverged += not trace.converged
                error = abs(trace.final_objective - best) / abs(best)
                reading.unverified += counter.count
                reading.matches += error <= MATCH
                reading.worst = max(reading.worst, error)
    finally:
        benders._verified = verified
        logger.removeHandler(counter)
    return readings, oracle_reruns, oracle_s


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent,
                        help="a repository checkout (default: this one)")
    args = parser.parse_args(argv[1:])
    setup()
    dscnopt = load_tree(args.tree.resolve())
    every = []
    for B, U in RUNGS:
        cases = lpf_cases(dscnopt, "paper_scale", [(B, U, SEEDS)])
        readings, reruns, seconds = campaign(dscnopt, cases, ALPHAS)
        kinds = ", ".join(f"{reruns[kind]} {kind}" for kind in KINDS)
        print(f"B={B} U={U}: {len(cases)} instances, oracle {seconds:.2f} s, "
              f"{sum(reruns.values())} unverified re-runs ({kinds})")
        for alpha, r in readings.items():
            print(f"  alpha={alpha:g}: {r.matches}/{r.solves} match at {MATCH:g}, "
                  f"worst relative error {r.worst:.2g}, {r.iterations} iterations, "
                  f"{r.unconverged} unconverged, {r.unverified} unverified re-runs")
        every += readings.values()
    print(f"total: {sum(r.matches for r in every)}/{sum(r.solves for r in every)} "
          f"match, {sum(r.iterations for r in every)} iterations, "
          f"{sum(r.unconverged for r in every)} unconverged, "
          f"{sum(r.unverified for r in every)} unverified re-runs")
    return int(any(r.matches < r.solves or r.unconverged for r in every))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
