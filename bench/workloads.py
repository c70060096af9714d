"""The benchmark's workloads: seeded instance batches, reference answers, checks.

A workload builds a batch of units from a seed. A unit is one timed call into
the public API of ``dscnopt``, a reference computed once before timing by an
independent path, and a check of the call's answer against that reference.
Every call goes through a module attribute (``benders.ucwt``, not a captured
function), so the traced run sees it.

A batch draws its instances from a window of seeds starting at the seed
argument and from a fixed core of seeds shared by every run; see
``batch_seeds``.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple
from unittest import mock

import numpy as np

from dscnopt import baselines, benders, cli, model, oracle
from dscnopt import placement as plc
from dscnopt import popularity as pop
from dscnopt import scenario as scn

REL_TOL = 1e-9
# the CLI's default alpha grid for sweeps
ALPHA_GRID = tuple(k / 10 for k in range(11))

# the core's first seed: far from the seeds runs are given, so that a
# window does not repeat core instances
CORE_FIRST_SEED = 1_000_000
# (window, core) seed counts of each workload's batch
LADDER_SEEDS = (1, 5)
BNB_SEEDS = (5, 0)
ORACLE_SEEDS = (1, 3)
CLI_SEEDS = (1, 6)
LADDER_USERS = (6, 8, 9)
LADDER_ALPHAS = (0.0, 0.5, 1.0)
BNB_ALPHA = 0.5
CLI_ALPHA = 0.5          # compare-algorithms / compare-caching default
CLI_USERS = (4, 5, 6)    # compare-algorithms default users sweep
CLI_FRACTIONS = (0.1, 0.25, 0.5, 1.0)   # compare-caching default grid
# warm-up uses one fixed instance, so set-up time does not vary with the seed
WARMUP_SEED = 0


@dataclass
class Verdict:
    """Outcome of one unit: expected answers, failed ones, unanswered ones.

    An answer fails when it is missing, raised, did not converge or
    disagrees with its reference, unless the reference predicts that. The
    only predicted case is an *unanswered* ``cli-sweep`` row: the CLI writes
    no numbers for it because the direct solver call gives no answer either
    (``doa`` repair gives up). That is the program's known behaviour, which
    the report shows in ``failed_share``; it is not a failed operation.
    """

    attempted: int
    failed: int = 0
    unanswered: int = 0


@dataclass
class Unit:
    label: str
    run: Callable[[], object]
    reference: Callable[[], object]
    # (answer, reference); the answer is None when the unit raised
    check: Callable[[object, object], Verdict]
    # work items the unit counts for in solves_per_s and solve_ms_p50
    work: int = 1


@dataclass
class Batch:
    units: List[Unit]
    warmup: List[Callable[[], object]] = field(default_factory=list)


def batch_seeds(seed: int, counts: Tuple[int, int]) -> List[int]:
    """Instance seeds of a batch: a window from ``seed`` on, then a fixed core.

    Instances differ a lot in cost: between seeds, the coefficient of
    variation of a unit's time is 0.3 to 0.8. A batch drawn from the seed
    alone would make runs with different seeds disagree by more than any
    useful regression bound. The core, ``core`` seeds from
    ``CORE_FIRST_SEED`` on, is shared by every run, which keeps runs
    comparable. The window keeps the inputs seed-dependent and comes first,
    so that a run always reaches it. Neither part is filtered by runtime.
    """
    window, core = counts
    return (list(range(seed, seed + window))
            + list(range(CORE_FIRST_SEED, CORE_FIRST_SEED + core)))


def agrees(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * abs(reference)


def _cell_agrees(cell: str, reference: float) -> bool:
    """A CSV cell written with 9 significant digits matches the reference."""
    value = float(cell)
    if not math.isfinite(value):
        return False
    if reference == 0.0:
        return value == 0.0
    digit = 10.0 ** (math.floor(math.log10(abs(reference))) - 8)
    return abs(value - reference) <= REL_TOL * abs(reference) + 0.5 * digit


def _prepare(config: scn.GenerationConfig, seed: int):
    inst = scn.generate(config, seed)
    table = pop.local_popularity(inst.scenario, inst.preferences)
    cache, _ = plc.lpf_greedy(inst.scenario, table)
    return inst, cache


def _converged_objective(result) -> float:
    """Objective of a reference ucwt solve, which must converge."""
    if not result.trace.converged:
        raise RuntimeError("a reference ucwt solve did not converge")
    return result.trace.final_objective


def _check_objective(result, reference: float) -> Verdict:
    """A ucwt answer; its reference always exists, so any failure is wrong."""
    if (result is None or not result.trace.converged
            or not agrees(result.trace.final_objective, reference)):
        return Verdict(1, failed=1)
    return Verdict(1)


def _ucwt_unit(label: str, inst, cache, alpha: float, reference) -> Unit:
    def run():
        return benders.ucwt(inst.scenario, inst.demands, cache, alpha)

    return Unit(label, run, reference, _check_objective)


def ucwt_ladder(seed: int, workdir: str) -> Batch:
    """ucwt on the desk size ladder, each solve checked against the oracle."""
    units = []
    for s in batch_seeds(seed, LADDER_SEEDS):
        for users in LADDER_USERS:
            inst, cache = _prepare(scn.desk_scale(user_count=users), s)
            # one oracle sweep per instance serves all its alphas
            sweep = functools.cache(lambda inst=inst, cache=cache: dict(
                oracle.brute_force_sweep(inst.scenario, inst.demands, cache,
                                         LADDER_ALPHAS)))
            for alpha in LADDER_ALPHAS:
                units.append(_ucwt_unit(
                    f"seed={s} U={users} alpha={alpha}", inst, cache, alpha,
                    lambda sweep=sweep, alpha=alpha: sweep()[alpha].objective))
    # the first solve at each size builds the enumerated master's association
    # matrix
    warmup = []
    for users in LADDER_USERS:
        inst, cache = _prepare(scn.desk_scale(user_count=users), WARMUP_SEED)
        warmup.append(functools.partial(
            benders.ucwt, inst.scenario, inst.demands, cache, 1.0))
    return Batch(units, warmup)


def _enumerated_reference(inst, cache, alpha: float) -> float:
    """Objective of the same instance with the master enumerated, not branched."""
    s = inst.scenario
    limit = s.sbs_count ** s.user_count
    with mock.patch.object(benders, "_MASTER_ENUMERATION_LIMIT", limit):
        return _converged_objective(benders.ucwt(s, inst.demands, cache, alpha))


def ucwt_bnb(seed: int, workdir: str) -> Batch:
    """ucwt past the enumeration limit, so the master runs LP branch-and-bound."""
    units = []
    for s in batch_seeds(seed, BNB_SEEDS):
        inst, cache = _prepare(scn.desk_scale(sbs_count=2, user_count=15), s)
        units.append(_ucwt_unit(
            f"seed={s} B=2 U=15 alpha={BNB_ALPHA}", inst, cache, BNB_ALPHA,
            lambda inst=inst, cache=cache: _enumerated_reference(inst, cache, BNB_ALPHA)))
    inst, cache = _prepare(scn.desk_scale(sbs_count=2, user_count=15), WARMUP_SEED)
    # a master solve without cuts runs the branch-and-bound LP path once
    warmup = [lambda: benders.solve_master(
        inst.scenario, inst.demands, cache, [], BNB_ALPHA)]
    return Batch(units, warmup)


def reachable_associations(inst) -> int:
    """Associations that use only SBSs each user can reach alone at full power.

    Computed here, not by the program, so it stays a fixed property of the
    instance: the work an exhaustive sweep cannot skip by that test.
    """
    s = inst.scenario
    gammas = s.sinr_thresholds[inst.demands.requested_file]
    snr = s.channel_gains * s.max_power[None, :] / s.noise_power
    reach = snr >= gammas[:, None] * (1 - 1e-12)
    return int(np.prod(reach.sum(axis=1)))


def oracle_enum(seed: int, workdir: str) -> Batch:
    """Oracle sweeps over the CLI's alpha grid, each point checked against ucwt.

    A sweep's cost is proportional to its reachable associations, which vary
    by a factor of 60 between instances, so a unit counts for that many work
    items in the throughput metrics.
    """
    units = []
    for s in batch_seeds(seed, ORACLE_SEEDS):
        inst, cache = _prepare(scn.desk_scale(user_count=9), s)
        units.append(Unit(
            f"seed={s} U=9",
            lambda inst=inst, cache=cache: oracle.brute_force_sweep(
                inst.scenario, inst.demands, cache, ALPHA_GRID),
            lambda inst=inst, cache=cache: [_converged_objective(benders.ucwt(
                inst.scenario, inst.demands, cache, alpha)) for alpha in ALPHA_GRID],
            _check_sweep,
            work=reachable_associations(inst)))
    small, small_cache = _prepare(scn.desk_scale(), WARMUP_SEED)
    warmup = [lambda: oracle.brute_force_sweep(
        small.scenario, small.demands, small_cache, ALPHA_GRID)]
    return Batch(units, warmup)


def _check_sweep(points, reference: List[float]) -> Verdict:
    """A sweep is right when every grid point matches its ucwt objective."""
    if (points is None or [a for a, _ in points] != list(ALPHA_GRID)
            or not all(agrees(p.objective, ref)
                       for (_, p), ref in zip(points, reference))):
        return Verdict(1, failed=1)
    return Verdict(1)


# ---- cli-sweep ---------------------------------------------------------------

Answer = Optional[Tuple[float, float]]     # (energy, delay), None if no answer


def _answer(run, inst, cache) -> Answer:
    """Energy and delay of one solver call, as the CLI evaluates them."""
    try:
        res = run()
    except model.ModelError:
        return None
    if isinstance(res, benders.UcwtResult) and not res.trace.converged:
        return None
    s = inst.scenario
    dcoef = benders.delay_coefficients(s, inst.demands, cache)
    T = model.serving_time(s, inst.demands, None, "relaxed")
    return float(res.power.p @ T), float((dcoef * res.assoc.x).sum())


def _algorithm_references(seed: int) -> Dict[tuple, Answer]:
    refs = {}
    for users in CLI_USERS:
        inst, cache = _prepare(scn.desk_scale(user_count=users), seed)
        s, d = inst.scenario, inst.demands
        solvers = {
            "ucwt": lambda: benders.ucwt(s, d, cache, CLI_ALPHA),
            "doa": lambda: baselines.doa(s, d, cache),
            "ema": lambda: baselines.ema(s, d, cache),
        }
        for name, run in solvers.items():
            refs[(float(users), seed, name)] = _answer(run, inst, cache)
    return refs


def _caching_references(seed: int) -> Dict[tuple, Tuple[float, Answer]]:
    refs = {}
    for frac in CLI_FRACTIONS:
        inst = scn.generate(scn.desk_scale(cache_fraction=frac), seed)
        s, d = inst.scenario, inst.demands
        table = pop.local_popularity(s, inst.preferences)
        caches = {
            "lpf": plc.lpf_greedy(s, table)[0],
            "gpc": plc.gpc_placement(s),
            "rc": plc.rc_placement(s, seed),
        }
        for name, cache in caches.items():
            hit = plc.hit_ratio(cache, table)[1]
            answer = _answer(lambda: benders.ucwt(s, d, cache, CLI_ALPHA), inst, cache)
            refs[(name, frac, seed)] = (hit, answer)
    return refs


def _read_rows(path: str) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _row_verdict(row: Optional[Dict[str, str]], answer: Answer) -> Tuple[int, int]:
    """(failed, unanswered) for one expected row.

    A missing or empty row fails unless the direct call gave no answer.
    """
    energy = "" if row is None else row["energy_joules"]
    delay = "" if row is None else row["delay_seconds"]
    if energy == "" or delay == "":
        return (0, 1) if answer is None else (1, 0)
    if answer is None:
        # the CLI printed numbers where the direct call gave no answer
        return 1, 0
    ok = _cell_agrees(energy, answer[0]) and _cell_agrees(delay, answer[1])
    return (0, 0) if ok else (1, 0)


def _check_algorithms(rows, refs) -> Verdict:
    """Every expected compare-algorithms row, counted from outside the CLI."""
    found = {(float(r["value"]), int(r["seed"]), r["algorithm"]): r
             for r in rows or []}
    failed = unanswered = 0
    for key, answer in refs.items():
        row = found.get(key)
        f, u = _row_verdict(row, answer)
        if (f == u == 0 and row is not None
                and not math.isfinite(float(row["sampled_delay_seconds"]))):
            f = 1
        failed, unanswered = failed + f, unanswered + u
    return Verdict(len(refs), failed, unanswered)


def _check_caching(rows, refs) -> Verdict:
    """Every expected compare-caching row, counted from outside the CLI."""
    found = {(r["policy"], float(r["capacity_fraction"]), int(r["seed"])): r
             for r in rows or []}
    failed = unanswered = 0
    for key, (hit, answer) in refs.items():
        row = found.get(key)
        f, u = _row_verdict(row, answer)
        if row is not None and not _cell_agrees(row["hit_ratio"], hit):
            f, u = 1, 0
        failed, unanswered = failed + f, unanswered + u
    return Verdict(len(refs), failed, unanswered)


def _invoke(args: List[str]) -> None:
    cli.main.main(args=args, prog_name="dscnopt", standalone_mode=False)


def _cli_unit(command: str, seed: int, workdir: str) -> Unit:
    """One in-process CLI invocation; its rows are read back from the CSV."""
    out = os.path.join(workdir, f"{command}-{seed}.csv")
    args = [command, "--seeds", "1", "--seed", str(seed), "--out", out]
    if command == "compare-algorithms":
        args.append("--sample-backhaul")
        reference, check = _algorithm_references, _check_algorithms
    else:
        reference, check = _caching_references, _check_caching

    def run():
        if os.path.exists(out):
            os.remove(out)
        _invoke(args)
        return _read_rows(out)

    return Unit(f"{command} seed={seed}", run, functools.partial(reference, seed), check)


def cli_sweep(seed: int, workdir: str) -> Batch:
    """In-process CLI comparisons, every expected CSV row checked from outside.

    The core seeds run both commands. The window seed runs compare-algorithms
    only: per seed, a command's time varies threefold, and the cheaper
    command keeps the window's share of the run small.
    """
    seeds = batch_seeds(seed, CLI_SEEDS)
    window, core = seeds[:CLI_SEEDS[0]], seeds[CLI_SEEDS[0]:]
    units = [_cli_unit("compare-algorithms", s, workdir) for s in window]
    for s in core:
        units += [_cli_unit(command, s, workdir)
                  for command in ("compare-algorithms", "compare-caching")]
    out = os.path.join(workdir, "warmup.csv")
    warmup = [
        lambda: _invoke(["compare-algorithms", "--seeds", "1", "--seed", str(WARMUP_SEED),
                         "--grid", "4", "--sample-backhaul", "--out", out]),
        lambda: _invoke(["compare-caching", "--seeds", "1", "--seed", str(WARMUP_SEED),
                         "--capacity-grid", "0.1", "--out", out]),
    ]
    return Batch(units, warmup)


#: name -> (batch builder, unit of work)
WORKLOADS = {
    "ucwt-ladder": (ucwt_ladder, "one (instance, alpha) ucwt solve"),
    "ucwt-bnb": (ucwt_bnb, "one ucwt solve at B=2, U=15"),
    "oracle-enum": (oracle_enum, "one reachable association of an 11-alpha "
                                 "oracle sweep"),
    "cli-sweep": (cli_sweep, "one in-process compare-algorithms or compare-caching run"),
}
