"""Acceptance suite: one test per release criterion.

Each test prints a single summary line (visible with ``pytest -rA`` or
``-s``) and the -v test report gives the per-criterion pass/fail verdict.
Criteria 1-3 share one 100-seed solver campaign computed once per session.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pytest

from dscnopt import benders, lp as lpmod, scenario as scn
from dscnopt.baselines import doa, ema, min_power_for
from dscnopt.benders import (
    Cut,
    delay_coefficients,
    solve_master,
    solve_subproblem,
    ucwt,
)
from dscnopt.model import Association, ModelError, serving_time
from dscnopt.oracle import brute_force_sweep, enumerate_candidates
from dscnopt.placement import (
    DEFAULT_GRID_BYTES,
    _greedy_fill,
    gpc_placement,
    hit_ratio,
    knapsack_exact,
    lpf_greedy,
    rc_placement,
)
from dscnopt.popularity import local_popularity

from reference import (
    build_subproblem_primal,
    iter_assignments,
    penalty_lambda,
    rmp_penalty_value,
)
from test_lp import enumerate_optimum, random_lp, verify_farkas, verify_ray

CAMPAIGN_SEEDS = 100
CAMPAIGN_ALPHAS = (0.0, 0.3, 0.7, 1.0)


def desk_pipeline(seed):
    inst = scn.generate(scn.desk_scale(), seed)
    pop = local_popularity(inst.scenario, inst.preferences)
    cache, _ = lpf_greedy(inst.scenario, pop)
    return inst, cache


@dataclass
class CampaignRun:
    seed: int
    alpha: float
    trace: benders.BendersTrace
    objective: float
    oracle_objective: float


@dataclass
class Campaign:
    runs: List[CampaignRun]
    # per seed: list of (assigned tuple, true minimum energy) feasible pairs
    feasible: Dict[int, List[Tuple[tuple, float]]]
    cuts: Dict[Tuple[int, float], List[Cut]]


@pytest.fixture(scope="session")
def campaign() -> Campaign:
    runs, feasible, cuts = [], {}, {}
    for seed in range(CAMPAIGN_SEEDS):
        inst, cache = desk_pipeline(seed)
        s, demands = inst.scenario, inst.demands
        candidates = enumerate_candidates(s, demands, cache)
        feasible[seed] = [
            (tuple(int(v) for v in c.assigned), c.energy) for c in candidates
        ]
        swept = dict(
            (a, sol.objective)
            for a, sol in brute_force_sweep(s, demands, cache, CAMPAIGN_ALPHAS)
        )
        for alpha in CAMPAIGN_ALPHAS:
            result = ucwt(s, demands, cache, alpha)
            runs.append(
                CampaignRun(
                    seed=seed,
                    alpha=alpha,
                    trace=result.trace,
                    objective=result.trace.final_objective,
                    oracle_objective=swept[alpha],
                )
            )
            cuts[(seed, alpha)] = list(result.trace.cuts)
    return Campaign(runs=runs, feasible=feasible, cuts=cuts)


def test_criterion_01_oracle_equivalence(campaign):
    converged = [r for r in campaign.runs if r.trace.converged]
    rate = len(converged) / len(campaign.runs)
    assert rate >= 0.95
    worst = 0.0
    for run in converged:
        rel = abs(run.objective - run.oracle_objective) / max(
            1.0, abs(run.oracle_objective)
        )
        worst = max(worst, rel)
        assert rel <= 1e-6
    print(
        f"criterion 1: PASS - {len(converged)}/{len(campaign.runs)} converged "
        f"({rate:.1%}), worst relative objective error {worst:.2e}"
    )


def test_criterion_02_bound_discipline(campaign):
    max_iters = 0
    for run in campaign.runs:
        records = run.trace.iterations
        max_iters = max(max_iters, len(records))
        assert len(records) <= 60
        for rec in records:
            scale = max(1.0, abs(rec.psi_upper)) if math.isfinite(rec.psi_upper) else 1.0
            assert rec.psi_lower <= rec.psi_upper + 1e-9 * scale
        for prev, cur in zip(records, records[1:]):
            assert cur.psi_lower >= prev.psi_lower - 1e-9
            assert cur.psi_upper <= prev.psi_upper + 1e-9
        if run.trace.converged:
            last = records[-1]
            assert last.psi_upper - last.psi_lower <= run.trace.epsilon
    print(f"criterion 2: PASS - bounds monotone on every run, max iterations {max_iters}")


def test_criterion_03_cut_validity(campaign):
    checked = 0
    for (seed, alpha), cut_list in campaign.cuts.items():
        for assigned, energy in campaign.feasible[seed]:
            x = np.zeros((6, 3))
            x[np.arange(6), list(assigned)] = 1.0
            for cut in cut_list:
                h = cut.value(x)
                checked += 1
                if cut.kind == "feasibility":
                    assert h <= 1e-6 * cut.magnitude
                else:
                    assert h <= energy + 1e-6 * max(1.0, energy)
    print(f"criterion 3: PASS - {checked} cut evaluations, zero violations")


def test_criterion_04_strong_duality():
    rng = np.random.default_rng(41)
    pairs = feasible_pairs = 0
    worst = 0.0
    for seed in range(25):
        inst, cache = desk_pipeline(seed)
        s, demands = inst.scenario, inst.demands
        # uniform associations are rarely power-feasible here, so half the
        # sample is drawn from the enumerated feasible set to exercise the
        # bounded branch of strong duality as well
        known_feasible = [c.assigned for c in enumerate_candidates(s, demands, cache)]
        sample = [rng.integers(0, s.sbs_count, s.user_count) for _ in range(10)]
        sample += [
            known_feasible[int(rng.integers(0, len(known_feasible)))]
            for _ in range(10)
        ]
        for assigned in sample:
            pairs += 1
            assoc = Association.from_assignment(assigned, s.sbs_count)
            primal = lpmod.solve_lp(
                build_subproblem_primal(s, demands, assoc)
            )
            cut, M = solve_subproblem(s, demands, assoc)
            if cut.kind == "optimality":
                assert primal.status == "optimal"
                rel = abs(M - primal.objective) / max(1.0, abs(primal.objective))
                worst = max(worst, rel)
                assert rel <= 1e-7
                feasible_pairs += 1
            else:
                assert primal.status == "infeasible"
    assert pairs == 500
    assert feasible_pairs >= 100
    print(
        f"criterion 4: PASS - {feasible_pairs}/{pairs} bounded pairs, "
        f"worst relative duality error {worst:.2e}"
    )


def test_criterion_05_pareto_monotonicity():
    alphas = [round(0.1 * k, 1) for k in range(11)]
    for seed in range(20):
        inst, cache = desk_pipeline(seed)
        swept = brute_force_sweep(inst.scenario, inst.demands, cache, alphas)
        energies = [sol.energy for _, sol in swept]
        delays = [sol.delay for _, sol in swept]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-9 * max(1.0, a)
        for a, b in zip(delays, delays[1:]):
            assert b >= a - 1e-9 * max(1.0, a)
    print("criterion 5: PASS - oracle tradeoff monotone in alpha on 20 instances")


def test_criterion_06_caching_dominance():
    fractions = (0.1, 0.25, 0.5, 1.0)
    for frac in fractions:
        lpf_means, gpc_means, rc_means = [], [], []
        for seed in range(50):
            inst = scn.generate(scn.desk_scale(cache_fraction=frac), seed)
            s = inst.scenario
            pop = local_popularity(s, inst.preferences)
            lpf_cache, _ = lpf_greedy(s, pop)
            lpf_means.append(hit_ratio(lpf_cache, pop)[1])
            gpc_means.append(hit_ratio(gpc_placement(s), pop)[1])
            rc_means.append(hit_ratio(rc_placement(s, seed), pop)[1])
        lpf_m, gpc_m, rc_m = map(np.mean, (lpf_means, gpc_means, rc_means))
        assert lpf_m >= gpc_m - 1e-12
        assert lpf_m >= rc_m - 1e-12
        if frac == 1.0:
            assert lpf_m == pytest.approx(1.0)
            assert gpc_m == pytest.approx(1.0)
            assert rc_m == pytest.approx(1.0)
    print("criterion 6: PASS - mean hit ratio LPF >= GPC, RC at every capacity")


def test_criterion_07_greedy_quality():
    rng = np.random.default_rng(7)
    ratios = []
    for _ in range(1000):
        n = int(rng.integers(3, 15))
        sizes = rng.integers(1, 25, n).astype(float) * DEFAULT_GRID_BYTES
        values = rng.uniform(0.0, 1.0, n)
        capacity = float(rng.integers(5, 120)) * DEFAULT_GRID_BYTES
        order = np.lexsort((np.arange(n), -(values / sizes)))
        chosen = _greedy_fill(order, sizes, capacity)
        greedy = float(chosen @ values)
        _, exact = knapsack_exact(sizes, values, capacity)
        assert greedy <= exact + 1e-12
        ratios.append(1.0 if exact == 0.0 else greedy / exact)
    ratios = np.array(ratios)
    good = float((ratios >= 0.9).mean())
    assert good >= 0.9
    print(
        f"criterion 7: PASS - greedy/exact ratio >= 0.9 in {good:.1%}; "
        f"min {ratios.min():.4f}, mean {ratios.mean():.4f}, "
        f"median {np.median(ratios):.4f}"
    )


def test_criterion_08_baseline_ordering():
    both = ema_le = doa_le = 0
    for seed in range(50):
        inst, cache = desk_pipeline(seed)
        s, demands = inst.scenario, inst.demands
        T = serving_time(s, demands, None, "relaxed")
        dcoef = delay_coefficients(s, demands, cache)
        try:
            d = doa(s, demands, cache)
            e = ema(s, demands, cache)
        except ModelError:
            continue
        both += 1
        energy = {
            name: float(res.power.p @ T) for name, res in (("doa", d), ("ema", e))
        }
        delay = {
            name: float(dcoef[np.arange(s.user_count), res.assoc.assigned_sbs].sum())
            for name, res in (("doa", d), ("ema", e))
        }
        # hard: the exact single-objective solves dominate the heuristics
        u_energy = ucwt(s, demands, cache, 1.0)
        best_energy = float(u_energy.power.p @ T)
        assert best_energy <= energy["ema"] + 1e-6 * max(1.0, energy["ema"])
        u_delay = ucwt(s, demands, cache, 0.0)
        best_delay = float((dcoef * u_delay.assoc.x).sum())
        assert best_delay <= delay["doa"] + 1e-6 * max(1.0, delay["doa"])
        # soft orderings, reported only
        ema_le += energy["ema"] <= energy["doa"] + 1e-9
        doa_le += delay["doa"] <= delay["ema"] + 1e-9
    assert both >= 10
    print(
        f"criterion 8: PASS - optimality dominance on all {both} feasible "
        f"instances; soft: EMA energy <= DOA in {ema_le}/{both}, "
        f"DOA delay <= EMA in {doa_le}/{both}"
    )


def test_criterion_09_lp_kernel():
    rng = np.random.default_rng(9)
    optimal = infeasible = unbounded = 0
    for _ in range(1000):
        problem = random_lp(rng)
        result = lpmod.solve_lp(problem)
        if result.status == "optimal":
            optimal += 1
            oracle = enumerate_optimum(problem)
            assert oracle is not None
            assert result.objective == pytest.approx(oracle, abs=1e-8, rel=1e-8)
        elif result.status == "infeasible":
            infeasible += 1
            verify_farkas(problem, result)
        else:
            unbounded += 1
            verify_ray(problem, result)
    assert optimal + infeasible + unbounded == 1000
    assert min(optimal, infeasible, unbounded) > 20
    print(
        f"criterion 9: PASS - 1000 LPs: {optimal} optimal vs enumeration, "
        f"{infeasible} certified infeasible, {unbounded} verified unbounded"
    )


def test_criterion_10_penalty_equivalence():
    rng = np.random.default_rng(10)
    for seed in range(20):
        inst, cache = desk_pipeline(seed)
        s, demands = inst.scenario, inst.demands
        # a representative cut pool: optimality cuts from random associations
        cut_pool = []
        for _ in range(4):
            assigned = rng.integers(0, s.sbs_count, s.user_count)
            cut, M = solve_subproblem(
                s, demands, Association.from_assignment(assigned, s.sbs_count)
            )
            if cut.kind == "optimality":
                cut_pool.append(cut)
        lam = penalty_lambda(s, demands)
        master = solve_master(s, demands, cache, cut_pool, 0.5)

        def value_at(x):
            eta = max([0.0] + [c.value(x) for c in cut_pool])
            return rmp_penalty_value(s, demands, cache, 0.5, lam, eta, x)

        binary_min = min(
            value_at(Association.from_assignment(a, s.sbs_count))
            for a in iter_assignments(s.user_count, s.sbs_count)
        )
        assert binary_min == pytest.approx(master.value, rel=1e-9, abs=1e-9)
        for _ in range(50):
            x = rng.dirichlet(np.ones(s.sbs_count), size=s.user_count)
            if float(np.abs(x - np.rint(x)).max()) < 1e-9:
                continue
            assert value_at(x) > binary_min
    print(
        "criterion 10: PASS - penalized relaxation matches the binary master "
        "and penalizes every fractional point on 20 instances"
    )
