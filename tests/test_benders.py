"""Decomposition machinery: cuts, the power subproblem, master, full loop."""

import dataclasses
import logging
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from dscnopt import benders, lp as lpmod, scenario as scn
from dscnopt.benders import (
    Cut,
    NoFeasibleAssociationError,
    build_subproblem_primal,
    delay_coefficients,
    min_power_for,
    penalty_lambda,
    recover_power,
    rmp_penalty_value,
    solve_master,
    solve_subproblem,
    ucwt,
    varrho,
)
from dscnopt.model import (
    Association,
    CachePlacement,
    DemandMatrix,
    ModelError,
    Scenario,
    requested_thresholds,
    serving_time,
)
from dscnopt.oracle import brute_force, brute_force_sweep, iter_assignments
from dscnopt.placement import lpf_greedy
from dscnopt.popularity import local_popularity

from test_lp import verify_farkas


def small_scenario(gains, thresholds, max_power=1.0):
    return Scenario(
        sbs_count=2,
        user_count=2,
        file_count=2,
        max_power=[max_power] * 2,
        cache_capacity=[3e6, 3e6],
        backhaul_mean=[0.5, 1.5],
        file_sizes=[1e6, 2e6],
        sinr_thresholds=thresholds,
        bandwidth=1e6,
        noise_power=1e-3,
        pathloss_exponent=3.0,
        channel_gains=gains,
        alpha=0.5,
        load_coefficients=[0.5, 0.5],
        central_zone_radius=25.0,
    )


def easy_case():
    """Low thresholds and balanced gains: every association is power-feasible."""
    s = small_scenario([[1.0, 0.5], [0.5, 0.8]], [0.2, 0.3])
    return s, DemandMatrix([[1, 0], [0, 1]]), CachePlacement([[1, 0], [0, 1]])


def mixed_case():
    """Strong cross-gains: split associations are infeasible, shared ones work."""
    s = small_scenario([[1.0, 0.9], [0.9, 0.8]], [3.0, 3.0])
    return s, DemandMatrix([[1, 0], [0, 1]]), CachePlacement([[1, 1], [0, 0]])


def desk_pipeline(seed):
    inst = scn.generate(scn.desk_scale(), seed)
    pop = local_popularity(inst.scenario, inst.preferences)
    placement, _ = lpf_greedy(inst.scenario, pop)
    return inst, placement


class TestVarrho:
    def test_hand_computed(self):
        s, demands, _ = easy_case()
        # worst threshold 0.3, one interferer at p=1 through gain 1.0, noise 1e-3
        assert varrho(s, demands) == pytest.approx(1.0 / (0.3 * 1.001))

    def test_deactivates_non_assigned_rows(self):
        s, demands, _ = easy_case()
        primal = build_subproblem_primal(s, demands, Association([[1, 0], [0, 1]]))
        # rows for non-assigned pairs must hold at any in-bounds power
        p = s.max_power.copy()
        residual = primal.A @ p - primal.b
        for i, j in ((0, 1), (1, 0)):
            assert residual[i * 2 + j] >= 0.0


class TestSubproblemLPs:
    def test_primal_matches_assigned_rows_solution(self):
        s, demands, _ = easy_case()
        assoc = Association([[1, 0], [0, 1]])
        full = lpmod.solve_lp(build_subproblem_primal(s, demands, assoc))
        small = min_power_for(s, demands, assoc)
        assert full.status == "optimal"
        T = serving_time(s, demands, None, "relaxed")
        assert full.objective == pytest.approx(float(small.p @ T), rel=1e-8)

    def test_builders_match_loop_reference(self):
        # the array builder must reproduce the per-entry definition exactly
        for seed in range(2):
            inst, _ = desk_pipeline(seed)
            s, demands = inst.scenario, inst.demands
            U, B = s.user_count, s.sbs_count
            rho = varrho(s, demands)
            g = s.channel_gains
            gammas = requested_thresholds(s, demands)
            rng = np.random.default_rng(seed)
            for X in (
                Association.from_assignment(rng.integers(0, B, U), B).x.astype(float),
                rng.dirichlet(np.ones(B), size=U),
            ):
                A = np.zeros((U * B, B))
                b = np.zeros(U * B)
                for i in range(U):
                    for j in range(B):
                        row = i * B + j
                        A[row] = -gammas[i] * g[i]
                        A[row, j] = g[i, j]
                        b[row] = gammas[i] * s.noise_power - (1.0 - X[i, j]) / rho
                primal = build_subproblem_primal(s, demands, X)
                assert np.array_equal(primal.A, A)
                assert np.array_equal(primal.b, b)


class TestSolveSubproblem:
    def test_bounded_returns_minimum_energy(self):
        s, demands, _ = easy_case()
        assoc = Association([[1, 0], [0, 1]])
        cut, M = solve_subproblem(s, demands, assoc)
        assert cut.kind == "optimality"
        T = serving_time(s, demands, None, "relaxed")
        expected = float(min_power_for(s, demands, assoc).p @ T)
        assert M == pytest.approx(expected, rel=1e-8)
        # the optimality cut is tight at the proposing association
        assert cut.value(assoc) == pytest.approx(M, rel=1e-7, abs=1e-9)

    def test_optimality_cut_is_globally_valid(self):
        s, demands, _ = easy_case()
        T = serving_time(s, demands, None, "relaxed")
        cuts = []
        for assigned in iter_assignments(2, 2):
            cut, M = solve_subproblem(
                s, demands, Association.from_assignment(assigned, 2)
            )
            cuts.append(cut)
        # every cut under-estimates the true energy at every association
        for assigned in iter_assignments(2, 2):
            assoc = Association.from_assignment(assigned, 2)
            energy = float(min_power_for(s, demands, assoc).p @ T)
            for cut in cuts:
                assert cut.value(assoc) <= energy + 1e-7 * max(1.0, energy)

    def test_ray_certifies_infeasibility(self):
        s, demands, _ = mixed_case()
        bad = Association([[1, 0], [0, 1]])
        cut, M = solve_subproblem(s, demands, bad)
        assert cut.kind == "feasibility" and math.isinf(M)
        # normalized: violation exactly 1 at the infeasible association
        assert cut.value(bad) == pytest.approx(1.0, rel=1e-7)
        # feasible associations survive the cut
        for assigned in iter_assignments(2, 2):
            assoc = Association.from_assignment(assigned, 2)
            if min_power_for(s, demands, assoc) is not None:
                assert cut.value(assoc) <= 1e-7

    def test_cut_validity_on_generated_instances(self):
        for seed in range(3):
            inst, placement = desk_pipeline(seed)
            s, demands = inst.scenario, inst.demands
            T = serving_time(s, demands, None, "relaxed")
            rng = np.random.default_rng(seed)
            assignments = [rng.integers(0, 3, 6) for _ in range(8)]
            cuts, truths = [], []
            for assigned in assignments:
                assoc = Association.from_assignment(assigned, 3)
                cut, M = solve_subproblem(s, demands, assoc)
                cuts.append(cut)
                power = min_power_for(s, demands, assoc)
                truths.append(
                    (assoc, math.inf if power is None else float(power.p @ T))
                )
            for assoc, energy in truths:
                for cut in cuts:
                    h = cut.value(assoc)
                    if cut.kind == "feasibility":
                        if math.isfinite(energy):
                            assert h <= 1e-6 * cut.magnitude
                    elif math.isfinite(energy):
                        assert h <= energy + 1e-6 * max(1.0, energy)


    def test_fractional_association_is_rejected(self):
        inst, _ = desk_pipeline(0)
        s, demands = inst.scenario, inst.demands
        U, B = s.user_count, s.sbs_count
        rng = np.random.default_rng(0)
        for x in (rng.dirichlet(np.ones(B), size=U), np.zeros((U, B))):
            with pytest.raises(ModelError):
                solve_subproblem(s, demands, x)


class TestRecoverPower:
    def test_matches_min_power(self):
        s, demands, _ = easy_case()
        assoc = Association([[1, 0], [0, 1]])
        p = recover_power(s, demands, assoc)
        assert p.p == pytest.approx(min_power_for(s, demands, assoc).p, abs=1e-9)

    def test_raises_on_infeasible_association(self):
        s, demands, _ = mixed_case()
        with pytest.raises(ModelError):
            recover_power(s, demands, Association([[1, 0], [0, 1]]))

    @pytest.mark.parametrize("case", ["mixed", 0, 1, 2, 3])
    def test_every_path_gives_one_verdict(self, case):
        if case == "mixed":
            s, demands, _ = mixed_case()
        else:
            inst = scn.generate(scn.desk_scale(user_count=4), case)
            s, demands = inst.scenario, inst.demands
        verdicts = set()
        for assigned in iter_assignments(s.user_count, s.sbs_count):
            assoc = Association.from_assignment(assigned, s.sbs_count)
            feasible = min_power_for(s, demands, assoc) is not None
            try:
                recover_power(s, demands, assoc)
                recovered = True
            except ModelError:
                recovered = False
            _, M = solve_subproblem(s, demands, assoc)
            assert feasible == recovered == math.isfinite(M), assigned
            verdicts.add(feasible)
        # each case holds both feasible and infeasible associations
        assert verdicts == {True, False}


def strict_lp(s, demands, assigned, users=None):
    """The strict minimum-power LP over the SINR rows of ``users``, solved.

    Returns (problem, result, feasible), the verdict being that of
    ``solution_violation`` at ``STRICT_TOL``.
    """
    if users is None:
        users = np.arange(s.user_count)
    rows = np.arange(len(users))
    g = s.channel_gains[users]
    gammas = requested_thresholds(s, demands)[users]
    A = -gammas[:, None] * g
    A[rows, assigned[users]] = g[rows, assigned[users]]
    problem = lpmod.LinearProgram(
        "min", serving_time(s, demands, None, "relaxed"), A,
        gammas * s.noise_power, [lpmod.GE] * len(users), upper=s.max_power.copy(),
    )
    result = lpmod.solve_lp(problem, feas_tol=lpmod.STRICT_TOL)
    feasible = (
        result.status == "optimal"
        and lpmod.solution_violation(problem, result.x) <= lpmod.STRICT_TOL
    )
    return problem, result, feasible


def check_answer(s, demands, assigned, answer, minimal=None, tol=1e-7):
    """Check a ``_min_power`` answer against the strict LP built here.

    Asserts that the verdicts and powers match, that optimality duals are
    dual feasible, and that a ray passes the Farkas inequalities at
    ``tol``. ``minimal`` is None for an answer of the LP fallback; for a
    structured answer it caches, by the (user, SBS) pairs of a ray's
    support, whether dropping any one of its users leaves a feasible
    system, which is asserted, as is b'nu - pmax'mu = T p for its
    optimality duals. Returns the verdict.
    """
    problem, result, feasible = strict_lp(s, demands, assigned)
    assert (answer.power is not None) == feasible, assigned
    A, b, T = problem.A, problem.b, problem.c
    mu, nu = answer.mu, answer.nu
    assert mu.min() >= 0.0 and nu.min() >= 0.0
    if feasible:
        x = result.x.clip(min=0.0)
        assert np.abs(answer.power - x).max() <= 1e-12 * x.max()
        assert np.all(nu @ A - mu <= T * (1.0 + 1e-9))
        if minimal is not None:
            energy = float(T @ answer.power)
            assert float(nu @ b - mu @ s.max_power) == pytest.approx(energy, rel=1e-9)
        return True
    # on the equilibrated rows, with the ray scaled to unit size, so that
    # the tolerances of verify_farkas are relative ones
    norm = np.abs(A).max(axis=1)
    scaled = lpmod.LinearProgram(
        "min", T, A / norm[:, None], b / norm, problem.row_senses,
        upper=problem.upper,
    )
    size = max((nu * norm).max(), mu.max())
    verify_farkas(
        scaled,
        lpmod.LpResult("infeasible", farkas=nu * norm / size, farkas_upper=-mu / size),
        tol=tol,
    )
    if minimal is not None:
        support = np.flatnonzero(nu)
        key = tuple((int(i), int(assigned[i])) for i in support)
        if key not in minimal:
            minimal[key] = all(
                strict_lp(s, demands, assigned, support[support != i])[2]
                for i in support
            )
        assert minimal[key], key
    return False


def uncapped_least_powers(s, demands, assigned):
    """Least fixed point of the interference function by Yates' iteration."""
    users = np.arange(s.user_count)
    g = s.channel_gains
    gammas = requested_thresholds(s, demands)
    own = g[users, assigned]
    C = gammas[:, None] * g / own[:, None]
    C[users, assigned] = 0.0
    u = gammas * s.noise_power / own
    p = np.zeros(s.sbs_count)
    for _ in range(100_000):
        new = np.zeros(s.sbs_count)
        np.maximum.at(new, assigned, u + C @ p)
        diverged = new.max() > 1e3 * s.max_power.max()
        if diverged or np.allclose(new, p, rtol=1e-16, atol=0.0):
            return new
        p = new
    raise AssertionError("Yates iteration did not settle")


class TestStructuredPower:
    def test_matches_strict_lp_on_every_association(self, caplog):
        verdicts = {True: 0, False: 0}
        with caplog.at_level(logging.WARNING, logger="dscnopt.benders"):
            for seed in range(10):
                inst = scn.generate(scn.desk_scale(), seed)
                s, demands = inst.scenario, inst.demands
                minimal = {}
                for assigned in iter_assignments(s.user_count, s.sbs_count):
                    answer = benders._min_power(s, demands, assigned)
                    verdicts[check_answer(s, demands, assigned, answer, minimal)] += 1
        assert not caplog.records          # no LP fallback
        assert verdicts[True] >= 50 and verdicts[False] >= 5000

    def test_near_boundary_thresholds(self, caplog):
        # thresholds scaled so that the least powers sit a hair inside or
        # outside the cap of the SBS that reaches it first
        checked = 0
        for seed in range(5):
            inst = scn.generate(scn.desk_scale(), seed)
            s, demands = inst.scenario, inst.demands
            feasible = [
                a for a in iter_assignments(s.user_count, s.sbs_count)
                if benders._min_power(s, demands, a).power is not None
            ]
            for assigned in feasible[:2]:
                def excess(t):
                    scaled = dataclasses.replace(
                        s, sinr_thresholds=t * s.sinr_thresholds
                    )
                    p = uncapped_least_powers(scaled, demands, assigned)
                    return float((p / s.max_power).max()) - 1.0

                t_hi = 1.0
                while excess(t_hi) < 0.0:
                    t_hi *= 1.5
                for offset in (-1e-9, 1e-9, -1e-12, 1e-12):
                    t = brentq(lambda t: excess(t) - offset, 1.0, t_hi,
                               xtol=1e-16, rtol=1e-15)
                    scaled = dataclasses.replace(
                        s, sinr_thresholds=t * s.sinr_thresholds
                    )
                    p = uncapped_least_powers(scaled, demands, assigned)
                    assert abs((p / s.max_power).max() - 1.0 - offset) < 1e-13
                    caplog.clear()
                    with caplog.at_level(logging.WARNING, logger="dscnopt.benders"):
                        answer = benders._min_power(scaled, demands, assigned)
                    # inside the cap the structured answer stands; just
                    # outside, the LP may judge by its tolerance, and rays
                    # left to it need not be minimal
                    assert offset > 0.0 or not caplog.records
                    check_answer(scaled, demands, assigned, answer,
                                 None if caplog.records else {}, tol=1e-13)
                    checked += 1
        assert checked == 40

    def test_fallback_answers_by_lp_and_logs(self, monkeypatch, caplog):
        inst = scn.generate(scn.desk_scale(), 0)
        for s, demands in (mixed_case()[:2], (inst.scenario, inst.demands)):
            T = serving_time(s, demands, None, "relaxed")
            everything = list(iter_assignments(s.user_count, s.sbs_count))
            energies = {}
            for assigned in everything:
                assoc = Association.from_assignment(assigned, s.sbs_count)
                power = min_power_for(s, demands, assoc)
                if power is not None:
                    energies[tuple(assigned)] = float(T @ power.p)
            for assigned in everything[::13] + [np.array(a) for a in energies]:
                assoc = Association.from_assignment(assigned, s.sbs_count)
                caplog.clear()
                with monkeypatch.context() as m, caplog.at_level(
                    logging.WARNING, logger="dscnopt.benders"
                ):
                    m.setattr(benders, "_verified", lambda *args: False)
                    cut, M = solve_subproblem(s, demands, assoc)
                assert len(caplog.records) == 1
                assert caplog.records[0].name == "dscnopt.benders"
                assert math.isfinite(M) == (tuple(assigned) in energies)
                if math.isfinite(M):
                    assert M == pytest.approx(energies[tuple(assigned)], rel=1e-9)
                    assert cut.value(assoc) == pytest.approx(M, rel=1e-7)
                else:
                    assert cut.value(assoc) == pytest.approx(1.0, rel=1e-9)
                for other, energy in energies.items():
                    h = cut.value(
                        Association.from_assignment(np.array(other), s.sbs_count)
                    )
                    if cut.kind == "feasibility":
                        assert h <= 1e-9 * cut.magnitude
                    else:
                        assert h <= energy + 1e-9 * max(1.0, energy)

    def test_no_certificate_is_a_solver_fault(self, monkeypatch):
        s, demands, _ = mixed_case()
        zero = lpmod.LpResult("optimal", x=np.zeros(2), objective=0.0)
        monkeypatch.setattr(benders, "_verified", lambda *args: False)
        monkeypatch.setattr(lpmod, "solve_lp", lambda *args, **kwargs: zero)
        with pytest.raises(benders.SolverFault):
            min_power_for(s, demands, Association([[1, 0], [0, 1]]))


class TestMaster:
    def test_no_cuts_minimizes_delay(self):
        s, demands, placement = easy_case()
        sol = solve_master(s, demands, placement, [], alpha=0.5)
        dcoef = delay_coefficients(s, demands, placement)
        expected = dcoef.min(axis=1).sum()
        assert sol.value == pytest.approx(0.5 * expected)
        assert np.array_equal(sol.assoc.assigned_sbs, dcoef.argmin(axis=1))

    def test_respects_feasibility_cut(self):
        s, demands, placement = mixed_case()
        cut, _ = solve_subproblem(s, demands, Association([[1, 0], [0, 1]]))
        sol = solve_master(s, demands, placement, [cut], alpha=0.0)
        assert cut.value(sol.assoc) <= 1e-9 * cut.magnitude

    def test_all_associations_cut_off(self):
        s, demands, placement = easy_case()
        # a synthetic cut violated by every association
        cut = Cut(constant=1.0, coef=np.zeros((2, 2)), kind="feasibility")
        with pytest.raises(benders.MasterInfeasibleError):
            solve_master(s, demands, placement, [cut], alpha=0.5)

    def test_enumeration_and_search_agree(self, monkeypatch):
        for seed in range(4):
            inst, placement = desk_pipeline(seed)
            s, demands = inst.scenario, inst.demands
            rng = np.random.default_rng(100 + seed)
            cuts = []
            for assigned in [rng.integers(0, 3, 6) for _ in range(5)]:
                cut, _ = solve_subproblem(
                    s, demands, Association.from_assignment(assigned, 3)
                )
                cuts.append(cut)
            for alpha in (0.0, 0.5, 1.0):
                enum = solve_master(s, demands, placement, cuts, alpha)
                with monkeypatch.context() as m:
                    m.setattr(benders, "_MASTER_ENUMERATION_LIMIT", 0)
                    found = solve_master(s, demands, placement, cuts, alpha)
                assert found.value == pytest.approx(enum.value, rel=1e-12)
                assert np.array_equal(found.assoc.x, enum.assoc.x)


    def test_cut_table_matches_fresh_solve(self):
        # replay the cuts of ucwt runs one at a time through one running table
        cases = [mixed_case()]
        for seed in range(4):
            inst, placement = desk_pipeline(seed)
            cases.append((inst.scenario, inst.demands, placement))
        for s, demands, placement in cases:
            cuts = ucwt(s, demands, placement, 0.5).trace.cuts
            dcoef = delay_coefficients(s, demands, placement)
            for alpha in (0.0, 0.5, 1.0):
                table = benders._CutTable(s.user_count, s.sbs_count, dcoef, alpha)
                for k in range(1, len(cuts) + 1):
                    kept = solve_master(s, demands, placement, cuts[:k], alpha, table)
                    fresh = solve_master(s, demands, placement, cuts[:k], alpha)
                    assert kept.value == fresh.value
                    assert np.array_equal(kept.assoc.x, fresh.assoc.x)
                value = table.value.copy()
                table.absorb(cuts)
                assert table.absorbed == len(cuts)
                assert np.array_equal(table.value, value)
                with pytest.raises(ModelError):
                    table.absorb(cuts[:-1])
                # a table holds the objective at one alpha only
                with pytest.raises(ModelError):
                    solve_master(s, demands, placement, cuts, 0.25, table)

    @pytest.mark.parametrize("U, B", [(1, 3), (3, 1), (1, 1), (6, 3), (15, 2)])
    def test_grid_sum_matches_enumeration(self, U, B):
        coef = np.random.default_rng(10 * U + B).uniform(0.5, 2.0, (U, B))
        h = benders._grid_sum(coef)
        expected = [coef[np.arange(U), a].sum() for a in iter_assignments(U, B)]
        assert h.shape == (B**U,)
        np.testing.assert_allclose(h, expected, rtol=1e-12, atol=0)

    def test_master_matches_brute_force_on_random_cuts(self, monkeypatch):
        def eta_for(x, cuts):
            # least eta at a binary x, or None if a feasibility cut fails
            eta = 0.0
            for cut in cuts:
                h = cut.value(x)
                if cut.kind == "optimality":
                    eta = max(eta, h)
                elif h > 1e-9 * cut.magnitude:
                    return None
            return eta

        for seed in range(3):
            inst, placement = desk_pipeline(seed)
            s, demands = inst.scenario, inst.demands
            U, B = s.user_count, s.sbs_count
            rng = np.random.default_rng(200 + seed)
            cuts = [
                Cut(float(rng.normal()), rng.normal(size=(U, B)), "optimality")
                for _ in range(6)
            ]
            for _ in range(2):
                # a feasibility cut that keeps a random association feasible
                coef = rng.normal(size=(U, B))
                kept = coef[np.arange(U), rng.integers(0, B, U)].sum()
                cuts.append(Cut(-float(kept) - 0.5, coef, "feasibility"))
            dcoef = delay_coefficients(s, demands, placement)
            for alpha in (0.0, 0.5, 1.0):
                values = []
                for a in iter_assignments(U, B):
                    x = Association.from_assignment(a, B).x
                    eta = eta_for(x, cuts)
                    if eta is not None:
                        values.append(alpha * eta + (1 - alpha) * (dcoef * x).sum())
                # enumeration, then the search
                for limit in (B**U, 0):
                    monkeypatch.setattr(benders, "_MASTER_ENUMERATION_LIMIT", limit)
                    sol = solve_master(s, demands, placement, cuts, alpha)
                    assert sol.value == pytest.approx(
                        min(values), rel=1e-12, abs=1e-12
                    )
                    x = sol.assoc.x
                    value = alpha * eta_for(x, cuts) + (1 - alpha) * (dcoef * x).sum()
                    assert value == pytest.approx(sol.value, rel=1e-12, abs=1e-12)

    def test_equal_coefficients_keep_lexicographic_first(self, monkeypatch):
        inst, placement = desk_pipeline(0)
        s, demands = inst.scenario, inst.demands
        U, B = s.user_count, s.sbs_count
        flat = Cut(1.0, np.tile(np.arange(U, dtype=float)[:, None], (1, B)),
                   "optimality")
        coef = np.zeros((U, B))
        coef[0, 0] = 1.0
        cutoff = Cut(-0.5, coef, "feasibility")
        # enumeration, then the search
        for limit in (B**U, 0):
            monkeypatch.setattr(benders, "_MASTER_ENUMERATION_LIMIT", limit)
            sol = solve_master(s, demands, placement, [flat], alpha=1.0)
            assert sol.assoc.assigned_sbs.tolist() == [0] * U
            # cutting off user 0 at SBS 0 moves the optimum to the next one
            sol = solve_master(s, demands, placement, [flat, cutoff], alpha=1.0)
            assert sol.assoc.assigned_sbs.tolist() == [1] + [0] * (U - 1)


class TestPenalty:
    def test_binary_matches_master_objective(self):
        s, demands, placement = easy_case()
        lam = penalty_lambda(s, demands)
        dcoef = delay_coefficients(s, demands, placement)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        value = rmp_penalty_value(s, demands, placement, 0.3, lam, 2.0, x)
        assert value == pytest.approx(0.3 * 2.0 + 0.7 * float((dcoef * x).sum()))

    def test_fractional_is_penalized(self):
        s, demands, placement = easy_case()
        lam = penalty_lambda(s, demands)
        frac = np.full((2, 2), 0.5)
        binary = np.array([[1.0, 0.0], [0.0, 1.0]])
        v_frac = rmp_penalty_value(s, demands, placement, 0.3, lam, 0.0, frac)
        v_bin = rmp_penalty_value(s, demands, placement, 0.3, lam, 0.0, binary)
        assert v_frac > v_bin
        with pytest.raises(ModelError):
            rmp_penalty_value(s, demands, placement, 0.3, lam, 0.0, frac * 3)


class TestUcwt:
    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_matches_oracle_on_small_case(self, alpha):
        s, demands, placement = easy_case()
        result = ucwt(s, demands, placement, alpha)
        oracle = brute_force(s, demands, placement, alpha)
        assert result.trace.converged
        assert result.trace.final_objective == pytest.approx(
            oracle.objective, rel=1e-6, abs=1e-9
        )

    def test_avoids_infeasible_associations(self):
        s, demands, placement = mixed_case()
        result = ucwt(s, demands, placement, 0.5)
        assert min_power_for(s, demands, result.assoc) is not None
        oracle = brute_force(s, demands, placement, 0.5)
        assert result.trace.final_objective == pytest.approx(
            oracle.objective, rel=1e-6
        )

    def test_bounds_are_monotone(self):
        inst, placement = desk_pipeline(2)
        result = ucwt(inst.scenario, inst.demands, placement, 0.5)
        records = result.trace.iterations
        assert result.trace.converged
        for prev, cur in zip(records, records[1:]):
            assert cur.psi_lower >= prev.psi_lower - 1e-9
            assert cur.psi_upper <= prev.psi_upper + 1e-9
        last = records[-1]
        assert last.psi_upper - last.psi_lower <= result.trace.epsilon

    def test_desk_instances_match_oracle(self):
        for seed in (0, 1, 3):
            inst, placement = desk_pipeline(seed)
            for alpha in (0.0, 1.0):
                result = ucwt(inst.scenario, inst.demands, placement, alpha)
                oracle = brute_force(inst.scenario, inst.demands, placement, alpha)
                assert result.trace.final_objective == pytest.approx(
                    oracle.objective, rel=1e-6, abs=1e-9
                )

    def test_starts_from_cut_free_master(self):
        statuses = set()
        for seed in range(4):
            inst, placement = desk_pipeline(seed)
            s, demands = inst.scenario, inst.demands
            T = serving_time(s, demands, None, "relaxed")
            for alpha in (0.0, 0.5, 1.0):
                start = solve_master(s, demands, placement, [], alpha).assoc
                first = ucwt(s, demands, placement, alpha).trace.iterations[0]
                power = min_power_for(s, demands, start)
                if power is None:
                    assert first.subproblem_status == "unbounded"
                    assert math.isinf(first.M)
                else:
                    assert first.subproblem_status == "bounded"
                    assert first.M == float(T @ power.p)
                statuses.add(first.subproblem_status)
        assert statuses == {"bounded", "unbounded"}

    def test_matches_oracle_above_enumeration_limit(self):
        # desk B=3, U=10: 59,049 associations, so the master is searched
        alphas = (0.0, 0.5, 1.0)
        for seed in (0, 1):
            inst = scn.generate(scn.desk_scale(user_count=10), seed)
            s, demands = inst.scenario, inst.demands
            placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
            assert s.sbs_count**s.user_count > benders._MASTER_ENUMERATION_LIMIT
            swept = dict(brute_force_sweep(s, demands, placement, alphas))
            for alpha in alphas:
                result = ucwt(s, demands, placement, alpha)
                assert result.trace.converged
                assert result.trace.final_objective == pytest.approx(
                    swept[alpha].objective, rel=1e-6, abs=1e-9
                )

    def test_trace_keeps_one_cut_per_iteration_and_one_incumbent(self):
        # every cut is new, and the incumbent moves only on a strict drop
        for seed in range(10):
            for users in (6, 8):
                inst = scn.generate(scn.desk_scale(user_count=users), seed)
                s, demands = inst.scenario, inst.demands
                placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
                for alpha in (0.0, 0.5, 1.0):
                    trace = ucwt(s, demands, placement, alpha).trace
                    assert len(trace.cuts) == len(trace.iterations)
                    keys = {(c.kind, c.constant, c.coef.tobytes()) for c in trace.cuts}
                    assert len(keys) == len(trace.cuts)
                    upper, omega = math.inf, None
                    for r in trace.iterations:
                        if r.subproblem_status == "unbounded":
                            assert (r.psi_upper, r.omega) == (upper, omega)
                        elif r.omega != omega:
                            assert r.psi_upper < upper and r.omega == r.t
                        else:
                            assert r.psi_upper == upper
                        upper, omega = r.psi_upper, r.omega
                    assert trace.omega == omega

    def test_iteration_budget_returns_incumbent_unconverged(self, monkeypatch):
        # a budget of k iterations replays the first k of the full run
        outcomes = set()
        for seed in range(6):
            inst, placement = desk_pipeline(seed)
            s, demands = inst.scenario, inst.demands
            for alpha in (0.0, 0.5, 1.0):
                full = ucwt(s, demands, placement, alpha).trace.iterations
                for budget in range(1, min(4, len(full))):
                    monkeypatch.setattr(benders, "DEFAULT_MAX_ITERS", budget)
                    head = full[:budget]
                    if all(r.subproblem_status == "unbounded" for r in head):
                        with pytest.raises(NoFeasibleAssociationError):
                            ucwt(s, demands, placement, alpha)
                        outcomes.add("no incumbent")
                    else:
                        trace = ucwt(s, demands, placement, alpha).trace
                        assert not trace.converged
                        assert trace.iterations == head
                        assert trace.final_objective == pytest.approx(
                            head[-1].psi_upper, rel=1e-12
                        )
                        outcomes.add("incumbent")
                    monkeypatch.undo()
        assert outcomes == {"incumbent", "no incumbent"}

    def test_trace_csv_format(self):
        s, demands, placement = easy_case()
        rows = ucwt(s, demands, placement, 0.5).trace.csv_rows()
        assert rows[0] == "t,psi_lower,psi_upper,subproblem_status,M,N,omega"
        assert all(len(r.split(",")) == 7 for r in rows[1:])
        # the master optimum N is the lower bound on every row
        assert all(r.split(",")[5] == r.split(",")[1] for r in rows[1:])

    def test_invalid_parameters(self):
        s, demands, placement = easy_case()
        with pytest.raises(ModelError):
            ucwt(s, demands, placement, 1.5)
        with pytest.raises(ModelError):
            ucwt(s, demands, placement, 0.5, epsilon=0.0)

    def test_wholly_infeasible_instance_raises(self):
        s = small_scenario(
            [[1.0, 0.9], [0.9, 0.8]], [3.0, 3.0], max_power=1e-4
        )
        demands = DemandMatrix([[1, 0], [0, 1]])
        placement = CachePlacement([[1, 1], [0, 0]])
        with pytest.raises(NoFeasibleAssociationError):
            ucwt(s, demands, placement, 0.5)
