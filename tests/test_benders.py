"""Decomposition machinery: cuts, subproblem duality, master, full loop."""

import math

import numpy as np
import pytest

from dscnopt import benders, lp as lpmod, scenario as scn
from dscnopt.benders import (
    Cut,
    NoFeasibleAssociationError,
    build_subproblem_dual,
    build_subproblem_primal,
    delay_coefficients,
    min_power_for,
    penalty_lambda,
    recover_power,
    rmp_penalty_value,
    solve_master,
    solve_subproblem,
    ucwt,
    update_bounds,
    varrho,
)
from dscnopt.model import (
    Association,
    CachePlacement,
    DemandMatrix,
    ModelError,
    Scenario,
    serving_time,
)
from dscnopt.oracle import brute_force, iter_assignments
from dscnopt.placement import lpf_greedy
from dscnopt.popularity import local_popularity


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
        rho = varrho(s, demands)
        primal = build_subproblem_primal(s, demands, Association([[1, 0], [0, 1]]), rho)
        # rows for non-assigned pairs must hold at any in-bounds power
        p = s.max_power.copy()
        residual = primal.A @ p - primal.b
        for i, j in ((0, 1), (1, 0)):
            assert residual[i * 2 + j] >= 0.0

    def test_interferer_count_override(self):
        s, demands, _ = easy_case()
        assert varrho(s, demands, 5) < varrho(s, demands, 2)


class TestSubproblemLPs:
    def test_primal_matches_assigned_rows_solution(self):
        s, demands, _ = easy_case()
        rho = varrho(s, demands)
        assoc = Association([[1, 0], [0, 1]])
        full = lpmod.solve_lp(build_subproblem_primal(s, demands, assoc, rho))
        small = min_power_for(s, demands, assoc)
        assert full.status == "optimal"
        T = serving_time(s, demands, None, "relaxed")
        assert full.objective == pytest.approx(float(small.p @ T), rel=1e-8)

    def test_strong_duality(self):
        s, demands, _ = easy_case()
        rho = varrho(s, demands)
        for assigned in iter_assignments(2, 2):
            assoc = Association.from_assignment(assigned, 2)
            primal = lpmod.solve_lp(build_subproblem_primal(s, demands, assoc, rho))
            dual = lpmod.solve_lp(build_subproblem_dual(s, demands, assoc, rho))
            assert primal.status == dual.status == "optimal"
            assert dual.objective == pytest.approx(primal.objective, rel=1e-7, abs=1e-9)

    def test_dual_unbounded_iff_primal_infeasible(self):
        s, demands, _ = mixed_case()
        rho = varrho(s, demands)
        assoc = Association([[1, 0], [0, 1]])
        primal = lpmod.solve_lp(build_subproblem_primal(s, demands, assoc, rho))
        dual = lpmod.solve_lp(build_subproblem_dual(s, demands, assoc, rho))
        assert primal.status == "infeasible"
        assert dual.status == "unbounded"


class TestSolveSubproblem:
    def test_bounded_returns_minimum_energy(self):
        s, demands, _ = easy_case()
        rho = varrho(s, demands)
        assoc = Association([[1, 0], [0, 1]])
        point, M = solve_subproblem(s, demands, assoc, rho)
        assert point.kind == "extreme_point"
        T = serving_time(s, demands, None, "relaxed")
        expected = float(min_power_for(s, demands, assoc).p @ T)
        assert M == pytest.approx(expected, rel=1e-8)
        # the optimality cut is tight at the proposing association
        cut = Cut.from_dual_point(s, demands, rho, point)
        assert cut.kind == "optimality"
        assert cut.value(assoc) == pytest.approx(M, rel=1e-7, abs=1e-9)

    def test_optimality_cut_is_globally_valid(self):
        s, demands, _ = easy_case()
        rho = varrho(s, demands)
        T = serving_time(s, demands, None, "relaxed")
        cuts = []
        for assigned in iter_assignments(2, 2):
            point, M = solve_subproblem(
                s, demands, Association.from_assignment(assigned, 2), rho
            )
            cuts.append(Cut.from_dual_point(s, demands, rho, point))
        # every cut under-estimates the true energy at every association
        for assigned in iter_assignments(2, 2):
            assoc = Association.from_assignment(assigned, 2)
            energy = float(min_power_for(s, demands, assoc).p @ T)
            for cut in cuts:
                assert cut.value(assoc) <= energy + 1e-7 * max(1.0, energy)

    def test_ray_certifies_infeasibility(self):
        s, demands, _ = mixed_case()
        rho = varrho(s, demands)
        bad = Association([[1, 0], [0, 1]])
        point, M = solve_subproblem(s, demands, bad, rho)
        assert point.kind == "extreme_ray" and math.isinf(M)
        cut = Cut.from_dual_point(s, demands, rho, point)
        assert cut.kind == "feasibility"
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
            rho = varrho(s, demands)
            T = serving_time(s, demands, None, "relaxed")
            rng = np.random.default_rng(seed)
            assignments = [rng.integers(0, 3, 6) for _ in range(8)]
            cuts, truths = [], []
            for assigned in assignments:
                assoc = Association.from_assignment(assigned, 3)
                point, M = solve_subproblem(s, demands, assoc, rho)
                cuts.append(Cut.from_dual_point(s, demands, rho, point))
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
        rho = varrho(s, demands)
        verdicts = set()
        for assigned in iter_assignments(s.user_count, s.sbs_count):
            assoc = Association.from_assignment(assigned, s.sbs_count)
            feasible = min_power_for(s, demands, assoc) is not None
            try:
                recover_power(s, demands, assoc)
                recovered = True
            except ModelError:
                recovered = False
            _, M = solve_subproblem(s, demands, assoc, rho)
            assert feasible == recovered == math.isfinite(M), assigned
            verdicts.add(feasible)
        # each case holds both feasible and infeasible associations
        assert verdicts == {True, False}


class TestMaster:
    def test_no_cuts_minimizes_delay(self):
        s, demands, placement = easy_case()
        sol = solve_master(s, demands, placement, [], alpha=0.5)
        dcoef = delay_coefficients(s, demands, placement)
        expected = dcoef.min(axis=1).sum()
        assert sol.eta == 0.0
        assert sol.value == pytest.approx(0.5 * expected)
        assert np.array_equal(sol.assoc.assigned_sbs, dcoef.argmin(axis=1))

    def test_respects_feasibility_cut(self):
        s, demands, placement = mixed_case()
        rho = varrho(s, demands)
        point, _ = solve_subproblem(s, demands, Association([[1, 0], [0, 1]]), rho)
        cut = Cut.from_dual_point(s, demands, rho, point)
        sol = solve_master(s, demands, placement, [cut], alpha=0.0)
        assert cut.value(sol.assoc) <= 1e-9 * cut.magnitude

    def test_all_associations_cut_off(self):
        s, demands, placement = easy_case()
        # a synthetic cut violated by every association
        cut = Cut(constant=1.0, coef=np.zeros((2, 2)), kind="feasibility")
        with pytest.raises(benders.MasterInfeasibleError):
            solve_master(s, demands, placement, [cut], alpha=0.5)

    def test_enumeration_and_branch_and_bound_agree(self, monkeypatch):
        for seed in range(4):
            inst, placement = desk_pipeline(seed)
            s, demands = inst.scenario, inst.demands
            rho = varrho(s, demands)
            rng = np.random.default_rng(100 + seed)
            cuts = []
            for assigned in [rng.integers(0, 3, 6) for _ in range(5)]:
                point, _ = solve_subproblem(
                    s, demands, Association.from_assignment(assigned, 3), rho
                )
                cuts.append(Cut.from_dual_point(s, demands, rho, point))
            for alpha in (0.0, 0.5, 1.0):
                enum = solve_master(s, demands, placement, cuts, alpha)
                with monkeypatch.context() as m:
                    m.setattr(benders, "_MASTER_ENUMERATION_LIMIT", 0)
                    bb = solve_master(s, demands, placement, cuts, alpha)
                assert bb.value == pytest.approx(enum.value, rel=1e-7, abs=1e-9)


class TestPenalty:
    def test_binary_matches_master_objective(self):
        s, demands, placement = easy_case()
        lam = penalty_lambda(s, demands)
        dcoef = delay_coefficients(s, demands, placement)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        value = rmp_penalty_value(s, demands, placement, [], 0.3, lam, 2.0, x)
        assert value == pytest.approx(0.3 * 2.0 + 0.7 * float((dcoef * x).sum()))

    def test_fractional_is_penalized(self):
        s, demands, placement = easy_case()
        lam = penalty_lambda(s, demands)
        frac = np.full((2, 2), 0.5)
        binary = np.array([[1.0, 0.0], [0.0, 1.0]])
        v_frac = rmp_penalty_value(s, demands, placement, [], 0.3, lam, 0.0, frac)
        v_bin = rmp_penalty_value(s, demands, placement, [], 0.3, lam, 0.0, binary)
        assert v_frac > v_bin
        with pytest.raises(ModelError):
            rmp_penalty_value(s, demands, placement, [], 0.3, lam, 0.0, frac * 3)


class TestUpdateBounds:
    def test_skips_unbounded_and_keeps_first_tie(self):
        candidates = [(math.inf, 1.0), (4.0, 2.0), (2.0, 4.0), (2.0, 4.0)]
        best, omega = update_bounds(candidates, 0.5)
        assert best == pytest.approx(3.0)
        assert omega == 2
        assert update_bounds([(math.inf, 1.0)], 0.5) == (math.inf, None)


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

    def test_trace_csv_format(self):
        s, demands, placement = easy_case()
        rows = ucwt(s, demands, placement, 0.5).trace.csv_rows()
        assert rows[0] == "t,psi_lower,psi_upper,subproblem_status,M,N,omega"
        assert all(len(r.split(",")) == 7 for r in rows[1:])

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
