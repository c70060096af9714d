"""Decomposition machinery: cuts, the power subproblem, master, full loop."""

import dataclasses
import functools
import hashlib
import itertools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from dscnopt import benders, lp as lpmod, scenario as scn
from dscnopt.baselines import doa, ema
from dscnopt.benders import (
    Cut,
    IterationBudgetError,
    _SinrRows,
    conflict_seed,
    delay_coefficients,
    min_power_for,
    reachable_sbs,
    recover_power,
    solve_master,
    solve_subproblem,
    ucwt,
)
from dscnopt.model import (
    Association,
    CachePlacement,
    DemandMatrix,
    InfeasibleInstanceError,
    ModelError,
    Scenario,
    objective,
    requested_thresholds,
    serving_time,
)
from dscnopt.oracle import (
    brute_force,
    brute_force_sweep,
    enumerate_candidates,
)
from dscnopt.placement import gpc_placement, lpf_greedy, rc_placement
from dscnopt.popularity import local_popularity

from reference import (
    build_subproblem_primal,
    iter_assignments,
    penalty_lambda,
    rmp_penalty_value,
)
from test_lp import verify_farkas


DEFAULT_LIMIT = benders._MASTER_ENUMERATION_LIMIT
# the default enumeration limit, and 0, under which every master is searched
ENUMERATION_LIMITS = [
    pytest.param(DEFAULT_LIMIT, id="default-limit"),
    pytest.param(0, id="limit-0"),
]


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


def desk_pipeline(seed, **overrides):
    inst = scn.generate(scn.desk_scale(**overrides), seed)
    pop = local_popularity(inst.scenario, inst.preferences)
    placement, _ = lpf_greedy(inst.scenario, pop)
    return inst, placement


class TestVarrho:
    def test_hand_computed(self):
        s, demands, _ = easy_case()
        # worst threshold 0.3, one interferer at p=1 through gain 1.0, noise 1e-3
        assert _SinrRows(s, demands).varrho == pytest.approx(1.0 / (0.3 * 1.001))

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
            rho = _SinrRows(s, demands).varrho
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

    def test_cut_arrays_are_read_only_copies(self):
        # a memoized cut sits in the traces of several runs
        s, demands, _ = easy_case()
        cut, _ = solve_subproblem(s, demands, Association([[1, 0], [0, 1]]))
        for arr in (cut.coef, cut.power):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        coef = np.ones((2, 2))
        cut = Cut(0.0, coef, "feasibility")
        coef[0, 0] = 2.0
        assert cut.coef[0, 0] == 1.0 and cut.power is None

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


def check_farkas(problem, answer, tol):
    """Assert that a ray answer passes the Farkas inequalities of ``problem``.

    On the equilibrated rows, with the ray scaled to unit size, so that
    the tolerances of ``verify_farkas`` are relative ones.
    """
    A, b, mu, nu = problem.A, problem.b, answer.mu, answer.nu
    norm = np.abs(A).max(axis=1)
    scaled = lpmod.LinearProgram(
        "min", problem.c, A / norm[:, None], b / norm, problem.row_senses,
        upper=problem.upper,
    )
    size = max((nu * norm).max(), mu.max())
    verify_farkas(
        scaled,
        lpmod.LpResult("infeasible", farkas=nu * norm / size, farkas_upper=-mu / size),
        tol=tol,
    )


def exact_farkas_gain(problem, answer):
    """nu'b - mu'u - (A'nu - mu)^+ u in exact arithmetic, u the upper bounds.

    Over every p in [0, u] with A p >= b, nu'(b - A p) + mu'(p - u) <= 0
    for nu, mu >= 0, and it is at least this value, so a positive value
    proves the rows infeasible in the box.
    """
    exact = np.frompyfunc(Fraction, 1, 1)
    A, b, u = exact(problem.A), exact(problem.b), exact(problem.upper)
    nu, mu = exact(answer.nu), exact(answer.mu)
    assert min(nu.min(), mu.min()) >= 0
    return nu @ b - mu @ u - np.maximum(nu @ A - mu, 0) @ u


def check_answer(s, demands, assigned, answer, minimal=None, tol=1e-7):
    """Check a ``_min_power`` answer against the strict LP built here.

    Asserts that the verdicts and powers match, that optimality duals are
    dual feasible, and that a ray passes the Farkas inequalities at
    ``tol``. ``minimal`` is None to skip the minimality checks; else it
    caches, by the (user, SBS) pairs of a ray's support, whether dropping
    any one of its users leaves a feasible system, which is asserted, as
    is b'nu - pmax'mu = T p for its optimality duals. Returns the verdict.
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
    check_farkas(problem, answer, tol)
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


@functools.lru_cache(maxsize=None)
def near_boundary_instances():
    """(scenario, demands, assignment, offset) a hair inside or outside the cap.

    Desk seeds 0-4, two feasible assignments each: all thresholds are
    scaled so that the assignment's least powers exceed the cap of the SBS
    that reaches it first by ``offset`` of that cap. The 40 instances take
    a root search each, so they are built once, on first use, as a tuple.
    """
    instances = []
    for seed in range(5):
        inst = scn.generate(scn.desk_scale(), seed)
        s, demands = inst.scenario, inst.demands
        rows = _SinrRows(s, demands)
        feasible = [
            a for a in iter_assignments(s.user_count, s.sbs_count)
            if benders._min_power(rows, a).power is not None
        ]
        for assigned in feasible[:2]:
            def excess(t):
                scaled = dataclasses.replace(s, sinr_thresholds=t * s.sinr_thresholds)
                p = uncapped_least_powers(scaled, demands, assigned)
                return float((p / s.max_power).max()) - 1.0

            t_hi = 1.0
            while excess(t_hi) < 0.0:
                t_hi *= 1.5
            for offset in (-1e-9, 1e-9, -1e-12, 1e-12):
                t = brentq(lambda t: excess(t) - offset, 1.0, t_hi,
                           xtol=1e-16, rtol=1e-15)
                scaled = dataclasses.replace(s, sinr_thresholds=t * s.sinr_thresholds)
                instances.append((scaled, demands, assigned, offset))
    return tuple(instances)


# SHA-256 fingerprints of ``_min_power`` on every reachable association of
# desk seeds 0-4 at U in {4, 6} (323 answers), and on every second one of
# them with ``_verified`` failing, so on the exact re-run (162 answers);
# recorded from the per-association build of the SINR rows, before the
# per-instance ``_SinrRows`` replaced it
MIN_POWER_DIGEST = "b083bf7f04751ac0b242d3d31529248d68c518599cc6109b77d8b97ca1aa76ed"
EXACT_DIGEST = "b8182c4efdc003ec3b0c0261da916e32d919049bb439e2267e8181ffb8b22fd5"


def desk_reachable_answers(every=1):
    """(assignment, ``_min_power`` answer) for each ``every``-th reachable one."""
    for U in (4, 6):
        for seed in range(5):
            inst = scn.generate(scn.desk_scale(user_count=U), seed)
            s, demands = inst.scenario, inst.demands
            rows = _SinrRows(s, demands)
            options = [np.flatnonzero(r).tolist() for r in reachable_sbs(s, demands)]
            for assigned in list(itertools.product(*options))[::every]:
                yield assigned, benders._min_power(rows, np.array(assigned))


def power_fingerprint(answers):
    """SHA-256 over float.hex of each answer's power, mu, nu and energy."""
    digest = hashlib.sha256()

    def hexes(v):
        return ",".join(map(float.hex, v.tolist()))

    for assigned, a in answers:
        power = "none" if a.power is None else hexes(a.power)
        line = f"{assigned}|{power}|{hexes(a.mu)}|{hexes(a.nu)}|{a.energy.hex()}\n"
        digest.update(line.encode())
    return digest.hexdigest()


class TestStructuredPower:
    def test_answers_match_recorded_fingerprints(self, monkeypatch):
        assert power_fingerprint(desk_reachable_answers()) == MIN_POWER_DIGEST
        monkeypatch.setattr(benders, "_verified", lambda *args: False)
        assert power_fingerprint(desk_reachable_answers(every=2)) == EXACT_DIGEST

    def test_matches_strict_lp_on_every_association(self, caplog):
        verdicts = {True: 0, False: 0}
        with caplog.at_level(logging.WARNING, logger="dscnopt.benders"):
            for seed in range(10):
                inst = scn.generate(scn.desk_scale(), seed)
                s, demands = inst.scenario, inst.demands
                rows = _SinrRows(s, demands)
                minimal = {}
                for assigned in iter_assignments(s.user_count, s.sbs_count):
                    answer = benders._min_power(rows, assigned)
                    verdicts[check_answer(s, demands, assigned, answer, minimal)] += 1
        assert not caplog.records          # no exact re-run
        assert verdicts[True] >= 50 and verdicts[False] >= 5000

    def test_near_boundary_thresholds(self, caplog):
        checked = 0
        for scaled, demands, assigned, offset in near_boundary_instances():
            p = uncapped_least_powers(scaled, demands, assigned)
            assert abs((p / scaled.max_power).max() - 1.0 - offset) < 1e-13
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="dscnopt.benders"):
                answer = benders._min_power(_SinrRows(scaled, demands), assigned)
            if offset < 0.0:
                # inside the cap the structured answer stands
                assert not caplog.records
                check_answer(scaled, demands, assigned, answer, {}, tol=1e-13)
            else:
                # outside it no powers exist, whatever the LP's tolerance
                # accepts: the rounded ray proves it in exact arithmetic,
                # and its relative gain is about the offset, so it passes
                # verify_farkas at a tolerance below that
                assert answer.power is None
                problem = strict_lp(scaled, demands, assigned)[0]
                assert exact_farkas_gain(problem, answer) > 0
                check_farkas(problem, answer, 1e-4 * offset)
            checked += 1
        assert checked == 40

    def test_fallback_answers_exactly_and_logs(self, monkeypatch, caplog):
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
        # the exact re-run finds every square system singular: no answer
        s, demands, _ = mixed_case()
        monkeypatch.setattr(benders, "_verified", lambda *args: False)
        monkeypatch.setattr(benders._ExactSystem, "factor", lambda *args: None)
        for assoc in ([[1, 0], [0, 1]], [[1, 0], [1, 0]]):
            with pytest.raises(benders.SolverFault):
                min_power_for(s, demands, Association(assoc))

    @pytest.mark.parametrize("case", ["desk", "mixed"])
    def test_exact_rerun_converts_the_system_that_failed(self, monkeypatch, case):
        # desk seed 0 at its nearest SBSs is feasible, the mixed split is not
        if case == "desk":
            inst = scn.generate(scn.desk_scale(), 0)
            s, demands = inst.scenario, inst.demands
            assigned = s.channel_gains.argmax(axis=1)
        else:
            s, demands, _ = mixed_case()
            assigned = np.array([0, 1])
        rows = _SinrRows(s, demands)
        gathers, failed, built = [], [], []
        pairs, init = _SinrRows.pairs, benders._ExactSystem.__init__

        def gather(self, assigned):
            gathers.append(assigned)
            return pairs(self, assigned)

        def spy(self, *args):
            init(self, *args)
            built.append(self)

        monkeypatch.setattr(_SinrRows, "pairs", gather)
        monkeypatch.setattr(benders._ExactSystem, "__init__", spy)
        monkeypatch.setattr(
            benders, "_verified", lambda system, answer: failed.append(system) or False
        )
        answer = benders._min_power(rows, assigned)
        assert (answer.power is None) == (case == "mixed")
        # one gather of the association's rows, on the fallback path too
        assert len(gathers) == 1
        (system,), (exact,) = failed, built
        assert exact.assigned is system.assigned and exact.others is system.others
        for name in ("A", "b", "pmax", "T"):
            floats, rationals = getattr(system, name), getattr(exact, name)
            assert rationals.shape == floats.shape
            assert all(type(x) is Fraction for x in rationals.flat)
            assert list(rationals.flat) == [Fraction(x) for x in floats.flat]

    def test_paper_scale_ray_is_exact_and_small(self, caplog):
        # paper seeds 0-4, every user at its nearest SBS: the float ray's
        # margin is read in the rows' own watts, so it stands with no exact
        # re-run and names a small IIS
        sizes = []
        with caplog.at_level(logging.WARNING, logger="dscnopt.benders"):
            for seed in range(5):
                inst = scn.generate(scn.paper_scale(), seed)
                s, demands = inst.scenario, inst.demands
                assigned = s.channel_gains.argmax(axis=1)
                answer = benders._min_power(_SinrRows(s, demands), assigned)
                assert answer.power is None
                sizes.append(np.count_nonzero(answer.nu))
        assert "unverified" not in caplog.text
        assert sizes == [2, 2, 4, 6, 2]

    def test_verdicts_and_powers_are_unit_free(self, caplog):
        # desk seeds 0-5 at U=6, every association, against the same
        # instance with its noise and every cap times c: the checks read
        # each row against its own terms in watts, so no answer is re-run
        # exactly, and each verdict and each power over c is the unscaled one
        c = 1e-8
        verdicts = {True: 0, False: 0}
        with caplog.at_level(logging.WARNING, logger="dscnopt.benders"):
            for seed in range(6):
                inst = scn.generate(scn.desk_scale(user_count=6), seed)
                s, demands = inst.scenario, inst.demands
                scaled = dataclasses.replace(
                    s, noise_power=c * s.noise_power, max_power=c * s.max_power
                )
                rows, scaled_rows = _SinrRows(s, demands), _SinrRows(scaled, demands)
                for assigned in iter_assignments(s.user_count, s.sbs_count):
                    answer = benders._min_power(rows, assigned)
                    other = benders._min_power(scaled_rows, assigned)
                    feasible = answer.power is not None
                    assert (other.power is not None) == feasible, (seed, assigned)
                    if feasible:
                        np.testing.assert_allclose(
                            other.power / c, answer.power, rtol=1e-12, atol=0
                        )
                    verdicts[feasible] += 1
        assert "unverified" not in caplog.text
        assert verdicts[True] >= 30 and verdicts[False] >= 4000


def outer_sum_grid(coef):
    """The B**U vector of sum_i coef[i, a_i] over all assignments a.

    Lexicographic order, user 0 most significant, built by outer sums from
    the last user to the first: the reference the cut table must match.
    """
    h = np.zeros(1)
    for row in coef[::-1]:
        h = (row[:, None] + h).ravel()
    return h


def outer_sum_table(dcoef, cuts, alpha):
    """The master objective over all B**U assignments, scored by outer sums."""
    weighted_delay = (1.0 - alpha) * outer_sum_grid(dcoef)
    value = weighted_delay.copy()
    for cut in cuts:
        if cut.kind == "feasibility":
            # the associations that hold every pair of its support
            support = (cut.coef != 0).astype(float)
            value[outer_sum_grid(support) == support.sum()] = np.inf
        else:
            h = cut.constant + outer_sum_grid(cut.coef)
            np.maximum(value, alpha * h + weighted_delay, out=value)
    return value


def cut_table(dcoef, alpha, K=None, floor=None):
    """A ``_CutTable`` at ``alpha`` over a new ``_ConflictFree(K, floor)``.

    None stands for no conflict (all false) and for no floor (zeros).
    """
    U, B = dcoef.shape
    if K is None:
        K = np.zeros((U, B, U, B), dtype=bool)
    if floor is None:
        floor = np.zeros((U, B))
    return benders._CutTable(dcoef, alpha, benders._ConflictFree(K, floor))


def random_support(rng, U, B):
    """Non-negative coefficients on the pairs of a random association at some users."""
    coef = np.zeros((U, B))
    users = np.flatnonzero(rng.random(U) < 0.5)
    coef[users, rng.integers(0, B, len(users))] = rng.uniform(0.5, 2.0, len(users))
    return coef


@st.composite
def random_masters(draw):
    """(U, B, delay coefficients, symmetric conflict seed, cuts, floor), U <= 6, B <= 3.

    The floor is non-negative (U, B) terms, or None. Integral data, drawn at
    times, makes exact ties common.
    """
    U, B = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integral = draw(st.booleans())

    def numbers(*shape):
        x = rng.normal(size=shape)
        return np.round(2 * x) if integral else x

    dcoef = np.abs(numbers(U, B)) + 0.5
    K = rng.random((U, B, U, B)) < draw(st.sampled_from([0.0, 0.05, 0.2]))
    K |= K.transpose(2, 3, 0, 1)
    cuts = [
        Cut(float(numbers()), numbers(U, B), "optimality")
        for _ in range(draw(st.integers(0, 4)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        # a cut whose support is some pairs of a random association
        cuts.append(Cut(float(numbers()), random_support(rng, U, B), "feasibility"))
    floor = np.abs(numbers(U, B)) if draw(st.booleans()) else None
    return U, B, dcoef, K, cuts, floor


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
        with pytest.raises(InfeasibleInstanceError):
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
            K = conflict_seed(_SinrRows(s, demands))
            dcoef = delay_coefficients(s, demands, placement)
            for alpha in (0.0, 0.5, 1.0):
                for conflict in (None, K):
                    table = cut_table(dcoef, alpha, conflict)
                    enum = solve_master(s, demands, placement, cuts, alpha, table)
                    with monkeypatch.context() as m:
                        m.setattr(benders, "_MASTER_ENUMERATION_LIMIT", 0)
                        table = cut_table(dcoef, alpha, conflict)
                        assert table.master.rows is None
                        found = solve_master(s, demands, placement, cuts, alpha, table)
                    assert found.value == enum.value
                    assert np.array_equal(found.assoc.x, enum.assoc.x)
                # the seeded table went last: its answer holds no conflict
                assert not conflicts_held(K, found.assoc.assigned_sbs).any()


    def test_cut_table_matches_fresh_solve(self):
        # replay the cuts of ucwt runs one at a time through one running table,
        # with no seed and with the conflict seed
        cases = [mixed_case()]
        for seed in range(4):
            inst, placement = desk_pipeline(seed)
            cases.append((inst.scenario, inst.demands, placement))
        for s, demands, placement in cases:
            cuts = ucwt(s, demands, placement, 0.5).trace.cuts
            K = conflict_seed(_SinrRows(s, demands))
            dcoef = delay_coefficients(s, demands, placement)
            for conflict in (None, K):
                for alpha in (0.0, 0.5, 1.0):
                    table = cut_table(dcoef, alpha, conflict)
                    for k in range(1, len(cuts) + 1):
                        head = cuts[:k]
                        kept = solve_master(s, demands, placement, head, alpha, table)
                        fresh = solve_master(
                            s, demands, placement, head, alpha,
                            cut_table(dcoef, alpha, conflict),
                        )
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
            # the seeded table went last: none of its rows holds a conflict
            assert not any(conflicts_held(K, row).any() for row in table.master.rows)

    def test_table_rows_are_the_conflict_free_assignments(self):
        for U in (6, 9):
            every = list(iter_assignments(U, 3))
            for seed in range(10):
                inst, placement = desk_pipeline(seed, user_count=U)
                s, demands = inst.scenario, inst.demands
                K = conflict_seed(_SinrRows(s, demands))
                dcoef = delay_coefficients(s, demands, placement)
                empty = np.zeros_like(K)
                for conflict, allowed in (
                    (K, [a for a in every if not conflicts_held(K, a).any()]),
                    (empty, every),
                    (None, every),
                ):
                    rows = cut_table(dcoef, 0.5, conflict).master.rows
                    assert rows.shape == (len(allowed), U)
                    assert np.array_equal(rows, np.reshape(allowed, (-1, U)))

    @pytest.mark.parametrize("U, B", [(1, 3), (3, 1), (1, 1), (6, 3), (15, 2)])
    def test_table_matches_outer_sums(self, monkeypatch, U, B):
        # without a seed the rows are every assignment, valued bit for bit
        # as the outer sums over the whole grid value them; 2**15 rows pass
        # the default limit, so the limit is raised to hold them all
        monkeypatch.setattr(benders, "_MASTER_ENUMERATION_LIMIT", B**U)
        rng = np.random.default_rng(10 * U + B)
        dcoef = rng.uniform(0.5, 2.0, (U, B))
        cuts = [
            Cut(float(rng.normal()), rng.uniform(0.0, 2.0, (U, B)), "optimality")
            for _ in range(3)
        ]
        cuts.append(Cut(-float(rng.normal()), random_support(rng, U, B), "feasibility"))
        for alpha in (0.0, 0.5, 1.0):
            table = cut_table(dcoef, alpha)
            table.absorb(cuts)
            every = [list(a) for a in iter_assignments(U, B)]
            assert table.master.rows.tolist() == every
            assert np.array_equal(table.value, outer_sum_table(dcoef, cuts, alpha))

    def test_seeded_table_matches_outer_sums(self):
        for U in (6, 9):
            for seed in range(4):
                inst, placement = desk_pipeline(seed, user_count=U)
                s, demands = inst.scenario, inst.demands
                B = s.sbs_count
                cuts = ucwt(s, demands, placement, 0.5).trace.cuts
                dcoef = delay_coefficients(s, demands, placement)
                for alpha in (0.0, 0.5, 1.0):
                    table = cut_table(
                        dcoef, alpha, conflict_seed(_SinrRows(s, demands))
                    )
                    table.absorb(cuts)
                    grid = outer_sum_table(dcoef, cuts, alpha)
                    at = np.ravel_multi_index(table.master.rows.T, (B,) * U)
                    assert np.array_equal(table.value, grid[at])

    def test_seeded_tables_enumerate_past_the_old_limit(self):
        # B**U passes the limit, but the conflict-free rows fit the table
        for B, U in ((3, 10), (3, 12), (3, 16), (5, 12)):
            assert B**U > DEFAULT_LIMIT
            for seed in range(3):
                inst, placement = desk_pipeline(seed, sbs_count=B, user_count=U)
                s, demands = inst.scenario, inst.demands
                K = conflict_seed(_SinrRows(s, demands))
                dcoef = delay_coefficients(s, demands, placement)
                rows = cut_table(dcoef, 0.5, K).master.rows
                assert rows is not None and len(rows) > 0
                # sorted, distinct and conflict-free
                assert np.array_equal(np.unique(rows, axis=0), rows)
                assert not any(conflicts_held(K, row).any() for row in rows)
                if U == 10:
                    every = np.array(list(iter_assignments(U, B)))
                    i, k = np.arange(U)[:, None], np.arange(U)[None, :]
                    # [n, i, k]: K[i, a_i, k, a_k] for assignment n
                    held = K[i, every[:, :, None], k, every[:, None, :]]
                    held = held.any(axis=(1, 2))
                    assert np.array_equal(rows, every[~held])

    def test_build_gives_up_past_the_limit(self, monkeypatch):
        # an unseeded table with B**U past the limit
        inst, placement = desk_pipeline(0, user_count=10)
        dcoef = delay_coefficients(inst.scenario, inst.demands, placement)
        assert cut_table(dcoef, 0.5).master.rows is None
        # paper seed 0: a prefix level of its conflict-free rows passes it
        paper = scn.generate(scn.paper_scale(), 0)
        s, demands = paper.scenario, paper.demands
        placement, _ = lpf_greedy(s, local_popularity(s, paper.preferences))
        dcoef = delay_coefficients(s, demands, placement)
        K = conflict_seed(_SinrRows(s, demands))
        assert cut_table(dcoef, 0.5, K).master.rows is None
        # a peak level past a limit of 2 gives up, though one row is left:
        # user 1 reaches SBS 0 only, and not beside user 0 at SBS 1 or 2
        K = np.zeros((2, 3, 2, 3), dtype=bool)
        K[1, 1, 1, 1] = K[1, 2, 1, 2] = True
        K[0, 1:, 1, 0] = K[1, 0, 0, 1:] = True
        dcoef = np.ones((2, 3))
        monkeypatch.setattr(benders, "_MASTER_ENUMERATION_LIMIT", 2)
        assert cut_table(dcoef, 0.5, K).master.rows is None
        monkeypatch.setattr(benders, "_MASTER_ENUMERATION_LIMIT", 3)
        assert cut_table(dcoef, 0.5, K).master.rows.tolist() == [[0, 0]]

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(problem=random_masters(), alpha=st.sampled_from([0.0, 0.5, 1.0]))
    def test_table_and_search_agree_on_random_masters(self, problem, alpha):
        U, B, dcoef, K, cuts, floor = problem
        table = cut_table(dcoef, alpha, K, floor)
        allowed = [a for a in iter_assignments(U, B) if not conflicts_held(K, a).any()]
        assert table.master.rows.tolist() == [a.tolist() for a in allowed]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(benders, "_MASTER_ENUMERATION_LIMIT", 0)
            searched = cut_table(dcoef, alpha, K, floor)
        # limit 0 leaves rows only where no user 0 placement is conflict-free
        assert searched.master.rows is None or not allowed
        answers = []
        for t in (table, searched):
            try:
                # given a table, the master reads nothing from the instance
                answers.append(solve_master(None, None, None, cuts, alpha, t))
            except InfeasibleInstanceError:
                answers.append(None)
        enum, found = answers
        assert (enum is None) == (found is None)
        if enum is not None:
            assert found.value.hex() == enum.value.hex()
            assert np.array_equal(found.assoc.x, enum.assoc.x)

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(problem=random_masters(), alpha=st.sampled_from([0.0, 0.5, 1.0]))
    def test_prefix_values_bound_their_completions(self, problem, alpha):
        # each conflict-free row cut to its first k users, the rest free
        # (-1), is valued by the table's own code: at most the whole row's
        # table value, and that value by float.hex at k = U
        U, B, dcoef, K, cuts, floor = problem
        table = cut_table(dcoef, alpha, K, floor)
        table.absorb(cuts)
        rows = table.master.rows
        for k in range(U + 1):
            prefixes = np.where(np.arange(U) < k, rows, -1)
            partial = benders._CutTable(
                dcoef, alpha, benders._Rows(prefixes, table.master.floor)
            )
            partial.absorb(cuts)
            assert (partial.value <= table.value).all()
        assert list(map(float.hex, partial.value.tolist())) == list(
            map(float.hex, table.value.tolist())
        )

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(problem=random_masters())
    def test_prepared_scoring_is_the_per_user_sum(self, problem):
        # each cut's prepared vector, gathered by ``_Rows.score`` over every
        # prefix of the conflict-free rows (free users -1), is the sum of
        # coef[i, a_i], or coef[i].min() for a free user, from the last
        # user to the first, by float.hex; its support is np.nonzero(coef)
        U, B, dcoef, K, cuts, floor = problem
        rows = cut_table(dcoef, 0.5, K, floor).master.rows
        for k in range(U + 1):
            prefixes = np.where(np.arange(U) < k, rows, -1)
            master = benders._Rows(prefixes, np.zeros((U, B)))
            for cut in cuts:
                expected = []
                for a in prefixes:
                    terms = [
                        cut.coef[i].min() if a[i] < 0 else cut.coef[i, a[i]]
                        for i in reversed(range(U))
                    ]
                    expected.append(functools.reduce(lambda x, y: x + y, terms))
                got = master.score(cut.terms)
                assert list(map(float.hex, got.tolist())) == [
                    float(x).hex() for x in expected
                ]
        for cut in cuts:
            users, sbs = cut.support
            expected_users, expected_sbs = np.nonzero(cut.coef)
            assert np.array_equal(users, expected_users)
            assert np.array_equal(sbs, expected_sbs)
            for prepared in (users, sbs, cut.terms):
                assert not prepared.flags.writeable

    def test_master_matches_brute_force_on_random_cuts(self, monkeypatch):
        def eta_for(x, cuts):
            # least eta at a binary x, or None if it holds every pair of a
            # feasibility cut's support
            eta = 0.0
            for cut in cuts:
                if cut.kind == "optimality":
                    eta = max(eta, cut.value(x))
                elif np.all(x[cut.coef != 0] == 1):
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
                cuts.append(Cut(-0.5, random_support(rng, U, B), "feasibility"))
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

    def test_weak_feasibility_cut_excludes_its_association(self, monkeypatch):
        # a cut shaped like a subproblem's: its affine value at its own
        # association is 0.5, far below 1e-9 of its magnitude, yet that
        # association holds every pair of its support
        inst, placement = desk_pipeline(0)
        s, demands = inst.scenario, inst.demands
        U, B = s.user_count, s.sbs_count
        target = solve_master(s, demands, placement, [], alpha=0.0).assoc
        coef = np.where(target.x[:3] == 1, 1e12, 0.0)
        cut = Cut(0.5 - 3e12, np.vstack([coef, np.zeros((U - 3, B))]), "feasibility")
        assert cut.value(target) <= 1e-9 * cut.magnitude
        for limit in (B**U, 0):
            monkeypatch.setattr(benders, "_MASTER_ENUMERATION_LIMIT", limit)
            held = solve_master(s, demands, placement, [cut], alpha=0.0).assoc.x
            assert not np.array_equal(held[:3], target.x[:3])

    def test_search_matches_table_at_a_near_tie(self, monkeypatch):
        # desk B=7, U=14, seed 0, alpha 1/2: on these prefixes of the cuts of
        # a Benders loop over a seeded table without the energy floor, the
        # least value is held by three associations and a bound that
        # rounded above its leaves once hid the first of them. ucwt's own
        # master holds the floor and converges in one iteration here, so
        # the loop is run in the test
        inst, placement = desk_pipeline(0, sbs_count=7, user_count=14)
        s, demands = inst.scenario, inst.demands
        K = conflict_seed(_SinrRows(s, demands))
        dcoef = delay_coefficients(s, demands, placement)
        floor_free = cut_table(dcoef, 0.5, K)
        cuts = []
        assoc = solve_master(s, demands, placement, cuts, 0.5, floor_free).assoc
        while len(cuts) < 268:
            cuts.append(solve_subproblem(s, demands, assoc)[0])
            assoc = solve_master(s, demands, placement, cuts, 0.5, floor_free).assoc
        for k in (267, 268):
            table = cut_table(dcoef, 0.5, K)
            enum = solve_master(s, demands, placement, cuts[:k], 0.5, table)
            with monkeypatch.context() as m:
                m.setattr(benders, "_MASTER_ENUMERATION_LIMIT", 0)
                table = cut_table(dcoef, 0.5, K)
            found = solve_master(s, demands, placement, cuts[:k], 0.5, table)
            assert found.value.hex() == enum.value.hex() == "0x1.baff865298a4ap+12"
            assert np.array_equal(found.assoc.x, enum.assoc.x)

    def test_energy_floor_is_a_valid_cut(self):
        # every reachable association's floor, as the table scores it, is at
        # most its minimum energy (+inf when infeasible); where one SBS
        # serves every user there is no interference, and they are equal
        single = 0
        for U in (4, 6, 9):
            for seed in range(10):
                inst, _ = desk_pipeline(seed, user_count=U)
                s, demands = inst.scenario, inst.demands
                B = s.sbs_count
                sinr = _SinrRows(s, demands)
                F = benders.energy_floor(sinr)
                users = np.arange(U)
                # the one-user conflicts only: the rows are the reachable
                # associations, and at alpha 1 with no delay a row's value
                # is its floor
                K = np.zeros((U, B, U, B), dtype=bool)
                K[users, :, users, :] = (
                    np.eye(B, dtype=bool) & ~reachable_sbs(s, demands)[:, :, None]
                )
                table = cut_table(np.zeros((U, B)), 1.0, K, F)
                for assigned, floor in zip(table.master.rows, table.value.tolist()):
                    expected = 0.0
                    for j in range(B):
                        expected += F[assigned == j, j].max(initial=0.0)
                    assert floor == expected
                    energy = benders._min_power(sinr, assigned).energy
                    assert floor <= energy
                    if (assigned == assigned[0]).all():
                        assert floor.hex() == energy.hex()
                        single += 1
        assert single > 0

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


def single_excluded_pair(s, reach, i, j):
    """An assignment holding the pair (i, j) and no other excluded pair.

    Every other user sits at SBS j if it reaches it, else at its reachable
    SBS of highest gain; None if some other user reaches no SBS.
    """
    gains = np.where(reach, s.channel_gains, -np.inf)
    assigned = np.where(reach[:, j], j, gains.argmax(axis=1))
    assigned[i] = j
    others = np.arange(s.user_count) != i
    if not reach[others, assigned[others]].all():
        return None
    return assigned


def infeasible_excluded_pairs(s, demands):
    """Per pair the mask excludes: (user, SBS, whether ``min_power_for`` rejects).

    Each verdict is for ``single_excluded_pair``'s assignment; a pair
    without one (some other user reaches no SBS) is skipped.
    """
    reach = reachable_sbs(s, demands)
    for i, j in zip(*np.nonzero(~reach)):
        assigned = single_excluded_pair(s, reach, i, j)
        if assigned is not None:
            assoc = Association.from_assignment(assigned, s.sbs_count)
            yield i, j, min_power_for(s, demands, assoc) is None


class TestReachability:
    def test_excluded_pairs_are_infeasible(self):
        checked = 0
        for users in (6, 9, 12):
            for seed in range(40):
                inst = scn.generate(scn.desk_scale(user_count=users), seed)
                s, demands = inst.scenario, inst.demands
                for i, j, infeasible in infeasible_excluded_pairs(s, demands):
                    assert infeasible, (users, seed, i, j)
                    checked += 1
        assert checked >= 700

    def test_excluded_pairs_near_the_boundary(self, caplog):
        # where the structured ray is too weak to stand, the exact re-run
        # rejects a lone user's row that misses its cap by 1e-9, as the
        # mask's 1e-12 slack does
        checked = 0
        for scaled, demands, _, _ in near_boundary_instances():
            for i, j, infeasible in infeasible_excluded_pairs(scaled, demands):
                assert infeasible, (i, j)
                checked += 1
        assert checked >= 300
        assert "re-solving exactly" in caplog.text

    def test_table_mask_is_the_single_pair_threshold_test(self):
        # g p_max / N >= gamma (1 - 1e-12), written out, bit for bit
        cases = [
            (inst.scenario, inst.demands)
            for users in (6, 9, 12) for seed in range(40)
            for inst in [scn.generate(scn.desk_scale(user_count=users), seed)]
        ]
        cases += [(s, demands) for s, demands, _, _ in near_boundary_instances()]
        paper = scn.generate(scn.paper_scale(), 0)
        cases.append((paper.scenario, paper.demands))
        for s, demands in cases:
            gamma = s.sinr_thresholds[demands.requested_file]
            best = s.channel_gains * s.max_power[None, :]
            expected = best / s.noise_power >= gamma[:, None] * (1 - 1e-12)
            reach = _SinrRows(s, demands).reach
            assert reach.dtype == expected.dtype and reach.shape == expected.shape
            assert reach.tobytes() == expected.tobytes()

    def test_one_threshold_read_per_instance(self, monkeypatch):
        # each solver reads reachability, thresholds and rows off one table
        reads = []
        thresholds = benders.requested_thresholds

        def counted(*args):
            reads.append(args)
            return thresholds(*args)

        monkeypatch.setattr(benders, "requested_thresholds", counted)
        # desk seed 3: doa and ema both answer
        inst, placement = desk_pipeline(3)
        s, demands = inst.scenario, inst.demands
        for solve in (
            lambda: benders.InstanceMaster(s, demands),
            lambda: doa(s, demands, placement),
            lambda: ema(s, demands, placement),
            lambda: enumerate_candidates(s, demands, placement),
        ):
            reads.clear()
            solve()
            assert len(reads) == 1


def conflicts_held(K, assigned):
    """A seed restricted to an assignment: [i, k] is K[i, a_i, k, a_k]."""
    users = np.arange(len(assigned))
    return K[users, assigned][:, users, assigned]


def two_users(s, demands, i, k):
    """The instance of users i and k alone, with every SBS kept."""
    sub = dataclasses.replace(
        s, user_count=2, channel_gains=s.channel_gains[[i, k]], user_positions=None
    )
    return sub, DemandMatrix(demands.theta[[i, k]])


def two_user_pairs(s, demands, K):
    """Per pair of users i < k at SBSs j != l: (j, l, flagged, both reachable).

    Grouped by (i, k), yielded with the two-user instance of i and k.
    """
    reach = reachable_sbs(s, demands)
    B = s.sbs_count
    for i in range(s.user_count):
        for k in range(i + 1, s.user_count):
            sub, sub_demands = two_users(s, demands, i, k)
            verdicts = [
                (j, l, bool(K[i, j, k, l]), bool(reach[i, j] and reach[k, l]))
                for j in range(B) for l in range(B) if j != l
            ]
            yield sub, sub_demands, verdicts


class TestConflicts:
    def test_seed_holds_every_candidate(self):
        for seed in range(10):
            inst, placement = desk_pipeline(seed)
            s, demands = inst.scenario, inst.demands
            K = conflict_seed(_SinrRows(s, demands))
            U, B = s.user_count, s.sbs_count
            assert K.shape == (U, B, U, B) and K.dtype == bool
            assert np.array_equal(K, K.transpose(2, 3, 0, 1))
            users = np.arange(U)
            unreachable = ~reachable_sbs(s, demands)
            alone = np.eye(B, dtype=bool) & unreachable[:, :, None]
            assert np.array_equal(K[users, :, users, :], alone)
            # users at one SBS conflict only through a singleton
            same = K[:, np.arange(B), :, np.arange(B)]
            same[:, users, users] = False
            assert not same.any()
            candidates = enumerate_candidates(s, demands, placement)
            assert candidates
            for cand in candidates:
                assert not conflicts_held(K, cand.assigned).any()

    def test_flagged_pairs_are_infeasible(self):
        # forward: every flagged pair of reachable singletons, as the
        # association of its two users alone, has no feasible powers;
        # more users only raise the least fixed point (Yates 1995)
        checked = 0
        for users in (6, 9, 12):
            for seed in range(40):
                inst = scn.generate(scn.desk_scale(user_count=users), seed)
                s, demands = inst.scenario, inst.demands
                K = conflict_seed(_SinrRows(s, demands))
                for sub, sub_demands, verdicts in two_user_pairs(s, demands, K):
                    for j, l, flagged, reachable in verdicts:
                        if flagged and reachable:
                            assoc = Association.from_assignment([j, l], s.sbs_count)
                            assert min_power_for(sub, sub_demands, assoc) is None
                            checked += 1
        assert checked >= 8000

    def test_unflagged_pairs_are_feasible(self):
        # converse: every unflagged pair of reachable singletons is
        # feasible by policy iteration on its two rows
        checked = 0
        for users in (6, 9, 12):
            for seed in range(40):
                inst = scn.generate(scn.desk_scale(user_count=users), seed)
                s, demands = inst.scenario, inst.demands
                K = conflict_seed(_SinrRows(s, demands))
                for sub, sub_demands, verdicts in two_user_pairs(s, demands, K):
                    rows = _SinrRows(sub, sub_demands)
                    for j, l, flagged, reachable in verdicts:
                        if reachable and not flagged:
                            assigned = np.array([j, l])
                            system = benders._InterferenceSystem(rows, assigned)
                            answer = benders._policy_iteration(system)
                            assert answer is not None and answer.power is not None
                            checked += 1
        assert checked >= 8000

    def test_flagged_pairs_near_the_boundary(self, caplog):
        # every pair the 1e-8 margin flags here is infeasible by the
        # verdict of min_power_for
        flagged = 0
        for scaled, demands, _, _ in near_boundary_instances():
            K = conflict_seed(_SinrRows(scaled, demands))
            for sub, sub_demands, verdicts in two_user_pairs(scaled, demands, K):
                for j, l, conflict, _ in verdicts:
                    if conflict:
                        assoc = Association.from_assignment([j, l], scaled.sbs_count)
                        assert min_power_for(sub, sub_demands, assoc) is None
                        flagged += 1
        assert flagged >= 2000
        # the exact re-run does run on this set
        assert "re-solving exactly" in caplog.text


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

    def test_solves_each_association_once(self, monkeypatch):
        # the incumbent keeps the powers of the subproblem that found it
        calls = []
        min_power = benders._min_power

        def counted(*args):
            calls.append(args)
            return min_power(*args)

        monkeypatch.setattr(benders, "_min_power", counted)
        for U in (6, 8, 9):
            for seed in range(3):
                inst, placement = desk_pipeline(seed, user_count=U)
                s, demands = inst.scenario, inst.demands
                for alpha in (0.0, 0.5, 1.0):
                    calls.clear()
                    result = ucwt(s, demands, placement, alpha)
                    assert len(calls) == len(result.trace.iterations)
                    again = recover_power(s, demands, result.assoc)
                    assert result.power.p.tobytes() == again.p.tobytes()

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
        # the master over the conflict seed and the energy floor; desk U=8
        # seed 31 is an instance whose first such proposal is still
        # infeasible at alpha 0, where the floor has no weight
        statuses = set()
        cases = [desk_pipeline(seed) for seed in range(4)]
        cases.append(desk_pipeline(31, user_count=8))
        for inst, placement in cases:
            s, demands = inst.scenario, inst.demands
            T = serving_time(s, demands, None, "relaxed")
            K = conflict_seed(_SinrRows(s, demands))
            dcoef = delay_coefficients(s, demands, placement)
            for alpha in (0.0, 0.5, 1.0):
                table = cut_table(
                    dcoef, alpha, K, benders.energy_floor(_SinrRows(s, demands))
                )
                start = solve_master(s, demands, placement, [], alpha, table).assoc
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

    @pytest.mark.parametrize("limit", ENUMERATION_LIMITS)
    def test_matches_oracle_above_enumeration_limit(self, monkeypatch, limit):
        # desk B=3, U=10: 59,049 associations, but the few conflict-free
        # ones fit the table at the default limit; limit 0 searches
        monkeypatch.setattr(benders, "_MASTER_ENUMERATION_LIMIT", limit)
        alphas = (0.0, 0.5, 1.0)
        for seed in (0, 1):
            inst = scn.generate(scn.desk_scale(user_count=10), seed)
            s, demands = inst.scenario, inst.demands
            placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
            assert s.sbs_count**s.user_count > DEFAULT_LIMIT
            swept = dict(brute_force_sweep(s, demands, placement, alphas))
            for alpha in alphas:
                result = ucwt(s, demands, placement, alpha)
                assert result.trace.converged
                assert result.trace.final_objective == pytest.approx(
                    swept[alpha].objective, rel=1e-6, abs=1e-9
                )

    def test_searched_master_holds_the_energy_floor(self, monkeypatch):
        # desk B=5, U=16, seed 0 takes several iterations at alpha > 0; at
        # limit 0 every master is searched over the floor, and the run is
        # the enumerated one
        inst, placement = desk_pipeline(0, sbs_count=5, user_count=16)
        s, demands = inst.scenario, inst.demands
        floor = benders.energy_floor(_SinrRows(s, demands))
        search = benders._search_master
        floors = []

        def recorded(table, cuts):
            floors.append(table.master.floor)
            return search(table, cuts)

        for alpha in (0.5, 1.0):
            enumerated = ucwt(s, demands, placement, alpha)
            floors.clear()
            with monkeypatch.context() as m:
                m.setattr(benders, "_MASTER_ENUMERATION_LIMIT", 0)
                m.setattr(benders, "_search_master", recorded)
                searched = ucwt(s, demands, placement, alpha)
            assert len(enumerated.trace.iterations) > 1
            assert len(floors) == len(searched.trace.iterations) + 1
            assert all(f is not None and np.array_equal(f, floor) for f in floors)
            assert (searched.trace.final_objective.hex()
                    == enumerated.trace.final_objective.hex())
            assert np.array_equal(searched.assoc.x, enumerated.assoc.x)
            assert searched.power.p.tobytes() == enumerated.power.p.tobytes()
            assert searched.trace.iterations == enumerated.trace.iterations

    @pytest.mark.parametrize("alpha, objective, iterations", [
        (0.5, "0x1.7298674e5344ap+13", 5),
        (1.0, "0x1.9c6bc61c20c46p+6", 4),
    ])
    def test_search_at_the_default_limit_is_pinned(self, alpha, objective, iterations):
        # desk B=9, U=20, seed 0: a prefix level of the conflict-free rows
        # passes the default limit, so every master of the run is searched
        inst, placement = desk_pipeline(0, sbs_count=9, user_count=20)
        s, demands = inst.scenario, inst.demands
        master = benders.InstanceMaster(s, demands)
        assert master.rows is None
        result = ucwt(s, demands, placement, alpha, master=master)
        assert result.trace.converged
        assert result.trace.final_objective.hex() == objective
        assert result.assoc.assigned_sbs.tolist() == [
            7, 5, 5, 8, 2, 7, 7, 1, 3, 0, 6, 3, 7, 6, 3, 2, 6, 5, 2, 8
        ]
        assert len(result.trace.iterations) == iterations

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
        # a budget of k iterations replays the first k of the full run; desk
        # U=8 seed 31 first proposes an association that is infeasible. With
        # the energy floor a desk run at alpha > 0 takes one iteration, so
        # the same instance with noise and power caps 40 dB lower, where
        # energy is too small to steer the first proposal, gives a run at
        # alpha 1/2 that finds its incumbent on the second of three
        outcomes = set()
        cases = [desk_pipeline(seed) for seed in range(6)]
        cases.append(desk_pipeline(31, user_count=8))
        cases.append(desk_pipeline(
            31, user_count=8, noise_density_dbm_hz=-132.0, max_power_dbm=-14.0
        ))
        for inst, placement in cases:
            s, demands = inst.scenario, inst.demands
            for alpha in (0.0, 0.5, 1.0):
                full = ucwt(s, demands, placement, alpha).trace.iterations
                for budget in range(1, min(4, len(full))):
                    monkeypatch.setattr(benders, "DEFAULT_MAX_ITERS", budget)
                    head = full[:budget]
                    if all(r.subproblem_status == "unbounded" for r in head):
                        # non-convergence, not a proof of infeasibility
                        with pytest.raises(IterationBudgetError) as info:
                            ucwt(s, demands, placement, alpha)
                        assert not isinstance(info.value, InfeasibleInstanceError)
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
        for epsilon in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ModelError):
                ucwt(s, demands, placement, 0.5, epsilon=epsilon)

    def test_mis_shaped_placement_raises(self):
        # a (1, F) or (B, 1) placement used to broadcast, as if every file
        # were cached everywhere
        inst, _ = desk_pipeline(0, user_count=4)
        s, demands = inst.scenario, inst.demands
        B, F = s.sbs_count, s.file_count
        for shape in ((1, F), (B, 1)):
            expected = rf"shape \({shape[0]}, {shape[1]}\), expected \({B}, {F}\)"
            with pytest.raises(ModelError, match=expected):
                ucwt(s, demands, CachePlacement(np.ones(shape)), 0.5)

    def test_mis_shaped_association_raises(self):
        # a (U, 2) association on a B = 3 instance used to read as infeasible
        inst, _ = desk_pipeline(0, user_count=4)
        s, demands = inst.scenario, inst.demands
        assoc = Association.from_assignment([0, 1, 0, 1], 2)
        expected = r"shape \(4, 2\), expected \(4, 3\)"
        for solve in (min_power_for, solve_subproblem):
            with pytest.raises(ModelError, match=expected):
                solve(s, demands, assoc)
            with pytest.raises(ModelError, match=expected):
                solve(s, demands, assoc, _SinrRows(s, demands))

    def test_stranded_user_raises_before_any_subproblem(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_subproblem(*args)

        monkeypatch.setattr(benders, "solve_subproblem", counted)
        wholly = small_scenario(
            [[1.0, 0.9], [0.9, 0.8]], [3.0, 3.0], max_power=1e-4
        )
        cases = [(wholly, DemandMatrix([[1, 0], [0, 1]]),
                  CachePlacement([[1, 1], [0, 0]]))]
        for users in (6, 12):     # B**U below and above the limit
            inst = scn.generate(scn.desk_scale(user_count=users), 0)
            s = inst.scenario
            placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
            gains = s.channel_gains.copy()
            gains[-1] *= 1e-9          # the last user reaches no SBS
            stranded = dataclasses.replace(
                s, channel_gains=gains, user_positions=None
            )
            cases.append((stranded, inst.demands, placement))
        for s, demands, placement in cases:
            assert not reachable_sbs(s, demands).any(axis=1).all()
            for alpha in (0.0, 0.5):
                with pytest.raises(InfeasibleInstanceError):
                    ucwt(s, demands, placement, alpha)
        assert calls == []

    @pytest.mark.parametrize("limit", ENUMERATION_LIMITS)
    def test_never_solves_an_unreachable_pair(self, monkeypatch, limit):
        monkeypatch.setattr(benders, "_MASTER_ENUMERATION_LIMIT", limit)
        solved = []

        def recorded(scenario, demands, x, rows=None):
            solved.append(x.assigned_sbs.copy())
            return solve_subproblem(scenario, demands, x, rows)

        monkeypatch.setattr(benders, "solve_subproblem", recorded)
        unreachable = pairs = 0
        for users, seeds in ((6, range(10)), (9, range(10)), (10, (2,))):
            for seed in seeds:
                inst = scn.generate(scn.desk_scale(user_count=users), seed)
                s, demands = inst.scenario, inst.demands
                placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
                reach = reachable_sbs(s, demands)
                unreachable += int((~reach).sum())
                K = conflict_seed(_SinrRows(s, demands))
                pairs += int(K.sum()) - int((~reach).sum())
                for alpha in (0.0, 0.5, 1.0):
                    solved.clear()
                    trace = ucwt(s, demands, placement, alpha).trace
                    assert len(solved) == len(trace.iterations)
                    for assigned in solved:
                        assert reach[np.arange(users), assigned].all()
                        assert not conflicts_held(K, assigned).any()
        assert unreachable > 0 and pairs > 0

    def test_near_boundary_runs_end_in_an_answer_or_a_proof(self):
        # an exact verdict and no-good feasibility cuts: every run converges
        # or proves that no association is feasible, none spends its budget
        placements = [desk_pipeline(seed)[1] for seed in range(5)]
        outcomes = []
        for n, (scaled, demands, _, _) in enumerate(near_boundary_instances()):
            # eight instances per desk seed, in seed order
            for alpha in (0.0, 0.5, 1.0):
                try:
                    trace = ucwt(scaled, demands, placements[n // 8], alpha).trace
                    outcomes.append(trace.converged)
                except InfeasibleInstanceError:
                    outcomes.append("infeasible")
        assert len(outcomes) == 120 and False not in outcomes

    def test_wholly_infeasible_instance_raises(self):
        s = small_scenario(
            [[1.0, 0.9], [0.9, 0.8]], [3.0, 3.0], max_power=1e-4
        )
        demands = DemandMatrix([[1, 0], [0, 1]])
        placement = CachePlacement([[1, 1], [0, 0]])
        with pytest.raises(InfeasibleInstanceError):
            ucwt(s, demands, placement, 0.5)


def same_run(a, b):
    """Two ucwt results agree bit for bit: answer, powers and every trace row."""
    def rows(trace):
        return [(r.t, r.psi_lower.hex(), r.psi_upper.hex(), r.subproblem_status,
                 r.M.hex(), r.omega) for r in trace.iterations]

    return (a.trace.final_objective.hex() == b.trace.final_objective.hex()
            and [p.hex() for p in a.power.p.tolist()]
            == [p.hex() for p in b.power.p.tolist()]
            and np.array_equal(a.assoc.x, b.assoc.x)
            and rows(a.trace) == rows(b.trace)
            and a.trace.csv_rows() == b.trace.csv_rows()
            and (a.trace.converged, a.trace.omega) == (b.trace.converged, b.trace.omega))


@functools.cache
def paper_physics(B, U, seed):
    """(scenario, demands, placement, oracle candidates) under paper physics.

    The paper preset's noise, powers and thresholds at B SBSs and U users,
    with lpf placement: there every energy lies far below 1 J.
    """
    config = dataclasses.replace(scn.paper_scale(), sbs_count=B, user_count=U)
    inst = scn.generate(config, seed)
    s, demands = inst.scenario, inst.demands
    placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
    return s, demands, placement, enumerate_candidates(s, demands, placement)


class TestPaperPhysics:
    @pytest.mark.parametrize("seed", [2, 6])
    def test_ucwt_matches_the_oracle_at_alpha_1(self, seed):
        # energies near 5e-7 J: an absolute part in the gap, or a cut that
        # misses its own association's energy, stops short of the optimum
        s, demands, placement, candidates = paper_physics(9, 6, seed)
        best = min(candidates, key=lambda c: c.energy)   # the first of least energy
        result = ucwt(s, demands, placement, 1.0)
        assert result.trace.converged
        assert result.assoc.assigned_sbs.tolist() == best.assigned.tolist()
        value = result.trace.final_objective
        assert value == pytest.approx(best.energy, rel=1e-9, abs=0)

    @pytest.mark.parametrize("B, U, seed", [(4, 8, 0), (9, 6, 2)])
    def test_optimality_cut_is_exact_at_its_own_association(self, B, U, seed):
        s, demands, _, candidates = paper_physics(B, U, seed)
        rows = _SinrRows(s, demands)
        for candidate in candidates[:50]:
            assoc = Association.from_assignment(candidate.assigned, B)
            cut, M = solve_subproblem(s, demands, assoc, rows)
            assert cut.kind == "optimality" and M == candidate.energy
            assert cut.value(assoc) == pytest.approx(M, rel=1e-12, abs=0)


class TestInstanceMaster:
    def test_shared_master_answers_as_independent_runs(self):
        # one master per instance over the placements of compare-caching
        # and three alphas, in sequence
        for seed in range(4):
            inst = scn.generate(scn.desk_scale(), seed)
            s, demands = inst.scenario, inst.demands
            master = benders.InstanceMaster(s, demands)
            reused = 0
            for fraction in (0.1, 0.25, 0.5, 1.0):
                at = scn.generate(scn.desk_scale(cache_fraction=fraction), seed).scenario
                pop = local_popularity(at, inst.preferences)
                for cache in (lpf_greedy(at, pop)[0], gpc_placement(at),
                              rc_placement(at, seed)):
                    for alpha in (0.0, 0.5, 1.0):
                        shared = ucwt(s, demands, cache, alpha, master=master)
                        alone = ucwt(s, demands, cache, alpha)
                        assert same_run(shared, alone)
                        assert alone.trace.reused == 0
                        reused += shared.trace.reused
            # fewer subproblem solves than the 36 runs
            assert reused > 0
            assert len(master.answers) < 36

    def test_master_of_other_objects_raises(self):
        # the check is by identity: equal copies are other objects
        inst, placement = desk_pipeline(0)
        s, demands = inst.scenario, inst.demands
        master = benders.InstanceMaster(s, demands)
        for other_s, other_d in ((dataclasses.replace(s), demands),
                                 (s, dataclasses.replace(demands))):
            with pytest.raises(ModelError, match="another scenario or demands"):
                ucwt(other_s, other_d, placement, 0.5, master=master)
        ucwt(s, demands, placement, 0.5, master=master)

    def test_rows_of_other_objects_raise(self):
        # a table is tied to its objects by identity, as a master is
        inst, _ = desk_pipeline(0)
        s, demands = inst.scenario, inst.demands
        rows = _SinrRows(s, demands)
        for assigned in ([0] * s.user_count, s.channel_gains.argmax(axis=1)):
            assoc = Association.from_assignment(assigned, s.sbs_count)
            for other_s, other_d in ((dataclasses.replace(s), demands),
                                     (s, dataclasses.replace(demands))):
                for solve in (min_power_for, solve_subproblem):
                    with pytest.raises(ModelError, match="another scenario or demands"):
                        solve(other_s, other_d, assoc, rows)
            shared = solve_subproblem(s, demands, assoc, rows)
            own = solve_subproblem(s, demands, assoc)
            assert shared[0].coef.tobytes() == own[0].coef.tobytes()
            assert shared[0].constant.hex() == own[0].constant.hex()
            assert shared[1].hex() == own[1].hex()

    def test_no_hidden_cache_across_calls(self, monkeypatch):
        calls = []
        seed_of = benders.conflict_seed

        def counted(*args):
            calls.append(args)
            return seed_of(*args)

        monkeypatch.setattr(benders, "conflict_seed", counted)
        inst, placement = desk_pipeline(1)
        s, demands = inst.scenario, inst.demands
        first = ucwt(s, demands, placement, 0.5)
        second = ucwt(s, demands, placement, 0.5)
        assert len(calls) == 2
        assert first.trace.reused == second.trace.reused == 0
        master = benders.InstanceMaster(s, demands)
        ucwt(s, demands, placement, 0.5, master=master)
        assert len(calls) == 3

    def test_reused_counts_memo_answers(self, monkeypatch):
        solved = []
        subproblem = benders.solve_subproblem

        def counted(*args):
            solved.append(args)
            return subproblem(*args)

        monkeypatch.setattr(benders, "solve_subproblem", counted)
        for seed in range(3):
            inst, placement = desk_pipeline(seed)
            s, demands = inst.scenario, inst.demands
            master = benders.InstanceMaster(s, demands)
            solved.clear()
            first = ucwt(s, demands, placement, 0.5, master=master)
            assert first.trace.reused == 0
            assert len(solved) == len(first.trace.iterations)
            second = ucwt(s, demands, placement, 1.0, master=master)
            assert second.trace.reused >= 1
            assert (len(solved) == len(master.answers)
                    == len(first.trace.iterations) + len(second.trace.iterations)
                    - second.trace.reused)


# the ucwt digest set: desk seeds 0-19 and the benchmark's first five core
# seeds, at four sizes and three alphas, 300 solves over 100 instances;
# re-recorded when each optimality cut came to be stored exact at its own
# association, which moved the cut constants and no answer or trace row
UCWT_SEEDS = (*range(20), *range(1_000_000, 1_000_005))
UCWT_USERS = (4, 6, 8, 9)
UCWT_ALPHAS = (0.0, 0.5, 1.0)
UCWT_DIGEST = "20ded0d2efecd0396a4d439b25d1854f92cced58cfeffc92617f7cc18ef70dd8"


@functools.cache
def ucwt_digest_instances():
    """(scenario, demands, placement) of each instance of the digest set."""
    cases = []
    for seed in UCWT_SEEDS:
        for U in UCWT_USERS:
            inst, placement = desk_pipeline(seed, user_count=U)
            cases.append((inst.scenario, inst.demands, placement))
    return cases


def ucwt_fingerprint():
    """SHA-256 over each instance's master and each of its ucwt solves.

    Per ``InstanceMaster``: its conflict bytes, its rows and its floor score
    by ``float.hex``. Per solve: the objective and powers by ``float.hex``,
    the association, every ``csv_rows`` line and each cut's constant.
    """
    digest = hashlib.sha256()

    def hexes(v):
        return ",".join(map(float.hex, v.tolist()))

    for s, demands, placement in ucwt_digest_instances():
        master = benders.InstanceMaster(s, demands)
        rows = "none" if master.rows is None else master.rows.tolist()
        score = "none" if master.rows is None else hexes(master.floor_score)
        digest.update(master.conflict.tobytes())
        digest.update(f"{rows}|{score}\n".encode())
        for alpha in UCWT_ALPHAS:
            result = ucwt(s, demands, placement, alpha)
            trace = result.trace
            constants = ",".join(c.constant.hex() for c in trace.cuts)
            digest.update(
                f"{trace.final_objective.hex()}|{hexes(result.power.p)}|"
                f"{result.assoc.assigned_sbs.tolist()}|{constants}\n".encode()
            )
            digest.update("\n".join(trace.csv_rows()).encode())
    return digest.hexdigest()


def closing_values_differ():
    """Solves of the digest set whose closing value is not their objective."""
    differ = []
    for s, demands, placement in ucwt_digest_instances():
        for alpha in UCWT_ALPHAS:
            result = ucwt(s, demands, placement, alpha)
            value = objective(s, demands, placement, result.assoc, result.power, alpha)
            if result.trace.final_objective.hex() != value.weighted.hex():
                differ.append((s.user_count, alpha))
    return differ


class TestUcwtDigest:
    def test_answers_match_recorded_digest(self):
        assert ucwt_fingerprint() == UCWT_DIGEST

    def test_closing_value_is_the_objective(self, monkeypatch):
        assert closing_values_differ() == []
        # the exact re-run of every power answer closes the same way
        monkeypatch.setattr(benders, "_verified", lambda *args: False)
        assert closing_values_differ() == []
