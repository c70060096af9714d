"""LP kernel tests: solves, duals, rays, certificates, scaling invariance."""

import itertools

import numpy as np
import pytest

from dscnopt import lp


def verify_farkas(problem: lp.LinearProgram, result: lp.LpResult, tol=1e-7):
    """Assert the infeasibility certificate is a genuine dual ray."""
    fk, fku = result.farkas, result.farkas_upper
    assert fk is not None and fku is not None
    scale = max(1.0, np.abs(fk).max(initial=0.0), np.abs(fku).max(initial=0.0))
    for r, sense in enumerate(problem.row_senses):
        if sense == lp.GE:
            assert fk[r] >= -tol * scale
        elif sense == lp.LE:
            assert fk[r] <= tol * scale
    assert np.all(fku <= tol * scale)
    finite = np.isfinite(problem.upper)
    assert np.all(fku[~finite] == 0.0)
    lhs = fk @ problem.A + fku
    assert np.all(lhs <= tol * scale * (1.0 + np.abs(problem.A).max()))
    gain = fk @ problem.b + fku[finite] @ problem.upper[finite]
    assert gain > tol * scale


def verify_ray(problem: lp.LinearProgram, result: lp.LpResult, tol=1e-7):
    """Assert the unbounded direction improves and stays feasible."""
    ray = result.ray
    assert ray is not None
    scale = max(1.0, float(np.abs(ray).max()))
    rows = problem.A @ ray
    for r, sense in enumerate(problem.row_senses):
        if sense == lp.GE:
            assert rows[r] >= -tol * scale
        elif sense == lp.LE:
            assert rows[r] <= tol * scale
        else:
            assert abs(rows[r]) <= tol * scale
    assert np.all(ray >= -tol * scale)
    finite = np.isfinite(problem.upper)
    assert np.all(ray[finite] <= tol * scale)
    gain = float(problem.c @ ray)
    assert (gain < 0) if problem.sense == "min" else (gain > 0)


def enumerate_optimum(problem: lp.LinearProgram):
    """Independent oracle: best objective over all basic feasible solutions."""
    std = lp.standard_form(problem)
    m, n = std.A.shape
    best = None
    for basis in itertools.combinations(range(n), m):
        B = std.A[:, list(basis)]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        xB = np.linalg.solve(B, std.b)
        if np.any(xB < -1e-9):
            continue
        value = float(std.c[list(basis)] @ xB)
        if best is None or value < best:
            best = value
    return None if best is None else std.obj_sign * best


def random_lp(rng: np.random.Generator) -> lp.LinearProgram:
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 6))
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    c = rng.normal(size=n)
    senses = [str(rng.choice([lp.LE, lp.GE, lp.EQ])) for _ in range(m)]
    upper = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 2.0, n), np.inf)
    sense = "min" if rng.random() < 0.7 else "max"
    return lp.LinearProgram(sense, c, A, b, senses, upper=upper)


class TestBasicSolves:
    def test_two_variable_minimum(self):
        # min x + y s.t. x + y >= 2, x >= 0, y >= 0: optimum 2
        problem = lp.LinearProgram(
            "min", [1.0, 1.0], [[1.0, 1.0]], [2.0], [lp.GE]
        )
        result = lp.solve_lp(problem)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(2.0, abs=1e-9)
        assert lp.solution_violation(problem, result.x) <= 1e-9

    def test_max_sense(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2: optimum at (2, 2) -> 10
        problem = lp.LinearProgram(
            "max", [3.0, 2.0], [[1.0, 1.0]], [4.0], [lp.LE],
            upper=np.array([2.0, np.inf]),
        )
        result = lp.solve_lp(problem)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(10.0, abs=1e-9)
        assert result.x == pytest.approx([2.0, 2.0], abs=1e-9)

    def test_equality_row(self):
        problem = lp.LinearProgram(
            "min", [2.0, 1.0], [[1.0, 1.0]], [3.0], [lp.EQ]
        )
        result = lp.solve_lp(problem)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(3.0, abs=1e-9)
        assert result.x == pytest.approx([0.0, 3.0], abs=1e-9)

    def test_infeasible_certificate(self):
        # x >= 2 and x <= 1 cannot hold together
        problem = lp.LinearProgram(
            "min", [1.0], [[1.0]], [2.0], [lp.GE], upper=np.array([1.0])
        )
        result = lp.solve_lp(problem)
        assert result.status == "infeasible"
        verify_farkas(problem, result)

    def test_unbounded_ray(self):
        problem = lp.LinearProgram(
            "min", [-1.0, 0.0], [[1.0, -1.0]], [0.0], [lp.LE]
        )
        result = lp.solve_lp(problem)
        assert result.status == "unbounded"
        verify_ray(problem, result)

    def test_no_rows(self):
        # without rows the origin is optimal, or a negative-cost column is a ray
        bounded = lp.LinearProgram("min", [1.0, 2.0], np.zeros((0, 2)), [], [])
        result = lp.solve_lp(bounded)
        assert result.status == "optimal"
        assert result.objective == 0.0
        assert result.x == pytest.approx([0.0, 0.0])
        unbounded = lp.LinearProgram("min", [1.0, -1.0], np.zeros((0, 2)), [], [])
        result = lp.solve_lp(unbounded)
        assert result.status == "unbounded"
        assert result.ray == pytest.approx([0.0, 1.0])

    def test_singular_basis_raises(self):
        # LAPACK reports an exactly singular basis without raising; the
        # simplex must refuse it rather than solve with a zero pivot
        A = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            lp._simplex(A, np.array([1.0, 2.0]), np.zeros(3), [0, 1], 1e-9)

    def test_malformed_inputs_raise(self):
        with pytest.raises(lp.LpError):
            lp.LinearProgram("min", [1.0, 2.0], [[1.0]], [1.0], [lp.GE])
        with pytest.raises(lp.LpError):
            lp.LinearProgram("maximize", [1.0], [[1.0]], [1.0], [lp.GE])
        with pytest.raises(lp.LpError):
            lp.LinearProgram("min", [1.0], [[1.0]], [1.0], ["=="])
        with pytest.raises(lp.LpError):
            lp.LinearProgram("min", [np.inf], [[1.0]], [1.0], [lp.GE])


class TestDuals:
    def test_duality_gap_zero(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            problem = random_lp(rng)
            result = lp.solve_lp(problem)
            if result.status != "optimal":
                continue
            checked += 1
            assert lp.duality_gap(problem, result) <= 1e-6 * (
                1.0 + abs(result.objective)
            )
        assert checked > 50

    def test_dual_signs(self):
        # for a min problem: GE rows have duals >= 0, LE rows <= 0
        problem = lp.LinearProgram(
            "min", [1.0, -1.0],
            [[1.0, 0.0], [0.0, 1.0]], [1.0, 3.0], [lp.GE, lp.LE],
        )
        result = lp.solve_lp(problem)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-2.0, abs=1e-9)
        assert result.dual[0] >= -1e-9
        assert result.dual[1] <= 1e-9

    def test_duality_gap_requires_optimal(self):
        problem = lp.LinearProgram(
            "min", [1.0], [[1.0]], [2.0], [lp.GE], upper=np.array([1.0])
        )
        with pytest.raises(lp.LpError):
            lp.duality_gap(problem, lp.solve_lp(problem))


class TestRandomized:
    def test_matches_basis_enumeration(self):
        rng = np.random.default_rng(11)
        optimal = infeasible = unbounded = 0
        for _ in range(250):
            problem = random_lp(rng)
            result = lp.solve_lp(problem)
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
        assert optimal > 50 and infeasible > 10 and unbounded > 10

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            problem = random_lp(rng)
            base = lp.solve_lp(problem)
            factors = rng.uniform(1e-6, 1e6, size=problem.num_rows)
            scaled = lp.LinearProgram(
                problem.sense, problem.c,
                problem.A * factors[:, None], problem.b * factors,
                list(problem.row_senses), upper=problem.upper.copy(),
            )
            other = lp.solve_lp(scaled)
            assert base.status == other.status
            if base.status == "optimal":
                assert other.objective == pytest.approx(
                    base.objective, abs=1e-7, rel=1e-7
                )


def loop_standard_form(problem: lp.LinearProgram):
    """The column-at-a-time standard-form builder the array one replaced.

    Returns (A, b, c, obj_sign, row_sign, upper_vars).
    """
    m, n = problem.num_rows, problem.num_vars
    ub_rows = [(j, float(problem.upper[j])) for j in range(n)
               if np.isfinite(problem.upper[j])]
    total_rows = m + len(ub_rows)
    cols, c_cols = [], []
    sign = 1.0 if problem.sense == "min" else -1.0
    for j in range(n):
        a = np.zeros(total_rows)
        a[:m] = problem.A[:, j]
        for r, (var, _) in enumerate(ub_rows):
            if var == j:
                a[m + r] = 1.0
        cols.append(a)
        c_cols.append(sign * problem.c[j])
    for r in range(m):
        s = problem.row_senses[r]
        if s == lp.EQ:
            continue
        a = np.zeros(total_rows)
        a[r] = 1.0 if s == lp.LE else -1.0
        cols.append(a)
        c_cols.append(0.0)
    for r in range(len(ub_rows)):
        a = np.zeros(total_rows)
        a[m + r] = 1.0
        cols.append(a)
        c_cols.append(0.0)
    A = np.column_stack(cols) if cols else np.zeros((total_rows, 0))
    b = np.concatenate([problem.b, [u for _, u in ub_rows]])
    row_sign = np.ones(total_rows)
    flip = b < 0
    row_sign[flip] = -1.0
    A[flip] *= -1.0
    upper_vars = np.array([j for j, _ in ub_rows], dtype=int)
    return A, b * row_sign, np.array(c_cols), sign, row_sign, upper_vars


class TestStandardForm:
    def test_matches_loop_reference(self):
        # bit for bit, on LPs with all row senses, finite and infinite
        # upper bounds, both senses, and no rows
        rng = np.random.default_rng(5)
        problems = [random_lp(rng) for _ in range(300)]
        problems.append(lp.LinearProgram("max", [1.0, -2.0], np.zeros((0, 2)), [], []))
        for problem in problems:
            std = lp.standard_form(problem)
            A, b, c, sign, row_sign, upper_vars = loop_standard_form(problem)
            for new, old in ((std.A, A), (std.b, b), (std.c, c),
                             (std.row_sign, row_sign), (std.upper_vars, upper_vars)):
                assert new.shape == old.shape
                assert new.dtype == old.dtype
                assert new.tobytes() == old.tobytes()
            assert std.obj_sign == sign
            assert std.n_user_rows == problem.num_rows


class TestSolutionViolation:
    def test_zero_for_feasible_point(self):
        problem = lp.LinearProgram(
            "min", [1.0, 1.0], [[1.0, 1.0]], [2.0], [lp.GE]
        )
        assert lp.solution_violation(problem, np.array([1.0, 1.5])) == 0.0

    def test_relative_to_row_norm(self):
        # a row scaled down by 1e6 reports the same relative violation
        big = lp.LinearProgram("min", [1.0], [[1.0]], [2.0], [lp.GE])
        small = lp.LinearProgram("min", [1.0], [[1e-6]], [2e-6], [lp.GE])
        x = np.array([1.0])
        assert lp.solution_violation(big, x) == pytest.approx(1.0)
        assert lp.solution_violation(small, x) == pytest.approx(1.0)

    def test_bound_violations(self):
        problem = lp.LinearProgram(
            "min", [1.0], np.zeros((1, 1)), [0.0], [lp.LE],
            upper=np.array([2.0]),
        )
        assert lp.solution_violation(problem, np.array([3.0])) == pytest.approx(1.0)
        assert lp.solution_violation(problem, np.array([-0.5])) == pytest.approx(0.5)


class TestDegeneracy:
    def test_degenerate_vertex_terminates(self):
        # many redundant rows through the optimum force degenerate pivots
        problem = lp.LinearProgram(
            "min",
            [-0.75, 150.0, -0.02, 6.0],
            [
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            [0.0, 0.0, 1.0],
            [lp.LE, lp.LE, lp.LE],
        )
        result = lp.solve_lp(problem)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-0.05, abs=1e-9)

