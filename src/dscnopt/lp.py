"""Dense two-phase simplex with dual solutions, extreme rays and Farkas certificates.

The solver is deliberately small and deterministic: Dantzig pricing with a
Bland fallback after a streak of degenerate pivots, dense linear algebra
throughout, with each basis LU taken straight from LAPACK. Instances in
this project are tiny (tens of variables), so no factorization reuse or
sparsity is attempted. Every variable lies in 0 <= x <= upper, the only
bounds the power problems need, so no variable is split.

Unbounded verdicts carry a feasible point and an improving extreme ray.
Infeasible verdicts carry a Farkas certificate expressed as row multipliers
(plus multipliers for finite upper bounds), i.e. a dual ray proving the
constraints empty. No module of the package imports it: it is the tests'
independent reference, which solves their minimum-power LP of the power
subproblem, and the benchmark's tracer wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
STRICT_TOL = 1e-10     # callers needing a strict feasibility split use this
_BLAND_AFTER = 20      # degenerate pivots before switching to Bland's rule
_MAX_PIVOTS = 50_000

LE, EQ, GE = "<=", "=", ">="


class LpError(ValueError):
    """Raised on malformed linear programs."""


@dataclass
class LinearProgram:
    """min/max  c @ x  subject to  A x (<=,=,>=) b  and  0 <= x <= upper.

    Upper bounds are +inf (default) or finite.
    """

    sense: str                    # "min" | "max"
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    row_senses: Sequence[str]
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if self.sense not in ("min", "max"):
            raise LpError(f"unknown sense {self.sense!r}")
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise LpError("dimension mismatch between c, A and b")
        if len(self.row_senses) != m or any(
            s not in (LE, EQ, GE) for s in self.row_senses
        ):
            raise LpError("row senses must be one of <=, =, >= per row")
        if self.upper is None:
            self.upper = np.full(n, np.inf)
        else:
            self.upper = np.asarray(self.upper, dtype=float)
        if self.upper.shape != (n,):
            raise LpError("the upper bound vector must match the variable count")
        for arr in (self.c, self.A, self.b):
            if not np.all(np.isfinite(arr)):
                raise LpError("c, A, b must be finite")

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]


@dataclass
class LpResult:
    """Outcome of a solve: exactly one of optimal / unbounded / infeasible.

    * optimal: ``x``, ``objective`` and row duals ``dual`` (original rows,
      in the problem's own sense, so ``c @ x == dual-value`` within tol).
    * unbounded: feasible ``x`` plus improving ``ray`` in original variables.
    * infeasible: ``farkas`` row multipliers plus ``farkas_upper`` per-variable
      multipliers on finite upper bounds. Together they certify emptiness:
      ``farkas @ A[:, j] + farkas_upper[j] <= 0`` for every column j while
      ``farkas @ b + farkas_upper @ upper > 0``, with ``farkas`` respecting
      row senses (>= 0 on >= rows, <= 0 on <= rows) and ``farkas_upper <= 0``.
    """

    status: str
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    dual: Optional[np.ndarray] = None
    upper_duals: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None
    farkas: Optional[np.ndarray] = None
    farkas_upper: Optional[np.ndarray] = None


@dataclass
class StandardForm:
    """min c @ z  s.t.  A z = b, z >= 0, with b >= 0, plus back-maps.

    The original variables are the first columns of z, in order.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    obj_sign: float                 # multiply standard objective by this
    row_sign: np.ndarray            # +-1 per standard row (b-sign flips)
    n_user_rows: int                # rows from the original A (before ub rows)
    upper_vars: np.ndarray          # variable of each ub row, in row order


def standard_form(lp: LinearProgram) -> StandardForm:
    """Rewrite an LP as min c z s.t. A z = b, z >= 0 with b >= 0.

    Finite upper bounds become extra rows, and inequality rows gain
    slack/surplus columns.
    """
    return _standard_form(lp.sense, lp.c, lp.A, lp.b, lp.row_senses, lp.upper)


def _standard_form(sense, c, A, b, row_senses, upper) -> StandardForm:
    """``standard_form`` on the LP's arrays, which are taken as validated.

    Columns, in order: the variables, one slack (LE, +1) or surplus (GE,
    -1) per inequality row, then one slack per finite upper bound.
    """
    m, n = A.shape
    ub_vars = np.flatnonzero(np.isfinite(upper))
    k = len(ub_vars)
    total_rows = m + k
    obj_sign = 1.0 if sense == "min" else -1.0

    structural = np.zeros((total_rows, n))
    structural[:m] = A
    structural[m + np.arange(k), ub_vars] = 1.0

    senses = np.asarray(row_senses, dtype=object)
    slack_rows = np.flatnonzero(senses != EQ)
    slacks = np.zeros((total_rows, len(slack_rows) + k))
    slacks[slack_rows, np.arange(len(slack_rows))] = np.where(
        senses[slack_rows] == LE, 1.0, -1.0
    )
    slacks[m + np.arange(k), len(slack_rows) + np.arange(k)] = 1.0

    A_std = np.hstack([structural, slacks])
    b_std = np.concatenate([b, upper[ub_vars]])
    row_sign = np.ones(total_rows)
    flip = b_std < 0
    row_sign[flip] = -1.0
    A_std[flip] *= -1.0
    return StandardForm(
        c=np.concatenate([obj_sign * c, np.zeros(slacks.shape[1])]),
        A=A_std,
        b=b_std * row_sign,
        obj_sign=obj_sign,
        row_sign=row_sign,
        n_user_rows=m,
        upper_vars=ub_vars,
    )


def lu_factor(basis_matrix: np.ndarray):
    """LU factors (lu, piv) of a simplex basis, by LAPACK ``getrf``.

    ``_simplex`` calls this exactly once per pivot, which is how
    ``bench/tracing.py`` counts pivots. LAPACK is called directly because
    the ``scipy.linalg`` wrappers around ``getrf``/``getrs`` cost several
    times the work on a basis this small. Raises ``LinAlgError`` on a zero
    or NaN pivot: ``getrf`` reports a zero pivot only in its info code.
    """
    lu, piv, _ = dgetrf(basis_matrix)
    if not np.all(np.abs(np.diagonal(lu)) > 0.0):
        raise np.linalg.LinAlgError("singular simplex basis")
    return lu, piv


def _simplex(A, b, c, basis, tol):
    """Primal simplex from a feasible basis.

    Returns (status, basis, x_basic, dual, entering_ray) where status is
    "optimal" or "unbounded". On unboundedness ``entering_ray`` is the
    improving direction in standard variables.
    """
    m, n = A.shape
    basis = list(basis)
    if m == 0:
        # LAPACK rejects an empty basis; without rows the origin is optimal
        # unless a column of negative cost is an improving ray
        improving = np.nonzero(c < -tol)[0]
        if improving.size == 0:
            return "optimal", basis, np.zeros(0), np.zeros(0), None
        ray = np.zeros(n)
        ray[improving[np.argmin(c[improving])]] = 1.0
        return "unbounded", basis, np.zeros(0), np.zeros(0), ray
    degenerate_streak = 0
    for _ in range(_MAX_PIVOTS):
        # one LU factorization per pivot serves all three basis solves
        lu, piv = lu_factor(A[:, basis])
        xB = dgetrs(lu, piv, b)[0]
        y = dgetrs(lu, piv, c[basis], trans=1)[0]
        reduced = c - A.T @ y
        in_basis = np.zeros(n, dtype=bool)
        in_basis[basis] = True
        candidates = np.nonzero(~in_basis & (reduced < -tol))[0]
        if candidates.size == 0:
            return "optimal", basis, xB, y, None
        if degenerate_streak >= _BLAND_AFTER:
            enter = int(candidates[0])                      # Bland
        else:
            enter = int(candidates[np.argmin(reduced[candidates])])  # Dantzig
        d = dgetrs(lu, piv, A[:, enter])[0]
        positive = d > tol
        if not positive.any():
            ray = np.zeros(n)
            ray[enter] = 1.0
            for pos_i, bi in enumerate(basis):
                ray[bi] = -d[pos_i]
            return "unbounded", basis, xB, y, ray
        ratios = np.full(m, np.inf)
        # clamp at zero so a basic value driven slightly negative by
        # roundoff cannot produce a negative step and amplify itself
        ratios[positive] = np.maximum(xB[positive], 0.0) / d[positive]
        theta = ratios.min()
        if degenerate_streak >= _BLAND_AFTER:
            # Bland: leave with the smallest basis variable index among ties
            tie = np.nonzero(np.isclose(ratios, theta, rtol=0, atol=tol))[0]
            leave = int(min(tie, key=lambda r: basis[r]))
        else:
            leave = int(np.argmin(ratios))
        degenerate_streak = degenerate_streak + 1 if theta <= tol else 0
        basis[leave] = enter
    raise LpError("simplex pivot limit exceeded")


def _phase_one(A, b, tol, feas_tol):
    """Find a feasible basis via artificial variables.

    Returns (status, basis, farkas) with status "feasible" or "infeasible".
    Artificial columns may remain in the basis at zero level; callers must
    treat columns >= A.shape[1] as forbidden in phase two.
    """
    m, n = A.shape
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    status, basis, xB, y, _ = _simplex(A1, b, c1, basis, tol)
    if status != "optimal":                      # pragma: no cover - impossible
        raise LpError("phase one cannot be unbounded")
    if float(c1[basis] @ xB) > feas_tol * (1.0 + float(np.abs(b).max(initial=0.0))):
        return "infeasible", basis, y
    # pivot artificials out where a large POSITIVE pivot exists: the
    # artificial may sit at a tiny nonnegative level, and a negative or
    # small pivot would turn that level into an infeasible vertex that
    # phase two can then amplify arbitrarily
    for row, bi in enumerate(list(basis)):
        if bi < n:
            continue
        B = A1[:, basis]
        d_row = np.linalg.solve(B, A)[row]
        d_row[[j for j in range(n) if j in basis]] = 0.0
        j = int(np.argmax(d_row))
        if d_row[j] > np.sqrt(tol):
            basis[row] = j
        # else: the artificial stays basic at its (near-zero) level
    return "feasible", basis, None


def solve_lp(lp: LinearProgram, feas_tol: float = FEAS_TOL) -> LpResult:
    """Solve an LP, returning an optimum with duals, a ray, or a certificate.

    Pricing and ratio tests use ``OPT_TOL``. ``feas_tol`` sets the relative
    phase-one threshold between "feasible" and "infeasible"; callers needing
    a stricter split near the feasibility boundary may lower it.

    Constraint rows are equilibrated to unit infinity norm before the solve
    so that pivot and feasibility tolerances act relative to each row's own
    magnitude; badly scaled rows (coefficients far from 1) would otherwise
    slip through absolute tolerances. The scaling leaves ``x``, objective
    and bound duals untouched; row duals and Farkas multipliers are mapped
    back to the original rows.
    """
    row_norm = np.abs(lp.A).max(axis=1, initial=0.0)
    scale = np.where(row_norm > 0.0, 1.0 / np.maximum(row_norm, 1e-300), 1.0)
    std = _standard_form(
        lp.sense, lp.c, lp.A * scale[:, None], lp.b * scale, lp.row_senses,
        lp.upper,
    )
    result = _solve_equilibrated(std, lp.num_vars, feas_tol)
    if result.dual is not None:
        result.dual = result.dual * scale
    if result.farkas is not None:
        result.farkas = result.farkas * scale
    return result


def _solve_equilibrated(std: StandardForm, n_vars: int, feas_tol: float) -> LpResult:
    A, b, c = std.A, std.b, std.c
    m, n = A.shape

    status, basis, farkas = _phase_one(A, b, OPT_TOL, feas_tol)
    if status == "infeasible":
        # map the phase-one duals back to original rows: a dual ray with
        # y' A_col + y_upper[j] <= 0 per column and y' b + y_upper' u > 0
        y_full = farkas * std.row_sign
        fk = y_full[: std.n_user_rows]
        fk_upper = np.zeros(n_vars)
        fk_upper[std.upper_vars] = y_full[std.n_user_rows:]
        return LpResult(status="infeasible", farkas=fk, farkas_upper=fk_upper)

    # phase two: forbid artificial columns by pricing them out
    A2 = np.hstack([A, np.eye(m)])
    big = 1.0 + np.abs(c).sum()
    c2 = np.concatenate([c, np.full(m, big * 1e6)])
    status, basis, xB, y, ray = _simplex(A2, b, c2, basis, OPT_TOL)

    z = np.zeros(n + m)
    for pos_i, bi in enumerate(basis):
        z[bi] = xB[pos_i]
    x = z[:n_vars]

    if status == "unbounded":
        return LpResult(status="unbounded", x=x, ray=ray[:n_vars])

    obj = std.obj_sign * float(std.c @ z[:n])
    # duals in original row space: undo b-sign flips; match the problem sense
    y_full = y * std.row_sign
    dual = std.obj_sign * y_full[: std.n_user_rows]
    ub_dual = np.zeros(n_vars)
    ub_dual[std.upper_vars] = std.obj_sign * y_full[std.n_user_rows:]
    return LpResult(
        status="optimal", x=x, objective=obj, dual=dual, upper_duals=ub_dual
    )


def solution_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint or bound violation of ``x`` (0 if feasible).

    Row violations are measured relative to each row's infinity norm so
    the result is invariant under row rescaling; bound violations are
    absolute. Lets callers double-check a returned vertex: near the
    feasibility boundary a solver working at tolerance FEAS_TOL may declare
    optimal a point that misses some constraint by a just-detectable
    margin, and callers that need a strict feasible/infeasible split (e.g.
    enumeration oracles) can reject such points uniformly.
    """
    x = np.asarray(x, dtype=float)
    row_norm = np.maximum(np.abs(lp.A).max(axis=1, initial=0.0), 1e-300)
    rows = (lp.A @ x - lp.b) / row_norm
    worst = 0.0
    for r, sense in enumerate(lp.row_senses):
        if sense == GE:
            worst = max(worst, -rows[r])
        elif sense == LE:
            worst = max(worst, rows[r])
        else:
            worst = max(worst, abs(rows[r]))
    worst = max(worst, float((-x).max(initial=0.0)))
    finite = np.isfinite(lp.upper)
    if finite.any():
        worst = max(worst, float((x[finite] - lp.upper[finite]).max(initial=0.0)))
    return worst


def duality_gap(lp: LinearProgram, result: LpResult) -> float:
    """|c @ x - (b @ dual + finite-upper-bound dual value)| for an optimum."""
    if result.status != "optimal":
        raise LpError("duality gap defined only for optimal results")
    dual_value = float(lp.b @ result.dual)
    finite = np.isfinite(lp.upper)
    dual_value += float(lp.upper[finite] @ result.upper_duals[finite])
    return abs(float(lp.c @ result.x) - dual_value)

