"""Benders decomposition of the joint user-association / power-control problem.

The continuous subproblem is the minimum-energy power control for a fixed
association, solved through its dual so that bounded solves yield extreme
points (optimality cuts) and unbounded solves yield extreme rays
(feasibility cuts). The master picks the association, minimizing the
weighted energy lower bound plus total delivery delay over all collected
cuts. It is solved exactly: by vectorized enumeration of every binary
association while there are at most ``_MASTER_ENUMERATION_LIMIT`` of them,
and by branch-and-bound with LP-relaxation bounds above that.

For a binary association, the minimum transmit power and the
feasible/infeasible verdict come from one strictly verified LP over the
assigned users' SINR rows (``min_power_for``). The subproblem, power
recovery, the baselines and the oracle all use it.

The SINR constraints are activated per assigned pair via the constant
``varrho``: for non-assigned pairs the slack term 1/varrho dominates any
feasible interference level, so the relaxed constraint set has the same
optimum as the assigned-only one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import lp as lpmod
from .model import (
    Association,
    CachePlacement,
    DemandMatrix,
    ModelError,
    PowerVector,
    Scenario,
    delay_coefficients,
    objective,
    requested_thresholds,
    serving_time,
    total_transmission_time,
)

DEFAULT_MAX_ITERS = 500
_INTEGRALITY_TOL = 1e-6
_PRUNE_TOL = 1e-9
# below this many binary associations the master is solved by vectorized
# enumeration; above it, by branch-and-bound with LP-relaxation bounds
_MASTER_ENUMERATION_LIMIT = 20_000


class MasterInfeasibleError(ModelError):
    """All associations are excluded by feasibility cuts."""


class NoFeasibleAssociationError(ModelError):
    """The instance admits no power-feasible association at all."""


def varrho(
    scenario: Scenario,
    demands: DemandMatrix,
    interferer_count: Optional[int] = None,
) -> float:
    """SINR-deactivation constant: min_i 1 / (gamma_i ((I-1) p_max g_max + noise)).

    ``interferer_count`` defaults to the SBS count, so 1/varrho exceeds any
    user's threshold times the worst-case interference-plus-noise level.
    """
    gammas = requested_thresholds(scenario, demands)
    if np.any(gammas <= 0):
        raise ModelError("every requested-file SINR threshold must be positive")
    I = scenario.sbs_count if interferer_count is None else interferer_count
    p_bar = float(scenario.max_power.max())
    g_bar = float(scenario.channel_gains.max())
    worst = (I - 1) * p_bar * g_bar + scenario.noise_power
    return float(1.0 / (gammas.max() * worst))


def _as_x_matrix(x, scenario: Scenario) -> np.ndarray:
    if isinstance(x, Association):
        return np.asarray(x.x, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != (scenario.user_count, scenario.sbs_count):
        raise ModelError("association matrix has wrong shape")
    return x


def build_subproblem_primal(
    scenario: Scenario,
    demands: DemandMatrix,
    x,
    rho: float,
) -> lpmod.LinearProgram:
    """Minimum-energy power LP at a fixed association.

    Every (user, SBS) pair carries a relaxed SINR row; rows for
    non-assigned pairs are slack for any feasible power by construction
    of ``rho``.
    """
    X = _as_x_matrix(x, scenario)
    U, B = X.shape
    g = scenario.channel_gains
    gammas = requested_thresholds(scenario, demands)
    T = serving_time(scenario, demands, None, "relaxed")
    A = np.zeros((U * B, B))
    b = np.zeros(U * B)
    for i in range(U):
        for j in range(B):
            row = i * B + j
            A[row] = -gammas[i] * g[i]
            A[row, j] = g[i, j]
            b[row] = gammas[i] * scenario.noise_power - (1.0 - X[i, j]) / rho
    return lpmod.LinearProgram(
        sense="min",
        c=T,
        A=A,
        b=b,
        row_senses=[lpmod.GE] * (U * B),
        upper=scenario.max_power.copy(),
    )


def build_subproblem_dual(
    scenario: Scenario,
    demands: DemandMatrix,
    x,
    rho: float,
) -> lpmod.LinearProgram:
    """Dual of the minimum-energy power LP, over (mu, nu) >= 0.

    Variables are ordered mu_0..mu_{B-1} then nu row-major by (user, SBS).
    One >= constraint per SBS carries the serving-time cost coefficient.
    """
    X = _as_x_matrix(x, scenario)
    U, B = X.shape
    g = scenario.channel_gains
    gammas = requested_thresholds(scenario, demands)
    T = serving_time(scenario, demands, None, "relaxed")
    n = B + U * B
    c = np.zeros(n)
    c[:B] = -scenario.max_power
    for i in range(U):
        for j in range(B):
            c[B + i * B + j] = (X[i, j] - 1.0) / rho + scenario.noise_power * gammas[i]
    A = np.zeros((B, n))
    for j in range(B):
        A[j, j] = 1.0
        for i in range(U):
            A[j, B + i * B + j] = -g[i, j]
            for l in range(B):
                if l != j:
                    A[j, B + i * B + l] += gammas[i] * g[i, j]
    return lpmod.LinearProgram(
        sense="max",
        c=c,
        A=A,
        b=-T,
        row_senses=[lpmod.GE] * B,
    )


@dataclass(frozen=True)
class DualPoint:
    """Extreme point or extreme ray of the dual subproblem."""

    mu: np.ndarray             # length B
    nu: np.ndarray             # U x B
    kind: str                  # "extreme_point" | "extreme_ray"

    def __post_init__(self):
        if self.kind not in ("extreme_point", "extreme_ray"):
            raise ModelError(f"unknown dual point kind {self.kind!r}")


@dataclass(frozen=True)
class Cut:
    """The affine map X -> h(X, mu, nu) as constant + sum coef_ij x_ij.

    Optimality cuts constrain h <= eta, feasibility cuts h <= 0.
    """

    constant: float
    coef: np.ndarray           # U x B, equals nu / varrho
    kind: str                  # "optimality" | "feasibility"

    @classmethod
    def from_dual_point(
        cls,
        scenario: Scenario,
        demands: DemandMatrix,
        rho: float,
        point: DualPoint,
    ) -> "Cut":
        gammas = requested_thresholds(scenario, demands)
        const = float(
            -(scenario.max_power @ point.mu)
            + ((scenario.noise_power * gammas[:, None] - 1.0 / rho) * point.nu).sum()
        )
        coef = point.nu / rho
        kind = "optimality" if point.kind == "extreme_point" else "feasibility"
        return cls(const, coef, kind)

    def value(self, x) -> float:
        """Evaluate h at a (possibly fractional) association matrix."""
        X = np.asarray(x.x if isinstance(x, Association) else x, dtype=float)
        return float(self.constant + (self.coef * X).sum())

    @property
    def magnitude(self) -> float:
        """Scale of the cut's data, used for relative feasibility thresholds."""
        return max(1.0, abs(self.constant), float(np.abs(self.coef).max()))

    def same_coefficients(self, other: "Cut", tol: float = 0.0) -> bool:
        return (
            self.kind == other.kind
            and abs(self.constant - other.constant) <= tol
            and np.allclose(self.coef, other.coef, rtol=0, atol=tol)
        )


def _cleaned(mu: np.ndarray, nu: np.ndarray):
    """Clip dual vectors to >= 0 and drop entries that are relative noise."""
    mu = np.asarray(mu, dtype=float).clip(min=0.0)
    nu = np.asarray(nu, dtype=float).clip(min=0.0)
    scale = max(mu.max(initial=0.0), nu.max(initial=0.0))
    if scale > 0.0:
        mu[mu < scale * 1e-12] = 0.0
        nu[nu < scale * 1e-12] = 0.0
    return mu, nu


def _min_power_lp(
    scenario: Scenario, demands: DemandMatrix, assigned: np.ndarray
) -> Tuple[lpmod.LinearProgram, lpmod.LpResult, bool]:
    """The strict minimum-energy LP of a binary association, solved.

    min sum_j T_j p_j subject to the assigned users' SINR requirements and
    per-SBS power caps, solved at ``STRICT_TOL``. The association is
    feasible only if the solver reports an optimum that also passes the
    strict vertex check: near the boundary the solver may accept a vertex
    that misses a constraint by a visible margin.
    """
    users = np.arange(scenario.user_count)
    g = scenario.channel_gains
    gammas = requested_thresholds(scenario, demands)
    A = -gammas[:, None] * g
    A[users, assigned] = g[users, assigned]
    problem = lpmod.LinearProgram(
        "min",
        serving_time(scenario, demands, None, "relaxed"),
        A,
        gammas * scenario.noise_power,
        [lpmod.GE] * scenario.user_count,
        upper=scenario.max_power.copy(),
    )
    result = lpmod.solve_lp(problem, feas_tol=lpmod.STRICT_TOL)
    feasible = (
        result.status == "optimal"
        and lpmod.solution_violation(problem, result.x) <= lpmod.STRICT_TOL
    )
    return problem, result, feasible


def min_power_for(
    scenario: Scenario, demands: DemandMatrix, assoc: Association
) -> Optional[PowerVector]:
    """Minimum-energy powers for a fixed association, or None if infeasible."""
    _, result, feasible = _min_power_lp(scenario, demands, assoc.assigned_sbs)
    return PowerVector(result.x.clip(min=0.0)) if feasible else None


def solve_subproblem(
    scenario: Scenario,
    demands: DemandMatrix,
    x,
    rho: float,
) -> Tuple[DualPoint, float]:
    """Solve the dual subproblem at a fixed association.

    Bounded: extreme point and the minimum relaxed energy M. Unbounded,
    i.e. the association admits no feasible power: extreme ray and
    M = +inf. For a binary association the feasible/infeasible verdict is
    that of ``min_power_for``, so near-boundary associations are classified
    uniformly; the dual LP then supplies the extreme point or ray (the
    strict LP fills in whenever the two solves disagree at tolerance level).
    """
    U, B = scenario.user_count, scenario.sbs_count
    primal = build_subproblem_primal(scenario, demands, x, rho)
    X = _as_x_matrix(x, scenario)
    binary = np.all((X == 0.0) | (X == 1.0)) and np.all(X.sum(axis=1) == 1.0)
    feasible: Optional[bool] = None
    small = small_result = None
    if binary:
        assigned = np.argmax(X, axis=1)
        small, small_result, feasible = _min_power_lp(scenario, demands, assigned)

    dual_lp = build_subproblem_dual(scenario, demands, x, rho)
    result = lpmod.solve_lp(dual_lp)
    if result.status == "infeasible":  # pragma: no cover - origin always feasible
        raise ModelError("dual subproblem infeasible; serving times must be >= 0")

    if feasible is None:
        feasible = result.status == "optimal"

    if feasible:
        if result.status == "optimal":
            mu, nu = _cleaned(result.x[:B], result.x[B:])
            nu = nu.reshape(U, B)
            M = float(result.objective)
        else:
            # dual of min T'p s.t. Ap >= b, p <= pmax: row duals are nu >= 0
            # and the upper-bound duals are -mu <= 0; rows for non-assigned
            # pairs extend with nu = 0
            mu, nu_small = _cleaned(-small_result.upper_duals, small_result.dual)
            nu = np.zeros((U, B))
            nu[np.arange(U), assigned] = nu_small
            M = float(small_result.objective)
        return DualPoint(mu=mu, nu=nu, kind="extreme_point"), M

    if result.status == "unbounded":
        mu, nu = _cleaned(result.ray[:B], result.ray[B:])
        violation = float(nu @ primal.b - mu @ primal.upper)
    else:
        # the dual solve missed the (near-boundary) infeasibility: fall back
        # to the strict LP's Farkas certificate, extended with zeros
        if small_result.status != "infeasible":
            # rejected only by the strict vertex check: force a certificate
            small_result = lpmod.solve_lp(small, feas_tol=0.0)
        if small_result.status != "infeasible":  # pragma: no cover - see above
            raise ModelError(
                "power subproblem infeasible but no certificate is available"
            )
        mu, nu_small = _cleaned(-small_result.farkas_upper, small_result.farkas)
        nu = np.zeros((U, B))
        nu[np.arange(U), assigned] = nu_small
        violation = float(nu_small @ small.b - mu @ small.upper)
    # rays are scale-free: normalize so the certified violation at this
    # association is exactly 1, keeping the resulting cut well scaled
    if violation > 0.0:
        mu /= violation
        nu /= violation
    return DualPoint(mu=mu, nu=nu.reshape(U, B), kind="extreme_ray"), math.inf


def recover_power(
    scenario: Scenario, demands: DemandMatrix, assoc: Association
) -> PowerVector:
    """Minimum-power vector for an association known to be feasible."""
    power = min_power_for(scenario, demands, assoc)
    if power is None:
        raise ModelError("association admits no feasible power")
    return power


@dataclass(frozen=True)
class MasterSolution:
    eta: float
    assoc: Association
    value: float               # N: the master objective optimum


def _eta_for(x: np.ndarray, cuts: Sequence[Cut]) -> Optional[float]:
    """Smallest feasible eta at a binary X, or None if a feasibility cut fails.

    The feasibility threshold is relative to each cut's coefficient
    magnitude, matching the LP relaxation, which solves row-equilibrated
    data; an absolute threshold would disagree with the LP on cuts with
    large coefficients and force needless branching.
    """
    eta = 0.0
    for cut in cuts:
        h = cut.value(x)
        if cut.kind == "feasibility":
            if h > 1e-9 * cut.magnitude:
                return None
        else:
            eta = max(eta, h)
    return eta


def _master_relaxation(
    scenario: Scenario,
    alpha: float,
    dcoef: np.ndarray,
    cuts: Sequence[Cut],
    allowed: np.ndarray,
) -> Tuple[Optional[lpmod.LpResult], Optional[np.ndarray], float, List[Tuple[int, int]]]:
    """LP relaxation of the master on the branching mask ``allowed``.

    Users with a single allowed SBS are folded into constants. Returns the
    LP result, the full fractional X (None if infeasible), the fixed-part
    objective constant, and the index map of free variables.
    """
    U, B = allowed.shape
    fixed_x = np.zeros((U, B))
    free: List[Tuple[int, int]] = []
    for i in range(U):
        js = np.nonzero(allowed[i])[0]
        if js.size == 1:
            fixed_x[i, js[0]] = 1.0
        else:
            free.extend((i, int(j)) for j in js)
    n = 1 + len(free)                       # eta first, then free x entries
    col = {ij: 1 + t for t, ij in enumerate(free)}

    c = np.zeros(n)
    c[0] = alpha
    for ij, t in col.items():
        c[t] = (1.0 - alpha) * dcoef[ij]
    const = (1.0 - alpha) * float((dcoef * fixed_x).sum())

    rows, b, senses = [], [], []
    for i in range(U):
        js = np.nonzero(allowed[i])[0]
        if js.size == 1:
            continue
        row = np.zeros(n)
        for j in js:
            row[col[(i, int(j))]] = 1.0
        rows.append(row)
        b.append(1.0)
        senses.append(lpmod.EQ)
    for cut in cuts:
        row = np.zeros(n)
        if cut.kind == "optimality":
            row[0] = -1.0
        for ij, t in col.items():
            row[t] = cut.coef[ij]
        rows.append(row)
        b.append(-cut.constant - float((cut.coef * fixed_x).sum()))
        senses.append(lpmod.LE)
    upper = np.ones(n)
    upper[0] = np.inf
    relax = lpmod.LinearProgram(
        "min", c, np.array(rows) if rows else np.zeros((0, n)),
        np.array(b), senses, upper=upper,
    )
    result = lpmod.solve_lp(relax)
    if result.status == "infeasible":
        return None, None, const, free
    if result.status == "unbounded":       # pragma: no cover - eta is clamped
        raise ModelError("master relaxation unbounded")
    x_full = fixed_x.copy()
    for ij, t in col.items():
        x_full[ij] = result.x[t]
    return result, x_full, const, free


_assignment_cache: dict = {}


def _all_assignment_matrices(U: int, B: int) -> np.ndarray:
    """(B**U, U*B) matrix of all flattened binary associations, lexicographic."""
    key = (U, B)
    if key not in _assignment_cache:
        grids = np.meshgrid(*[np.arange(B)] * U, indexing="ij")
        assigned = np.stack([g.ravel() for g in grids], axis=1)   # (B**U, U)
        flat = np.zeros((assigned.shape[0], U * B))
        rows = np.repeat(np.arange(assigned.shape[0]), U)
        cols = (np.tile(np.arange(U), assigned.shape[0]) * B + assigned.ravel())
        flat[rows, cols] = 1.0
        _assignment_cache[key] = flat
    return _assignment_cache[key]


def _solve_master_enumerate(
    U: int, B: int, dcoef: np.ndarray, cuts: Sequence[Cut], alpha: float
) -> MasterSolution:
    """Exact master by evaluating every binary association at once."""
    flat = _all_assignment_matrices(U, B)
    K = flat.shape[0]
    eta = np.zeros(K)
    feasible = np.ones(K, dtype=bool)
    for cut in cuts:
        h = cut.constant + flat @ cut.coef.ravel()
        if cut.kind == "feasibility":
            feasible &= h <= 1e-9 * cut.magnitude
        else:
            np.maximum(eta, h, out=eta)
    if not feasible.any():
        raise MasterInfeasibleError("no feasible association exists")
    values = alpha * eta + (1.0 - alpha) * (flat @ dcoef.ravel())
    values[~feasible] = np.inf
    k = int(np.argmin(values))            # first minimum: lexicographic ties
    x = flat[k].reshape(U, B).astype(np.int8)
    return MasterSolution(
        eta=float(eta[k]), assoc=Association(x), value=float(values[k])
    )


def solve_master(
    scenario: Scenario,
    demands: DemandMatrix,
    placement: CachePlacement,
    cuts: Sequence[Cut],
    alpha: float,
) -> MasterSolution:
    """Exact master solve over binary associations.

    Small association spaces are enumerated wholesale with vectorized cut
    evaluation, keeping the lexicographically first optimum. Larger ones
    use branch-and-bound: branch on the most fractional x_ij of the node
    relaxation, exploring the x_ij = 1 child first, with LP bounds pruning
    against the incumbent and ties keeping the first incumbent found. Both
    paths are deterministic.
    """
    U, B = scenario.user_count, scenario.sbs_count
    dcoef = delay_coefficients(scenario, demands, placement)
    if B**U <= _MASTER_ENUMERATION_LIMIT:
        return _solve_master_enumerate(U, B, dcoef, cuts, alpha)

    best_value = math.inf
    best_x: Optional[np.ndarray] = None

    root = np.ones((U, B), dtype=bool)
    stack = [root]
    while stack:
        allowed = stack.pop()
        if not allowed.any(axis=1).all():
            continue
        result, x_full, const, free = _master_relaxation(
            scenario, alpha, dcoef, cuts, allowed
        )
        if result is None:
            continue
        bound = result.objective + const
        if bound >= best_value - _PRUNE_TOL:
            continue
        frac = np.abs(x_full - np.rint(x_full))
        if frac.max() <= _INTEGRALITY_TOL:
            x_bin = np.rint(x_full).astype(np.int8)
            eta = _eta_for(x_bin, cuts)
            if eta is not None:
                value = alpha * eta + (1.0 - alpha) * float((dcoef * x_bin).sum())
                if value < best_value - 1e-12:
                    best_value = value
                    best_x = x_bin
                continue
            if not free:
                continue
            # the LP accepted this point within tolerance but the exact cut
            # evaluation rejects it (large cut coefficients magnify LP-level
            # slack). The node may still contain other associations, so
            # branch on a free entry of the rejected point instead of
            # discarding the node.
            bi, bj = next(ij for ij in free if x_full[ij] > 0.5)
        else:
            # most fractional free entry; lowest (i, j) on ties
            scores = [
                (abs(x_full[ij] - 0.5), ij)
                for ij in free
                if frac[ij] > _INTEGRALITY_TOL
            ]
            _, (bi, bj) = min(scores)
        zero_child = allowed.copy()
        zero_child[bi, bj] = False
        one_child = allowed.copy()
        one_child[bi, :] = False
        one_child[bi, bj] = True
        stack.append(zero_child)   # popped second
        stack.append(one_child)    # popped first: explore x_ij = 1 branch
    if best_x is None:
        raise MasterInfeasibleError("no feasible association exists")
    eta = _eta_for(best_x, cuts)
    return MasterSolution(eta=eta, assoc=Association(best_x), value=best_value)


def penalty_lambda(scenario: Scenario, demands: DemandMatrix) -> float:
    """Penalty weight: 10 p_max + total relaxed transmission time + backhaul means."""
    return float(
        10.0 * scenario.max_power.max()
        + total_transmission_time(scenario, demands)
        + scenario.backhaul_mean.sum()
    )


def rmp_penalty_value(
    scenario: Scenario,
    demands: DemandMatrix,
    placement: CachePlacement,
    cuts: Sequence[Cut],
    alpha: float,
    lam: float,
    eta: float,
    x,
) -> float:
    """Penalized relaxed-master objective at a (possibly fractional) association.

    At binary X the penalty vanishes and the value equals the master
    objective; fractional entries are charged lam * (x - x^2) each.
    """
    X = np.asarray(x.x if isinstance(x, Association) else x, dtype=float)
    if np.any(X < -1e-12) or np.any(X > 1 + 1e-12):
        raise ModelError("association entries must lie in [0, 1]")
    dcoef = delay_coefficients(scenario, demands, placement)
    penalty = lam * float((X - X**2).sum())
    return alpha * eta + (1.0 - alpha) * float((dcoef * X).sum()) + penalty


@dataclass(frozen=True)
class IterationRecord:
    t: int
    psi_lower: float
    psi_upper: float
    subproblem_status: str      # "bounded" | "unbounded"
    M: float                    # +inf when unbounded
    N: float
    omega: Optional[int]


@dataclass
class BendersTrace:
    """Per-iteration bounds and the final incumbent of a UCWT run."""

    iterations: List[IterationRecord] = field(default_factory=list)
    converged: bool = False
    epsilon: Optional[float] = None
    omega: Optional[int] = None
    final_objective: Optional[float] = None
    cuts: List[Cut] = field(default_factory=list)

    @property
    def gap(self) -> float:
        last = self.iterations[-1]
        return last.psi_upper - last.psi_lower

    def csv_rows(self) -> List[str]:
        rows = ["t,psi_lower,psi_upper,subproblem_status,M,N,omega"]
        for r in self.iterations:
            omega = "" if r.omega is None else str(r.omega)
            rows.append(
                f"{r.t},{r.psi_lower:.9g},{r.psi_upper:.9g},"
                f"{r.subproblem_status},{r.M:.9g},{r.N:.9g},{omega}"
            )
        return rows


def update_bounds(
    candidates: Sequence[Tuple[float, float]], alpha: float
) -> Tuple[float, Optional[int]]:
    """Running upper bound over past iterations.

    ``candidates[r - 1]`` holds (M, delay) of the association proposed at
    iteration r; unbounded entries (M = +inf) are skipped. Returns the
    minimum weighted value and the 1-based argmin (first on ties).
    """
    best, omega = math.inf, None
    for r, (M, delay) in enumerate(candidates, start=1):
        if math.isinf(M):
            continue
        value = alpha * M + (1.0 - alpha) * delay
        if value < best:
            best, omega = value, r
    return best, omega


@dataclass(frozen=True)
class UcwtResult:
    assoc: Association
    power: PowerVector
    trace: BendersTrace


def ucwt(
    scenario: Scenario,
    demands: DemandMatrix,
    placement: CachePlacement,
    alpha: float,
    epsilon: Optional[float] = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    interferer_count: Optional[int] = None,
) -> UcwtResult:
    """Iterative cut generation until the bound gap closes.

    Starts from the all-zero association (whose subproblem is bounded with
    zero power and yields a benign first cut); alternates subproblem and
    master solves, keeping the best master-proposed association as the
    incumbent. ``epsilon`` defaults to 1e-6 * (1 + |first finite upper
    bound|).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ModelError("alpha must lie in [0, 1]")
    if epsilon is not None and epsilon <= 0:
        raise ModelError("epsilon must be positive")
    rho = varrho(scenario, demands, interferer_count)
    dcoef = delay_coefficients(scenario, demands, placement)

    trace = BendersTrace(epsilon=epsilon)
    x_prev: object = np.zeros((scenario.user_count, scenario.sbs_count))
    candidates: List[Tuple[float, float]] = []   # (M, delay) per proposed X
    proposed: List[Association] = []
    eps = epsilon

    for t in range(1, max_iters + 1):
        point, M = solve_subproblem(scenario, demands, x_prev, rho)
        cut = Cut.from_dual_point(scenario, demands, rho, point)
        if not any(cut.same_coefficients(existing) for existing in trace.cuts):
            trace.cuts.append(cut)
        if t >= 2:
            # x_prev is the association proposed at iteration t-1
            candidates.append((M, float((dcoef * proposed[-1].x).sum())))
        psi_upper, omega = update_bounds(candidates, alpha)
        if eps is None and math.isfinite(psi_upper):
            eps = 1e-6 * (1.0 + abs(psi_upper))
            trace.epsilon = eps
        try:
            master = solve_master(scenario, demands, placement, trace.cuts, alpha)
        except MasterInfeasibleError:
            raise NoFeasibleAssociationError(
                "feasibility cuts exclude every association"
            ) from None
        psi_lower = master.value
        trace.iterations.append(
            IterationRecord(
                t=t,
                psi_lower=psi_lower,
                psi_upper=psi_upper,
                subproblem_status="bounded" if math.isfinite(M) else "unbounded",
                M=M,
                N=master.value,
                omega=omega,
            )
        )
        if eps is not None and psi_upper - psi_lower <= eps:
            trace.converged = True
            trace.omega = omega
            break
        proposed.append(master.assoc)
        x_prev = master.assoc.x

    if trace.omega is None:
        # not converged: fall back to the best incumbent seen, if any
        psi_upper, omega = update_bounds(candidates, alpha)
        if omega is None:
            raise NoFeasibleAssociationError(
                "no power-feasible association found within the iteration budget"
            )
        trace.omega = omega
    best = proposed[trace.omega - 1]
    power = recover_power(scenario, demands, best)
    trace.final_objective = objective(
        scenario, demands, placement, best, power, alpha
    ).weighted
    return UcwtResult(assoc=best, power=power, trace=trace)
