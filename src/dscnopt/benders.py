"""Benders decomposition of the joint user-association / power-control problem.

The continuous subproblem is the minimum-energy power control for a fixed
association; bounded solves yield dual extreme points (optimality cuts)
and unbounded ones extreme rays (feasibility cuts). The master picks the
association, minimizing the weighted energy lower bound plus total
delivery delay over all collected cuts. It is solved exactly: by
vectorized enumeration of every binary association while there are at
most ``_MASTER_ENUMERATION_LIMIT`` of them, and by branch-and-bound with
LP-relaxation bounds above that. Enumeration keeps a running table of cut
scores over all associations and scores each cut of a ``ucwt`` run once, by
outer sums of its per-user terms; no matrix of the associations is built.

For a binary association, the assigned users' SINR rows form a standard
interference function (Yates 1995), so the minimum transmit powers are its
least fixed point. ``_min_power`` finds it by policy iteration over one
binding user per SBS, which needs only B x B linear solves, and reads the
optimality duals, or a Farkas ray cut down to an irreducible infeasible
subsystem, from the same solves. Every answer is verified; one that fails
is answered by the strict minimum-power LP instead. ``min_power_for``, the
subproblem, power recovery, the baselines and the oracle all take their
powers and their feasible/infeasible verdict from it. Only a fractional
association (the all-zero start of ``ucwt``) is solved through the dual
LP.

The SINR constraints are activated per assigned pair via the constant
``varrho``: for non-assigned pairs the slack term 1/varrho dominates any
feasible interference level, so the relaxed constraint set has the same
optimum as the assigned-only one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

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
# policy iteration: steps before giving up to the LP, and the relative gain
# in a user's power requirement that moves its SBS's binding row to it
_POLICY_STEPS = 50
_SWITCH_TOL = 1e-14
# a structured infeasibility ray stands only if it proves some row or cap
# missed by this much relative to its norm, well above what the strict LP
# check tolerates; closer calls are left to the LP
_RAY_MARGIN = 10 * lpmod.STRICT_TOL

logger = logging.getLogger(__name__)


class MasterInfeasibleError(ModelError):
    """All associations are excluded by feasibility cuts."""


class NoFeasibleAssociationError(ModelError):
    """The instance admits no power-feasible association at all."""


class SolverFault(ModelError):
    """An internal failure: no path yields a certificate for a subproblem."""


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
    # row i*B + j: the interference row -gamma_i g_i with g_ij on the diagonal
    A = np.repeat(-gammas[:, None] * g, B, axis=0)
    A[np.arange(U * B), np.tile(np.arange(B), U)] = g.ravel()
    b = (gammas[:, None] * scenario.noise_power - (1.0 - X) / rho).ravel()
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
    c = np.concatenate([
        -scenario.max_power,
        ((X - 1.0) / rho + scenario.noise_power * gammas[:, None]).ravel(),
    ])
    # nu block [j, i, l]: gamma_i g_ij off the diagonal l != j, -g_ij on it
    nu_block = np.repeat((gammas[:, None] * g).T[:, :, None], B, axis=2)
    nu_block[np.arange(B), :, np.arange(B)] = -g.T
    A = np.hstack([np.eye(B), nu_block.reshape(B, U * B)])
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


def _sinr_rows(
    scenario: Scenario, demands: DemandMatrix, assigned: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The assigned users' SINR requirements of a binary association as A p >= b."""
    users = np.arange(scenario.user_count)
    g = scenario.channel_gains
    gammas = requested_thresholds(scenario, demands)
    A = -gammas[:, None] * g
    A[users, assigned] = g[users, assigned]
    return A, gammas * scenario.noise_power


def _min_power_lp(
    A: np.ndarray, b: np.ndarray, T: np.ndarray, pmax: np.ndarray
) -> Tuple[lpmod.LinearProgram, lpmod.LpResult, bool]:
    """The strict minimum-energy LP of a binary association, solved.

    min T p subject to the SINR rows ``A p >= b`` and the per-SBS power
    caps, solved at ``STRICT_TOL``. The association is feasible only if the
    solver reports an optimum that also passes the strict vertex check:
    near the boundary the solver may accept a vertex that misses a
    constraint by a visible margin.
    """
    problem = lpmod.LinearProgram(
        "min", T, A, b, [lpmod.GE] * len(b), upper=pmax.copy()
    )
    result = lpmod.solve_lp(problem, feas_tol=lpmod.STRICT_TOL)
    feasible = (
        result.status == "optimal"
        and lpmod.solution_violation(problem, result.x) <= lpmod.STRICT_TOL
    )
    return problem, result, feasible


@dataclass(frozen=True)
class _PowerAnswer:
    """Minimum powers of a binary association, with their certificate.

    ``power`` is None when the association is infeasible. ``mu`` (per SBS,
    on the power caps) and ``nu`` (per user, on its SINR row) are the
    optimality duals of a feasible association, or else a Farkas ray
    normalized to a certified violation ``nu @ b - mu @ p_max`` of 1.
    """

    power: Optional[np.ndarray]
    mu: np.ndarray
    nu: np.ndarray


def _ray(
    mu: np.ndarray, nu: np.ndarray, b: np.ndarray, pmax: np.ndarray
) -> _PowerAnswer:
    # rays are scale-free: normalize so the certified violation at this
    # association is exactly 1, keeping the resulting cut well scaled
    violation = float(nu @ b - mu @ pmax)
    if violation > 0.0:
        mu, nu = mu / violation, nu / violation
    return _PowerAnswer(None, mu, nu)


class _InterferenceSystem:
    """The SINR rows of a binary association in fixed-point form.

    User i served by SBS a(i) needs p_a(i) >= u_i + sum_l C[i, l] p_l with
    u_i = gamma_i N / g_i,a(i) and C[i, l] = gamma_i g_il / g_i,a(i) off its
    own SBS (0 on it). A set ``S`` of users holding one user per SBS gives
    the square system (I - F_S) p = u_S over the SBSs serving them; row i
    of ``A`` divided by g_i,a(i) holds row i of I - C.
    """

    def __init__(
        self, A: np.ndarray, b: np.ndarray, assigned: np.ndarray, pmax: np.ndarray
    ):
        users = np.arange(len(b))
        self.assigned = assigned
        self.cap = pmax[assigned]          # per user, the cap of its SBS
        self.own = A[users, assigned]
        self.normalized = A / self.own[:, None]
        self.C = -self.normalized
        self.C[users, assigned] = 0.0
        self.u = b / self.own

    def factor(self, S: np.ndarray):
        """LU factors of I - F_S, or None if it is exactly singular."""
        lu, piv, info = dgetrf(self.normalized[S][:, self.assigned[S]])
        return None if info != 0 else (lu, piv)

    def least_powers(self, S: np.ndarray):
        """(LU factors, p) of (I - F_S) p = u_S; p is None when no p > 0 solves it.

        For F_S >= 0 and u_S > 0 a positive solution exists exactly when
        the spectral radius of F_S is below 1, and it is then the least
        p meeting the rows of S.
        """
        factors = self.factor(S)
        if factors is None:
            return None, None
        p = dgetrs(*factors, self.u[S])[0]
        return factors, (p if p.min() > 0.0 else None)

    def most_demanding(self, r: np.ndarray) -> np.ndarray:
        """Per serving SBS in ascending order, its user of largest ``r``.

        Ties go to the lowest user index.
        """
        order = np.lexsort((-r, self.assigned))
        ranked = self.assigned[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        return order[first]


def _policy_iteration(
    A: np.ndarray, b: np.ndarray, assigned: np.ndarray, pmax: np.ndarray,
    T: np.ndarray,
) -> Optional[_PowerAnswer]:
    """Least powers of a binary association by policy iteration, with certificate.

    The assigned rows form a standard interference function, so the least
    feasible powers are its least fixed point and minimize T p (T > 0).
    Each step fixes one binding user per serving SBS, solves the square
    system for it, and moves every SBS to its most demanding user at those
    powers. The powers only grow, stay below the least fixed point, and
    settle on it after finitely many steps, unless some step proves the
    association infeasible first: no positive solution (spectral radius
    >= 1) or a solution above a cap. Returns None if the steps run out.
    """
    U, B = A.shape
    system = _InterferenceSystem(A, b, assigned, pmax)
    sigma = system.most_demanding(system.u)
    for _ in range(_POLICY_STEPS):
        factors, p_sigma = system.least_powers(sigma)
        if p_sigma is None or (p_sigma > system.cap[sigma]).any():
            return _irreducible_ray(system, sigma, factors, p_sigma, b, pmax)
        cols = assigned[sigma]
        p = np.zeros(B)
        p[cols] = p_sigma
        r = system.u + system.C @ p
        best = system.most_demanding(r)
        switch = r[best] > r[sigma] * (1.0 + _SWITCH_TOL)
        if not switch.any():
            # optimality duals: w = (I - F)^-T T on the serving SBSs, with
            # nu = w / g_own on the binding rows and mu = 0
            w = dgetrs(*factors, T[cols], trans=1)[0]
            nu = np.zeros(U)
            nu[sigma] = w / system.own[sigma]
            return _PowerAnswer(p, np.zeros(B), nu)
        sigma = np.where(switch, best, sigma)
    return None


def _irreducible_ray(
    system: _InterferenceSystem, S: np.ndarray, factors, p: Optional[np.ndarray],
    b: np.ndarray, pmax: np.ndarray,
) -> Optional[_PowerAnswer]:
    """Farkas ray of an irreducible infeasible subsystem within the users ``S``.

    ``S`` holds one user per SBS and is infeasible; ``factors`` and ``p``
    are what ``least_powers(S)`` returned for it. A deletion filter drops
    its users in index order while the rest stays infeasible, which leaves
    an irreducible infeasible subsystem (IIS): a cut from it excludes every
    association holding those few pairs, where the full certificate would
    exclude only those holding all of ``S``. The ray follows from one more
    solve on the IIS. Returns None if no ray can be read off (a numerical
    edge case).
    """
    for i in np.sort(S):
        rest = S[S != i]
        if rest.size == 0:
            continue
        rest_factors, q = system.least_powers(rest)
        if q is None or (q > system.cap[rest]).any():
            S, factors, p = rest, rest_factors, q
    cols = system.assigned[S]
    mu = np.zeros(len(pmax))
    if p is not None:
        # spectral radius below 1: the most exceeded cap j, with
        # w = (I - F)^-T e_j and mu = e_j
        k = int(np.argmax(p / system.cap[S]))
        e = np.zeros(len(S))
        e[k] = 1.0
        w = dgetrs(*factors, e, trans=1)[0]
        mu[cols[k]] = 1.0
    else:
        # spectral radius at least 1 and every proper subset feasible:
        # w = (1, w') with (I - F')^T w' = F[first, rest] keeps the other
        # SBSs' columns tight, and the first one's column is then <= 0
        factors = system.factor(S[1:]) if S.size > 1 else None
        if factors is None:
            return None
        head = system.C[S[0], cols[1:]]
        w = np.concatenate([[1.0], dgetrs(*factors, head, trans=1)[0]])
    nu = np.zeros(len(b))
    nu[S] = w.clip(min=0.0) / system.own[S]
    return _ray(mu, nu, b, pmax)


def _verified(
    A: np.ndarray, b: np.ndarray, pmax: np.ndarray, T: np.ndarray,
    answer: _PowerAnswer,
) -> bool:
    """Whether a structured answer passes the checks that let it stand.

    Powers pass the strict row check at ``STRICT_TOL`` and lie in
    [0, p_max]; their duals nu, mu >= 0 satisfy A'nu - mu <= T. A ray
    nu, mu >= 0 satisfies the Farkas inequalities with a margin: over every
    p in [0, p_max], nu'(b - A p) + mu'(p - p_max) >= gain, where gain
    charges any positive part of A'nu - mu at p_max. The gain must exceed
    ``_RAY_MARGIN`` times the rows' and caps' weight, so that some row or
    cap misses by more than the strict LP check lets pass.
    """
    mu, nu = answer.mu, answer.nu
    if mu.min() < 0.0 or nu.min() < 0.0:
        return False
    magnitude = np.abs(A)
    row_norm = magnitude.max(axis=1)
    columns = nu @ A - mu
    if answer.power is not None:
        p = answer.power
        slack = (A @ p - b) / row_norm
        return bool(
            p.min() >= 0.0
            and (p <= pmax).all()
            and slack.min() >= -lpmod.STRICT_TOL
            and (columns - T <= 1e-9 * (nu @ magnitude + mu + T)).all()
        )
    gain = nu @ b - mu @ pmax - columns.clip(min=0.0) @ pmax
    return bool(gain > _RAY_MARGIN * (nu @ row_norm + mu.sum()))


def _min_power(
    scenario: Scenario, demands: DemandMatrix, assigned: np.ndarray
) -> _PowerAnswer:
    """Minimum powers of a binary association with their verified certificate.

    Policy iteration on the interference system answers; if its answer
    fails ``_verified``, the strict LP answers instead, and that fallback
    is logged. Raises ``SolverFault`` when neither gives a certificate.
    """
    A, b = _sinr_rows(scenario, demands, assigned)
    T = serving_time(scenario, demands, None, "relaxed")
    pmax = scenario.max_power
    answer = _policy_iteration(A, b, assigned, pmax, T)
    if answer is not None and _verified(A, b, pmax, T, answer):
        return answer
    logger.warning(
        "structured power control unverified for assignment %s; solving the LP",
        assigned.tolist(),
    )
    problem, result, feasible = _min_power_lp(A, b, T, pmax)
    if feasible:
        # the duals come from the dual LP, max b'nu - pmax'mu subject to
        # A'nu - mu <= T, whose points are dual feasible by construction;
        # near the boundary the strict LP's own row duals may not be. Should
        # it find no optimum, its feasible point still gives a valid cut.
        U, B = A.shape
        dual = lpmod.solve_lp(lpmod.LinearProgram(
            "max", np.concatenate([b, -pmax]), np.hstack([A.T, -np.eye(B)]), T,
            [lpmod.LE] * B,
        ))
        mu, nu = _cleaned(dual.x[U:], dual.x[:U])
        return _PowerAnswer(result.x.clip(min=0.0), mu, nu)
    if result.status != "infeasible":
        # rejected only by the strict vertex check: force a certificate
        result = lpmod.solve_lp(problem, feas_tol=0.0)
    if result.status != "infeasible":
        raise SolverFault("power subproblem infeasible but no certificate is available")
    mu, nu = _cleaned(-result.farkas_upper, result.farkas)
    return _ray(mu, nu, b, pmax)


def min_power_for(
    scenario: Scenario, demands: DemandMatrix, assoc: Association
) -> Optional[PowerVector]:
    """Minimum-energy powers for a fixed association, or None if infeasible."""
    power = _min_power(scenario, demands, assoc.assigned_sbs).power
    return None if power is None else PowerVector(power)


def solve_subproblem(
    scenario: Scenario,
    demands: DemandMatrix,
    x,
    rho: float,
) -> Tuple[DualPoint, float]:
    """Solve the power subproblem at a fixed association.

    Bounded: extreme point and the minimum relaxed energy M. Unbounded,
    i.e. the association admits no feasible power: extreme ray and
    M = +inf. A binary association is answered by ``_min_power``, the
    routine behind ``min_power_for``, so every path gives one verdict; its
    multipliers on the assigned rows extend with zeros to the other pairs.
    A fractional association is solved through the dual LP.
    """
    U, B = scenario.user_count, scenario.sbs_count
    X = _as_x_matrix(x, scenario)
    if np.all((X == 0.0) | (X == 1.0)) and np.all(X.sum(axis=1) == 1.0):
        assigned = np.argmax(X, axis=1)
        answer = _min_power(scenario, demands, assigned)
        nu = np.zeros((U, B))
        nu[np.arange(U), assigned] = answer.nu
        if answer.power is None:
            return DualPoint(mu=answer.mu, nu=nu, kind="extreme_ray"), math.inf
        T = serving_time(scenario, demands, None, "relaxed")
        M = float(T @ answer.power)
        return DualPoint(mu=answer.mu, nu=nu, kind="extreme_point"), M

    result = lpmod.solve_lp(build_subproblem_dual(scenario, demands, X, rho))
    if result.status == "optimal":
        mu, nu = _cleaned(result.x[:B], result.x[B:])
        point = DualPoint(mu=mu, nu=nu.reshape(U, B), kind="extreme_point")
        return point, float(result.objective)
    if result.status != "unbounded":  # pragma: no cover - origin always feasible
        raise ModelError("dual subproblem infeasible; serving times must be >= 0")
    mu, nu = _cleaned(result.ray[:B], result.ray[B:])
    primal = build_subproblem_primal(scenario, demands, X, rho)
    violation = float(nu @ primal.b - mu @ primal.upper)
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


def _grid_sum(coef: np.ndarray) -> np.ndarray:
    """The B**U vector of sum_i coef[i, a_i] over all assignments a.

    Lexicographic order, user 0 most significant. Built from the last user
    to the first, so the long axis of each outer sum stays innermost.
    """
    h = np.zeros(1)
    for row in coef[::-1]:
        h = (row[:, None] + h).ravel()
    return h


class _CutTable:
    """The enumerated master's running scores over every binary association.

    Holds, per association in lexicographic order, the delivery delay and
    the eta and feasibility mask of the cuts absorbed so far; each cut of a
    growing list is scored once, by outer sums over users (``_grid_sum``).
    """

    def __init__(self, U: int, B: int, dcoef: np.ndarray):
        self.shape = (U, B)
        self.delay = _grid_sum(dcoef)
        self.eta = np.zeros(self.delay.size)
        self.feasible = np.ones(self.delay.size, dtype=bool)
        self.absorbed = 0

    def absorb(self, cuts: Sequence[Cut]) -> None:
        """Score the cuts appended to ``cuts`` since the last call."""
        if len(cuts) < self.absorbed:
            raise ModelError(
                f"cut list shrank from {self.absorbed} to {len(cuts)} cuts"
            )
        for cut in cuts[self.absorbed:]:
            h = cut.constant + _grid_sum(cut.coef)
            if cut.kind == "feasibility":
                self.feasible &= h <= 1e-9 * cut.magnitude
            else:
                np.maximum(self.eta, h, out=self.eta)
        self.absorbed = len(cuts)

    def solve(self, alpha: float) -> MasterSolution:
        """Exact master over the absorbed cuts; ties keep the lexicographic first."""
        if not self.feasible.any():
            raise MasterInfeasibleError("no feasible association exists")
        values = alpha * self.eta + (1.0 - alpha) * self.delay
        values[~self.feasible] = np.inf
        k = int(np.argmin(values))
        U, B = self.shape
        assoc = Association.from_assignment(np.unravel_index(k, (B,) * U), B)
        return MasterSolution(
            eta=float(self.eta[k]), assoc=assoc, value=float(values[k])
        )


def solve_master(
    scenario: Scenario,
    demands: DemandMatrix,
    placement: CachePlacement,
    cuts: Sequence[Cut],
    alpha: float,
    table: Optional[_CutTable] = None,
) -> MasterSolution:
    """Exact master solve over binary associations.

    Small association spaces are enumerated wholesale, scoring each cut by
    outer sums of its per-user coefficients (no association matrix) and
    keeping the lexicographically first optimum. ``table`` holds the scores
    of the cuts passed on earlier calls with the same growing ``cuts``
    list, so only the new cuts are scored; without one, a fresh table
    scores them all. ``ucwt`` keeps one table per run, so each of its cuts
    is scored once. Larger spaces use branch-and-bound: branch on the most
    fractional x_ij of the node relaxation, exploring the x_ij = 1 child
    first, with LP bounds pruning against the incumbent and ties keeping
    the first incumbent found. Both paths are deterministic.
    """
    U, B = scenario.user_count, scenario.sbs_count
    if B**U <= _MASTER_ENUMERATION_LIMIT:
        if table is None:
            table = _CutTable(U, B, delay_coefficients(scenario, demands, placement))
        table.absorb(cuts)
        return table.solve(alpha)

    dcoef = delay_coefficients(scenario, demands, placement)
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

    U, B = scenario.user_count, scenario.sbs_count
    table = _CutTable(U, B, dcoef) if B**U <= _MASTER_ENUMERATION_LIMIT else None

    trace = BendersTrace(epsilon=epsilon)
    x_prev: object = np.zeros((U, B))
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
            master = solve_master(
                scenario, demands, placement, trace.cuts, alpha, table
            )
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
