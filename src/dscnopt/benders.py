"""Benders decomposition of the joint user-association / power-control problem.

The continuous subproblem is the minimum-energy power control for a fixed
association; ``solve_subproblem`` builds each cut straight from its answer,
an optimality cut from the multipliers of a feasible association and a
feasibility cut from the Farkas ray of an infeasible one. The master picks the
association, minimizing the weighted energy lower bound plus total
delivery delay over all collected cuts. It is solved exactly, with no
LP. Its table (``_CutTable``) is given a conflict seed once, a boolean
array of the user pairs that cannot be served together, and lists the
associations that hold no seeded conflict by extending conflict-free
prefixes one user at a time. While no prefix level passes
``_MASTER_ENUMERATION_LIMIT`` rows, the master is enumerated: the table
keeps a running objective at the run's alpha over those rows and scores
each cut of a ``ucwt`` run once on them. Otherwise a depth-first search
over users bounds each cut over the completions of a partial
association by its fixed terms plus each free user's least coefficient;
since 1/varrho dominates, this is the combinatorial cut bound of Codato
& Fischetti (Oper. Res. 2006). It prunes a child as soon as its user
conflicts alone or with a user fixed before it.

For a binary association, the assigned users' SINR rows form a standard
interference function (Yates 1995), so the minimum transmit powers are its
least fixed point. ``_min_power`` finds it by policy iteration over one
binding user per SBS, which needs only B x B linear solves, and reads the
optimality duals, or a Farkas ray cut down to an irreducible infeasible
subsystem, from the same solves. Every answer is verified; one that fails
is answered by the strict minimum-power LP instead. ``min_power_for``, the
subproblem, power recovery, the baselines and the oracle all take their
powers and their feasible/infeasible verdict from it, and ``reachable_sbs``
gives the one verdict on which (user, SBS) pairs can serve at all: a user
that misses its SINR threshold at an SBS even alone at full power.

``ucwt`` gives the master ``conflict_seed``: every such pair, and
every two users at two SBSs whose 2 x 2 least fixed point misses a cap
(closed form). Each excludes all associations holding it, so no
iteration is spent learning one- or two-user conflicts one subproblem
at a time, and no association it solves holds one. It starts from the
master's answer over the seed alone. Following Benders (1962), its upper
bound is the best subproblem value seen so far, kept as a single
incumbent with the powers of the subproblem that found it, and its lower
bound is the exact master's optimum. Every cut
is kept: an exact master re-proposes an association whose cut it holds
only once the gap has closed. The trace's cut list is the master's, one
cut per iteration.

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
# while no prefix level of the conflict-free associations holds more rows
# than this, the master is solved by vectorized enumeration; otherwise by a
# depth-first search with cut bounds. With no seed, that is B**U rows.
_MASTER_ENUMERATION_LIMIT = 20_000
# policy iteration: steps before giving up to the LP, and the relative gain
# in a user's power requirement that moves its SBS's binding row to it
_POLICY_STEPS = 50
_SWITCH_TOL = 1e-14
# a structured infeasibility ray stands only if it proves some row or cap
# missed by this much relative to its norm, well above what the strict LP
# check tolerates; closer calls are left to the LP
_RAY_MARGIN = 10 * lpmod.STRICT_TOL
# relative cap margin past which ``conflict_seed`` flags a two-user conflict
_CONFLICT_MARGIN = 1e-8

logger = logging.getLogger(__name__)


class MasterInfeasibleError(ModelError):
    """All associations are excluded by feasibility cuts."""


class NoFeasibleAssociationError(ModelError):
    """The instance admits no power-feasible association at all."""


class IterationBudgetError(ModelError):
    """The iteration budget ran out before any proposal was power-feasible.

    This is non-convergence, not a proof that the instance is infeasible.
    """


class SolverFault(ModelError):
    """An internal failure: no path yields a certificate for a subproblem."""


def varrho(scenario: Scenario, demands: DemandMatrix) -> float:
    """SINR-deactivation constant: min_i 1 / (gamma_i ((I-1) p_max g_max + noise)).

    I is the SBS count, so 1/varrho exceeds any user's threshold times the
    worst-case interference-plus-noise level.
    """
    gammas = requested_thresholds(scenario, demands)
    I = scenario.sbs_count
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
) -> lpmod.LinearProgram:
    """Minimum-energy power LP at a fixed association, over every pair.

    Every (user, SBS) pair carries a relaxed SINR row; rows for
    non-assigned pairs are slack for any feasible power by construction
    of ``varrho``. No solver uses it: it is the reference that
    ``solve_subproblem``'s energies are checked against.
    """
    rho = varrho(scenario, demands)
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


@dataclass(frozen=True)
class Cut:
    """The affine map X -> h(X, mu, nu) as constant + sum coef_ij x_ij.

    Optimality cuts constrain h <= eta, feasibility cuts h <= 0. A
    subproblem's optimality cut also carries the minimum powers it was
    read from, so ``ucwt`` need not solve its incumbent again.
    """

    constant: float
    coef: np.ndarray           # U x B; nu / varrho for a subproblem's cut
    kind: str                  # "optimality" | "feasibility"
    power: Optional[np.ndarray] = None

    def value(self, x) -> float:
        """Evaluate h at a (possibly fractional) association matrix."""
        X = np.asarray(x.x if isinstance(x, Association) else x, dtype=float)
        return float(self.constant + (self.coef * X).sum())

    @property
    def magnitude(self) -> float:
        """Scale of the cut's data, used for relative feasibility thresholds."""
        return max(1.0, abs(self.constant), float(np.abs(self.coef).max()))


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

    ``power`` is None when the association is infeasible, and ``energy``
    is then +inf, else T p. ``mu`` (per SBS, on the power caps) and ``nu``
    (per user, on its SINR row) are the optimality duals of a feasible
    association, or else a Farkas ray normalized to a certified violation
    ``nu @ b - mu @ p_max`` of 1.
    """

    power: Optional[np.ndarray]
    mu: np.ndarray
    nu: np.ndarray
    energy: float = math.inf


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
            return _PowerAnswer(p, np.zeros(B), nu, float(T @ p))
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
        power = result.x.clip(min=0.0)
        return _PowerAnswer(power, mu, nu, float(T @ power))
    if result.status != "infeasible":
        # rejected only by the strict vertex check: force a certificate
        result = lpmod.solve_lp(problem, feas_tol=0.0)
    if result.status != "infeasible":
        raise SolverFault("power subproblem infeasible but no certificate is available")
    mu, nu = _cleaned(-result.farkas_upper, result.farkas)
    return _ray(mu, nu, b, pmax)


def reachable_sbs(scenario: Scenario, demands: DemandMatrix) -> np.ndarray:
    """Boolean (user, SBS) mask: SINR requirement met at full power, no interference.

    Interference only raises a user's power requirement, so an association
    holding an excluded pair has no feasible powers: the user's least power
    u_i exceeds the cap, and a 1e-12 relative slack keeps a pair on that
    boundary. The rule is relative, the strict LP's tolerance absolute: a
    pair within about 1e-9 of its cap can be excluded here while the LP
    fallback of ``_min_power`` accepts an association holding it.
    """
    gammas = requested_thresholds(scenario, demands)
    best = scenario.channel_gains * scenario.max_power[None, :]
    return best / scenario.noise_power >= gammas[:, None] * (1 - 1e-12)


def conflict_seed(scenario: Scenario, demands: DemandMatrix) -> np.ndarray:
    """Boolean K[i, j, k, l]: users i at SBS j and k at SBS l cannot both be served.

    The diagonal K[i, j, i, j] is ``~reachable_sbs``, the one-user
    conflicts. Off it, users i != k at SBSs j != l conflict when the 2 x 2
    system p_j >= u_i + c_i p_l, p_l >= u_k + c_k p_j (u the least power
    alone, c the normalized cross gain) has its least fixed point
    ((u_i + c_i u_k), (u_k + c_k u_i)) / (1 - c_i c_k) above a cap, or no
    positive one (c_i c_k >= 1). Users at one SBS do not interfere, so
    they conflict only through a singleton. Adding users only raises the
    least fixed point of a standard interference function (Yates 1995), so
    every association holding a conflict is infeasible: each entry is a
    combinatorial Benders cut (Codato & Fischetti, Oper. Res. 2006).

    A pair is flagged only past a relative margin of ``_CONFLICT_MARGIN``
    (1e-8) on its caps. Where the structured ray is too weak to stand,
    ``min_power_for``'s strict LP accepts a cap missed by a little over
    1e-9 of it, so a 1e-9 margin would flag pairs that verdict accepts;
    a missed conflict costs one Benders iteration, a wrong one an answer.
    """
    gammas = requested_thresholds(scenario, demands)
    g = scenario.channel_gains
    U, B = g.shape
    users = np.arange(U)
    u = gammas[:, None] * scenario.noise_power / g
    # c[i, j, l]: gamma_i g_il / g_ij, SBS l's interference on user i at j
    c = gammas[:, None, None] * g[:, None, :] / g[:, :, None]
    caps = scenario.max_power * (1.0 + _CONFLICT_MARGIN)
    reach = reachable_sbs(scenario, demands)
    K = np.zeros((U, B, U, B), dtype=bool)
    K[users, :, users, :] = np.eye(B, dtype=bool) & ~reach[:, :, None]
    for j in range(B):
        for l in range(j + 1, B):
            # rows: user i at j; columns: user k at l
            cj, cl = c[:, j, l][:, None], c[:, l, j][None, :]
            uj, ul = u[:, j][:, None], u[:, l][None, :]
            det = 1.0 - cj * cl
            clash = (uj + cj * ul > caps[j] * det) | (ul + cl * uj > caps[l] * det)
            clash[users, users] = False
            K[:, j, :, l] = clash
            K[:, l, :, j] = clash.T
    return K


def min_power_for(
    scenario: Scenario, demands: DemandMatrix, assoc: Association
) -> Optional[PowerVector]:
    """Minimum-energy powers for a fixed association, or None if infeasible."""
    power = _min_power(scenario, demands, assoc.assigned_sbs).power
    return None if power is None else PowerVector(power)


def solve_subproblem(
    scenario: Scenario, demands: DemandMatrix, x
) -> Tuple[Cut, float]:
    """Benders cut and minimum relaxed energy M at a fixed binary association.

    A feasible association gives an optimality cut and its energy M, an
    infeasible one a feasibility cut and M = +inf. The answer comes from
    ``_min_power``, as ``min_power_for``'s does, so every path gives one
    verdict. With its multipliers nu extended by zeros to the unassigned
    pairs, h(X) = -p_max mu + sum_ij nu_ij (N gamma_i - (1 - x_ij) / varrho).
    Raises ``ModelError`` on a fractional ``x``.
    """
    U, B = scenario.user_count, scenario.sbs_count
    X = _as_x_matrix(x, scenario)
    if not (np.all((X == 0.0) | (X == 1.0)) and np.all(X.sum(axis=1) == 1.0)):
        raise ModelError("the power subproblem needs a binary association")
    assigned = np.argmax(X, axis=1)
    answer = _min_power(scenario, demands, assigned)
    rho = varrho(scenario, demands)
    nu = np.zeros((U, B))
    nu[np.arange(U), assigned] = answer.nu
    gammas = requested_thresholds(scenario, demands)
    constant = float(
        -(scenario.max_power @ answer.mu)
        + ((scenario.noise_power * gammas[:, None] - 1.0 / rho) * nu).sum()
    )
    kind = "feasibility" if answer.power is None else "optimality"
    return Cut(constant, nu / rho, kind, answer.power), answer.energy


def recover_power(
    scenario: Scenario, demands: DemandMatrix, assoc: Association
) -> PowerVector:
    """Minimum-power vector for an association known to be feasible.

    ``ucwt`` does not call it: its incumbent keeps its subproblem's powers.
    """
    power = min_power_for(scenario, demands, assoc)
    if power is None:
        raise ModelError("association admits no feasible power")
    return power


@dataclass(frozen=True)
class MasterSolution:
    """The master's optimal association and its objective value N."""

    assoc: Association
    value: float


class _CutTable:
    """The enumerated master's running objective over the conflict-free associations.

    Built for one ``alpha`` and one conflict seed, given once:
    ``conflict_seed``'s (U, B, U, B) boolean array, or None for no
    conflicts. Its rows, built at once, are the assignments that hold no
    seeded conflict, in lexicographic order, made by extending
    conflict-free prefixes one user at a time; with no seed they are all
    B**U assignments. The build stops as soon as a prefix level would hold
    more than ``_MASTER_ENUMERATION_LIMIT`` rows and leaves ``rows`` None:
    ``solve_master`` then searches (``_search_master``), reading the delay
    coefficients, alpha and the seed from the table. With no seed, level d
    holds B**(d + 1) rows, so that happens exactly when B**U passes the
    limit. Per row the table holds the master objective
    alpha * eta + (1 - alpha) * delay, eta being the largest optimality
    cut absorbed so far and at least 0, or +inf where a feasibility cut
    excludes the row. Each cut of a growing list is scored once, on the
    rows only, as its constant plus sum_i coef[i, a_i] added from the last
    user to the first, the order of ``_search_master``'s leaves. The
    objective starts at the weighted delay, and an optimality cut h raises
    it to its maximum with alpha * h + (1 - alpha) * delay: rounding is
    monotone and alpha >= 0, so this equals weighting the largest h, bit
    for bit.
    """

    def __init__(
        self, U: int, B: int, dcoef: np.ndarray, alpha: float,
        conflict: Optional[np.ndarray] = None,
    ):
        self.shape = (U, B)
        self.dcoef = dcoef
        self.alpha = alpha
        self.conflict = np.zeros((U, B, U, B), bool) if conflict is None else conflict
        self.alone = np.einsum("ijij->ij", self.conflict)
        self.absorbed = 0
        self.rows = self._build()
        if self.rows is not None:
            # flat indices into a U x B coefficient matrix, last user first
            self._flat = np.arange(U - 1, -1, -1) * B + self.rows[:, ::-1]
            self.weighted_delay = (1.0 - alpha) * self._score(dcoef)
            self.value = self.weighted_delay.copy()

    def _build(self) -> Optional[np.ndarray]:
        """The conflict-free rows, or None once a prefix level passes the limit."""
        rows = np.zeros((1, 0), dtype=np.intp)
        for d in range(self.shape[0]):
            # [r, j]: user d at SBS j conflicts alone or with a user of row r
            blocked = self.alone[d] | self.conflict[np.arange(d), rows, d].any(axis=1)
            r, j = np.nonzero(~blocked)
            if len(r) > _MASTER_ENUMERATION_LIMIT:
                return None
            rows = np.column_stack([rows[r], j])
        return rows

    def absorb(self, cuts: Sequence[Cut]) -> None:
        """Score the cuts appended to ``cuts`` since the last call."""
        if len(cuts) < self.absorbed:
            raise ModelError(
                f"cut list shrank from {self.absorbed} to {len(cuts)} cuts"
            )
        for cut in cuts[self.absorbed:]:
            h = cut.constant + self._score(cut.coef)
            if cut.kind == "feasibility":
                self.value[h > 1e-9 * cut.magnitude] = np.inf
            else:
                np.maximum(
                    self.value, self.alpha * h + self.weighted_delay, out=self.value
                )
        self.absorbed = len(cuts)

    def _score(self, coef: np.ndarray) -> np.ndarray:
        """Per row, sum_i coef[i, a_i] added from the last user to the first."""
        # cumsum adds in order; a sum over the axis would add pairwise
        return coef.ravel()[self._flat].cumsum(axis=1)[:, -1]

    def solve(self) -> MasterSolution:
        """Exact master over the absorbed cuts; ties keep the lexicographic first."""
        if self.value.min(initial=np.inf) == np.inf:
            raise MasterInfeasibleError("no feasible association exists")
        k = int(np.argmin(self.value))
        # the rows hold valid SBS indices by construction
        assoc = Association._unchecked(self.rows[k], self.shape[1])
        return MasterSolution(assoc=assoc, value=float(self.value[k]))


def _search_master(table: _CutTable, cuts: Sequence[Cut]) -> MasterSolution:
    """Exact master by depth-first search over users 0..U-1, SBSs in index order.

    It reads the delay coefficients, alpha and the conflict seed from a
    ``table`` whose build gave up (``rows`` None). Each cut is affine in
    x, so over the completions of a partial association it is least at
    its fixed users' terms plus each free user's smallest coefficient; the
    delay is bounded the same way. A child is pruned when a feasibility
    cut's bound exceeds the threshold of ``_CutTable``, when the seed
    excludes its user alone or with a user fixed before it, or when its
    objective bound reaches the incumbent. A leaf replaces the incumbent
    only if strictly better, so ties keep the lexicographically first
    association, as enumeration does.
    """
    conflict, alone = table.conflict, table.alone
    U, B = table.dcoef.shape
    users = np.arange(U)
    optimality = [c for c in cuts if c.kind == "optimality"]
    feasibility = [c for c in cuts if c.kind == "feasibility"]
    # rows: optimality cuts, then feasibility cuts, then the delay
    rows = optimality + feasibility
    k_opt, k_delay = len(optimality), len(rows)
    coef = np.stack([c.coef for c in rows] + [table.dcoef])
    # tail[:, d]: least sum of each row's terms over the users d..U-1
    tail = np.zeros((len(rows) + 1, U + 1))
    tail[:, :U] = np.cumsum(coef.min(axis=2)[:, ::-1], axis=1)[:, ::-1]
    limit = np.array([1e-9 * c.magnitude for c in feasibility])[:, None]
    const = np.array([c.constant for c in rows] + [0.0])
    last_first = users[::-1]
    assigned = np.zeros(U, dtype=int)
    best_value, best_assigned = math.inf, None

    def score(low: np.ndarray) -> np.ndarray:
        """Per column of row values, the objective (inf if cut off)."""
        eta = low[:k_opt].max(axis=0, initial=0.0)
        value = table.alpha * eta + (1.0 - table.alpha) * low[k_delay]
        value[(low[k_opt:k_delay] > limit).any(axis=0)] = math.inf
        return value

    def visit(d: int, fixed: np.ndarray) -> None:
        nonlocal best_value, best_assigned
        h = fixed[:, None] + coef[:, d, :]          # per row, per SBS of user d
        bound = score(h + tail[:, d + 1, None])
        blocked = alone[d] | conflict[d, :, users[:d], assigned[:d]].any(axis=0)
        bound[blocked] = math.inf
        for j, least in enumerate(bound.tolist()):
            if least >= best_value:
                continue
            assigned[d] = j
            if d + 1 < U:
                visit(d + 1, h[:, j])
                continue
            # re-summed in the enumeration's order, last user first, so that
            # a leaf scores exactly as it does in ``_CutTable``
            terms = coef[:, last_first, assigned[last_first]]
            (value,) = score(const[:, None] + terms.cumsum(axis=1)[:, -1:])
            if value < best_value:
                best_value, best_assigned = value, assigned.copy()

    visit(0, const)
    if best_assigned is None:
        raise MasterInfeasibleError("no feasible association exists")
    return MasterSolution(
        assoc=Association.from_assignment(best_assigned, B), value=float(best_value)
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

    ``table`` (a ``_CutTable``) carries the conflict seed, which excludes
    every association holding one of its conflicts, and the master
    objective at ``alpha`` over the cuts passed on earlier calls with the
    same growing ``cuts`` list, so only the new cuts are scored. Without
    one, a fresh table with no seed scores them all. ``ucwt`` keeps one
    table per run, so each of its cuts is scored once. Raises
    ``ModelError`` if ``table`` was built for another ``alpha``. Where the
    table holds its conflict-free rows, they are enumerated, keeping the
    lexicographically first optimum; where its build gave up
    (``rows`` None), the master is searched depth first
    (``_search_master``) with the same tie rule. Both paths are
    deterministic.
    """
    if table is None:
        dcoef = delay_coefficients(scenario, demands, placement)
        table = _CutTable(scenario.user_count, scenario.sbs_count, dcoef, alpha)
    elif table.alpha != alpha:
        raise ModelError(
            f"cut table built for alpha={table.alpha}, solved at alpha={alpha}"
        )
    if table.rows is None:
        return _search_master(table, cuts)
    table.absorb(cuts)
    return table.solve()


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
    alpha: float,
    lam: float,
    eta: float,
    x,
) -> float:
    """Penalized relaxed-master objective at a (possibly fractional) association.

    ``eta`` is the energy bound at ``x``, the caller's largest optimality
    cut there. At binary X the penalty vanishes and the value equals the
    master objective; fractional entries are charged lam * (x - x^2) each.
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

    def csv_rows(self) -> List[str]:
        """One row per iteration; the master optimum N is the lower bound."""
        rows = ["t,psi_lower,psi_upper,subproblem_status,M,N,omega"]
        for r in self.iterations:
            omega = "" if r.omega is None else str(r.omega)
            rows.append(
                f"{r.t},{r.psi_lower:.9g},{r.psi_upper:.9g},"
                f"{r.subproblem_status},{r.M:.9g},{r.psi_lower:.9g},{omega}"
            )
        return rows


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
) -> UcwtResult:
    """Iterative cut generation until the bound gap closes.

    The master's table is built once over ``conflict_seed``, so no
    proposal puts a user at an SBS it cannot reach alone or two users at a
    conflicting pair of SBSs; if the seed excludes every association (e.g.
    some user reaches no SBS), ``NoFeasibleAssociationError`` is raised
    before any subproblem. Starts from the master's answer with no cut
    (the least-delay conflict-free association, the lexicographically
    first one at alpha = 1); alternates subproblem and master solves for
    at most ``DEFAULT_MAX_ITERS`` iterations. Every cut is kept;
    ``trace.cuts`` is the master's cut list, one cut per iteration.
    The incumbent is the first bounded proposal of least
    alpha * M + (1 - alpha) * delay: its value is the upper bound, the
    master's optimum the lower bound, and the powers returned are those
    its subproblem found, not solved again. An exact master re-proposes an
    association whose cut it holds only once the gap has closed. Without
    convergence the incumbent is returned all the same, with
    ``trace.converged`` False; with no incumbent, ``IterationBudgetError``
    (non-convergence, not infeasibility) is raised. ``epsilon`` defaults
    to 1e-6 * (1 + |first finite upper bound|).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ModelError("alpha must lie in [0, 1]")
    if epsilon is not None and not 0.0 < epsilon < math.inf:
        raise ModelError("epsilon must be a finite positive number")
    dcoef = delay_coefficients(scenario, demands, placement)

    # one table per run, over the conflict seed; the search reads it too
    seed = conflict_seed(scenario, demands)
    table = _CutTable(scenario.user_count, scenario.sbs_count, dcoef, alpha, seed)
    # the master's cuts: one per iteration
    trace = BendersTrace(epsilon=epsilon)
    cuts = trace.cuts
    try:
        assoc = solve_master(scenario, demands, placement, cuts, alpha, table).assoc
    except MasterInfeasibleError:
        raise NoFeasibleAssociationError(
            "one- and two-user conflicts exclude every association"
        ) from None
    # the incumbent: its value, 1-based iteration, association and powers
    psi_upper, omega, best = math.inf, None, None

    for t in range(1, DEFAULT_MAX_ITERS + 1):
        cut, M = solve_subproblem(scenario, demands, assoc)
        cuts.append(cut)
        if math.isfinite(M):
            value = alpha * M + (1.0 - alpha) * float((dcoef * assoc.x).sum())
            if value < psi_upper:
                psi_upper, omega, best, power = value, t, assoc, cut.power
            if trace.epsilon is None:
                trace.epsilon = 1e-6 * (1.0 + abs(psi_upper))
        try:
            master = solve_master(scenario, demands, placement, cuts, alpha, table)
        except MasterInfeasibleError:
            raise NoFeasibleAssociationError(
                "feasibility cuts exclude every association"
            ) from None
        trace.iterations.append(
            IterationRecord(
                t=t,
                psi_lower=master.value,
                psi_upper=psi_upper,
                subproblem_status="bounded" if math.isfinite(M) else "unbounded",
                M=M,
                omega=omega,
            )
        )
        if trace.epsilon is not None and psi_upper - master.value <= trace.epsilon:
            trace.converged = True
            break
        assoc = master.assoc

    if best is None:
        raise IterationBudgetError(
            "no power-feasible association found within the iteration budget"
        )
    trace.omega = omega
    power = PowerVector(power)
    trace.final_objective = objective(
        scenario, demands, placement, best, power, alpha
    ).weighted
    return UcwtResult(assoc=best, power=power, trace=trace)
