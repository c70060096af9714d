"""Benders decomposition of the joint user-association / power-control problem.

The continuous subproblem is the minimum-energy power control for a fixed
association; ``solve_subproblem`` builds each cut straight from its answer,
an optimality cut from the multipliers of a feasible association and a
feasibility cut from the Farkas ray of an infeasible one. The master picks the
association, minimizing the weighted energy lower bound plus total
delivery delay over all collected cuts. It is solved exactly, with no
LP, and reads a feasibility cut as a no-good: no association may hold
every (user, SBS) pair of its support, the combinatorial Benders cut of
Codato & Fischetti (Oper. Res. 2006). Its table (``_CutTable``) is given
a conflict seed once, a boolean array of the user pairs that cannot be
served together, and lists the associations that hold no seeded conflict
by extending conflict-free prefixes one user at a time. While no prefix
level passes ``_MASTER_ENUMERATION_LIMIT`` rows, the master is
enumerated: the table keeps a running objective at the run's alpha over
those rows and scores each cut of a ``ucwt`` run once on them.
Otherwise a depth-first search over users bounds each optimality cut
over the completions of a partial association by its fixed terms plus
each free user's least coefficient, and prunes a child as soon as its
user conflicts alone or with a user fixed before it, or completes a
no-good.

For a binary association, the assigned users' SINR rows form a standard
interference function (Yates 1995), so the minimum transmit powers are its
least fixed point. ``_min_power`` finds it by policy iteration over one
binding user per SBS, which needs only B x B linear solves, and reads the
optimality duals, or a Farkas ray cut down to an irreducible infeasible
subsystem, from the same solves. Every float answer is verified; one that
fails is answered again by the same policy iteration in exact rational
arithmetic on the same float rows, so the verdict is exact. No solver
path runs the simplex of ``lp``. ``min_power_for``, the
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
bound is the exact master's optimum. When the seed and the feasibility
cuts exclude every association, the master raises
``model.InfeasibleInstanceError``, the one proof of an infeasible
instance that every solver gives; a spent budget with no incumbent is
``IterationBudgetError``, and an exact run without a certificate is
``SolverFault``, a ``RuntimeError`` and not a ``ModelError``. Every cut
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
    InfeasibleInstanceError,
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
# policy iteration: steps before giving up, and the relative gain in a
# user's power requirement that moves its SBS's binding row to it in float64
_POLICY_STEPS = 50
_SWITCH_TOL = 1e-14
# a float infeasibility ray stands only if it proves some row or cap missed
# by this much relative to its norm, well above the strict check's
# tolerance; closer calls are re-solved in exact arithmetic
_RAY_MARGIN = 10 * lpmod.STRICT_TOL
# relative cap margin past which ``conflict_seed`` flags a two-user conflict
_CONFLICT_MARGIN = 1e-8

logger = logging.getLogger(__name__)

_EXCLUDED = "conflicts and feasibility cuts exclude every association"


class IterationBudgetError(ModelError):
    """The iteration budget ran out before any proposal was power-feasible.

    This is non-convergence, not a proof that the instance is infeasible.
    """


class SolverFault(RuntimeError):
    """An internal failure: exact policy iteration gave no certificate.

    A guard: it ran out of steps, or no ray could be read off. Not a
    ``ModelError``: no handler of bad inputs or of an infeasible instance
    catches it.
    """


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

    An optimality cut constrains h <= eta. A feasibility cut is read as a
    no-good: its support, the (user, SBS) pairs where ``coef`` is nonzero,
    holds the rows of an infeasible subsystem, so the master excludes
    every association that holds all of those pairs (Codato & Fischetti,
    Oper. Res. 2006), however small h is there; ``value`` and
    ``magnitude`` serve checks of the affine form h <= 0. A subproblem's
    optimality cut also carries the minimum powers it was read from, so
    ``ucwt`` need not solve its incumbent again.
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
        """Scale of the cut's data, for relative checks of its affine value."""
        return max(1.0, abs(self.constant), float(np.abs(self.coef).max()))


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
    violation = nu @ b - mu @ pmax
    if violation > 0:
        mu, nu = mu / violation, nu / violation
    return _PowerAnswer(None, mu, nu)


class _InterferenceSystem:
    """The SINR rows of a binary association in fixed-point form.

    User i served by SBS a(i) needs p_a(i) >= u_i + sum_l C[i, l] p_l with
    u_i = gamma_i N / g_i,a(i) and C[i, l] = gamma_i g_il / g_i,a(i) off its
    own SBS (0 on it). A set ``S`` of users, at most one per SBS, gives
    the square system (I - F_S) p = u_S over the SBSs serving them; row i
    of ``A`` divided by g_i,a(i) holds row i of I - C. ``b`` and ``pmax``
    are kept for the rays. Arithmetic is in float64, factors are LAPACK
    LU factors, and a binding row moves only on a relative gain past
    ``_SWITCH_TOL``.
    """

    switch_gain = 1.0 + _SWITCH_TOL

    def __init__(
        self, A: np.ndarray, b: np.ndarray, assigned: np.ndarray, pmax: np.ndarray
    ):
        users = np.arange(len(b))
        self.b, self.pmax = b, pmax
        self.assigned = assigned
        self.cap = pmax[assigned]          # per user, the cap of its SBS
        self.own = A[users, assigned]
        self.normalized = A / self.own[:, None]
        self.C = -self.normalized
        self.C[users, assigned] = 0
        self.u = b / self.own

    def factor(self, S: np.ndarray):
        """LU factors of I - F_S, or None if it is exactly singular."""
        lu, piv, info = dgetrf(self.normalized[S][:, self.assigned[S]])
        return None if info != 0 else (lu, piv)

    def solve(self, factors, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        """x of (I - F_S) x = rhs, or of its transpose if ``trans``."""
        return dgetrs(*factors, rhs, trans=trans)[0]

    def least_powers(self, S: np.ndarray):
        """(factors, p) of (I - F_S) p = u_S; p is None when no p > 0 solves it.

        For F_S >= 0 and u_S > 0 a positive solution exists exactly when
        the spectral radius of F_S is below 1, and it is then the least
        p meeting the rows of S.
        """
        factors = self.factor(S)
        if factors is None:
            return None, None
        p = self.solve(factors, self.u[S])
        return factors, (p if p.min() > 0 else None)

    def most_demanding(self, r: np.ndarray) -> np.ndarray:
        """Per serving SBS in ascending order, its user of largest ``r``.

        Ties go to the lowest user index.
        """
        order = np.lexsort((-r, self.assigned))
        ranked = self.assigned[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        return order[first]


class _ExactSystem(_InterferenceSystem):
    """The same system over the exact rational values of its float rows.

    A, b, p_max and T become ``fractions.Fraction``s in object arrays.
    Factors are exact inverses, by Gauss-Jordan elimination, and a binding
    row moves on any strict gain, so policy iteration and the deletion
    filter give the exact verdict on the float rows.
    """

    switch_gain = 1

    def __init__(
        self, A: np.ndarray, b: np.ndarray, assigned: np.ndarray, pmax: np.ndarray,
        T: np.ndarray,
    ):
        # imported here: only an unverified answer needs it, and loading it
        # would raise the peak memory of every run
        from fractions import Fraction

        exact = np.frompyfunc(Fraction, 1, 1)
        super().__init__(exact(A), exact(b), assigned, exact(pmax))
        self.T = exact(T)

    def factor(self, S: np.ndarray) -> Optional[np.ndarray]:
        """The exact inverse of I - F_S, or None if it is singular."""
        k = len(S)
        G = np.hstack([self.normalized[S][:, self.assigned[S]], np.eye(k, dtype=object)])
        for c in range(k):
            nonzero = np.flatnonzero(G[c:, c])
            if nonzero.size == 0:
                return None
            G[[c, c + nonzero[0]]] = G[[c + nonzero[0], c]]
            G[c] = G[c] / G[c, c]
            others = np.arange(k) != c
            G[others] -= np.outer(G[others, c], G[c])
        return G[:, k:]

    def solve(self, factors, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        return (factors.T if trans else factors) @ rhs


def _policy_iteration(
    system: _InterferenceSystem, T: np.ndarray
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
    It computes in the system's arithmetic, float64 or exact, with T in
    the same.
    """
    assigned = system.assigned
    sigma = system.most_demanding(system.u)
    for _ in range(_POLICY_STEPS):
        factors, p_sigma = system.least_powers(sigma)
        if p_sigma is None or (p_sigma > system.cap[sigma]).any():
            return _irreducible_ray(system, sigma, factors, p_sigma)
        cols = assigned[sigma]
        p = np.zeros_like(system.pmax)
        p[cols] = p_sigma
        r = system.u + system.C @ p
        best = system.most_demanding(r)
        switch = r[best] > r[sigma] * system.switch_gain
        if not switch.any():
            # optimality duals: w = (I - F)^-T T on the serving SBSs, with
            # nu = w / g_own on the binding rows and mu = 0
            w = system.solve(factors, T[cols], trans=1)
            nu = np.zeros_like(system.b)
            nu[sigma] = w / system.own[sigma]
            return _PowerAnswer(p, np.zeros_like(system.pmax), nu, float(T @ p))
        sigma = np.where(switch, best, sigma)
    return None


def _irreducible_ray(
    system: _InterferenceSystem, S: np.ndarray, factors, p: Optional[np.ndarray],
) -> Optional[_PowerAnswer]:
    """Farkas ray of an irreducible infeasible subsystem within the users ``S``.

    ``S`` holds at most one user per SBS and is infeasible; ``factors``
    and ``p`` are what ``least_powers(S)`` returned for it. A deletion
    filter drops its users in index order while the rest stays
    infeasible, which leaves an irreducible infeasible subsystem (IIS): a
    cut from it excludes every association holding those few pairs, where
    the full certificate would exclude only those holding all of ``S``.
    The ray follows from one more solve on the IIS. Returns None if no ray
    can be read off (a numerical edge case).
    """
    for i in np.sort(S):
        rest = S[S != i]
        if rest.size == 0:
            continue
        rest_factors, q = system.least_powers(rest)
        if q is None or (q > system.cap[rest]).any():
            S, factors, p = rest, rest_factors, q
    cols = system.assigned[S]
    mu = np.zeros_like(system.pmax)
    if p is not None:
        # spectral radius below 1: the most exceeded cap j, with
        # w = (I - F)^-T e_j and mu = e_j
        k = int(np.argmax(p / system.cap[S]))
        e = np.zeros_like(p)
        e[k] = 1
        w = system.solve(factors, e, trans=1)
        mu[cols[k]] = 1
    else:
        # spectral radius at least 1 and every proper subset feasible:
        # w = (1, w') with (I - F')^T w' = F[first, rest] keeps the other
        # SBSs' columns tight, and the first one's column is then <= 0
        factors = system.factor(S[1:]) if S.size > 1 else None
        if factors is None:
            return None
        head = system.C[S[0], cols[1:]]
        w = np.concatenate([[1], system.solve(factors, head, trans=1)])
    nu = np.zeros_like(system.b)
    nu[S] = w.clip(min=0) / system.own[S]
    return _ray(mu, nu, system.b, system.pmax)


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
    cap misses by more than the strict check at ``STRICT_TOL`` lets pass.
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

    Policy iteration on the interference system answers in float64. An
    answer that fails ``_verified`` is logged and answered again by the
    same algorithm in exact arithmetic on the same float rows: from a
    float ray's support if that is exactly infeasible, else from the
    start. The exact answer is rounded to floats, with energy T p.
    Raises ``SolverFault`` when the exact run gives no certificate.
    """
    A, b = _sinr_rows(scenario, demands, assigned)
    T = serving_time(scenario, demands, None, "relaxed")
    pmax = scenario.max_power
    answer = _policy_iteration(_InterferenceSystem(A, b, assigned, pmax), T)
    if answer is not None and _verified(A, b, pmax, T, answer):
        return answer
    logger.warning(
        "structured power control unverified for assignment %s; re-solving exactly",
        assigned.tolist(),
    )
    exact = _ExactSystem(A, b, assigned, pmax, T)
    found = None
    if answer is not None and answer.power is None:
        S = np.flatnonzero(answer.nu)
        factors, p = exact.least_powers(S)
        if p is None or (p > exact.cap[S]).any():
            found = _irreducible_ray(exact, S, factors, p)
    found = found or _policy_iteration(exact, exact.T)
    if found is None:
        raise SolverFault("exact power control gave no certificate")
    power = None if found.power is None else found.power.astype(float)
    energy = math.inf if power is None else float(T @ power)
    return _PowerAnswer(power, found.mu.astype(float), found.nu.astype(float), energy)


def reachable_sbs(scenario: Scenario, demands: DemandMatrix) -> np.ndarray:
    """Boolean (user, SBS) mask: SINR requirement met at full power, no interference.

    Interference only raises a user's power requirement, so an association
    holding an excluded pair has no feasible powers: the user's least power
    u_i exceeds the cap, and a 1e-12 relative slack keeps a pair on that
    boundary. ``_min_power``'s verdict is exact on the float rows, so it
    rejects every association holding an excluded pair; the slack only
    keeps a few pairs it rejects too.
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
    (1e-8) on its caps, so that the rounding of this closed form cannot
    flag a pair that ``min_power_for``'s exact verdict accepts; a missed
    conflict costs one Benders iteration, a wrong one an answer.
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
    cut absorbed so far and at least 0, or +inf where the row holds every
    pair of a feasibility cut's support. Each optimality cut of a growing
    list is scored once, on the rows only, as its constant plus
    sum_i coef[i, a_i] added from the last user to the first, the order
    of ``_search_master``'s bounds. The
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
            if cut.kind == "feasibility":
                users, sbs = np.nonzero(cut.coef)
                self.value[(self.rows[:, users] == sbs).all(axis=1)] = np.inf
            else:
                h = cut.constant + self._score(cut.coef)
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
            raise InfeasibleInstanceError(_EXCLUDED)
        k = int(np.argmin(self.value))
        # the rows hold valid SBS indices by construction
        assoc = Association._unchecked(self.rows[k], self.shape[1])
        return MasterSolution(assoc=assoc, value=float(self.value[k]))


def _search_master(table: _CutTable, cuts: Sequence[Cut]) -> MasterSolution:
    """Exact master by depth-first search over users 0..U-1, SBSs in index order.

    It reads the delay coefficients, alpha and the conflict seed from a
    ``table`` whose build gave up (``rows`` None). Each optimality cut is
    affine in x, so over the completions of a partial association it is
    least at its fixed users' terms plus each free user's least
    coefficient; the delay is bounded the same way. Each bound adds its
    terms in the order ``_CutTable`` adds a row's, so, rounding being
    monotone, no leaf scores below the bound of a child above it, and a
    leaf's bound is its score, bit for bit. A child is pruned when the
    seed excludes its user alone or with a user fixed before it, when it
    completes the support of a feasibility cut (the pairs held are counted
    per cut along the path), or when its bound reaches the incumbent. A
    leaf replaces the incumbent only if strictly better, so ties keep the
    lexicographically first association, as enumeration does.
    """
    conflict, alone = table.conflict, table.alone
    U, B = table.dcoef.shape
    users = np.arange(U)
    optimality = [c for c in cuts if c.kind == "optimality"]
    # rows: optimality cuts, then the delay
    k_delay = len(optimality)
    coef = np.stack([c.coef for c in optimality] + [table.dcoef])
    const = np.array([c.constant for c in optimality] + [0.0])[:, None]
    # tail[:, d]: least sum of each row's terms over the users d..U-1,
    # added from the last user, as a leaf adds them
    tail = np.zeros((k_delay + 1, U + 1))
    tail[:, :U] = np.cumsum(coef.min(axis=2)[:, ::-1], axis=1)[:, ::-1]
    # per feasibility cut, its support pairs as 0/1 and their number
    supports = [c.coef != 0 for c in cuts if c.kind == "feasibility"]
    pairs = np.array(supports, dtype=np.intp).reshape(-1, U, B)
    size = pairs.sum(axis=(1, 2))[:, None]
    assigned = np.zeros(U, dtype=int)
    best_value, best_assigned = math.inf, None

    def visit(d: int, held: np.ndarray) -> None:
        nonlocal best_value, best_assigned
        # per row, per SBS of user d: the tail, then the users d..0
        low = tail[:, d + 1, None] + coef[:, d, :]
        for i in range(d - 1, -1, -1):
            low += coef[:, i, assigned[i], None]
        low += const
        eta = low[:k_delay].max(axis=0, initial=0.0)
        bound = table.alpha * eta + (1.0 - table.alpha) * low[k_delay]
        held = held[:, None] + pairs[:, d, :]       # per cut, per SBS of user d
        blocked = alone[d] | conflict[d, :, users[:d], assigned[:d]].any(axis=0)
        bound[blocked | (held == size).any(axis=0)] = math.inf
        for j, least in enumerate(bound.tolist()):
            if least >= best_value:
                continue
            assigned[d] = j
            if d + 1 < U:
                visit(d + 1, held[:, j])
            else:
                best_value, best_assigned = least, assigned.copy()

    visit(0, np.zeros(len(pairs), dtype=np.intp))
    if best_assigned is None:
        raise InfeasibleInstanceError(_EXCLUDED)
    return MasterSolution(
        assoc=Association.from_assignment(best_assigned, B), value=best_value
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

    Optimality cuts bound the energy; a feasibility cut excludes every
    association that holds all the pairs of its support, with no
    threshold on its affine value. ``table`` (a ``_CutTable``) carries the conflict seed, which excludes
    every association holding one of its conflicts, and the master
    objective at ``alpha`` over the cuts passed on earlier calls with the
    same growing ``cuts`` list, so only the new cuts are scored. Without
    one, a fresh table with no seed scores them all. ``ucwt`` keeps one
    table per run, so each of its cuts is scored once. Raises
    ``ModelError`` if ``table`` was built for another ``alpha``. Where the
    table holds its conflict-free rows, they are enumerated, keeping the
    lexicographically first optimum; where its build gave up
    (``rows`` None), the master is searched depth first
    (``_search_master``) with the same tie rule and the same value, bit
    for bit. Both paths are deterministic.
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
    conflicting pair of SBSs. The master raises ``InfeasibleInstanceError``
    when the seed excludes every association (e.g. some user reaches no
    SBS), before any subproblem, or when feasibility cuts exclude the
    rest. Starts from the master's answer with no cut (the least-delay
    conflict-free association, the lexicographically first one at
    alpha = 1); alternates subproblem and master solves for
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
    assoc = solve_master(scenario, demands, placement, cuts, alpha, table).assoc
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
        master = solve_master(scenario, demands, placement, cuts, alpha, table)
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
