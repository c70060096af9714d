"""Benders decomposition of the joint user-association / power-control problem.

The continuous subproblem is the minimum-energy power control for a fixed
association; ``solve_subproblem`` builds each cut straight from its answer,
an optimality cut from the multipliers of a feasible association and a
feasibility cut from the Farkas ray of an infeasible one. An optimality
cut is stored shifted by each user's sum_j x_ij = 1, so that at its own
association it is the dual value, the energy, with no cancellation: under
paper physics the unshifted terms are 1e11 to 1e12 times the energy. The
master picks the association, minimizing the weighted energy lower bound plus total
delivery delay over all collected cuts. It is solved exactly, with no
LP, and reads a feasibility cut as a no-good: no association may hold
every (user, SBS) pair of its support, the combinatorial Benders cut of
Codato & Fischetti (Oper. Res. 2006). Its table (``_CutTable``) is built
over a ``_ConflictFree``, which is given a conflict seed once, a boolean
array of the user pairs that cannot be served together, and lists the
associations that hold no seeded conflict by extending conflict-free
prefixes one user at a time. It is also given an energy floor once,
per (user, SBS) pair the energy of that user's least power alone there,
and counts it as one more lower bound on the energy: per SBS the
largest term among its users, summed over the SBSs.
While no prefix level passes ``_MASTER_ENUMERATION_LIMIT`` rows, the
master is enumerated: the table keeps a running objective at the run's
alpha over those rows, scores the floor once and each cut of a ``ucwt``
run once on them. Otherwise it is searched depth first over blocks of
prefixes, extended by the build's own step. One valuation serves both
paths: a block is valued by a table of its own over ``_Rows`` that leave
the later users free, each adding its least coefficient to a cut, no
term to the floor and no pair to a no-good. So a prefix's value bounds
each completion's from below, and a whole association's is the table's,
bit for bit. Each cut carries the form the master reads, prepared once
on first use: a no-good's support, and an optimality cut's coefficients
followed by their per-user least ones (``_terms``), so one gather scores
a table row and a search prefix alike.

For a binary association, the assigned users' SINR rows form a standard
interference function (Yates 1995), so the minimum transmit powers are its
least fixed point. ``_min_power`` finds it by policy iteration over one
binding user per SBS, which needs only B x B linear solves (a 1 x 1 one
without LAPACK), and reads the optimality duals, or a Farkas ray cut down
to an irreducible infeasible subsystem, from the same solves. Its rows
come from ``_SinrRows``, the one table of an instance's per-pair facts,
built once per instance (per oracle enumeration, per ``InstanceMaster``
and per doa/ema call). An association gathers its users' rows from it
once per solve, into the system that both solves and verifies the
answer. Every float answer is verified, powers row by row and a ray's
margin against their own terms in watts, so the check reads the same in
any unit of power; one that fails, a near-tie, is answered again
by the same policy iteration in exact rational arithmetic, on that very
system's rows converted to rationals, so the verdict is exact on the rows
that failed their check and no solve gathers its rows twice. No solver
path runs or imports the simplex of ``lp``. ``min_power_for``, the
subproblem, power recovery, the baselines and the oracle all take their
powers and their feasible/infeasible verdict from it. The same table gives every solver the serving times
and the one verdict on which (user, SBS) pairs can serve at all
(``reach``, which ``reachable_sbs`` returns): a user that misses its
SINR threshold at an SBS even alone at full power.

``ucwt`` gives the master ``conflict_seed``, read off the same table:
every such pair, and every two users at two SBSs whose 2 x 2 least
fixed point misses a cap (closed form). Each excludes all associations
holding it, so no iteration is spent learning one- or two-user
conflicts one subproblem at a time, and no association it solves holds
one. It also gives the
master ``energy_floor``, a valid a-priori bound in the manner of
logic-based Benders (Hooker & Ottosson, Math. Prog. 2003) that is exact
at a single-SBS association, so an association's energy bound does not
wait for a cut of its own. The seed, the floor, their conflict-free rows
and a memo of subproblem answers form an ``InstanceMaster``: none of it
depends on the placement or on alpha, so a caller that solves one
instance more than once builds it once and passes it to each ``ucwt``
call, whose answers stay those of independent calls. It starts from the
master's answer over the seed and the floor alone. Following Benders
(1962), its upper bound is the best subproblem value seen so far, kept
as a single incumbent with the powers of the subproblem that found it,
and its lower bound is the exact master's optimum; it stops at a gap
relative to the first upper bound, as energies under paper physics lie
far below 1 J. When the seed and the feasibility cuts exclude every
association, the master raises ``model.InfeasibleInstanceError``, the
one proof of an infeasible instance that every solver gives; a spent
budget with no incumbent is ``IterationBudgetError``, and an exact run
without a certificate is ``SolverFault``, a ``RuntimeError`` and not a
``ModelError``. Every cut
is kept: an exact master re-proposes an association whose cut it holds
only once the gap has closed. The trace's cut list is the master's, one
cut per iteration.

The SINR constraints are activated per assigned pair via the constant
``varrho``: for non-assigned pairs the slack term 1/varrho dominates any
feasible interference level, so the relaxed constraint set has the same
optimum as the assigned-only one. A stored optimality cut charges that
slack, nu_i / varrho, at each SBS other than user i's own.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .model import (
    Association,
    CachePlacement,
    DemandMatrix,
    InfeasibleInstanceError,
    ModelError,
    PowerVector,
    Scenario,
    delay_coefficients,
    requested_thresholds,
    serving_time,
    weighted,
    _check_alpha,
    _check_shape,
    _frozen,
)

DEFAULT_MAX_ITERS = 500
# while no prefix level of the conflict-free associations holds more rows
# than this, the master is solved by vectorized enumeration; otherwise by a
# depth-first search over blocks of prefixes, valued by the same table
# code. With no seed, that is B**U rows.
_MASTER_ENUMERATION_LIMIT = 20_000
# prefixes per block of that search, whose children are valued together.
# On desk B=9 (tools/master_sets.py, 6 solves, 2 vCPUs, three runs each)
# 64 took 6.3-8.0 s, against 9.0-12.1 s at 16, 7.9-8.4 s at 32, 7.9-8.2 s
# at 128 and 6.9-8.8 s at 256: smaller blocks score each cut more often,
# larger ones value children that a better incumbent would have pruned
_SEARCH_BLOCK = 64
# policy iteration: steps before giving up, and the relative gain in a
# user's power requirement that moves its SBS's binding row to it in float64
_POLICY_STEPS = 50
_SWITCH_TOL = 1e-14
# strict row check of float powers, relative: row i may miss by this much of
# its own terms in watts, b_i + |A_i| p. That is 25 times the largest
# shortfall of reported powers on desk U=6 seeds 0-19 (4.0e-14), so at any
# unit of power only near-ties go to the exact re-run
_STRICT_TOL = 1e-12
# a float ray must prove a miss ten times what the strict check forgives at
# any p in [0, p_max], in the same watts, so no powers that pass that check
# can also meet the ray's rows and the two verdicts never both stand; closer
# calls are re-solved in exact arithmetic
_RAY_MARGIN = 10 * _STRICT_TOL
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


@dataclass(frozen=True)
class Cut:
    """The affine map X -> h(X, mu, nu) as constant + sum coef_ij x_ij.

    An optimality cut constrains h <= eta. It is stored shifted: over
    associations, where sum_j x_ij = 1 for each user i, the paper's h
    equals the dual value N gamma.nu - p_max.mu (the ``constant``) minus
    nu_i / varrho at each SBS other than user i's own. So its value at
    its own association is its energy, exact to rounding, where the
    paper's form adds terms far larger than that energy under paper
    physics. A feasibility cut keeps the paper's form. It is read as a
    no-good: its support, the (user, SBS) pairs where ``coef`` is nonzero,
    holds the rows of an infeasible subsystem, so the master excludes
    every association that holds all of those pairs (Codato & Fischetti,
    Oper. Res. 2006), however small h is there; ``value`` and
    ``magnitude`` serve checks of the affine form h <= 0. A subproblem's
    optimality cut also carries the minimum powers it was read from, so
    ``ucwt`` need not solve its incumbent again. Both arrays are stored as
    read-only copies. The master reads each cut in the form it needs,
    prepared on first use and then kept, read-only: a feasibility cut's
    ``support`` and an optimality cut's ``terms``. Every table and every
    search block that absorbs the cut reads that one form, and a cut that
    an ``InstanceMaster`` memoized keeps it across runs.
    """

    constant: float
    # U x B, from a subproblem: -nu / varrho off the own pairs (optimality),
    # nu / varrho on them (feasibility)
    coef: np.ndarray
    kind: str                  # "optimality" | "feasibility"
    power: Optional[np.ndarray] = None

    def __post_init__(self):
        # a cut that an ``InstanceMaster`` memoized sits in several runs' traces
        object.__setattr__(self, "coef", _frozen(self.coef))
        if self.power is not None:
            object.__setattr__(self, "power", _frozen(self.power))

    def value(self, x) -> float:
        """Evaluate h at a (possibly fractional) association matrix."""
        X = np.asarray(x.x if isinstance(x, Association) else x, dtype=float)
        return float(self.constant + (self.coef * X).sum())

    @property
    def magnitude(self) -> float:
        """Scale of the cut's data, for relative checks of its affine value."""
        return max(1.0, abs(self.constant), float(np.abs(self.coef).max()))

    @cached_property
    def support(self) -> np.ndarray:
        """``np.nonzero(coef)`` stacked: the users, then the SBSs of the no-good."""
        support = np.array(np.nonzero(self.coef))
        support.setflags(write=False)
        return support

    @cached_property
    def terms(self) -> np.ndarray:
        """``_terms(coef)``: the vector that ``_Rows.score`` gathers."""
        return _terms(self.coef)


def _terms(coef: np.ndarray) -> np.ndarray:
    """A U x B ``coef`` flattened, then its U per-user least coefficients; read-only.

    Entry i * B + j is coef[i, j] and entry U * B + i is min_j coef[i, j],
    the term of user i where a row leaves it free.
    """
    terms = np.concatenate((coef.ravel(), coef.min(axis=1)))
    terms.setflags(write=False)
    return terms


class _SinrRows:
    """An instance's per-pair facts, one row per (user, SBS) pair, built once.

    Every solver reads them from here: ``reach``, the (U, B) mask of the
    pairs that can serve at all (``reachable_sbs``), the serving times T,
    the thresholds gamma (read once per instance), and each pair's SINR
    row. Pair (i, j), user i served by SBS j, is row i * B + j of each
    per-pair array. Its SINR requirement is A p >= b_i: the row of A is
    -gamma_i g_i with g_ij in column j, and b = gamma N. In fixed-point
    form it reads p_j >= u + C p, with u = b_i / g_ij and the row of C
    gamma_i g_i / g_ij off column j (0 in it); ``normalized`` is the row
    of A over g_ij, exactly 1 in column j, so the row of I - C. ``scale``
    holds each row's size in watts, b_i + |A| p_max, which bounds its terms
    at any powers within the caps: the one scale of ``_verified``'s ray
    check, so that check reads the same at every unit of power; p_max and
    ``varrho`` complete what every power solve, subproblem cut and master
    seed of the instance reads. A binary association gathers its users'
    rows (``pairs``) once per solve, into the ``_InterferenceSystem``
    that solves and verifies it; each array is the float expression a
    per-association build would compute, so every answer is the same bit
    for bit. Tied to the ``scenario`` and ``demands`` objects it was
    built from.
    """

    def __init__(self, scenario: Scenario, demands: DemandMatrix):
        self.scenario, self.demands = scenario, demands
        g = scenario.channel_gains
        U, B = g.shape
        self.first = np.arange(U) * B      # row of pair (i, 0)
        self.gamma = requested_thresholds(scenario, demands)
        self.b = self.gamma * scenario.noise_power
        self.g = g.ravel()
        self.u = (self.b[:, None] / g).ravel()
        self.T = serving_time(scenario, demands, None, "relaxed")
        self.pmax = scenario.max_power
        best = g * self.pmax[None, :]
        self.reach = best / scenario.noise_power >= self.gamma[:, None] * (1 - 1e-12)
        self.A = (-self.gamma[:, None] * g).repeat(B, axis=0)
        # column j of row (i, j): the diagonal of user i's B x B block
        self.A.reshape(U, B * B)[:, :: B + 1] = g
        self.scale = self.b.repeat(B) + np.abs(self.A) @ self.pmax
        self.normalized = self.A / self.g[:, None]
        self.C = -self.normalized
        self.C.reshape(U, B * B)[:, :: B + 1] = 0

    @cached_property
    def varrho(self) -> float:
        """SINR-deactivation constant: min_i 1 / (gamma_i ((I-1) p_max g_max + noise)).

        I is the SBS count, so 1/varrho exceeds any user's threshold times
        the worst-case interference-plus-noise level. Only the subproblem's
        cuts read it.
        """
        worst = (len(self.pmax) - 1) * float(self.pmax.max()) * float(self.g.max())
        return float(1.0 / (self.gamma.max() * (worst + self.scenario.noise_power)))

    def pairs(self, assigned: np.ndarray) -> np.ndarray:
        """Rows of the pairs (i, assigned[i]), one per user."""
        return self.first + assigned


def _rows_for(
    scenario: Scenario, demands: DemandMatrix, rows: Optional[_SinrRows]
) -> _SinrRows:
    """``rows`` if built from these very objects (else ``ModelError``), or new rows."""
    if rows is None:
        return _SinrRows(scenario, demands)
    if rows.scenario is not scenario or rows.demands is not demands:
        raise ModelError("the SINR rows were built for another scenario or demands")
    return rows


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


# the factors of a 1 x 1 system: I - F_S is [[g_ij / g_ij]], exactly [[1.0]]
_UNIT = object()


class _InterferenceSystem:
    """The SINR rows of a binary association in fixed-point form.

    User i served by SBS a(i) needs p_a(i) >= u_i + sum_l C[i, l] p_l,
    its rows gathered from the instance's ``_SinrRows`` by the
    constructor, the one gather of a solve: the exact re-run converts
    this system (``_ExactSystem``) and gathers nothing. A
    set ``S`` of users, at most one per SBS, gives the square system
    (I - F_S) p = u_S over the SBSs serving them; ``normalized`` holds the
    rows of I - C. ``b`` and ``pmax`` are kept for the rays, and the
    association's rows of A and their scales in watts for ``_verified``,
    which checks the float answer against this system. Arithmetic is in
    float64, factors are LAPACK LU factors (a 1 x 1 system is solved as
    it stands), and a binding row moves only on a relative gain past
    ``_SWITCH_TOL``.
    """

    switch_gain = 1.0 + _SWITCH_TOL
    dtype = float

    def __init__(self, rows: _SinrRows, assigned: np.ndarray):
        self.assigned = assigned
        # per serving SBS in ascending order, the users it does not serve
        serving = np.array(sorted(set(assigned.tolist())))
        self.others = assigned != serving[:, None]
        pairs = rows.pairs(assigned)
        self.b, self.pmax, self.T = rows.b, rows.pmax, rows.T
        self.caps = rows.pmax[assigned].tolist()   # per user, the cap of its SBS
        self.A, self.scale = rows.A[pairs], rows.scale[pairs]
        self.own = rows.g[pairs]
        self.normalized = rows.normalized[pairs]
        self.C = rows.C[pairs]
        self.u = rows.u[pairs]

    def factor(self, S: np.ndarray):
        """LU factors of I - F_S, or None if it is exactly singular."""
        if len(S) == 1:
            return _UNIT
        lu, piv, info = dgetrf(self.normalized[S[:, None], self.assigned[S]])
        return None if info != 0 else (lu, piv)

    def solve(self, factors, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        """x of (I - F_S) x = rhs, or of its transpose if ``trans``."""
        if factors is _UNIT:
            return rhs
        return dgetrs(*factors, rhs, trans=trans)[0]

    def least_powers(self, S: np.ndarray):
        """(factors, p, within) for (I - F_S) p = u_S.

        ``p`` is None when no p > 0 solves it, and ``within`` says that p
        exists and meets the caps of S's SBSs. For F_S >= 0 and u_S > 0 a
        positive solution exists exactly when the spectral radius of F_S
        is below 1, and it is then the least p meeting the rows of S.
        """
        factors = self.factor(S)
        if factors is None:
            return None, None, False
        p = self.solve(factors, self.u[S])
        values = p.tolist()
        if not all(x > 0 for x in values):
            return factors, None, False
        caps = self.caps
        return factors, p, all(x <= caps[i] for x, i in zip(values, S.tolist()))

    def most_demanding(self, r: np.ndarray) -> np.ndarray:
        """Per serving SBS in ascending order, its user of largest ``r``.

        Ties go to the lowest user index: ``argmax`` keeps the first.
        """
        return np.where(self.others, -np.inf, r).argmax(axis=1)


class _ExactSystem(_InterferenceSystem):
    """A float system, the one that failed its check, over exact rationals.

    Built from that ``_InterferenceSystem``: it keeps its ``assigned`` and
    ``others`` mask, and its gathered rows of A, and its b, p_max and T,
    become ``fractions.Fraction``s in object arrays, from which the
    fixed-point form is derived exactly. So the exact verdict is on the
    very rows that ``_verified`` rejected. Factors are exact
    inverses, by Gauss-Jordan elimination, and a binding row moves on any
    strict gain, so policy iteration and the deletion filter give the
    exact verdict on the float rows.
    """

    switch_gain = 1
    dtype = object

    def __init__(self, system: _InterferenceSystem):
        # imported here: only an unverified answer needs it, and loading it
        # would raise the peak memory of every run
        from fractions import Fraction

        exact = np.frompyfunc(Fraction, 1, 1)
        assigned = self.assigned = system.assigned
        self.others = system.others
        users = np.arange(len(assigned))
        self.A = exact(system.A)
        self.b, self.pmax = exact(system.b), exact(system.pmax)
        self.T = exact(system.T)
        self.caps = self.pmax[assigned].tolist()
        self.own = self.A[users, assigned]
        self.normalized = self.A / self.own[:, None]
        self.C = -self.normalized
        self.C[users, assigned] = 0
        self.u = self.b / self.own

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


def _policy_iteration(system: _InterferenceSystem) -> Optional[_PowerAnswer]:
    """Least powers of a binary association by policy iteration, with certificate.

    The assigned rows form a standard interference function, so the least
    feasible powers are its least fixed point and minimize T p (T > 0).
    Each step fixes one binding user per serving SBS, solves the square
    system for it, and moves every SBS to its most demanding user at those
    powers. The powers only grow, stay below the least fixed point, and
    settle on it after finitely many steps, unless some step proves the
    association infeasible first: no positive solution (spectral radius
    >= 1) or a solution above a cap. Returns None if the steps run out.
    It computes in the system's arithmetic, float64 or exact.
    """
    assigned, T = system.assigned, system.T
    sigma = system.most_demanding(system.u)
    for _ in range(_POLICY_STEPS):
        factors, p_sigma, within = system.least_powers(sigma)
        if not within:
            return _irreducible_ray(system, sigma, factors, p_sigma)
        cols = assigned[sigma]
        p = np.zeros(len(system.pmax), system.dtype)
        p[cols] = p_sigma
        r = system.u + system.C @ p
        best = system.most_demanding(r)
        switch = r[best] > r[sigma] * system.switch_gain
        if not switch.any():
            # optimality duals: w = (I - F)^-T T on the serving SBSs, with
            # nu = w / g_own on the binding rows and mu = 0
            w = system.solve(factors, T[cols], trans=1)
            nu = np.zeros(len(system.b), system.dtype)
            nu[sigma] = w / system.own[sigma]
            mu = np.zeros(len(system.pmax), system.dtype)
            return _PowerAnswer(p, mu, nu, float(T @ p))
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
    users = S.tolist()
    for i in sorted(users):
        rest = [k for k in users if k != i]
        if not rest:
            continue
        rest_factors, q, within = system.least_powers(np.array(rest))
        if not within:
            users, factors, p = rest, rest_factors, q
    S = np.array(users)
    cols = system.assigned[S]
    mu = np.zeros(len(system.pmax), system.dtype)
    if p is not None:
        # spectral radius below 1: the most exceeded cap j, with
        # w = (I - F)^-T e_j and mu = e_j
        caps = system.caps
        excess = [x / caps[i] for x, i in zip(p.tolist(), users)]
        k = excess.index(max(excess))
        e = np.zeros(len(p), system.dtype)
        e[k] = 1
        w = system.solve(factors, e, trans=1)
        mu[cols[k]] = 1
    else:
        # spectral radius at least 1 and every proper subset feasible:
        # w = (1, w') with (I - F')^T w' = F[first, rest] keeps the other
        # SBSs' columns tight, and the first one's column is then <= 0
        factors = system.factor(S[1:]) if len(users) > 1 else None
        if factors is None:
            return None
        head = system.C[users[0], cols[1:]]
        w = np.concatenate([[1], system.solve(factors, head, trans=1)])
    nu = np.zeros(len(system.b), system.dtype)
    nu[S] = w.clip(min=0) / system.own[S]
    # rays are scale-free: normalize so the certified violation at this
    # association is exactly 1, keeping the resulting cut well scaled
    violation = nu @ system.b - mu @ system.pmax
    if violation > 0:
        mu, nu = mu / violation, nu / violation
    return _PowerAnswer(None, mu, nu)


def _verified(system: _InterferenceSystem, answer: _PowerAnswer) -> bool:
    """Whether the float ``system``'s answer passes the checks that let it stand.

    Both verdicts are checked relative to their own terms in watts, so
    they read the same at every unit of power. Powers lie in [0, p_max]
    and pass the strict row check, A_i p - b_i >= -``_STRICT_TOL``
    (b_i + |A_i| p); their duals nu, mu >= 0 satisfy A'nu - mu <= T. A
    ray nu, mu >= 0 satisfies the Farkas inequalities with a margin: over
    every p in [0, p_max], nu'(b - A p) + mu'(p - p_max) >= gain, where
    gain charges any positive part of A'nu - mu at p_max. The gain must
    exceed ``_RAY_MARGIN`` (nu's + mu'p_max), s the rows' ``scale``,
    b + |A| p_max. Powers that pass the row check have
    nu'(b - A p) <= ``_STRICT_TOL`` nu's, so none can also meet the rows
    of a ray that passes. A, b and the scales are the association's rows,
    which ``system`` gathered when it was built.
    """
    mu, nu = answer.mu, answer.nu
    if mu.min() < 0.0 or nu.min() < 0.0:
        return False
    A, b, pmax, T = system.A, system.b, system.pmax, system.T
    columns = nu @ A - mu
    if answer.power is not None:
        p = answer.power
        size = np.abs(A)
        return bool(
            p.min() >= 0.0
            and (p <= pmax).all()
            and (A @ p - b >= -_STRICT_TOL * (b + size @ p)).all()
            and (columns - T <= 1e-9 * (nu @ size + mu + T)).all()
        )
    gain = nu @ b - mu @ pmax - columns.clip(min=0.0) @ pmax
    return bool(gain > _RAY_MARGIN * (nu @ system.scale + mu @ pmax))


def _min_power(rows: _SinrRows, assigned: np.ndarray) -> _PowerAnswer:
    """Minimum powers of a binary association with their verified certificate.

    ``rows`` are the instance's; the association gathers its users' once,
    into its ``_InterferenceSystem``. Policy iteration on that system
    answers in float64. An answer that fails ``_verified`` is logged and
    answered again by the same algorithm on the same system converted to
    rationals (``_ExactSystem``): from a float ray's support if that is
    exactly infeasible, else from the start. The exact answer is rounded
    to floats, with energy T p.
    Raises ``SolverFault`` when the exact run gives no certificate.
    """
    system = _InterferenceSystem(rows, assigned)
    answer = _policy_iteration(system)
    if answer is not None and _verified(system, answer):
        return answer
    logger.warning(
        "structured power control unverified for assignment %s; re-solving exactly",
        assigned.tolist(),
    )
    exact = _ExactSystem(system)
    found = None
    if answer is not None and answer.power is None:
        S = np.flatnonzero(answer.nu)
        factors, p, within = exact.least_powers(S)
        if not within:
            found = _irreducible_ray(exact, S, factors, p)
    found = found or _policy_iteration(exact)
    if found is None:
        raise SolverFault("exact power control gave no certificate")
    power = None if found.power is None else found.power.astype(float)
    energy = math.inf if power is None else float(rows.T @ power)
    return _PowerAnswer(power, found.mu.astype(float), found.nu.astype(float), energy)


def reachable_sbs(scenario: Scenario, demands: DemandMatrix) -> np.ndarray:
    """Boolean (user, SBS) mask: SINR requirement met at full power, no interference.

    Interference only raises a user's power requirement, so an association
    holding an excluded pair has no feasible powers: the user's least power
    u_i exceeds the cap, and a 1e-12 relative slack keeps a pair on that
    boundary. ``_min_power``'s verdict is exact on the float rows, so it
    rejects every association holding an excluded pair; the slack only
    keeps a few pairs it rejects too. It is the ``reach`` of the
    instance's ``_SinrRows``, which every solver reads; this builds one.
    """
    return _SinrRows(scenario, demands).reach


def conflict_seed(rows: _SinrRows) -> np.ndarray:
    """Boolean K[i, j, k, l]: users i at SBS j and k at SBS l cannot both be served.

    The diagonal K[i, j, i, j] is ``~rows.reach`` (``reachable_sbs``'s
    mask), the one-user conflicts. Off it, users i != k at SBSs j != l
    conflict when the 2 x 2 system p_j >= u_i + c_i p_l,
    p_l >= u_k + c_k p_j (u the least power alone, c the normalized cross
    gain) has its least fixed point
    ((u_i + c_i u_k), (u_k + c_k u_i)) / (1 - c_i c_k) above a cap, or no
    positive one (c_i c_k >= 1). Users at one SBS do not interfere, so
    they conflict only through a singleton. Adding users only raises the
    least fixed point of a standard interference function (Yates 1995), so
    every association holding a conflict is infeasible: each entry is a
    combinatorial Benders cut (Codato & Fischetti, Oper. Res. 2006).

    A pair is flagged only past a relative margin of ``_CONFLICT_MARGIN``
    (1e-8) on its caps, so that the rounding of this closed form cannot
    flag a pair that ``min_power_for``'s exact verdict accepts; a missed
    conflict costs one Benders iteration, a wrong one an answer. The mask,
    u and c are read from the instance's ``rows``. The one-user conflicts
    are the diagonal of K viewed as a (U B, U B) matrix; each pair of SBSs
    j < l gives one (U, U) clash block, whose diagonal (a user with
    itself) is cleared, written at (j, l) and, transposed, at (l, j).
    """
    U, B = rows.reach.shape
    # c[i, j, l]: gamma_i g_il / g_ij, SBS l's interference on user i at j
    u, c = rows.u.reshape(U, B), rows.C.reshape(U, B, B)
    caps = rows.pmax * (1.0 + _CONFLICT_MARGIN)
    K = np.zeros((U, B, U, B), dtype=bool)
    # K[i, j, i, j] is the diagonal of K as a (U B, U B) matrix
    np.fill_diagonal(K.reshape(U * B, U * B), ~rows.reach)
    for j in range(B):
        for l in range(j + 1, B):
            # rows: user i at j; columns: user k at l
            cj, cl = c[:, j, l][:, None], c[:, l, j][None, :]
            uj, ul = u[:, j][:, None], u[:, l][None, :]
            det = 1.0 - cj * cl
            clash = (uj + cj * ul > caps[j] * det) | (ul + cl * uj > caps[l] * det)
            np.fill_diagonal(clash, False)
            K[:, j, :, l] = clash
            K[:, l, :, j] = clash.T
    return K


def energy_floor(rows: _SinrRows) -> np.ndarray:
    """(U, B) energy floor terms T_j u_ij, with u_ij = gamma_i N / g_ij.

    u_ij is user i's least power alone at SBS j. Adding users only raises
    the least fixed point of a standard interference function (Yates
    1995), so SBS j transmits at least the largest u_ij among its users,
    and every association's minimum energy is at least the sum over SBSs
    of T_j times that largest u_ij (0 for an SBS that serves no one). At a
    single-SBS association there is no interference and the floor is its
    energy. T and u are the instance's ``rows``, which ``_min_power``
    reads too, so there the two agree bit for bit.
    """
    return rows.T * rows.u.reshape(rows.scenario.channel_gains.shape)


def min_power_for(
    scenario: Scenario, demands: DemandMatrix, assoc: Association,
    rows: Optional[_SinrRows] = None,
) -> Optional[PowerVector]:
    """Minimum-energy powers for a fixed association, or None if infeasible.

    ``rows`` are the instance's ``_SinrRows``, built here when None. An
    association of another shape than (U, B) is a ``ModelError``.
    """
    _check_shape("association", assoc.x.shape, scenario.channel_gains.shape)
    rows = _rows_for(scenario, demands, rows)
    power = _min_power(rows, assoc.assigned_sbs).power
    return None if power is None else PowerVector(power)


def solve_subproblem(
    scenario: Scenario, demands: DemandMatrix, assoc: Association,
    rows: Optional[_SinrRows] = None,
) -> Tuple[Cut, float]:
    """Benders cut and minimum relaxed energy M at a fixed association.

    A feasible association gives an optimality cut and its energy M, an
    infeasible one a feasibility cut and M = +inf. The answer comes from
    ``_min_power``, as ``min_power_for``'s does, so every path gives one
    verdict. With its multipliers nu extended by zeros to the unassigned
    pairs, h(X) = -p_max mu + sum_ij nu_ij (N gamma_i - (1 - x_ij) / varrho).
    A feasibility cut stores h as it stands, nu / varrho on its own pairs,
    which the master reads as its support. An optimality cut stores h
    shifted by sum_j x_ij = 1: the constant N gamma.nu - p_max.mu and
    -nu_i / varrho at each SBS other than user i's own. Both forms agree
    at every association, but only the shifted one is M at its own
    association to rounding: the paper's constant subtracts
    sum_i nu_i / varrho, about 1e11 to 1e12 times M under paper physics.
    gamma, p_max and varrho are read from ``rows``, the instance's
    ``_SinrRows`` (built here when None). An association of another shape
    than (U, B) is a ``ModelError``.
    """
    _check_shape("association", assoc.x.shape, scenario.channel_gains.shape)
    rows = _rows_for(scenario, demands, rows)
    assigned = assoc.assigned_sbs
    answer = _min_power(rows, assigned)
    # h at the association itself: the dual value N gamma.nu - p_max.mu
    constant = float(rows.b @ answer.nu - rows.pmax @ answer.mu)
    nu = np.zeros(scenario.channel_gains.shape)
    nu.ravel()[rows.pairs(assigned)] = answer.nu / rows.varrho
    if answer.power is None:
        return Cut(constant - nu.sum(), nu, "feasibility"), answer.energy
    # in place, as ``Cut`` keeps the one read-only copy: 0 at each user's
    # own SBS, where the row's one term cancels exactly
    nu -= nu.sum(axis=1, keepdims=True)
    return Cut(constant, nu, "optimality", answer.power), answer.energy


def recover_power(
    scenario: Scenario, demands: DemandMatrix, assoc: Association
) -> PowerVector:
    """Minimum-power vector for an association known to be feasible.

    ``ucwt`` does not call it: its incumbent keeps its subproblem's powers.
    It stays only because the benchmark's tracer wraps it.
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


class _Rows:
    """Associations as the master values them, each whole or a prefix with free users.

    Row r of ``rows`` gives an SBS per user, or -1 for a free user, one the
    row leaves open. ``score`` adds a (U, B) coefficient matrix over each
    row from the last user to the first, a free user adding its least
    coefficient; it is given the matrix as ``_terms`` prepares it, so one
    gather serves whole rows and prefixes alike. ``floor_score`` is, per
    row, the largest floor term among the users of each SBS, 0 if it
    serves none, added over the SBSs in index order; a free user holds no
    term. ``_CutTable`` values rows from these two and reads a feasibility
    cut's support off ``rows``, where a free user holds no pair. So a
    whole row's value is the master objective at its association, and a
    prefix's value is a lower bound on that of each of its completions,
    bit for bit: a completion adds the same terms in the same order, each
    free user's least coefficient gives way to one at least as large,
    each floor maximum can only grow, and rounding is monotone.
    """

    def __init__(self, rows: np.ndarray, floor: np.ndarray):
        U, B = floor.shape
        self.rows = rows
        # last user first, the order in which ``score`` adds
        users, sbs = np.arange(U - 1, -1, -1), rows[:, ::-1]
        # per row and user, its index into a ``_terms`` vector
        self._flat = np.where(sbs < 0, U * B + users, users * B + sbs)
        # per SBS the peak term, and a spare last column where each free
        # user's -1 puts its term, left out of the sum
        peaks = np.zeros((len(rows), B + 1))
        np.maximum.at(peaks, (np.arange(len(rows))[:, None], sbs), floor[users, sbs])
        # cumsum adds in order; a sum over the axis would add pairwise
        self.floor_score = peaks.cumsum(axis=1)[:, -2]

    def score(self, terms: np.ndarray) -> np.ndarray:
        """Per row, sum_i coef[i, a_i] added from the last user to the first.

        ``terms`` is ``_terms(coef)``; a free user i adds its entry
        min_j coef[i, j] in place of coef[i, a_i].
        """
        return terms[self._flat].cumsum(axis=1)[:, -1]


class _ConflictFree(_Rows):
    """The conflict-free associations of one conflict seed, valued as ``_Rows``.

    Given once: a (U, B, U, B) boolean conflict array, such as
    ``conflict_seed``'s, and (U, B) floor terms, such as ``energy_floor``'s;
    an all-false seed and a zero floor stand for none. Its rows, built at
    once, are the assignments that hold no seeded conflict, in lexicographic
    order, made from the one empty prefix by ``children``, a level at a
    time; with no conflict they are all B**U assignments. The build gives
    up, before it writes the level, as soon as a level would hold more than
    ``_MASTER_ENUMERATION_LIMIT`` rows, and leaves ``rows`` None, which
    sends the master to ``_search_master``; that search extends its
    prefixes by ``children`` too. With no conflict, level d holds
    B**(d + 1) rows, so that happens exactly when B**U passes the limit.
    None of it depends on the placement or on alpha.
    """

    def __init__(self, conflict: np.ndarray, floor: np.ndarray):
        self.shape = floor.shape
        self.conflict, self.floor = conflict, floor
        self.alone = np.einsum("ijij->ij", conflict)
        self.users = np.arange(len(floor))
        rows = np.zeros((1, 0), dtype=np.intp)
        for _ in range(len(floor)):
            r, j = self.children(rows)
            if len(r) > _MASTER_ENUMERATION_LIMIT:
                self.rows = None
                return
            rows = np.concatenate((rows[r], j[:, None]), axis=1)
        super().__init__(rows, floor)

    def children(self, prefixes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(r, j) per child of the (n, d) ``prefixes`` that holds no seeded conflict.

        The child of prefix r puts user d at SBS j; it is dropped when that
        pair conflicts alone or with a user of the prefix. The children come
        in lexicographic order when the prefixes do.
        """
        d = prefixes.shape[1]
        # [r, j]: user d at SBS j conflicts alone or with a user of prefix r
        blocked = self.conflict[self.users[:d], prefixes, d].any(axis=1)
        blocked |= self.alone[d]
        return (~blocked).nonzero()


class InstanceMaster(_ConflictFree):
    """The instance-level half of ``ucwt``'s master, built once per instance.

    It holds ``sinr``, the instance's ``_SinrRows``, which every
    subproblem of a run reads; the master's ``conflict_seed`` and
    ``energy_floor``, read off them; their conflict-free rows
    (``_ConflictFree``); and ``answers``: per association (its ``x``
    bytes), the ``(Cut, M)`` that ``solve_subproblem`` returned for it.
    None of it depends on the cache
    placement or on alpha, so ``ucwt`` runs over one instance at any
    placement and alpha can share it. Each run still builds its own delay
    column, value array and cut list, so its answer and trace are those of
    an independent run; only the work is shared. Through ``sinr`` it is
    tied to the ``scenario`` and ``demands`` objects it was built from.
    """

    def __init__(self, scenario: Scenario, demands: DemandMatrix):
        self.sinr = _SinrRows(scenario, demands)
        super().__init__(conflict_seed(self.sinr), energy_floor(self.sinr))
        self.answers: Dict[bytes, Tuple[Cut, float]] = {}


class _CutTable:
    """The master's running objective over rows of associations, whole or prefixes.

    Built for one ``alpha`` over ``master``, a ``_Rows``: the conflict-free
    rows of a ``_ConflictFree``, or a block of ``_search_master``'s
    prefixes. Where a ``_ConflictFree``'s build gave up (``rows`` None),
    ``solve_master`` searches (``_search_master``), reading the delay
    coefficients and alpha from the table and the seed and the floor from
    its master. Per row the table holds the master objective
    ``model.weighted(alpha, eta, delay)``, eta being the largest of the floor
    and the optimality cuts absorbed so far, or +inf where the row holds
    every pair of a feasibility cut's support. Each cut of a growing list
    is absorbed once, on the rows only: a feasibility cut by its
    ``support``, an optimality cut by the master's ``score`` of its
    ``terms``, which the cut prepared once for every table; the delay
    coefficients are prepared by the same ``_terms`` and scored once, as
    ``delay``. The objective starts at ``weighted`` of the floor, and an
    optimality cut h raises it to its maximum with ``weighted`` of h:
    rounding is monotone and alpha >= 0, so this equals weighting the
    largest of them, bit for bit. Over
    prefixes, each value is a lower bound on that of every completion
    (``_Rows``).
    """

    def __init__(self, dcoef: np.ndarray, alpha: float, master: _Rows):
        self.master, self.dcoef, self.alpha = master, dcoef, alpha
        self.absorbed = 0
        if master.rows is not None:
            self.delay = master.score(_terms(dcoef))
            self.value = weighted(alpha, master.floor_score, self.delay)

    def absorb(self, cuts: Sequence[Cut]) -> None:
        """Score the cuts appended to ``cuts`` since the last call."""
        if len(cuts) < self.absorbed:
            raise ModelError(
                f"cut list shrank from {self.absorbed} to {len(cuts)} cuts"
            )
        for cut in cuts[self.absorbed:]:
            if cut.kind == "feasibility":
                users, sbs = cut.support
                self.value[(self.master.rows[:, users] == sbs).all(axis=1)] = np.inf
            else:
                h = cut.constant + self.master.score(cut.terms)
                np.maximum(
                    self.value, weighted(self.alpha, h, self.delay), out=self.value
                )
        self.absorbed = len(cuts)

    def solve(self) -> MasterSolution:
        """Exact master over the absorbed cuts; ties keep the lexicographic first."""
        k = int(self.value.argmin()) if len(self.value) else None
        if k is None or self.value[k] == np.inf:
            raise InfeasibleInstanceError(_EXCLUDED)
        # the rows hold valid SBS indices by construction
        assoc = Association._unchecked(self.master.rows[k], self.dcoef.shape[1])
        return MasterSolution(assoc=assoc, value=float(self.value[k]))


def _search_master(table: _CutTable, cuts: Sequence[Cut]) -> MasterSolution:
    """Exact master by depth-first search over blocks of prefixes, users in index order.

    It reads the delay coefficients and alpha from a ``table`` whose
    master's build gave up (``rows`` None), and the conflict seed and the
    energy floor from that master. A block is up to ``_SEARCH_BLOCK``
    prefixes that fix the same users, in lexicographic order. Its children
    come from the master's ``children``, which drops each child whose user
    conflicts alone or with a user of its prefix, and are valued over
    ``_Rows`` that leave the later users free, by a ``_CutTable`` of their
    own that absorbs every cut in the form the cut prepared once
    (``Cut.support``, ``Cut.terms``), so no block computes a cut's support
    or least coefficients again. So a child holding the support of a
    feasibility cut is +inf, and any other child's value is a bit-exact
    lower bound on each of its completions; the children that reach the
    incumbent's value are dropped. The rest are searched in blocks, the
    first block first, or, where the children are whole associations, their
    lexicographically first least replaces the incumbent if strictly better.
    Blocks are taken in lexicographic order, so ties keep the
    lexicographically first association, as enumeration does, and the
    value is the table's own, bit for bit.
    """
    master = table.master
    U = master.shape[0]
    best = MasterSolution(None, math.inf)
    # (users fixed, prefixes): each prefix a row with -1 at the free users
    stack = [(0, np.full((1, U), -1))]
    while stack:
        d, prefixes = stack.pop()
        r, j = master.children(prefixes[:, :d])
        rows = prefixes[r]
        rows[:, d] = j
        block = _CutTable(table.dcoef, table.alpha, _Rows(rows, master.floor))
        block.absorb(cuts)
        if d + 1 < U:
            kept = rows[block.value < best.value]
            starts = range(0, len(kept), _SEARCH_BLOCK)
            stack += [(d + 1, kept[k:k + _SEARCH_BLOCK]) for k in reversed(starts)]
        elif block.value.min(initial=math.inf) < best.value:
            best = block.solve()
    if best.assoc is None:
        raise InfeasibleInstanceError(_EXCLUDED)
    return best


def solve_master(
    scenario: Scenario, demands: DemandMatrix, placement: CachePlacement,
    cuts: Sequence[Cut], alpha: float, table: Optional[_CutTable] = None,
) -> MasterSolution:
    """Exact master solve over binary associations.

    Optimality cuts bound the energy; a feasibility cut excludes every
    association that holds all the pairs of its support, with no
    threshold on its affine value. ``table`` (a ``_CutTable``) carries the
    conflict seed, which excludes every association holding one of its
    conflicts, the energy floor, one more lower bound on the energy, and
    the master objective at ``alpha`` over the cuts passed on earlier
    calls with the same growing ``cuts`` list, so only the new cuts are
    scored. Without one, a fresh table over an empty seed and a zero
    floor scores them all, so the master is defined by the cuts alone.
    ``ucwt`` keeps one table per run, so each of its cuts is scored once.
    Raises ``ModelError`` if ``table`` was built for another ``alpha``.
    Where the table's master holds its conflict-free rows, they are
    enumerated, keeping the lexicographically first optimum; where its
    build gave up (``rows`` None), the master is searched depth first
    (``_search_master``). One valuation serves both paths: the search
    values its prefixes with this same table code, so it keeps the same
    tie rule and gives the same value, bit for bit. Both paths are
    deterministic.
    """
    if table is None:
        dcoef = delay_coefficients(scenario, demands, placement)
        U, B = dcoef.shape
        empty = _ConflictFree(np.zeros((U, B, U, B), bool), np.zeros((U, B)))
        table = _CutTable(dcoef, alpha, empty)
    elif table.alpha != alpha:
        raise ModelError(
            f"cut table built for alpha={table.alpha}, solved at alpha={alpha}"
        )
    if table.master.rows is None:
        return _search_master(table, cuts)
    table.absorb(cuts)
    return table.solve()


@dataclass(frozen=True)
class IterationRecord:
    t: int
    psi_lower: float
    psi_upper: float
    M: float                    # +inf when unbounded
    omega: Optional[int]

    @property
    def subproblem_status(self) -> str:
        """"bounded" where the subproblem had an energy M, else "unbounded"."""
        return "bounded" if math.isfinite(self.M) else "unbounded"


@dataclass
class BendersTrace:
    """Per-iteration bounds of a UCWT run; its final incumbent is the last row's."""

    iterations: List[IterationRecord] = field(default_factory=list)
    converged: bool = False
    epsilon: Optional[float] = None
    cuts: List[Cut] = field(default_factory=list)
    # subproblem answers taken from the master's memo, not solved again
    reused: int = 0

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

    @property
    def omega(self) -> Optional[int]:
        """The incumbent's 1-based iteration; None before any iteration."""
        return self.iterations[-1].omega if self.iterations else None

    @property
    def final_objective(self) -> Optional[float]:
        """The incumbent's value, the last upper bound; None before any iteration."""
        return self.iterations[-1].psi_upper if self.iterations else None


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
    master: Optional[InstanceMaster] = None,
) -> UcwtResult:
    """Iterative cut generation until the bound gap closes.

    The run's table is built over ``master``, an ``InstanceMaster`` of
    this very ``scenario`` and ``demands`` (its ``sinr`` table is checked
    by identity, as ``_rows_for`` checks any, else ``ModelError``), or
    over a fresh one when given none. So no
    proposal puts a user at an SBS it cannot reach alone or two users at a
    conflicting pair of SBSs, and the master's lower bound on each
    association's energy is ``energy_floor`` before any cut raises it. A
    subproblem is solved only for an association the master has no answer
    for; ``trace.reused`` counts the answers taken from its memo. Sharing
    one master across runs changes no answer and no trace row. The master
    raises ``InfeasibleInstanceError`` when the seed excludes every
    association (e.g. some user reaches no SBS), before any subproblem, or
    when feasibility cuts exclude the rest.
    Starts from the master's answer with no cut (the conflict-free
    association of least ``model.weighted`` of its floor and delay); where its
    energy is its floor, as at a single-SBS association, the bounds meet
    at once. Alternates subproblem and master solves for at most
    ``DEFAULT_MAX_ITERS`` iterations. Every cut is kept;
    ``trace.cuts`` is the master's cut list, one cut per iteration.
    The incumbent is the first bounded proposal of least
    ``model.weighted(alpha, M, delay)``: its value is the upper bound, the
    master's optimum the lower bound, and the powers returned are those
    its subproblem found, not solved again. ``trace.final_objective``, the
    last row's upper bound, is that value: M is T p over the same T as
    ``serving_time``, the delay is (delay coefficients * x).sum(), and
    both are weighed by ``model.weighted``, as in ``model.objective``, so
    it equals ``objective(...).weighted`` at the incumbent bit for bit,
    with no closing call. An exact master
    re-proposes an association whose cut it holds only once the gap has
    closed. Without convergence the incumbent is returned all the same, with
    ``trace.converged`` False; with no incumbent, ``IterationBudgetError``
    (non-convergence, not infeasibility) is raised. ``epsilon``, an
    absolute gap, defaults to the relative 1e-6 * |first finite upper
    bound|: under paper physics every energy lies far below 1 J, where
    an absolute part would stop short of the optimum.
    """
    _check_alpha(alpha)
    if epsilon is not None and not 0.0 < epsilon < math.inf:
        raise ModelError("epsilon must be a finite positive number")
    if master is None:
        master = InstanceMaster(scenario, demands)
    _rows_for(scenario, demands, master.sinr)
    dcoef = delay_coefficients(scenario, demands, placement)

    # one table per run; the search reads it too
    table = _CutTable(dcoef, alpha, master)
    # the master's cuts: one per iteration
    trace = BendersTrace(epsilon=epsilon)
    cuts = trace.cuts
    assoc = solve_master(scenario, demands, placement, cuts, alpha, table).assoc
    # the incumbent: its value, 1-based iteration, association and powers
    psi_upper, omega, best = math.inf, None, None

    for t in range(1, DEFAULT_MAX_ITERS + 1):
        key = assoc.x.tobytes()
        if key in master.answers:
            trace.reused += 1
        else:
            master.answers[key] = solve_subproblem(scenario, demands, assoc, master.sinr)
        cut, M = master.answers[key]
        cuts.append(cut)
        if math.isfinite(M):
            value = weighted(alpha, M, float((dcoef * assoc.x).sum()))
            if value < psi_upper:
                psi_upper, omega, best, power = value, t, assoc, cut.power
            if trace.epsilon is None:
                trace.epsilon = 1e-6 * abs(psi_upper)
        solution = solve_master(scenario, demands, placement, cuts, alpha, table)
        trace.iterations.append(IterationRecord(t, solution.value, psi_upper, M, omega))
        if trace.epsilon is not None and psi_upper - solution.value <= trace.epsilon:
            trace.converged = True
            break
        assoc = solution.assoc

    if best is None:
        raise IterationBudgetError(
            "no power-feasible association found within the iteration budget"
        )
    return UcwtResult(assoc=best, power=PowerVector(power), trace=trace)
