"""Ground-truth solver: exhaustive enumeration over binary associations.

Deliberately simple so it can be trusted: a depth-first walk over users
0..U-1 visits, in lexicographic order, every binary association in which
each user joins an SBS it can reach alone (no other association can be
power-feasible). Each association it reaches gets its exact minimum
powers and feasible/infeasible verdict from ``benders._min_power`` (the
verified least fixed point of the SINR rows, found again in exact
arithmetic when the float answer fails its checks), and each alpha of a
sweep weighs the candidates' energies and delays with ``model.weighted``,
the weighting of ``model.objective``. One table of the instance's per-pair
facts, ``benders._SinrRows``, serves a whole enumeration: its
reachability mask picks the SBSs the walk tries, and its SINR rows and
serving times serve every solve, whose energy each feasible leaf keeps.

An infeasible association's Farkas ray is cut down to an irreducible
infeasible subsystem: its nonzero multipliers sit on a few (user, SBS)
pairs, and its rows and caps depend on those pairs alone. The same
certificate therefore proves every association that holds them
infeasible, as interference only raises the least fixed point (Yates
1995). The walk keeps each such set of pairs as a no-good, the
combinatorial Benders cut of Codato & Fischetti (Oper. Res. 2006), and
skips every association that holds one without solving it. It learns
only from its own solves: the master's conflict seed is not used here, so
the oracle stays an independent check on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import benders
# ``min_power_for`` is unused here; it stays only for the benchmark's tracer
from .benders import min_power_for
from .model import (
    Association,
    CachePlacement,
    DemandMatrix,
    InfeasibleInstanceError,
    ModelError,
    PowerVector,
    Scenario,
    delay_coefficients,
    weighted,
    _check_alpha,
)

DEFAULT_ENUMERATION_CAP = 10**6


class EnumerationCapError(ModelError):
    """The association space exceeds the configured enumeration cap."""


@dataclass(frozen=True)
class OracleSolution:
    assoc: Association
    power: PowerVector
    energy: float
    delay: float
    objective: float


@dataclass(frozen=True)
class Candidate:
    assigned: np.ndarray
    power: PowerVector
    energy: float
    delay: float


def enumerate_candidates(
    scenario: Scenario,
    demands: DemandMatrix,
    placement: CachePlacement,
) -> List[Candidate]:
    """Every power-feasible association with its minimum energy and total delay.

    Alpha-independent, so a single enumeration serves a whole tradeoff
    sweep. Associations come in lexicographic order (user 0 most
    significant), restricted to each user's reachable SBSs. Raises
    ``EnumerationCapError`` when more than ``DEFAULT_ENUMERATION_CAP``
    associations would be walked (the product of each user's
    reachable-SBS count, not B^U).

    The walk fixes users in index order, each trying its reachable SBSs
    in index order. Each no-good it learns from an infeasible association
    is filed under its last pair, the one of highest user index: a child
    that completes it, with every other pair already fixed, is skipped
    with its whole subtree, and the walk jumps back to that last user as
    soon as it learns one. A skipped association holds the support of a
    ray that ``_min_power`` returned at the association it was learned
    from. Only the rows and caps of that support enter the ray, so the
    same certificate proves the skipped association infeasible: verified
    in float with a margin that no powers passing the strict row check can
    meet, or exact on the float rows.
    """
    U, B = scenario.user_count, scenario.sbs_count
    rows = benders._SinrRows(scenario, demands)
    # single-user reachability is a necessary condition (interference only
    # hurts), so only the product of each user's reachable SBSs is walked
    walked = math.prod(int(n) for n in rows.reach.sum(axis=1))
    cap = DEFAULT_ENUMERATION_CAP
    if walked > cap:
        shown = str(walked) if walked < 10**15 else f"at least 10^{len(str(walked)) - 1}"
        raise EnumerationCapError(
            f"{shown} reachable associations (of {B}^{U}) exceed the cap of "
            f"{cap}; use a smaller instance"
        )
    options = [np.flatnonzero(row).tolist() for row in rows.reach]
    # what ``objective`` reads besides the leaf, read once: each leaf's
    # delay is scored by its expression, and its energy is the answer's,
    # T p over the table's serving times, which are ``serving_time``'s; so
    # energies and delays match it bit for bit
    coefficients = delay_coefficients(scenario, demands, placement)
    one_hot = np.eye(B, dtype=np.int8)
    # (user, SBS) -> the other pairs of each no-good whose last pair it is
    nogoods: Dict[Tuple[int, int], List[List[Tuple[int, int]]]] = {}
    assigned = [0] * U
    tried = [0] * U          # per user, how many of its options were tried
    out: List[Candidate] = []
    d = 0 if walked else -1  # a user with no reachable SBS leaves nothing to walk
    while d >= 0:
        if tried[d] == len(options[d]):
            tried[d] = 0
            d -= 1
            continue
        j = assigned[d] = options[d][tried[d]]
        tried[d] += 1
        if any(all(assigned[k] == l for k, l in rest)
               for rest in nogoods.get((d, j), ())):
            continue
        if d < U - 1:
            d += 1
            continue
        # reachable SBS indices are valid by construction; an index array,
        # since a tuple would index np.eye by dimension
        leaf = np.array(assigned)
        # looked up on the module at each call, so a replaced attribute runs
        answer = benders._min_power(rows, leaf)
        if answer.power is None:
            *others, last = np.flatnonzero(answer.nu).tolist()
            nogoods.setdefault((last, assigned[last]), []).append(
                [(k, assigned[k]) for k in others])
            tried[last + 1:] = [0] * (U - 1 - last)
            d = last
            continue
        delay = float((coefficients * one_hot[leaf]).sum())
        out.append(Candidate(leaf, PowerVector(answer.power), answer.energy, delay))
    return out


def brute_force(
    scenario: Scenario,
    demands: DemandMatrix,
    placement: CachePlacement,
    alpha: float,
) -> OracleSolution:
    """Global optimum of the weighted energy-delay problem by full enumeration."""
    return brute_force_sweep(scenario, demands, placement, [alpha])[0][1]


def brute_force_sweep(
    scenario: Scenario,
    demands: DemandMatrix,
    placement: CachePlacement,
    alphas: Sequence[float],
) -> List[Tuple[float, OracleSolution]]:
    """One enumeration reused across a whole alpha grid, each alpha in [0, 1].

    Each alpha picks the candidate of least ``model.weighted`` value over
    the candidates' energies and delays, gathered once; ``argmin`` keeps
    the first least, so lexicographic enumeration order breaks ties.
    Raises ``InfeasibleInstanceError`` when no association is power-feasible.
    """
    for a in alphas:
        _check_alpha(a)
    candidates = enumerate_candidates(scenario, demands, placement)
    if not candidates:
        raise InfeasibleInstanceError("every association is power-infeasible")
    energies = np.array([c.energy for c in candidates])
    delays = np.array([c.delay for c in candidates])
    out = []
    for a in alphas:
        values = weighted(a, energies, delays)
        k = int(values.argmin())
        c = candidates[k]
        # the walk's leaves hold reachable SBS indices by construction
        assoc = Association._unchecked(c.assigned, scenario.sbs_count)
        out.append((a, OracleSolution(assoc, c.power, c.energy, c.delay, float(values[k]))))
    return out
