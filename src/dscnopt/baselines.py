"""Comparison algorithms: delay-oriented (DOA) and energy-minimum (EMA).

Both pick an association heuristically and recover the minimum-power
vector for it; associations whose joint power problem is infeasible are
repaired by moving the hardest users to their next-best candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .benders import min_power_for
from .model import (
    Association,
    CachePlacement,
    DemandMatrix,
    ModelError,
    PowerVector,
    Scenario,
    delay_coefficients,
    requested_thresholds,
)

_REPAIR_ROUNDS = 50


class NoReachableSbsError(ModelError):
    """Some user cannot meet its SINR requirement at any SBS even alone."""


@dataclass(frozen=True)
class BaselineResult:
    assoc: Association
    power: PowerVector


def reachable_sbs(scenario: Scenario, demands: DemandMatrix) -> np.ndarray:
    """Boolean (user, SBS) mask: SINR requirement met at full power, no interference."""
    gammas = requested_thresholds(scenario, demands)
    best = scenario.channel_gains * scenario.max_power[None, :]
    return best / scenario.noise_power >= gammas[:, None] * (1 - 1e-12)


def _repair_order(scenario: Scenario, demands: DemandMatrix) -> np.ndarray:
    """Users sorted hardest first: requested threshold over best gain, descending."""
    gammas = requested_thresholds(scenario, demands)
    difficulty = gammas / scenario.channel_gains.max(axis=1)
    return np.argsort(-difficulty, kind="stable")


def _repair_power(
    scenario: Scenario,
    demands: DemandMatrix,
    assigned: np.ndarray,
    candidate_cost: np.ndarray,
    reach: np.ndarray,
) -> Tuple[np.ndarray, PowerVector]:
    """Reassign users until the joint power problem becomes feasible.

    Moves the hardest not-yet-moved user to its next-cheapest reachable
    SBS, cycling through users until feasible or the round budget runs out.
    """
    order = _repair_order(scenario, demands)
    assigned = assigned.copy()
    for _ in range(_REPAIR_ROUNDS):
        power = min_power_for(
            scenario, demands, Association.from_assignment(assigned, scenario.sbs_count)
        )
        if power is not None:
            return assigned, power
        moved = False
        for i in order:
            current = assigned[i]
            options = np.nonzero(reach[i])[0]
            worse = [j for j in options if candidate_cost[i, j] > candidate_cost[i, current]]
            if not worse:
                continue
            assigned[i] = min(worse, key=lambda j: candidate_cost[i, j])
            moved = True
            break
        if not moved:
            break
    raise ModelError("infeasibility repair failed: no feasible association found")


def _finalize(
    scenario: Scenario,
    demands: DemandMatrix,
    assigned: np.ndarray,
    candidate_cost: np.ndarray,
    reach: np.ndarray,
) -> BaselineResult:
    power = min_power_for(
        scenario, demands, Association.from_assignment(assigned, scenario.sbs_count)
    )
    if power is None:
        assigned, power = _repair_power(
            scenario, demands, assigned, candidate_cost, reach
        )
    return BaselineResult(
        Association.from_assignment(assigned, scenario.sbs_count), power
    )


def doa(
    scenario: Scenario, demands: DemandMatrix, placement: CachePlacement
) -> BaselineResult:
    """Delay-oriented association: prefer reachable SBSs caching the request.

    Each user starts at the minimum-delay reachable SBS among those caching
    its file (falling back to any reachable SBS); single-user reassignments
    then run best-improvement on total delay until no move helps.
    """
    U = scenario.user_count
    dcoef = delay_coefficients(scenario, demands, placement)
    reach = reachable_sbs(scenario, demands)
    if not reach.any(axis=1).all():
        bad = int(np.nonzero(~reach.any(axis=1))[0][0])
        raise NoReachableSbsError(f"user {bad} has no reachable SBS")
    files = demands.requested_file
    assigned = np.zeros(U, dtype=int)
    for i in range(U):
        options = np.nonzero(reach[i])[0]
        caching = [j for j in options if placement.y[j, files[i]]]
        pool = caching if caching else list(options)
        assigned[i] = min(pool, key=lambda j: (dcoef[i, j], j))
    # best-improvement local search over single-user moves
    for _ in range(10 * U):
        best_gain, best_move = 0.0, None
        for i in range(U):
            for j in np.nonzero(reach[i])[0]:
                gain = dcoef[i, assigned[i]] - dcoef[i, j]
                if gain > best_gain + 1e-12:
                    best_gain, best_move = gain, (i, int(j))
        if best_move is None:
            break
        assigned[best_move[0]] = best_move[1]
    return _finalize(scenario, demands, assigned, dcoef, reach)


def ema(
    scenario: Scenario, demands: DemandMatrix, placement: CachePlacement
) -> BaselineResult:
    """Energy-minimum association: every user joins its nearest SBS.

    Nearest means highest channel gain (equivalently smallest distance);
    the lowest SBS index wins ties.
    """
    reach = reachable_sbs(scenario, demands)
    if not reach.any(axis=1).all():
        bad = int(np.nonzero(~reach.any(axis=1))[0][0])
        raise NoReachableSbsError(f"user {bad} has no reachable SBS")
    # -gain is the proximity cost; used for both choice and repair order
    cost = -scenario.channel_gains
    assigned = np.argmax(scenario.channel_gains, axis=1)
    for i in range(scenario.user_count):
        if not reach[i, assigned[i]]:
            options = np.nonzero(reach[i])[0]
            assigned[i] = min(options, key=lambda j: (cost[i, j], j))
    return _finalize(scenario, demands, assigned, cost, reach)
