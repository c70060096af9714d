"""Comparison algorithms: delay-oriented (DOA) and energy-minimum (EMA).

Each user starts at its best reachable SBS by the algorithm's per-user
cost, and the minimum-power vector for that association is recovered. A
start whose joint power problem is infeasible is repaired by moving the
hardest users to their next-cheapest reachable SBSs. Each call builds the
instance's table of per-pair facts (``benders._SinrRows``) once, up front:
its reachability mask picks the start and the repair's moves, its
thresholds order the repair, and its SINR rows serve every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benders import _SinrRows, min_power_for
from .model import (
    Association,
    CachePlacement,
    DemandMatrix,
    InfeasibleInstanceError,
    ModelError,
    PowerVector,
    Scenario,
    delay_coefficients,
)

_REPAIR_ROUNDS = 50


class RepairFailedError(ModelError):
    """The repair gave up: no answer, but no proof that the instance is infeasible."""


@dataclass(frozen=True)
class BaselineResult:
    assoc: Association
    power: PowerVector


def _reach_or_raise(rows: _SinrRows) -> np.ndarray:
    """``rows.reach``; raises ``InfeasibleInstanceError`` if a user has none."""
    stranded = ~rows.reach.any(axis=1)
    if stranded.any():
        bad = int(np.argmax(stranded))
        raise InfeasibleInstanceError(f"user {bad} has no reachable SBS")
    return rows.reach


def _repaired(rows: _SinrRows, assigned: np.ndarray, cost: np.ndarray) -> BaselineResult:
    """The start association with its minimum power, repaired if infeasible.

    Each round solves the current association; if it is infeasible, the
    hardest user (requested threshold over best gain, descending) that has
    a costlier reachable SBS (``rows.reach``) moves to the cheapest of
    those, until a round is feasible, no user can move, or the round
    budget runs out; then it raises ``RepairFailedError``.
    """
    scenario, demands = rows.scenario, rows.demands
    order = np.argsort(-rows.gamma / scenario.channel_gains.max(axis=1), kind="stable")
    for _ in range(_REPAIR_ROUNDS):
        assoc = Association.from_assignment(assigned, scenario.sbs_count)
        power = min_power_for(scenario, demands, assoc, rows)
        if power is not None:
            return BaselineResult(assoc, power)
        for i in order:
            current = cost[i, assigned[i]]
            worse = [j for j in np.flatnonzero(rows.reach[i]) if cost[i, j] > current]
            if worse:
                assigned[i] = min(worse, key=lambda j: cost[i, j])
                break
        else:
            break
    raise RepairFailedError("infeasibility repair failed: no feasible association found")


def doa(
    scenario: Scenario, demands: DemandMatrix, placement: CachePlacement
) -> BaselineResult:
    """Delay-oriented association: each user joins its least-delay reachable SBS.

    On equal delay an SBS caching the user's request comes first, then the
    lowest index. Delay is separable over users, so this start is the
    least total delay over reachable associations.
    """
    dcoef = delay_coefficients(scenario, demands, placement)
    rows = _SinrRows(scenario, demands)
    reach = _reach_or_raise(rows)
    cached = placement.y[:, demands.requested_file].T
    assigned = np.array([
        min(np.flatnonzero(reach[i]), key=lambda j: (dcoef[i, j], not cached[i, j], j))
        for i in range(scenario.user_count)
    ])
    return _repaired(rows, assigned, dcoef)


def ema(
    scenario: Scenario, demands: DemandMatrix, placement: CachePlacement
) -> BaselineResult:
    """Energy-minimum association: every user joins its nearest reachable SBS.

    Nearest means highest channel gain (equivalently smallest distance);
    the lowest SBS index wins ties.
    """
    rows = _SinrRows(scenario, demands)
    reach = _reach_or_raise(rows)
    assigned = np.where(reach, scenario.channel_gains, -np.inf).argmax(axis=1)
    # -gain is the proximity cost the repair climbs
    return _repaired(rows, assigned, -scenario.channel_gains)
