"""Ground-truth solver: exhaustive enumeration over binary associations.

Deliberately simple so it can be trusted: a Cartesian product walks
every binary association in which each user joins an SBS it can reach
alone (no other association can be power-feasible), each one gets its
exact minimum powers and feasible/infeasible verdict from
``benders.min_power_for`` (the verified least fixed point of the SINR
rows, or the strict LP when that fails its checks), and the weighted
objective is compared directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .benders import min_power_for, reachable_sbs
from .model import (
    Association,
    CachePlacement,
    DemandMatrix,
    ModelError,
    PowerVector,
    Scenario,
    objective,
)

DEFAULT_ENUMERATION_CAP = 10**6


class EnumerationCapError(ModelError):
    """The association space exceeds the configured enumeration cap."""


class InstanceInfeasibleError(ModelError):
    """No association admits a feasible power vector."""


@dataclass(frozen=True)
class OracleSolution:
    assoc: Association
    power: PowerVector
    energy: float
    delay: float
    objective: float


def iter_assignments(user_count: int, sbs_count: int) -> Iterator[np.ndarray]:
    """All assignments in lexicographic (mixed-radix, user 0 most significant) order."""
    return map(np.array, itertools.product(range(sbs_count), repeat=user_count))


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
    sweep. Associations come in ``iter_assignments`` order, restricted to
    each user's reachable SBSs. Raises ``EnumerationCapError`` when more
    than ``DEFAULT_ENUMERATION_CAP`` associations would be walked (the
    product of each user's reachable-SBS count, not B^U).
    """
    U, B = scenario.user_count, scenario.sbs_count
    # single-user reachability is a necessary condition (interference only
    # hurts), so only the product of each user's reachable SBSs is solved
    reach = reachable_sbs(scenario, demands)
    walked = math.prod(int(n) for n in reach.sum(axis=1))
    cap = DEFAULT_ENUMERATION_CAP
    if walked > cap:
        shown = str(walked) if walked < 10**15 else f"at least 10^{len(str(walked)) - 1}"
        raise EnumerationCapError(
            f"{shown} reachable associations (of {B}^{U}) exceed the cap of "
            f"{cap}; use a smaller instance"
        )
    out: List[Candidate] = []
    for walk in itertools.product(*(np.flatnonzero(row).tolist() for row in reach)):
        # reachable SBS indices are valid by construction; an index array,
        # since a tuple would index np.eye by dimension
        assigned = np.array(walk)
        assoc = Association._unchecked(assigned, B)
        power = min_power_for(scenario, demands, assoc)
        if power is None:
            continue
        value = objective(scenario, demands, placement, assoc, power)
        out.append(Candidate(assigned, power, value.energy, value.delay))
    return out


def _pick(
    candidates: Sequence[Candidate], alpha: float, sbs_count: int
) -> OracleSolution:
    best = math.inf
    chosen: Optional[Candidate] = None
    for cand in candidates:   # lexicographic enumeration order breaks ties
        value = alpha * cand.energy + (1.0 - alpha) * cand.delay
        if value < best:
            best, chosen = value, cand
    assert chosen is not None
    return OracleSolution(
        assoc=Association.from_assignment(chosen.assigned, sbs_count),
        power=chosen.power,
        energy=chosen.energy,
        delay=chosen.delay,
        objective=best,
    )


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
    """One enumeration reused across a whole alpha grid, each alpha in [0, 1]."""
    if not all(0.0 <= a <= 1.0 for a in alphas):
        raise ModelError("alpha must lie in [0, 1]")
    candidates = enumerate_candidates(scenario, demands, placement)
    if not candidates:
        raise InstanceInfeasibleError("every association is power-infeasible")
    return [(a, _pick(candidates, a, scenario.sbs_count)) for a in alphas]
