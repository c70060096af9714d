"""User preferences, per-cell file popularity, and demand sampling.

Preferences are discretized Gaussian kernels over the file index; each
cell's popularity is the equally-weighted mix of its central-zone users'
preference rows. Demands are sampled so that per-cell request fractions
track the local popularity as closely as integrality allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .model import _UNIT_SUM_TOL, DemandMatrix, ModelError, Scenario, _frozen

DEFAULT_VARIANCE_RANGE = (5.0**2, 50.0**2)


@dataclass(frozen=True)
class PreferenceMatrix:
    """Per-user file preference distribution rho."""

    rho: np.ndarray           # U x F, rows sum to 1

    def __post_init__(self):
        rho = _frozen(self.rho)
        object.__setattr__(self, "rho", rho)
        if rho.ndim != 2 or (rho < 0).any():
            raise ModelError("rho must be a nonnegative matrix")
        if not (abs(rho.sum(axis=1) - 1.0) <= _UNIT_SUM_TOL).all():
            raise ModelError("preference rows must sum to 1")


@dataclass(frozen=True)
class PopularityTable:
    """Per-SBS local popularity psi."""

    psi: np.ndarray                  # B x F, rows sum to 1

    def __post_init__(self):
        psi = _frozen(self.psi)
        object.__setattr__(self, "psi", psi)
        if psi.ndim != 2 or (psi < 0).any():
            raise ModelError("psi must be a nonnegative matrix")
        if not (abs(psi.sum(axis=1) - 1.0) <= _UNIT_SUM_TOL).all():
            raise ModelError("popularity rows must sum to 1")


def sample_preferences(
    scenario: Scenario,
    seed: int,
    variance_range: Tuple[float, float] = DEFAULT_VARIANCE_RANGE,
) -> PreferenceMatrix:
    """Draw per-user Gaussian-kernel preferences over file indices.

    Each user gets a mean uniform in [1, F] and a variance uniform in
    ``variance_range``; the kernel is evaluated at indices 1..F, truncated
    and renormalized. Deterministic given the seed.
    """
    U, F = scenario.user_count, scenario.file_count
    rng = np.random.default_rng(seed)
    means = rng.uniform(1.0, F, size=U)
    variances = rng.uniform(*variance_range, size=U)
    idx = np.arange(1, F + 1, dtype=float)
    rho = np.exp(-((idx[None, :] - means[:, None]) ** 2) / (2.0 * variances[:, None]))
    rho /= rho.sum(axis=1, keepdims=True)
    return PreferenceMatrix(rho)


def zone_members(scenario: Scenario) -> List[np.ndarray]:
    """Users within the central-zone radius of each SBS (may overlap)."""
    if scenario.sbs_positions is None or scenario.user_positions is None:
        raise ModelError("zone membership requires positions")
    covered = scenario.distances.T <= scenario.central_zone_radius
    return [row.nonzero()[0] for row in covered]


def local_popularity(scenario: Scenario, prefs: PreferenceMatrix) -> PopularityTable:
    """Aggregate central-zone user preferences into per-cell popularity.

    Each member contributes with equal weight; an SBS with an empty
    central zone falls back to a uniform row.
    """
    F, weight = scenario.file_count, 1.0 / scenario.user_count
    # weighted by 1/U, not a plain mean: the two round differently
    weighted = weight * prefs.rho
    psi = np.empty((scenario.sbs_count, F))
    for j, members in enumerate(zone_members(scenario)):
        if members.size == 0:
            psi[j] = 1.0 / F
        else:
            # each member's row added in turn, then divided by the summed
            # weights (numpy's pairwise sum, so not members.size * weight)
            total = np.full(members.size, weight).sum()
            psi[j] = weighted[members].sum(axis=0) / total
    return PopularityTable(psi)


def _largest_remainder(weights: np.ndarray, total: int | np.ndarray) -> np.ndarray:
    """Integer quotas summing to ``total`` that track ``weights`` proportionally.

    A matrix of weights with a vector of totals gives one row of quotas per
    row of weights.
    """
    total = np.asarray(total)[..., None]
    target = weights * total
    counts = np.floor(target).astype(int)
    remainder = target - counts
    short = total - counts.sum(axis=-1, keepdims=True)
    # stable order: largest remainder first, lowest index breaking ties; the
    # first ``short`` in it gain one, as the slice order[:short] would take
    # them (a negative short counts from the end)
    order = np.argsort(-remainder, axis=-1, kind="stable")
    rank = np.argsort(order, axis=-1)
    counts += rank < np.where(short < 0, short + weights.shape[-1], short)
    return counts


def sample_demands(
    scenario: Scenario,
    popularity: PopularityTable,
    prefs: PreferenceMatrix,
    seed: int,
) -> DemandMatrix:
    """Assign each user one requested file, matching local popularity per cell.

    Central-zone users are pooled under their nearest covering SBS and
    receive files by largest-remainder quotas on that cell's popularity
    row; users outside every zone draw from their own preference row.
    """
    B, U, F = scenario.sbs_count, scenario.user_count, scenario.file_count
    rng = np.random.default_rng(seed)
    theta = np.zeros((U, F), dtype=np.int8)
    if scenario.user_positions is None or scenario.sbs_positions is None:
        raise ModelError("demand sampling requires positions")
    dist = scenario.distances
    # nearest SBS whose central zone covers the user, else -1; argmin keeps
    # the lowest index among equally near SBSs
    covered = dist <= scenario.central_zone_radius
    nearest = np.where(covered, dist, np.inf).argmin(axis=1)
    owner = np.where(covered.any(axis=1), nearest, -1)
    # users grouped by owner, -1 first, each group in index order
    grouped = np.argsort(owner, kind="stable")
    sizes = np.bincount(owner + 1, minlength=B + 1)
    quotas = _largest_remainder(popularity.psi, sizes[1:])
    ends = np.cumsum(sizes).tolist()
    for j in range(B):
        start, stop = ends[j], ends[j + 1]
        if stop > start:
            shuffled = rng.permutation(grouped[start:stop])
            theta[shuffled, np.repeat(np.arange(F), quotas[j])] = 1
    for i in grouped[:ends[0]].tolist():
        theta[i, rng.choice(F, p=prefs.rho[i])] = 1
    return DemandMatrix(theta)
