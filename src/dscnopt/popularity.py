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

from .model import DemandMatrix, ModelError, Scenario, _frozen

DEFAULT_VARIANCE_RANGE = (5.0**2, 50.0**2)


@dataclass(frozen=True)
class PreferenceMatrix:
    """Per-user file preference distribution rho."""

    rho: np.ndarray           # U x F, rows sum to 1

    def __post_init__(self):
        rho = _frozen(self.rho)
        object.__setattr__(self, "rho", rho)
        if rho.ndim != 2 or np.any(rho < 0):
            raise ModelError("rho must be a nonnegative matrix")
        if not np.allclose(rho.sum(axis=1), 1.0, atol=1e-9):
            raise ModelError("preference rows must sum to 1")


@dataclass(frozen=True)
class PopularityTable:
    """Per-SBS local popularity psi."""

    psi: np.ndarray                  # B x F, rows sum to 1

    def __post_init__(self):
        psi = _frozen(self.psi)
        object.__setattr__(self, "psi", psi)
        if psi.ndim != 2 or np.any(psi < 0):
            raise ModelError("psi must be a nonnegative matrix")
        if not np.allclose(psi.sum(axis=1), 1.0, atol=1e-9):
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
    dist = np.linalg.norm(
        scenario.user_positions[:, None, :] - scenario.sbs_positions[None, :, :], axis=2
    )
    return [
        np.nonzero(dist[:, j] <= scenario.central_zone_radius)[0]
        for j in range(scenario.sbs_count)
    ]


def local_popularity(scenario: Scenario, prefs: PreferenceMatrix) -> PopularityTable:
    """Aggregate central-zone user preferences into per-cell popularity.

    Each member contributes with equal weight; an SBS with an empty
    central zone falls back to a uniform row.
    """
    F = scenario.file_count
    psi = np.empty((scenario.sbs_count, F))
    for j, members in enumerate(zone_members(scenario)):
        if members.size == 0:
            psi[j] = 1.0 / F
        else:
            # weighted by 1/U, not a plain mean: the two round differently
            w = np.full(members.size, 1.0 / scenario.user_count)
            psi[j] = (w[:, None] * prefs.rho[members]).sum(axis=0) / w.sum()
    return PopularityTable(psi)


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer quotas summing to ``total`` that track ``weights`` proportionally."""
    target = weights * total
    counts = np.floor(target).astype(int)
    remainder = target - counts
    short = total - counts.sum()
    # stable order: largest remainder first, lowest index breaking ties
    order = np.lexsort((np.arange(weights.size), -remainder))
    counts[order[:short]] += 1
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
    U, F = scenario.user_count, scenario.file_count
    rng = np.random.default_rng(seed)
    theta = np.zeros((U, F), dtype=np.int8)
    if scenario.user_positions is None or scenario.sbs_positions is None:
        raise ModelError("demand sampling requires positions")
    dist = np.linalg.norm(
        scenario.user_positions[:, None, :] - scenario.sbs_positions[None, :, :], axis=2
    )
    # nearest SBS whose central zone covers the user, else -1
    covered = dist <= scenario.central_zone_radius
    owner = np.full(U, -1, dtype=int)
    for i in range(U):
        js = np.nonzero(covered[i])[0]
        if js.size:
            owner[i] = js[np.argmin(dist[i, js])]
    for j in range(scenario.sbs_count):
        pool = np.nonzero(owner == j)[0]
        if pool.size == 0:
            continue
        quotas = _largest_remainder(popularity.psi[j], pool.size)
        shuffled = rng.permutation(pool)
        files = np.repeat(np.arange(F), quotas)
        theta[shuffled, files] = 1
    outside = np.nonzero(owner == -1)[0]
    for i in outside:
        theta[i, rng.choice(F, p=prefs.rho[i])] = 1
    return DemandMatrix(theta)
