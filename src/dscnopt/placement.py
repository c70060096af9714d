"""Cache placement policies and an exact knapsack oracle.

The main policy caches each cell's locally most popular files greedily by
popularity density; baselines cache by a global ranking (GPC) or at
random (RC). The dynamic-programming knapsack is the testing oracle for
per-cell placement optimality.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .model import CachePlacement, ModelError, Scenario
from .popularity import PopularityTable

# 0.1 MB: the DP's capacity cell; generated file sizes lie on it
DEFAULT_GRID_BYTES = 100_000.0
MAX_DP_CELLS = 50_000_000


class KnapsackError(ModelError):
    """Raised when the DP capacity grid would be intractably large."""


def _greedy_fill(order: Sequence[int], sizes: np.ndarray, capacity: float) -> np.ndarray:
    """Admit items in the given order, skipping any that no longer fit."""
    # Python floats make the same IEEE adds as numpy scalars, at a fraction
    # of the call cost
    size = sizes.tolist()
    used = 0.0
    admitted = []
    for k in np.asarray(order).tolist():
        if used + size[k] <= capacity:
            admitted.append(k)
            used += size[k]
    chosen = np.zeros(sizes.size, dtype=np.int8)
    chosen[admitted] = 1
    return chosen


def lpf_greedy(
    scenario: Scenario, popularity: PopularityTable
) -> Tuple[CachePlacement, np.ndarray]:
    """Per-cell greedy placement by popularity density psi_jk / s_k.

    Items that do not fit are skipped and scanning continues, so capacity
    is never exceeded. Returns the placement and the per-SBS cached
    popularity mass.
    """
    density = popularity.psi / scenario.file_sizes
    # per SBS, densest first, lowest index breaking ties
    orders = np.argsort(-density, axis=1, kind="stable")
    y = np.array([
        _greedy_fill(order, scenario.file_sizes, capacity)
        for order, capacity in zip(orders, scenario.cache_capacity.tolist())
    ])
    placement = CachePlacement(y)
    return placement, (popularity.psi * y).sum(axis=1)


def knapsack_exact(
    sizes: Sequence[float],
    values: Sequence[float],
    capacity: float,
) -> Tuple[np.ndarray, float]:
    """Exact 0-1 knapsack by dynamic programming over a quantized capacity grid.

    Sizes are divided by ``DEFAULT_GRID_BYTES`` and must land on integers
    (within 1e-9); the result is then a true optimum. Returns (selection
    mask, value). A capacity that is not finite and nonnegative, or sizes
    and values that are not finite 1-D arrays of one length, raise
    ``ModelError``.
    """
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if not 0.0 <= capacity < math.inf:
        raise ModelError("capacity must be finite and nonnegative")
    if sizes.ndim != 1 or sizes.shape != values.shape:
        raise ModelError("item sizes and values must be 1-D and of equal length")
    if not (np.isfinite(sizes).all() and np.isfinite(values).all()):
        raise ModelError("item sizes and values must be finite")
    if np.any(sizes <= 0):
        raise ModelError("item sizes must be strictly positive")
    if np.any(values < 0):
        raise ModelError("item values must be nonnegative")
    units = sizes / DEFAULT_GRID_BYTES
    w = np.rint(units).astype(int)
    if not np.allclose(units, w, atol=1e-9):
        raise ModelError("item sizes must be multiples of the DP grid")
    cap = int(np.floor(capacity / DEFAULT_GRID_BYTES + 1e-9))
    n = sizes.size
    if n * (cap + 1) > MAX_DP_CELLS:
        raise KnapsackError(f"DP table of {n * (cap + 1)} cells too large")
    best = np.zeros(cap + 1)
    take = np.zeros((n, cap + 1), dtype=bool)
    for item in range(n):
        wk = w[item]
        if wk <= cap:
            candidate = best[: cap + 1 - wk] + values[item]
            improved = candidate > best[wk:] + 1e-15
            take[item, wk:] = improved
            best[wk:] = np.where(improved, candidate, best[wk:])
    chosen = np.zeros(n, dtype=np.int8)
    c = cap
    for item in range(n - 1, -1, -1):
        if take[item, c]:
            chosen[item] = 1
            c -= w[item]
    return chosen, float(values @ chosen)


def gpc_placement(scenario: Scenario) -> CachePlacement:
    """Global-popularity caching: every SBS caches by one global ranking.

    The ranking is Zipf over the file index (rank = index), so each SBS
    admits files in index order until its capacity is spent.
    """
    order = np.arange(scenario.file_count)
    y = np.array([
        _greedy_fill(order, scenario.file_sizes, capacity)
        for capacity in scenario.cache_capacity
    ])
    return CachePlacement(y)


def rc_placement(scenario: Scenario, seed: int) -> CachePlacement:
    """Random caching: per-SBS uniformly random order, greedy admit."""
    rng = np.random.default_rng(seed)
    B, F = scenario.sbs_count, scenario.file_count
    y = np.zeros((B, F), dtype=np.int8)
    for j in range(B):
        order = rng.permutation(F)
        y[j] = _greedy_fill(order, scenario.file_sizes, scenario.cache_capacity[j])
    return CachePlacement(y)


def hit_ratio(
    placement: CachePlacement, popularity: PopularityTable
) -> Tuple[np.ndarray, float]:
    """Cached popularity mass per SBS and its network mean."""
    if placement.y.shape != popularity.psi.shape:
        raise ModelError("placement and popularity shapes disagree")
    per_sbs = (popularity.psi * placement.y).sum(axis=1)
    return per_sbs, float(per_sbs.mean())
