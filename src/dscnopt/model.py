"""Core domain types and physical formulas for cache-enabled small cell networks.

All internal math is linear-scale SI: powers in watts, sizes in bytes,
rates in bit/s, gains dimensionless. Unit conversions (dBm, MB) happen
once at scenario construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Optional

import numpy as np

BITS_PER_BYTE = 8.0
# np.isclose(total, 1.0, atol=1e-9) and np.allclose alike: |total - 1| within
# that atol plus the default rtol of 1e-5 times 1
_UNIT_SUM_TOL = 1e-9 + 1e-5


def _frozen(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


def _frozen_binary(a, name: str) -> np.ndarray:
    """Read-only int8 copy of a 0/1 matrix, checked before the cast."""
    raw = np.asarray(a)
    if raw.ndim != 2 or not ((raw == 0) | (raw == 1)).all():
        raise ModelError(f"{name} must be a binary matrix")
    arr = raw.astype(np.int8)
    arr.setflags(write=False)
    return arr


def _check_shape(what: str, shape: tuple, expected: tuple) -> None:
    """A ``ModelError`` naming ``what`` unless its shape is the expected one."""
    if shape != expected:
        raise ModelError(f"{what} has shape {shape}, expected {expected}")


class ModelError(ValueError):
    """Raised on invalid model inputs (bad shapes, violated invariants)."""


class InfeasibleInstanceError(ModelError):
    """Proof that no association of the instance admits feasible powers."""


def _check_alpha(alpha: float) -> None:
    """A ``ModelError`` unless the energy-delay weight lies in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ModelError("alpha must lie in [0, 1]")


def weighted(alpha: float, energy, delay):
    """The paper's utility alpha * energy + (1 - alpha) * delay, elementwise.

    Every solver weighs energy against delay here, so their values agree
    bit for bit: on floats and on arrays alike it is the same two products
    and one sum, in this order.
    """
    return alpha * energy + (1.0 - alpha) * delay


@dataclass(frozen=True)
class Scenario:
    """Immutable network instance: geometry, physics constants and weights.

    ``channel_gains[i, j]`` is the gain between user i and SBS j. When
    positions are given, gains follow the distance power law
    ``dist**(-pathloss_exponent)``; hand-built instances may supply gains
    directly and omit positions.
    """

    sbs_count: int
    user_count: int
    file_count: int
    max_power: np.ndarray          # watts, per SBS
    cache_capacity: np.ndarray     # bytes, per SBS
    backhaul_mean: np.ndarray      # seconds, per SBS
    file_sizes: np.ndarray         # bytes, per file
    sinr_thresholds: np.ndarray    # linear scale, per file
    bandwidth: float               # Hz
    noise_power: float             # watts
    pathloss_exponent: float
    channel_gains: np.ndarray      # user x SBS
    alpha: float                   # energy-delay tradeoff weight
    load_coefficients: np.ndarray  # per SBS, sums to 1
    central_zone_radius: float     # meters
    sbs_positions: Optional[np.ndarray] = None   # (B, 2) meters
    user_positions: Optional[np.ndarray] = None  # (U, 2) meters
    rate_requirements: np.ndarray = field(init=False)  # bit/s, per file
    # user x SBS distances in meters, None without both position arrays
    distances: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        B, U, F = self.sbs_count, self.user_count, self.file_count
        if B < 1 or U < 1 or F < 1:
            raise ModelError("counts must be positive")
        for name, arr, n in [
            ("max_power", self.max_power, B),
            ("cache_capacity", self.cache_capacity, B),
            ("backhaul_mean", self.backhaul_mean, B),
            ("load_coefficients", self.load_coefficients, B),
            ("file_sizes", self.file_sizes, F),
            ("sinr_thresholds", self.sinr_thresholds, F),
        ]:
            arr = _frozen(arr)
            object.__setattr__(self, name, arr)
            if arr.shape != (n,):
                raise ModelError(f"{name} must have shape ({n},)")
        g = _frozen(self.channel_gains)
        object.__setattr__(self, "channel_gains", g)
        if g.shape != (U, B):
            raise ModelError(f"channel_gains must have shape ({U}, {B})")
        for name, n in [("sbs_positions", B), ("user_positions", U)]:
            pos = getattr(self, name)
            if pos is not None:
                pos = _frozen(pos)
                object.__setattr__(self, name, pos)
                if pos.shape != (n, 2):
                    raise ModelError(f"{name} must have shape ({n}, 2)")
        values = [v for v in _scenario_inputs(self) if v is not None]
        # axis=None flattens each value, scalars included
        if not np.isfinite(np.concatenate(values, axis=None)).all():
            raise ModelError("every scenario value must be finite")

        if (self.max_power <= 0).any() or (self.file_sizes <= 0).any():
            raise ModelError("powers and file sizes must be strictly positive")
        if (self.sinr_thresholds <= 0).any() or (g <= 0).any():
            raise ModelError("SINR thresholds and gains must be strictly positive")
        if (self.cache_capacity < 0).any() or (self.backhaul_mean < 0).any():
            raise ModelError("capacities and backhaul means must be nonnegative")
        if self.noise_power <= 0 or self.bandwidth <= 0:
            raise ModelError("noise power and bandwidth must be strictly positive")
        if not 2.0 <= self.pathloss_exponent <= 5.0:
            raise ModelError("pathloss exponent must lie in [2, 5]")
        _check_alpha(self.alpha)
        if self.central_zone_radius <= 0:
            raise ModelError("central zone radius must be positive")
        if (self.load_coefficients <= 0).any() or not (
            abs(self.load_coefficients.sum() - 1.0) <= _UNIT_SUM_TOL
        ):
            raise ModelError("load coefficients must be positive and sum to 1")

        dist = None
        if self.sbs_positions is not None and self.user_positions is not None:
            diff = self.user_positions[:, None, :] - self.sbs_positions[None, :, :]
            # np.linalg.norm(diff, axis=2) computes this, behind its wrapper
            dist = np.sqrt((diff * diff).sum(axis=2))
            dist.setflags(write=False)
            if not dist.all():
                i, j = np.argwhere(dist == 0.0)[0]
                raise ModelError(
                    f"user {i} is at distance 0 from SBS {j}, so its gain is infinite"
                )
            expected = dist ** (-self.pathloss_exponent)
            # np.allclose(g, expected, rtol=1e-9): its default atol is 1e-8,
            # and it rejects an infinite expected gain, which the bound alone
            # would accept
            if not (
                (np.abs(g - expected) <= 1e-8 + 1e-9 * np.abs(expected)).all()
                and np.isfinite(expected).all()
            ):
                raise ModelError(
                    "channel gains inconsistent with positions and pathloss exponent"
                )
        object.__setattr__(self, "distances", dist)

        object.__setattr__(
            self,
            "rate_requirements",
            _frozen(self.bandwidth * np.log2(1.0 + self.sinr_thresholds)),
        )


# every init field of a Scenario, in declaration order
_scenario_inputs = attrgetter(*(f.name for f in fields(Scenario) if f.init))


@dataclass(frozen=True)
class DemandMatrix:
    """Binary user x file request matrix; each user requests exactly one file."""

    theta: np.ndarray
    # index of the file each user requests
    requested_file: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        th = _frozen_binary(self.theta, "theta")
        object.__setattr__(self, "theta", th)
        if (th.sum(axis=1) != 1).any():
            raise ModelError("each user must request exactly one file")
        files = th.argmax(axis=1)
        files.setflags(write=False)
        object.__setattr__(self, "requested_file", files)


@dataclass(frozen=True)
class Association:
    """Binary user x SBS assignment matrix; each user joins exactly one SBS."""

    x: np.ndarray

    def __post_init__(self):
        x = _frozen_binary(self.x, "x")
        object.__setattr__(self, "x", x)
        if np.any(x.sum(axis=1) != 1):
            raise ModelError("each user must associate with exactly one SBS")

    @classmethod
    def from_assignment(cls, assigned_sbs, sbs_count: int) -> "Association":
        assigned = np.asarray(assigned_sbs)
        # a Python scan is cheaper than array compares on short assignments
        if not all(float(j).is_integer() and 0 <= j < sbs_count
                   for j in assigned.ravel().tolist()):
            raise ModelError(f"SBS indices must be integers in [0, {sbs_count})")
        return cls(np.eye(sbs_count, dtype=np.int8)[assigned.astype(int)])

    @classmethod
    def _unchecked(cls, assigned: np.ndarray, sbs_count: int) -> "Association":
        """``from_assignment`` without its checks, for indices valid by construction."""
        x = np.zeros((len(assigned), sbs_count), dtype=np.int8)
        x[np.arange(len(assigned)), assigned] = 1
        x.setflags(write=False)
        assoc = object.__new__(cls)
        object.__setattr__(assoc, "x", x)
        return assoc

    @property
    def assigned_sbs(self) -> np.ndarray:
        # ndarray.argmax skips the Python wrapper of np.argmax
        return self.x.argmax(axis=1)


@dataclass(frozen=True)
class PowerVector:
    """Per-SBS transmit powers in watts, within [0, P_max].

    ``p`` is kept as a read-only float copy. A non-vector, a non-finite
    entry or a negative one is a ``ModelError``; the sign is checked on
    the least entry, once every entry is known to be finite.
    """

    p: np.ndarray

    def __post_init__(self):
        p = _frozen(self.p)
        object.__setattr__(self, "p", p)
        if p.ndim != 1:
            raise ModelError("p must be a vector")
        if not np.isfinite(p).all():
            raise ModelError("powers must be finite")
        # an empty vector has no least entry
        if p.size and p.min() < 0:
            raise ModelError("powers must be nonnegative")


@dataclass(frozen=True)
class CachePlacement:
    """Binary SBS x file caching matrix under per-SBS byte capacity."""

    y: np.ndarray

    def __post_init__(self):
        y = _frozen_binary(self.y, "y")
        object.__setattr__(self, "y", y)

    def check_capacity(self, scenario: Scenario) -> bool:
        used = self.y @ scenario.file_sizes
        return bool(np.all(used <= scenario.cache_capacity + 1e-6))


@dataclass(frozen=True)
class ObjectiveValue:
    energy: float     # joules
    delay: float      # seconds
    weighted: float


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violation: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _check_indices(scenario: Scenario, i: int, j: int):
    if not 0 <= i < scenario.user_count:
        raise ModelError(f"user index {i} out of range")
    if not 0 <= j < scenario.sbs_count:
        raise ModelError(f"SBS index {j} out of range")


def sinr(scenario: Scenario, p: PowerVector, i: int, j: int) -> float:
    """Signal-to-interference-plus-noise ratio at user i served by SBS j."""
    _check_indices(scenario, i, j)
    g = scenario.channel_gains[i]
    interference = float(g @ p.p) - g[j] * p.p[j]
    return float(p.p[j] * g[j] / (interference + scenario.noise_power))


def relaxed_delay_table(scenario: Scenario, placement: CachePlacement) -> np.ndarray:
    """Relaxed d_ij^k as a (B, F) table: s_k/R_k plus backhaul on misses.

    Relaxed wireless delay is user-independent, so the table only depends
    on the serving SBS and the file. A placement of another shape than
    (B, F) is a ``ModelError``: it would broadcast.
    """
    expected = (scenario.sbs_count, scenario.file_count)
    _check_shape("cache placement", placement.y.shape, expected)
    tau = scenario.file_sizes * BITS_PER_BYTE / scenario.rate_requirements
    return tau[None, :] + (1 - placement.y) * scenario.backhaul_mean[:, None]


def total_transmission_time(scenario: Scenario, demands: DemandMatrix) -> float:
    """Association-independent total wireless time D under the relaxed model."""
    tau = scenario.file_sizes * BITS_PER_BYTE / scenario.rate_requirements
    return float(tau[demands.requested_file].sum())


def delay_coefficients(
    scenario: Scenario, demands: DemandMatrix, placement: CachePlacement
) -> np.ndarray:
    """Per (user, SBS) relaxed delivery delay of the user's requested file."""
    table = relaxed_delay_table(scenario, placement)   # B x F
    return table[:, demands.requested_file].T          # U x B


def serving_time(
    scenario: Scenario,
    demands: DemandMatrix,
    assoc: Optional[Association],
    mode: str = "relaxed",
) -> np.ndarray:
    """Per-SBS time T_j needed to transmit every file requested at that SBS.

    Only the relaxed model exists: T_j = load_j * D, which does not depend
    on the association. ``assoc`` and ``mode`` stay in the signature so
    existing callers of ``serving_time(s, d, None, "relaxed")`` keep
    working; any mode other than ``"relaxed"`` is rejected.
    """
    if mode != "relaxed":
        raise ModelError(f"unknown mode {mode!r}")
    return scenario.load_coefficients * total_transmission_time(scenario, demands)


def objective(
    scenario: Scenario,
    demands: DemandMatrix,
    placement: CachePlacement,
    assoc: Association,
    p: PowerVector,
    alpha: Optional[float] = None,
) -> ObjectiveValue:
    """Weighted energy-delay objective with both components reported.

    Energy is ``p @ T`` with the relaxed serving times; delay is the sum of
    the relaxed delivery delays of the assigned (user, SBS) pairs. ``alpha``
    defaults to the scenario's weight. An association of another shape
    than (U, B), or a power vector of another shape than (B,), is a
    ``ModelError``, and so is an ``alpha`` outside [0, 1].
    """
    _check_shape("association", assoc.x.shape, scenario.channel_gains.shape)
    _check_shape("power vector", p.p.shape, (scenario.sbs_count,))
    if alpha is None:
        alpha = scenario.alpha
    _check_alpha(alpha)
    energy = float(p.p @ serving_time(scenario, demands, assoc))
    delay = float((delay_coefficients(scenario, demands, placement) * assoc.x).sum())
    return ObjectiveValue(energy, delay, weighted(alpha, energy, delay))


def requested_thresholds(scenario: Scenario, demands: DemandMatrix) -> np.ndarray:
    """Per-user SINR threshold of the requested file (gamma_{f_i})."""
    return scenario.sinr_thresholds[demands.requested_file]


def check_feasible(
    scenario: Scenario,
    demands: DemandMatrix,
    assoc: Association,
    p: PowerVector,
) -> FeasibilityReport:
    """Verify power bounds, association structure and per-user SINR requirements.

    Returns a report naming the first violated constraint instead of raising.
    A power may pass its cap by 1e-7 of that cap, and an SINR may miss its
    threshold by 1e-7 of it plus 1e-7; SINR is a ratio, so neither
    tolerance depends on the unit of power.
    """
    tol = 1e-7
    if assoc.x.shape != (scenario.user_count, scenario.sbs_count):
        return FeasibilityReport(False, "association shape mismatch")
    if p.p.shape != (scenario.sbs_count,):
        return FeasibilityReport(False, "power vector shape mismatch")
    over = np.nonzero(p.p > scenario.max_power * (1 + tol))[0]
    if over.size:
        j = int(over[0])
        return FeasibilityReport(
            False, f"power bound violated at SBS {j}: {p.p[j]} > {scenario.max_power[j]}"
        )
    gammas = requested_thresholds(scenario, demands)
    for i, j in enumerate(assoc.assigned_sbs.tolist()):
        s = sinr(scenario, p, i, j)
        if s < gammas[i] * (1 - tol) - tol:
            return FeasibilityReport(
                False,
                f"SINR requirement violated for user {i} at SBS {j}: "
                f"{s:.6g} < {gammas[i]:.6g}",
            )
    return FeasibilityReport(True)
