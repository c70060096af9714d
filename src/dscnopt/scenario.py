"""Instance generation, configuration presets, and canonical serialization.

Generation follows the simulation recipe: SBSs on a uniform grid over a
square region, users uniform at random, distance power-law gains, file
sizes uniform (on a 0.1 MB grid so the knapsack DP stays exact) and
per-file SINR thresholds uniform in a configured range. Config values use
field units (dBm, MB, kHz); instances store linear-scale SI.

The instance file format is sectioned UTF-8 text with units in key names,
matrices as row-major blocks with declared dimensions, fixed field order,
and 17-significant-digit floats, so equal instances serialize to
byte-identical files and round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import List, Optional, Tuple

import numpy as np

from .model import DemandMatrix, ModelError, Scenario
from .placement import DEFAULT_GRID_BYTES
from .popularity import (
    DEFAULT_VARIANCE_RANGE,
    PreferenceMatrix,
    local_popularity,
    sample_demands,
    sample_preferences,
)

MB = 1_000_000.0
FORMAT_HEADER = "dscnopt-instance v1"

# The published setting's fixed physics, the same in both presets: the
# per-user bandwidth, the ranges of file sizes and of the SBSs' mean
# backhaul delays, the stored alpha and the path-loss exponent.
BANDWIDTH_KHZ = 200.0
FILE_SIZE_RANGE_MB = (0.5, 50.0)
BACKHAUL_MEAN_RANGE_S = (0.5, 2.0)
ALPHA = 0.5
PATHLOSS_EXPONENT = 3.0


class ConfigError(ModelError):
    """Raised with the full list of config violations."""


class ParseError(ValueError):
    """Raised on malformed instance files, naming the offending field."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for random instance generation; defaults follow the full-size preset.

    The values that no preset varies are the module constants above.
    """

    sbs_count: int = 25
    user_count: int = 150
    file_count: int = 600
    region_size_m: float = 250.0
    max_power_dbm: float = 23.0
    noise_density_dbm_hz: float = -174.0
    sinr_threshold_range: Tuple[float, float] = (1.5, 5.0)
    cache_fraction: float = 0.1          # of total catalog bytes, per SBS
    central_zone_radius_m: float = 25.0
    min_user_sbs_distance_m: float = 1.0
    user_cluster_radius_m: Optional[float] = None  # None: uniform over the region
    preference_variance_range: Tuple[float, float] = DEFAULT_VARIANCE_RANGE

    def validate(self) -> None:
        problems: List[str] = []
        if self.sbs_count < 1:
            problems.append("sbs_count must be positive")
        if self.user_count < 1:
            problems.append("user_count must be positive")
        if self.file_count < 1:
            problems.append("file_count must be positive")
        if self.region_size_m <= 0:
            problems.append("region_size_m must be positive")
        lo, hi = self.sinr_threshold_range
        if lo <= 0 or hi < lo:
            problems.append("sinr_threshold_range must be positive and ordered")
        if not 0.0 <= self.cache_fraction <= 1.0:
            problems.append("cache_fraction must lie in [0, 1]")
        if self.min_user_sbs_distance_m <= 0:
            problems.append("min_user_sbs_distance_m must be positive")
        if self.central_zone_radius_m <= 0:
            problems.append("central_zone_radius_m must be positive")
        if problems:
            raise ConfigError("; ".join(problems))


def paper_scale() -> GenerationConfig:
    """The published simulation setting."""
    return GenerationConfig()


def desk_scale(**overrides) -> GenerationConfig:
    """Tiny preset whose 3^6 association space is exhaustively enumerable.

    Users are clustered near SBSs so that nearly every seeded instance
    admits a jointly feasible power allocation.
    """
    base = GenerationConfig(
        sbs_count=3,
        user_count=6,
        file_count=8,
        region_size_m=220.0,
        cache_fraction=0.4,
        max_power_dbm=26.0,
        noise_density_dbm_hz=-92.0,
        sinr_threshold_range=(0.5, 2.0),
        central_zone_radius_m=45.0,
        min_user_sbs_distance_m=8.0,
        user_cluster_radius_m=28.0,
        preference_variance_range=(1.0, 3.0**2),
    )
    return replace(base, **overrides)


def sbs_grid(count: int, region: float) -> np.ndarray:
    """Uniform grid positions: each SBS at the center of its cell."""
    cols = int(np.ceil(np.sqrt(count)))
    rows = int(np.ceil(count / cols))
    xs = (np.arange(cols) + 0.5) * region / cols
    ys = (np.arange(rows) + 0.5) * region / rows
    grid = [(x, y) for y in ys for x in xs]
    return np.array(grid[:count])


@dataclass(frozen=True)
class Instance:
    """A scenario together with its sampled preferences and demands."""

    scenario: Scenario
    preferences: PreferenceMatrix
    demands: DemandMatrix


def generate(config: GenerationConfig, seed: int) -> Instance:
    """Deterministically generate a full instance from a config and seed."""
    config.validate()
    rng = np.random.default_rng(seed)
    B, U, F = config.sbs_count, config.user_count, config.file_count
    region = config.region_size_m

    sbs_pos = sbs_grid(B, region)
    sbs_xy = sbs_pos.tolist()
    radius = config.user_cluster_radius_m
    # Candidates are Python floats: min/max and the sums of squares make the
    # IEEE operations of np.clip and np.linalg.norm on 2-element arrays, for
    # a fraction of their call cost. The placed user's squared distances
    # become its row of the distance matrix.
    users, squares = [], []
    for _ in range(U):
        for _ in range(10_000):
            if radius is None:
                x, y = rng.uniform(0.0, region, size=2).tolist()
            else:
                cx, cy = sbs_xy[rng.integers(B)]
                ox, oy = rng.uniform(-radius, radius, size=2).tolist()
                x = min(max(cx + ox, 0.0), region)
                y = min(max(cy + oy, 0.0), region)
            sq = [(sx - x) * (sx - x) + (sy - y) * (sy - y) for sx, sy in sbs_xy]
            if math.sqrt(min(sq)) >= config.min_user_sbs_distance_m:
                users.append((x, y))
                squares.append(sq)
                break
        else:
            raise ConfigError("could not place a user outside the exclusion radius")

    gains = np.sqrt(squares) ** (-PATHLOSS_EXPONENT)

    lo, hi = FILE_SIZE_RANGE_MB
    cells = rng.integers(
        int(round(lo * MB / DEFAULT_GRID_BYTES)),
        int(round(hi * MB / DEFAULT_GRID_BYTES)) + 1,
        size=F,
    )
    sizes = cells.astype(float) * DEFAULT_GRID_BYTES
    thresholds = rng.uniform(*config.sinr_threshold_range, size=F)
    backhaul = rng.uniform(*BACKHAUL_MEAN_RANGE_S, size=B)
    bandwidth = BANDWIDTH_KHZ * 1e3
    noise = dbm_to_watts(config.noise_density_dbm_hz) * bandwidth
    capacity = np.full(B, config.cache_fraction * sizes.sum())

    scenario = Scenario(
        sbs_count=B,
        user_count=U,
        file_count=F,
        max_power=np.full(B, dbm_to_watts(config.max_power_dbm)),
        cache_capacity=capacity,
        backhaul_mean=backhaul,
        file_sizes=sizes,
        sinr_thresholds=thresholds,
        bandwidth=bandwidth,
        noise_power=noise,
        pathloss_exponent=PATHLOSS_EXPONENT,
        channel_gains=gains,
        alpha=ALPHA,
        load_coefficients=np.full(B, 1.0 / B),
        central_zone_radius=config.central_zone_radius_m,
        sbs_positions=sbs_pos,
        user_positions=np.array(users),
    )
    prefs = sample_preferences(
        scenario, seed, variance_range=config.preference_variance_range
    )
    popularity = local_popularity(scenario, prefs)
    demands = sample_demands(scenario, popularity, prefs, seed)
    return Instance(scenario, prefs, demands)


# --- serialization ---------------------------------------------------------

# Every field of the instance file, in file order: (key, Instance attribute,
# value type, shape). Scalars have no shape; a matrix's dimensions are
# counts (B SBSs, U users, F files) or fixed sizes, and a vector is one
# column wide.
_FIELDS = [
    ("sbs_count", "scenario.sbs_count", int, None),
    ("user_count", "scenario.user_count", int, None),
    ("file_count", "scenario.file_count", int, None),
    ("bandwidth_hz", "scenario.bandwidth", float, None),
    ("noise_power_w", "scenario.noise_power", float, None),
    ("pathloss_exponent", "scenario.pathloss_exponent", float, None),
    ("alpha", "scenario.alpha", float, None),
    ("central_zone_radius_m", "scenario.central_zone_radius", float, None),
    ("sbs_positions_m", "scenario.sbs_positions", float, ("B", 2)),
    ("user_positions_m", "scenario.user_positions", float, ("U", 2)),
    ("max_power_w", "scenario.max_power", float, ("B", 1)),
    ("cache_capacity_bytes", "scenario.cache_capacity", float, ("B", 1)),
    ("backhaul_mean_s", "scenario.backhaul_mean", float, ("B", 1)),
    ("load_coefficients", "scenario.load_coefficients", float, ("B", 1)),
    ("file_sizes_bytes", "scenario.file_sizes", float, ("F", 1)),
    ("sinr_thresholds", "scenario.sinr_thresholds", float, ("F", 1)),
    ("preference_rho", "preferences.rho", float, ("U", "F")),
    ("demand_theta", "demands.theta", int, ("U", "F")),
]


def _fmt(v, kind: type) -> str:
    return str(int(v)) if kind is int else format(float(v), ".17g")


def dumps(instance: Instance) -> str:
    sc = instance.scenario
    if sc.sbs_positions is None or sc.user_positions is None:
        raise ModelError("only instances with positions can be serialized")
    lines = [FORMAT_HEADER, "[scenario]"]
    for key, source, kind, shape in _FIELDS:
        value = attrgetter(source)(instance)
        if shape is None:
            lines.append(f"{key} = {_fmt(value, kind)}")
            continue
        data = np.asarray(value).reshape(len(value), -1)
        lines.append(f"[matrix {key} {data.shape[0]} {data.shape[1]}]")
        lines.extend(" ".join(_fmt(v, kind) for v in row) for row in data)
    return "\n".join(lines) + "\n"


def save(instance: Instance, path: str) -> None:
    text = dumps(instance)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_fields(lines: List[str]) -> dict:
    """Every field's raw value, keyed as in ``_FIELDS``; matrices as floats."""
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ParseError("missing or unknown format header")
    if len(lines) < 2 or lines[1].strip() != "[scenario]":
        raise ParseError("missing [scenario] section")
    scalars = {key: kind for key, _, kind, shape in _FIELDS if shape is None}
    matrices = {key for key, _, _, shape in _FIELDS if shape is not None}
    values = {}
    i = 2
    while i < len(lines) and not lines[i].startswith("["):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {i}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in scalars:
            raise ParseError(f"line {i}: unknown scalar key {key!r}")
        if key in values:
            raise ParseError(f"line {i}: duplicate key {key!r}")
        try:
            values[key] = scalars[key](raw)
        except ValueError as exc:
            raise ParseError(f"line {i}: bad value for {key!r}: {raw!r}") from exc
    while i < len(lines):
        header = lines[i].strip()
        i += 1
        if not header:
            continue
        parts = header.strip("[]").split()
        if len(parts) != 4 or parts[0] != "matrix":
            raise ParseError(f"line {i}: expected a matrix header, got {header!r}")
        name = parts[1]
        try:
            rows, cols = int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ParseError(f"line {i}: bad dimensions for matrix {name!r}") from exc
        if name not in matrices:
            raise ParseError(f"line {i}: unknown matrix {name!r}")
        if name in values:
            raise ParseError(f"line {i}: duplicate matrix {name!r}")
        data = []
        for r in range(rows):
            if i >= len(lines):
                raise ParseError(f"matrix {name!r} truncated: expected {rows} rows")
            row = lines[i].split()
            i += 1
            if len(row) != cols:
                raise ParseError(
                    f"matrix {name!r} row {r}: expected {cols} values, got {len(row)}"
                )
            try:
                data.append([float(v) for v in row])
            except ValueError as exc:
                raise ParseError(f"matrix {name!r} row {r}: bad number") from exc
        values[name] = np.array(data, dtype=float)
    for key, *_ in _FIELDS:
        if key not in values:
            raise ParseError(f"missing field {key!r}")
    return values


def loads(text: str) -> Instance:
    """Parse an instance file; malformed or invalid content raises ``ParseError``."""
    values = _parse_fields(text.splitlines())
    counts = {
        "B": values["sbs_count"], "U": values["user_count"], "F": values["file_count"]
    }
    parts = {"scenario": {}, "preferences": {}, "demands": {}}
    for key, source, _, shape in _FIELDS:
        value = values[key]
        if shape is not None:
            expected = tuple(counts.get(d, d) for d in shape)
            if value.shape != expected:
                raise ParseError(
                    f"matrix {key!r} has shape {value.shape}, expected {expected}"
                )
            if shape[1] == 1:
                value = value[:, 0]
        owner, attr = source.split(".")
        parts[owner][attr] = value
    sc = parts["scenario"]
    dist = np.linalg.norm(
        sc["user_positions"][:, None, :] - sc["sbs_positions"][None, :, :], axis=2
    )
    # a user at zero distance from an SBS gets a finite stand-in gain, so
    # that Scenario's own check names the pair
    gains = np.where(dist > 0.0, dist, 1.0) ** (-sc["pathloss_exponent"])
    try:
        scenario = Scenario(channel_gains=gains, **sc)
        prefs = PreferenceMatrix(parts["preferences"]["rho"])
        demands = DemandMatrix(parts["demands"]["theta"])
    except ModelError as exc:
        raise ParseError(f"invalid instance: {exc}") from exc
    return Instance(scenario, prefs, demands)


def load(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
