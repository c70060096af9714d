"""Generation, configuration validation and serialization round-trips."""

import hashlib
import re
import warnings

import numpy as np
import pytest

from dscnopt import scenario as scn
from dscnopt.placement import DEFAULT_GRID_BYTES, gpc_placement, lpf_greedy, rc_placement
from dscnopt.popularity import local_popularity
from dscnopt.scenario import (
    ConfigError,
    GenerationConfig,
    ParseError,
    dbm_to_watts,
    desk_scale,
    paper_scale,
    sbs_grid,
)


class TestUnits:
    def test_dbm_to_watts(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert dbm_to_watts(23.0) == pytest.approx(0.1995262, rel=1e-6)


class TestConfig:
    def test_presets_validate(self):
        paper_scale().validate()
        desk_scale().validate()

    def test_desk_overrides(self):
        cfg = desk_scale(user_count=4, cache_fraction=0.2)
        assert cfg.user_count == 4 and cfg.cache_fraction == 0.2
        assert cfg.sbs_count == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sbs_count": 0},
            {"sinr_threshold_range": (-1.0, 1.0)},
            {"cache_fraction": 1.5},
            {"min_user_sbs_distance_m": 0.0},
        ],
    )
    def test_invalid_configs(self, overrides):
        with pytest.raises(ConfigError):
            GenerationConfig(**overrides).validate()


class TestGrid:
    def test_grid_counts_and_bounds(self):
        for count in (1, 3, 4, 7, 25):
            grid = sbs_grid(count, 100.0)
            assert grid.shape == (count, 2)
            assert np.all((grid >= 0) & (grid <= 100.0))

    def test_square_grid_positions(self):
        grid = sbs_grid(4, 100.0)
        assert grid.tolist() == [
            [25.0, 25.0], [75.0, 25.0], [25.0, 75.0], [75.0, 75.0]
        ]


# SHA-256 over each instance's ``dumps`` text, ``float.hex`` of its local
# popularity and the bytes of its lpf, gpc and rc placements: desk seeds 0-29
# and 1,000,000-1,000,005 at U in {4, 5, 6, 8, 9, 12}, then paper seeds 0-1
GENERATOR_DIGEST = "211648956c52261ede8a83d7ff0c0411c82907f640a2e1b8ad25dbc9901f416f"


def generator_fingerprint():
    digest = hashlib.sha256()
    cases = [(desk_scale(user_count=U), seed)
             for U in (4, 5, 6, 8, 9, 12)
             for seed in [*range(30), *range(1_000_000, 1_000_006)]]
    cases += [(paper_scale(), seed) for seed in (0, 1)]
    for config, seed in cases:
        inst = scn.generate(config, seed)
        s = inst.scenario
        pop = local_popularity(s, inst.preferences)
        digest.update(scn.dumps(inst).encode())
        digest.update(",".join(map(float.hex, pop.psi.ravel().tolist())).encode())
        for placement in (lpf_greedy(s, pop)[0], gpc_placement(s), rc_placement(s, seed)):
            digest.update(placement.y.tobytes())
    return digest.hexdigest()


class TestGeneration:
    def test_deterministic(self):
        a = scn.generate(desk_scale(), 9)
        b = scn.generate(desk_scale(), 9)
        assert np.array_equal(a.scenario.channel_gains, b.scenario.channel_gains)
        assert np.array_equal(a.demands.theta, b.demands.theta)

    def test_seed_changes_instance(self):
        a = scn.generate(desk_scale(), 1)
        b = scn.generate(desk_scale(), 2)
        assert not np.array_equal(a.scenario.user_positions, b.scenario.user_positions)

    def test_respects_exclusion_radius(self):
        inst = scn.generate(desk_scale(), 3)
        s = inst.scenario
        dist = np.linalg.norm(
            s.user_positions[:, None, :] - s.sbs_positions[None, :, :], axis=2
        )
        assert dist.min() >= desk_scale().min_user_sbs_distance_m

    def test_file_sizes_on_dp_grid(self):
        inst = scn.generate(desk_scale(), 4)
        units = inst.scenario.file_sizes / DEFAULT_GRID_BYTES
        assert np.allclose(units, np.rint(units))

    def test_instances_match_recorded_fingerprint(self):
        """Generated instances, popularity and placements are unchanged, bit for bit.

        The digest was recorded before the set-up path was reworked for
        speed. Making the generator's random streams independent (ROADMAP
        item 6) changes every instance, and re-records it on purpose.
        """
        assert generator_fingerprint() == GENERATOR_DIGEST

    def test_capacity_is_fraction_of_catalog(self):
        cfg = desk_scale(cache_fraction=0.25)
        inst = scn.generate(cfg, 5)
        total = inst.scenario.file_sizes.sum()
        assert inst.scenario.cache_capacity == pytest.approx(
            np.full(3, 0.25 * total)
        )


def replace_row(text, header, row):
    """The instance text with the first row under a matrix header replaced."""
    lines = text.splitlines()
    lines[lines.index(header) + 1] = row
    return "\n".join(lines) + "\n"


class TestSerialization:
    def test_round_trip_is_exact(self):
        inst = scn.generate(desk_scale(), 6)
        text = scn.dumps(inst)
        back = scn.loads(text)
        assert np.array_equal(
            back.scenario.channel_gains, inst.scenario.channel_gains
        )
        assert np.array_equal(back.demands.theta, inst.demands.theta)
        assert np.array_equal(back.preferences.rho, inst.preferences.rho)
        assert back.scenario.noise_power == inst.scenario.noise_power

    def test_serialization_is_byte_stable(self):
        inst = scn.generate(desk_scale(), 6)
        text = scn.dumps(inst)
        assert scn.dumps(scn.loads(text)) == text

    def test_save_load_files(self, tmp_path):
        inst = scn.generate(desk_scale(), 7)
        path = tmp_path / "inst.txt"
        scn.save(inst, str(path))
        back = scn.load(str(path))
        assert np.array_equal(back.demands.theta, inst.demands.theta)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda t: "bogus header\n" + t.split("\n", 1)[1],
            lambda t: t.replace("[scenario]", "[wrong]"),
            lambda t: t.replace("sbs_count = 3", "sbs_count = three"),
            lambda t: t.replace("alpha = ", "unknown_key = ", 1),
            lambda t: t.replace("[matrix max_power_w 3 1]", "[matrix max_power_w 4 1]"),
            lambda t: "\n".join(t.splitlines()[:-1]),
            lambda t: t.replace("[matrix max_power_w 3 1]", "[matrix max_power_w x 1]"),
            lambda t: replace_row(t, "[matrix max_power_w 3 1]", "-1"),
            lambda t: replace_row(t, "[matrix demand_theta 6 8]", "0.5 0.5" + " 0" * 6),
            lambda t: replace_row(t, "[matrix max_power_w 3 1]", "nan"),
            lambda t: re.sub(r"noise_power_w = .*", "noise_power_w = nan", t),
            lambda t: re.sub(r"bandwidth_hz = .*", "bandwidth_hz = inf", t),
            lambda t: re.sub(
                r"central_zone_radius_m = .*", "central_zone_radius_m = -5", t
            ),
        ],
    )
    def test_malformed_files_raise(self, mangle):
        text = scn.dumps(scn.generate(desk_scale(), 8))
        with pytest.raises(ParseError):
            scn.loads(mangle(text))

    def test_user_on_an_sbs_is_a_parse_error(self):
        inst = scn.generate(desk_scale(), 8)
        lines = scn.dumps(inst).splitlines()
        sbs_row = lines[lines.index("[matrix sbs_positions_m 3 2]") + 2]
        # user 2 moved onto SBS 1
        lines[lines.index("[matrix user_positions_m 6 2]") + 3] = sbs_row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="user 2 is at distance 0 from SBS 1"):
                scn.loads("\n".join(lines) + "\n")

    def test_missing_section_raises(self):
        text = scn.dumps(scn.generate(desk_scale(), 8))
        lines = text.splitlines()
        start = lines.index("[matrix demand_theta 6 8]")
        with pytest.raises(ParseError):
            scn.loads("\n".join(lines[:start]))
