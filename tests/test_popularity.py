"""Preference sampling, zone aggregation and demand quota tests."""

import numpy as np
import pytest

from dscnopt.model import ModelError, Scenario
from dscnopt.popularity import (
    PopularityTable,
    PreferenceMatrix,
    _largest_remainder,
    local_popularity,
    sample_demands,
    sample_preferences,
    zone_members,
)
from dscnopt import scenario as scn
from test_model import unit_sum_edges


@pytest.fixture(scope="module")
def desk_instance():
    return scn.generate(scn.desk_scale(), 0)


def positioned_scenario():
    """3 SBSs on a line, 4 users: two in zone 0, one in zone 2, one outside."""
    sbs = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
    users = np.array([[5.0, 0.0], [10.0, 5.0], [195.0, 0.0], [50.0, 40.0]])
    dist = np.linalg.norm(users[:, None, :] - sbs[None, :, :], axis=2)
    return Scenario(
        sbs_count=3,
        user_count=4,
        file_count=3,
        max_power=[1.0] * 3,
        cache_capacity=[1e6] * 3,
        backhaul_mean=[1.0] * 3,
        file_sizes=[1e6] * 3,
        sinr_thresholds=[1.0] * 3,
        bandwidth=1e6,
        noise_power=1e-3,
        pathloss_exponent=3.0,
        channel_gains=dist ** -3.0,
        alpha=0.5,
        load_coefficients=[1 / 3] * 3,
        central_zone_radius=25.0,
        sbs_positions=sbs,
        user_positions=users,
    )


class TestPreferenceMatrix:
    def test_rows_must_normalize(self):
        with pytest.raises(ModelError):
            PreferenceMatrix(np.array([[0.5, 0.4]]))
        with pytest.raises(ModelError):
            PreferenceMatrix(np.array([[1.2, -0.2]]))

    def test_sampled_preferences_are_distributions(self, desk_instance):
        prefs = desk_instance.preferences
        assert prefs.rho.shape == (6, 8)
        assert prefs.rho.sum(axis=1) == pytest.approx(np.ones(6))
        assert np.all(prefs.rho >= 0)

    def test_deterministic_in_seed(self):
        s = positioned_scenario()
        a = sample_preferences(s, 5)
        b = sample_preferences(s, 5)
        c = sample_preferences(s, 6)
        assert np.array_equal(a.rho, b.rho)
        assert not np.array_equal(a.rho, c.rho)

    def test_variance_controls_spread(self):
        s = positioned_scenario()
        narrow = sample_preferences(s, 1, variance_range=(0.25, 0.26))
        wide = sample_preferences(s, 1, variance_range=(400.0, 401.0))
        assert narrow.rho.max(axis=1).min() > wide.rho.max(axis=1).max()


class TestZonesAndPopularity:
    def test_zone_membership(self):
        zones = zone_members(positioned_scenario())
        assert zones[0].tolist() == [0, 1]
        assert zones[1].tolist() == []
        assert zones[2].tolist() == [2]

    def test_popularity_is_zone_average(self):
        s = positioned_scenario()
        rho = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.4, 0.3, 0.3],
            ]
        )
        prefs = PreferenceMatrix(rho)
        pop = local_popularity(s, prefs)
        assert pop.psi[0] == pytest.approx([0.5, 0.5, 0.0])
        # empty zone falls back to uniform
        assert pop.psi[1] == pytest.approx([1 / 3] * 3)
        assert pop.psi[2] == pytest.approx([0.0, 0.0, 1.0])

    def test_popularity_rows_validated(self):
        with pytest.raises(ModelError):
            PopularityTable(np.array([[0.7, 0.7]]))


class TestRowSums:
    @pytest.mark.parametrize("cls, message", [
        (PreferenceMatrix, "preference rows must sum to 1"),
        (PopularityTable, "popularity rows must sum to 1"),
    ])
    @pytest.mark.parametrize("total, accepted", unit_sum_edges())
    def test_rows_at_the_allclose_bound(self, cls, message, total, accepted):
        rows = np.array([[0.25, 0.75], [0.5, total - 0.5]])
        # the premise: np.allclose at atol 1e-9 draws the line
        assert bool(np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)) is accepted
        if accepted:
            cls(rows)
        else:
            with pytest.raises(ModelError, match=message):
                cls(rows)

    @pytest.mark.parametrize("cls, message", [
        (PreferenceMatrix, "preference rows must sum to 1"),
        (PopularityTable, "popularity rows must sum to 1"),
    ])
    def test_nan_row_is_rejected(self, cls, message):
        # NaN passes the sign check, so the row-sum check must catch it
        with pytest.raises(ModelError, match=message):
            cls(np.array([[0.5, 0.5], [np.nan, 0.5]]))

    @pytest.mark.parametrize("cls, message", [
        (PreferenceMatrix, "rho must be a nonnegative matrix"),
        (PopularityTable, "psi must be a nonnegative matrix"),
    ])
    @pytest.mark.parametrize("matrix", [[0.5, 0.5], [[1.5, -0.5]]])
    def test_shape_and_sign_are_checked_first(self, cls, message, matrix):
        with pytest.raises(ModelError, match=message):
            cls(np.array(matrix))


class TestLargestRemainder:
    def test_exact_split(self):
        assert _largest_remainder(np.array([0.5, 0.5]), 4).tolist() == [2, 2]

    def test_rounds_largest_remainder_first(self):
        counts = _largest_remainder(np.array([0.5, 0.3, 0.2]), 4)
        assert counts.tolist() == [2, 1, 1]

    def test_total_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = rng.dirichlet(np.ones(6))
            total = int(rng.integers(1, 40))
            counts = _largest_remainder(w, total)
            assert counts.sum() == total
            assert np.all(counts >= 0)

    def test_rows_match_the_one_row_loop(self):
        def one_row(weights, total):
            # the one-row form that the matrix form replaced
            target = weights * total
            counts = np.floor(target).astype(int)
            remainder = target - counts
            short = total - counts.sum()
            order = np.lexsort((np.arange(weights.size), -remainder))
            counts[order[:short]] += 1
            return counts

        rng = np.random.default_rng(4)
        for _ in range(300):
            B, F = rng.integers(1, 6), rng.integers(1, 10)
            weights = [
                rng.dirichlet(np.ones(F), size=B),
                rng.integers(0, 4, (B, F)) / 4.0,        # exact ties
                rng.uniform(0.0, 2.0, (B, F)),           # short far below 0
                rng.uniform(0.0, 0.5, (B, F)) / F,       # short above F
            ][rng.integers(4)]
            totals = rng.integers(0, 60, B)
            expected = [one_row(w, int(n)) for w, n in zip(weights, totals)]
            assert np.array_equal(_largest_remainder(weights, totals), expected)


class TestSampleDemands:
    def test_one_file_per_user(self, desk_instance):
        theta = desk_instance.demands.theta
        assert np.all(theta.sum(axis=1) == 1)

    def test_quotas_track_popularity(self):
        s = positioned_scenario()
        rho = np.eye(4, 3, dtype=float)
        rho[3] = [1 / 3, 1 / 3, 1 / 3]
        rho[0] = [1.0, 0.0, 0.0]
        prefs = PreferenceMatrix(rho)
        pop = local_popularity(s, prefs)
        demands = sample_demands(s, pop, prefs, 0)
        # zone-0 users (0, 1) split between files 0 and 1 per psi = [.5, .5, 0]
        zone_files = set(np.argmax(demands.theta[[0, 1]], axis=1))
        assert zone_files == {0, 1}
        # zone-2 user requests file 2 (psi concentrated there)
        assert demands.theta[2, 2] == 1

    def test_deterministic_in_seed(self, desk_instance):
        inst2 = scn.generate(scn.desk_scale(), 0)
        assert np.array_equal(desk_instance.demands.theta, inst2.demands.theta)


class TestShapes:
    # desk seed 0: U=6, B=3, F=8; a table of another shape would broadcast
    @pytest.mark.parametrize("users, files", [(7, 8), (5, 8), (6, 7)])
    def test_mis_shaped_preferences_raise(self, desk_instance, users, files):
        s = desk_instance.scenario
        prefs = PreferenceMatrix(np.full((users, files), 1.0 / files))
        pop = local_popularity(s, desk_instance.preferences)
        expected = rf"preference matrix has shape \({users}, {files}\), expected \(6, 8\)"
        with pytest.raises(ModelError, match=expected):
            local_popularity(s, prefs)
        with pytest.raises(ModelError, match=expected):
            sample_demands(s, pop, prefs, 0)

    @pytest.mark.parametrize("sbs, files", [(1, 8), (4, 8), (3, 1), (3, 7)])
    def test_mis_shaped_popularity_raises(self, desk_instance, sbs, files):
        pop = PopularityTable(np.full((sbs, files), 1.0 / files))
        expected = rf"popularity table has shape \({sbs}, {files}\), expected \(3, 8\)"
        with pytest.raises(ModelError, match=expected):
            sample_demands(desk_instance.scenario, pop, desk_instance.preferences, 0)
