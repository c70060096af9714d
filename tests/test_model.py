"""Domain type invariants and physical formulas checked against hand math."""

import numpy as np
import pytest

from dscnopt.model import (
    Association,
    CachePlacement,
    DemandMatrix,
    ModelError,
    PowerVector,
    Scenario,
    check_feasible,
    delay_coefficients,
    objective,
    relaxed_delay_table,
    requested_thresholds,
    serving_time,
    sinr,
    total_transmission_time,
)


def tiny_scenario(**overrides) -> Scenario:
    """2 SBSs, 2 users, 2 files with simple round numbers."""
    base = dict(
        sbs_count=2,
        user_count=2,
        file_count=2,
        max_power=[1.0, 1.0],
        cache_capacity=[1e6, 1e6],
        backhaul_mean=[0.5, 1.5],
        file_sizes=[1e6, 2e6],
        sinr_thresholds=[1.0, 3.0],
        bandwidth=1e6,
        noise_power=1e-3,
        pathloss_exponent=3.0,
        channel_gains=[[1.0, 0.1], [0.2, 0.8]],
        alpha=0.5,
        load_coefficients=[0.5, 0.5],
        central_zone_radius=25.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenarioValidation:
    def test_valid_construction(self):
        s = tiny_scenario()
        # rate requirement: W log2(1 + gamma); gamma=1 -> W, gamma=3 -> 2W
        assert s.rate_requirements == pytest.approx([1e6, 2e6])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_power": [0.0, 1.0]},
            {"sinr_thresholds": [0.0, 1.0]},
            {"channel_gains": [[1.0, -0.1], [0.2, 0.8]]},
            {"noise_power": 0.0},
            {"alpha": 1.5},
            {"pathloss_exponent": 9.0},
            {"load_coefficients": [0.9, 0.2]},
            {"file_sizes": [1e6]},
        ],
    )
    def test_invalid_inputs_raise(self, overrides):
        with pytest.raises(ModelError):
            tiny_scenario(**overrides)

    def test_positions_must_match_gains(self):
        with pytest.raises(ModelError):
            tiny_scenario(
                sbs_positions=[[0.0, 0.0], [10.0, 0.0]],
                user_positions=[[1.0, 0.0], [9.0, 0.0]],
            )

    def test_arrays_are_frozen(self):
        s = tiny_scenario()
        with pytest.raises(ValueError):
            s.max_power[0] = 2.0


class TestStructuredTypes:
    def test_demand_requires_one_file_per_user(self):
        DemandMatrix([[1, 0], [0, 1]])
        with pytest.raises(ModelError):
            DemandMatrix([[1, 1], [0, 1]])
        with pytest.raises(ModelError):
            DemandMatrix([[0, 0], [0, 1]])

    def test_association_round_trip(self):
        assoc = Association.from_assignment([1, 0, 1], 2)
        assert assoc.assigned_sbs.tolist() == [1, 0, 1]
        with pytest.raises(ModelError):
            Association([[1, 1], [0, 1]])

    @pytest.mark.parametrize("assigned", [[-1, 0], [0, 3]])
    def test_from_assignment_rejects_out_of_range_index(self, assigned):
        # -1 would wrap to the last SBS, and 3 would index past the end
        with pytest.raises(ModelError):
            Association.from_assignment(assigned, 3)

    @pytest.mark.parametrize("assigned", [[0.7, 1.9], [0.0, np.nan], [np.inf, 0]])
    def test_from_assignment_rejects_non_integral_index(self, assigned):
        # 0.7 and 1.9 would truncate to the valid indices 0 and 1
        with pytest.raises(ModelError, match="integers"):
            Association.from_assignment(assigned, 2)

    def test_from_assignment_accepts_integral_floats(self):
        assert Association.from_assignment([1.0, 0.0], 2).assigned_sbs.tolist() == [1, 0]

    @pytest.mark.parametrize("cls", [DemandMatrix, Association, CachePlacement])
    @pytest.mark.parametrize(
        "matrix",
        [[[1.5, 0], [0, 1]], [[257, 0], [0, 1]], [[0.9, 1.0]]],
        ids=["fraction", "wraps-in-int8", "truncates-in-int8"],
    )
    def test_binary_matrix_rejects_non_binary_entries(self, cls, matrix):
        # each would cast to a valid 0/1 int8 matrix
        with pytest.raises(ModelError, match="binary matrix"):
            cls(np.array(matrix))

    def test_power_vector_bounds(self):
        s = tiny_scenario()
        assert PowerVector([0.5, 1.0]).check_bounds(s)
        assert not PowerVector([0.5, 1.1]).check_bounds(s)
        with pytest.raises(ModelError):
            PowerVector([-0.1, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_power_vector_rejects_non_finite(self, bad):
        # a NaN fails every comparison, so check_feasible would call it feasible
        with pytest.raises(ModelError, match="finite"):
            PowerVector([bad, 0.5])
        with pytest.raises(ModelError, match="finite"):
            PowerVector([bad, bad])

    def test_cache_placement_capacity(self):
        s = tiny_scenario()
        assert CachePlacement([[1, 0], [0, 0]]).check_capacity(s)
        # both files are 3 MB total > 1 MB capacity
        assert not CachePlacement([[1, 1], [0, 0]]).check_capacity(s)


class TestPhysics:
    def test_sinr_hand_computed(self):
        s = tiny_scenario()
        p = PowerVector([0.4, 0.5])
        # user 0 at SBS 0: 0.4*1.0 / (0.5*0.1 + 1e-3) = 0.4 / 0.051
        assert sinr(s, p, 0, 0) == pytest.approx(0.4 / 0.051)
        # user 1 at SBS 1: 0.5*0.8 / (0.4*0.2 + 1e-3)
        assert sinr(s, p, 1, 1) == pytest.approx(0.4 / 0.081)

    def test_relaxed_wireless_delay(self):
        s = tiny_scenario()
        # with every file cached, the table holds only the wireless time:
        # file 0: 8e6 bits at required rate 1e6 -> 8 s
        # file 1: 16e6 bits at 2e6 -> 8 s
        table = relaxed_delay_table(s, CachePlacement([[1, 1], [1, 1]]))
        assert table == pytest.approx(np.full((2, 2), 8.0))

    def test_delivery_delay_charges_backhaul_on_miss(self):
        s = tiny_scenario()
        cached = CachePlacement([[1, 0], [0, 0]])
        table = relaxed_delay_table(s, cached)
        assert table[0, 0] == pytest.approx(8.0)
        assert table[1, 0] == pytest.approx(8.0 + 1.5)
        assert table[0, 1] == pytest.approx(8.0 + 0.5)

    def test_relaxed_delay_table_matches_pointwise(self):
        s = tiny_scenario()
        cached = CachePlacement([[1, 0], [0, 1]])
        # user 0 requests file 1, user 1 requests file 0; backhaul 0.5 / 1.5
        # is charged where the serving SBS misses the file
        demands = DemandMatrix([[0, 1], [1, 0]])
        dcoef = delay_coefficients(s, demands, cached)
        assert dcoef == pytest.approx(np.array([[8.5, 8.0], [8.0, 9.5]]))
        table = relaxed_delay_table(s, cached)
        for i, k in enumerate(demands.requested_file):
            for j in range(2):
                assert dcoef[i, j] == table[j, k]


class TestAggregates:
    def test_total_transmission_time(self):
        s = tiny_scenario()
        demands = DemandMatrix([[1, 0], [0, 1]])
        # 8 s per requested file
        assert total_transmission_time(s, demands) == pytest.approx(16.0)

    def test_relaxed_serving_time_splits_by_load(self):
        s = tiny_scenario()
        demands = DemandMatrix([[1, 0], [0, 1]])
        assert serving_time(s, demands, None, "relaxed") == pytest.approx([8.0, 8.0])
        with pytest.raises(ModelError):
            serving_time(s, demands, None, "exact")

    def test_objective_combines_energy_and_delay(self):
        s = tiny_scenario()
        demands = DemandMatrix([[1, 0], [0, 1]])
        cached = CachePlacement([[1, 1], [1, 1]])
        assoc = Association.from_assignment([0, 1], 2)
        p = PowerVector([0.4, 0.5])
        value = objective(s, demands, cached, assoc, p, alpha=0.25)
        assert value.energy == pytest.approx(0.9 * 8.0)
        assert value.delay == pytest.approx(16.0)
        assert value.weighted == pytest.approx(0.25 * 7.2 + 0.75 * 16.0)

    def test_requested_thresholds(self):
        s = tiny_scenario()
        demands = DemandMatrix([[0, 1], [1, 0]])
        assert requested_thresholds(s, demands) == pytest.approx([3.0, 1.0])


class TestFeasibilityReport:
    def test_detects_power_violation(self):
        s = tiny_scenario()
        demands = DemandMatrix([[1, 0], [0, 1]])
        assoc = Association.from_assignment([0, 1], 2)
        report = check_feasible(s, demands, assoc, PowerVector([2.0, 0.5]))
        assert not report
        assert "power bound" in report.violation

    def test_detects_sinr_violation(self):
        s = tiny_scenario()
        demands = DemandMatrix([[1, 0], [0, 1]])
        assoc = Association.from_assignment([0, 1], 2)
        report = check_feasible(s, demands, assoc, PowerVector([1e-6, 1e-6]))
        assert not report
        assert "SINR" in report.violation

    def test_accepts_feasible_point(self):
        s = tiny_scenario(channel_gains=[[1.0, 0.01], [0.01, 0.8]])
        demands = DemandMatrix([[1, 0], [0, 1]])
        assoc = Association.from_assignment([0, 1], 2)
        # strong direct gains, tiny cross gains: moderate powers suffice
        report = check_feasible(s, demands, assoc, PowerVector([0.5, 0.9]))
        assert bool(report)
