"""Domain type invariants and physical formulas checked against hand math."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest

from dscnopt import scenario as scn
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


# np.isclose's and np.allclose's bound about 1: atol 1e-9 plus the default
# rtol 1e-5 times 1
SUM_TOL = 1e-9 + 1e-5


def unit_sum_edges():
    """(total, within the bound) on each side of 1: the last double in, the next out."""
    cases = []
    for away in (2.0, 0.0):
        s = 1.0 + SUM_TOL if away > 1.0 else 1.0 - SUM_TOL
        while abs(s - 1.0) > SUM_TOL:
            s = float(np.nextafter(s, 1.0))
        while abs(float(np.nextafter(s, away)) - 1.0) <= SUM_TOL:
            s = float(np.nextafter(s, away))
        cases += [(s, True), (float(np.nextafter(s, away)), False)]
    return cases


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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"sbs_count": 0}, "counts must be positive"),
            ({"file_count": 0}, "counts must be positive"),
            ({"max_power": [1.0]}, r"max_power must have shape \(2,\)"),
            ({"cache_capacity": [1e6]}, r"cache_capacity must have shape \(2,\)"),
            ({"backhaul_mean": [[0.5, 1.5]]}, r"backhaul_mean must have shape \(2,\)"),
            ({"load_coefficients": [1.0]}, r"load_coefficients must have shape \(2,\)"),
            ({"file_sizes": [1e6]}, r"file_sizes must have shape \(2,\)"),
            ({"sinr_thresholds": [1.0, 2.0, 3.0]},
             r"sinr_thresholds must have shape \(2,\)"),
            ({"channel_gains": [1.0, 0.1]}, r"channel_gains must have shape \(2, 2\)"),
            ({"sbs_positions": [[0.0, 0.0]]}, r"sbs_positions must have shape \(2, 2\)"),
            ({"user_positions": [0.0, 1.0]}, r"user_positions must have shape \(2, 2\)"),
            ({"noise_power": np.nan}, "every scenario value must be finite"),
            ({"alpha": np.inf}, "every scenario value must be finite"),
            ({"channel_gains": [[1.0, np.inf], [0.2, 0.8]]},
             "every scenario value must be finite"),
            ({"user_positions": [[np.nan, 0.0], [1.0, 1.0]]},
             "every scenario value must be finite"),
            ({"max_power": [0.0, 1.0]}, "powers and file sizes must be strictly positive"),
            ({"file_sizes": [1e6, -1.0]}, "powers and file sizes must be strictly positive"),
            ({"sinr_thresholds": [0.0, 1.0]},
             "SINR thresholds and gains must be strictly positive"),
            ({"channel_gains": [[1.0, -0.1], [0.2, 0.8]]},
             "SINR thresholds and gains must be strictly positive"),
            ({"cache_capacity": [-1.0, 1e6]},
             "capacities and backhaul means must be nonnegative"),
            ({"backhaul_mean": [0.5, -0.1]},
             "capacities and backhaul means must be nonnegative"),
            ({"noise_power": 0.0}, "noise power and bandwidth must be strictly positive"),
            ({"bandwidth": -1.0}, "noise power and bandwidth must be strictly positive"),
            ({"pathloss_exponent": 9.0}, r"pathloss exponent must lie in \[2, 5\]"),
            ({"alpha": -0.1}, r"alpha must lie in \[0, 1\]"),
            ({"central_zone_radius": 0.0}, "central zone radius must be positive"),
            ({"load_coefficients": [0.0, 1.0]},
             "load coefficients must be positive and sum to 1"),
            ({"load_coefficients": [0.9, 0.2]},
             "load coefficients must be positive and sum to 1"),
            ({"sbs_positions": [[0.0, 0.0], [10.0, 0.0]],
              "user_positions": [[1.0, 0.0], [9.0, 0.0]]},
             "channel gains inconsistent with positions and pathloss exponent"),
        ],
    )
    def test_every_check_names_its_violation(self, overrides, message):
        with pytest.raises(ModelError, match=message):
            tiny_scenario(**overrides)

    def test_checks_run_in_order(self):
        # a zero count is reported before a bad shape, a bad shape before a
        # non-finite value, and that before a nonpositive power
        with pytest.raises(ModelError, match="counts"):
            tiny_scenario(sbs_count=0, max_power=[np.nan])
        with pytest.raises(ModelError, match="max_power must have shape"):
            tiny_scenario(max_power=[np.nan], noise_power=np.nan)
        with pytest.raises(ModelError, match="finite"):
            tiny_scenario(max_power=[-1.0, 1.0], noise_power=np.nan)
        with pytest.raises(ModelError, match="powers and file sizes"):
            tiny_scenario(max_power=[-1.0, 1.0], alpha=2.0)

    @pytest.mark.parametrize("total, accepted", unit_sum_edges())
    def test_load_coefficient_sum_at_the_isclose_bound(self, total, accepted):
        load = np.array([0.5, total - 0.5])
        # the premise: np.isclose at atol 1e-9 and its default rtol draws the line
        assert bool(np.isclose(load.sum(), 1.0, atol=1e-9)) is accepted
        if accepted:
            tiny_scenario(load_coefficients=load)
        else:
            with pytest.raises(ModelError, match="sum to 1"):
                tiny_scenario(load_coefficients=load)

    # user 0 at 5 m from SBS 0, where the bound's 1e-8 dominates, or at
    # 0.01 m, where its relative 1e-9 does
    @pytest.mark.parametrize("user", [[3.0, 4.0], [0.006, 0.008]])
    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    def test_gains_at_the_allclose_bound(self, user, factor, accepted):
        sbs = np.array([[0.0, 0.0], [10.0, 0.0]])
        users = np.array([user, [10.0, 5.0]])
        dist = np.linalg.norm(users[:, None, :] - sbs[None, :, :], axis=2)
        expected = dist ** -3.0
        gains = expected.copy()
        gains[0, 0] += factor * (1e-8 + 1e-9 * expected[0, 0])
        assert bool(np.allclose(gains, expected, rtol=1e-9)) is accepted
        build = functools.partial(
            tiny_scenario, channel_gains=gains, sbs_positions=sbs, user_positions=users
        )
        if accepted:
            build()
        else:
            with pytest.raises(ModelError, match="channel gains inconsistent"):
                build()

    def test_user_on_an_sbs_names_the_pair(self):
        sbs = [[0.0, 0.0], [10.0, 0.0]]
        users = [[3.0, 4.0], [10.0, 0.0]]
        # a finite gain for the coincident pair: every check before the
        # positions passes, and no power of a zero distance may be taken
        gains = [[1 / 125, 1 / 65**1.5], [1e-3, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="user 1 is at distance 0 from SBS 1"):
                tiny_scenario(channel_gains=gains, sbs_positions=sbs,
                              user_positions=users)


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

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (3, 2), (2, 3)])
    def test_mis_shaped_placement_raises(self, shape):
        # a (1, F) or (B, 1) placement would broadcast to (B, F)
        s = tiny_scenario()
        placement = CachePlacement(np.ones(shape))
        expected = rf"shape \({shape[0]}, {shape[1]}\), expected \(2, 2\)"
        with pytest.raises(ModelError, match=expected):
            relaxed_delay_table(s, placement)
        with pytest.raises(ModelError, match=expected):
            delay_coefficients(s, DemandMatrix([[1, 0], [0, 1]]), placement)


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

    @pytest.mark.parametrize("assigned, sbs_count", [([0, 0, 1], 2), ([0, 2], 3)])
    def test_objective_rejects_mis_shaped_association(self, assigned, sbs_count):
        s = tiny_scenario()
        demands = DemandMatrix([[1, 0], [0, 1]])
        assoc = Association.from_assignment(assigned, sbs_count)
        expected = rf"shape \({len(assigned)}, {sbs_count}\), expected \(2, 2\)"
        with pytest.raises(ModelError, match=expected):
            objective(s, demands, CachePlacement([[1, 1], [1, 1]]), assoc,
                      PowerVector([0.4, 0.5]), alpha=0.25)

    @pytest.mark.parametrize("powers", [[0.4], [0.4, 0.5, 0.1]])
    def test_objective_rejects_mis_shaped_power(self, powers):
        # a (B+1,) or (1,) vector would fail inside numpy's matmul
        s = tiny_scenario()
        demands = DemandMatrix([[1, 0], [0, 1]])
        expected = rf"power vector has shape \({len(powers)},\), expected \(2,\)"
        with pytest.raises(ModelError, match=expected):
            objective(s, demands, CachePlacement([[1, 1], [1, 1]]),
                      Association.from_assignment([0, 1], 2), PowerVector(powers),
                      alpha=0.25)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_objective_rejects_alpha_outside_the_unit_interval(self, alpha):
        s = tiny_scenario()
        demands = DemandMatrix([[1, 0], [0, 1]])
        with pytest.raises(ModelError, match=r"alpha must lie in \[0, 1\]"):
            objective(s, demands, CachePlacement([[1, 1], [1, 1]]),
                      Association.from_assignment([0, 1], 2),
                      PowerVector([0.4, 0.5]), alpha=alpha)

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

    def test_cap_tolerances_are_relative(self):
        # desk seed 0 with its noise and caps times 1e-8, about 4e-9 W: an
        # absolute tolerance in watts would let SBS 0 pass its cap 20 times
        # over, with every user served by it
        inst = scn.generate(scn.desk_scale(), 0)
        s = dataclasses.replace(
            inst.scenario,
            noise_power=1e-8 * inst.scenario.noise_power,
            max_power=1e-8 * inst.scenario.max_power,
        )
        assoc = Association.from_assignment([0] * s.user_count, s.sbs_count)
        cases = ((1.0, True), (1 + 1e-10, True), (1.125, False), (20.0, False))
        for factor, within in cases:
            p = np.zeros(s.sbs_count)
            p[0] = factor * s.max_power[0]
            report = check_feasible(s, inst.demands, assoc, PowerVector(p))
            if within:
                # at the cap SBS 0 is too weak for user 3
                assert "SINR requirement violated for user 3" in report.violation
            else:
                assert "power bound violated at SBS 0" in report.violation, factor

    def test_accepts_feasible_point(self):
        s = tiny_scenario(channel_gains=[[1.0, 0.01], [0.01, 0.8]])
        demands = DemandMatrix([[1, 0], [0, 1]])
        assoc = Association.from_assignment([0, 1], 2)
        # strong direct gains, tiny cross gains: moderate powers suffice
        report = check_feasible(s, demands, assoc, PowerVector([0.5, 0.9]))
        assert bool(report)
