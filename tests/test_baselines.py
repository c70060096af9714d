"""Heuristic association baselines and the shared minimum-power helper."""

import numpy as np
import pytest

from dscnopt import baselines, scenario as scn
from dscnopt.baselines import (
    doa,
    ema,
    min_power_for,
    reachable_sbs,
)
from dscnopt.benders import delay_coefficients
from dscnopt.model import (
    Association,
    CachePlacement,
    DemandMatrix,
    InfeasibleInstanceError,
    ModelError,
    Scenario,
    check_feasible,
    serving_time,
)
from dscnopt.placement import lpf_greedy
from dscnopt.popularity import local_popularity


def make_scenario(gains, thresholds, max_power=1.0, backhaul=(0.5, 1.5)):
    return Scenario(
        sbs_count=2,
        user_count=2,
        file_count=2,
        max_power=[max_power] * 2,
        cache_capacity=[3e6, 3e6],
        backhaul_mean=list(backhaul),
        file_sizes=[1e6, 2e6],
        sinr_thresholds=thresholds,
        bandwidth=1e6,
        noise_power=1e-3,
        pathloss_exponent=3.0,
        channel_gains=gains,
        alpha=0.5,
        load_coefficients=[0.5, 0.5],
        central_zone_radius=25.0,
    )


def desk_pipeline(seed):
    inst = scn.generate(scn.desk_scale(), seed)
    pop = local_popularity(inst.scenario, inst.preferences)
    placement, _ = lpf_greedy(inst.scenario, pop)
    return inst, placement


class TestMinPowerFor:
    def test_single_user_closed_form(self):
        # user 0 alone on SBS 0, user 1 alone on SBS 1, no shared demand
        s = make_scenario([[1.0, 0.01], [0.01, 0.8]], [1.0, 2.0])
        demands = DemandMatrix([[1, 0], [0, 1]])
        power = min_power_for(s, demands, Association([[1, 0], [0, 1]]))
        # fixed point of p0 = (0.01 p1 + 1e-3), p1 = 2.5 (0.01 p0 + 1e-3)
        p0, p1 = 0.0, 0.0
        for _ in range(200):
            p0 = 1.0 * (0.01 * p1 + 1e-3) / 1.0
            p1 = 2.0 * (0.01 * p0 + 1e-3) / 0.8
        assert power.p == pytest.approx([p0, p1], rel=1e-9)

    def test_infeasible_returns_none(self):
        s = make_scenario([[1.0, 0.9], [0.9, 0.8]], [3.0, 3.0])
        demands = DemandMatrix([[1, 0], [0, 1]])
        assert min_power_for(s, demands, Association([[1, 0], [0, 1]])) is None

    def test_power_cap_binds(self):
        s = make_scenario([[1.0, 0.01], [0.01, 0.8]], [1.0, 2.0], max_power=1e-4)
        demands = DemandMatrix([[1, 0], [0, 1]])
        assert min_power_for(s, demands, Association([[1, 0], [0, 1]])) is None


class TestReachability:
    def test_mask_hand_computed(self):
        # gain * pmax / noise vs threshold: 1000, 10 vs 1 ; 10, 800 vs 2
        s = make_scenario([[1.0, 0.01], [0.01, 0.8]], [1.0, 2.0])
        demands = DemandMatrix([[1, 0], [0, 1]])
        reach = reachable_sbs(s, demands)
        assert reach.tolist() == [[True, True], [True, True]]
        weak = make_scenario([[1.0, 1e-6], [1e-6, 0.8]], [1.0, 2.0])
        assert reachable_sbs(weak, demands).tolist() == [
            [True, False], [False, True]
        ]

    def test_unreachable_user_raises(self):
        s = make_scenario([[1e-9, 1e-9], [0.01, 0.8]], [1.0, 2.0])
        demands = DemandMatrix([[1, 0], [0, 1]])
        placement = CachePlacement([[1, 0], [0, 1]])
        with pytest.raises(InfeasibleInstanceError):
            doa(s, demands, placement)
        with pytest.raises(InfeasibleInstanceError):
            ema(s, demands, placement)


class TestEma:
    def test_picks_highest_gain_sbs(self):
        s = make_scenario([[1.0, 0.5], [0.5, 0.8]], [0.2, 0.3])
        demands = DemandMatrix([[1, 0], [0, 1]])
        placement = CachePlacement([[1, 0], [0, 1]])
        result = ema(s, demands, placement)
        assert result.assoc.assigned_sbs.tolist() == [0, 1]
        expected = min_power_for(s, demands, result.assoc)
        assert result.power.p == pytest.approx(expected.p, abs=1e-12)

    def test_result_is_feasible_on_generated_instances(self):
        for seed in range(5):
            inst, placement = desk_pipeline(seed)
            result = ema(inst.scenario, inst.demands, placement)
            report = check_feasible(
                inst.scenario, inst.demands, result.assoc, result.power
            )
            assert bool(report), report.violation


class TestDoa:
    def test_prefers_caching_sbs(self):
        s = make_scenario(
            [[1.0, 0.5], [0.5, 0.8]], [0.2, 0.3], backhaul=(5.0, 5.0)
        )
        demands = DemandMatrix([[1, 0], [0, 1]])
        # only SBS 1 caches anything: both users' files live there
        placement = CachePlacement([[0, 0], [1, 1]])
        result = doa(s, demands, placement)
        assert result.assoc.assigned_sbs.tolist() == [1, 1]

    def test_caching_sbs_wins_a_delay_tie(self):
        # SBS 0 has no backhaul delay, so missing the cache there costs
        # nothing: both SBSs tie on delay and the caching SBS 1 must win
        # over the lower index
        s = make_scenario(
            [[1.0, 0.5], [0.5, 0.8]], [0.2, 0.3], backhaul=(0.0, 5.0)
        )
        demands = DemandMatrix([[1, 0], [0, 1]])
        placement = CachePlacement([[0, 0], [1, 1]])
        dcoef = delay_coefficients(s, demands, placement)
        assert np.array_equal(dcoef[:, 0], dcoef[:, 1])
        assert doa(s, demands, placement).assoc.assigned_sbs.tolist() == [1, 1]

    def test_no_reachable_caching_sbs(self):
        # user 0 cannot reach the caching SBS 1, so it takes the least-delay
        # SBS it can reach
        s = make_scenario(
            [[1.0, 1e-6], [0.5, 0.8]], [1.0, 0.3], backhaul=(5.0, 5.0)
        )
        demands = DemandMatrix([[1, 0], [0, 1]])
        placement = CachePlacement([[0, 0], [1, 1]])
        assert reachable_sbs(s, demands).tolist() == [[True, False], [True, True]]
        assert doa(s, demands, placement).assoc.assigned_sbs.tolist() == [0, 1]

    def test_minimizes_relaxed_delay_before_repair(self):
        for seed in range(5):
            inst, placement = desk_pipeline(seed)
            s, demands = inst.scenario, inst.demands
            try:
                result = doa(s, demands, placement)
            except ModelError:
                continue
            dcoef = delay_coefficients(s, demands, placement)
            achieved = dcoef[np.arange(s.user_count), result.assoc.assigned_sbs]
            ideal = dcoef.min(axis=1)
            # repair may move users off their delay-optimal SBS, but never
            # below the per-user lower bound
            assert np.all(achieved >= ideal - 1e-12)

    def test_repair_recovers_feasibility(self):
        # split association is infeasible; sharing SBS 0 works. DOA's delay
        # preference starts users apart, repair must merge them.
        s = make_scenario([[1.0, 0.9], [0.9, 0.8]], [3.0, 3.0])
        demands = DemandMatrix([[1, 0], [0, 1]])
        placement = CachePlacement([[1, 0], [0, 1]])
        result = doa(s, demands, placement)
        assert min_power_for(s, demands, result.assoc) is not None
        report = check_feasible(s, demands, result.assoc, result.power)
        assert bool(report), report.violation


class TestRepair:
    @pytest.mark.parametrize("baseline", [doa, ema])
    def test_failed_repair_solves_each_association_once(self, monkeypatch, baseline):
        tried = []

        def infeasible(scenario, demands, assoc):
            tried.append(tuple(assoc.assigned_sbs.tolist()))
            return None

        monkeypatch.setattr(baselines, "min_power_for", infeasible)
        inst, placement = desk_pipeline(0)
        with pytest.raises(ModelError, match="repair failed"):
            baseline(inst.scenario, inst.demands, placement)
        assert 1 < len(tried) <= baselines._REPAIR_ROUNDS
        assert len(set(tried)) == len(tried)

    def test_repaired_start_is_solved_once(self, monkeypatch):
        # the split start is infeasible; the repair's answer is the last try
        tried = []

        def recorded(scenario, demands, assoc):
            tried.append(tuple(assoc.assigned_sbs.tolist()))
            return min_power_for(scenario, demands, assoc)

        monkeypatch.setattr(baselines, "min_power_for", recorded)
        s = make_scenario([[1.0, 0.9], [0.9, 0.8]], [3.0, 3.0])
        demands = DemandMatrix([[1, 0], [0, 1]])
        result = doa(s, demands, CachePlacement([[1, 0], [0, 1]]))
        assert tried == [(0, 1), (0, 0)]
        assert tried[-1] == tuple(result.assoc.assigned_sbs.tolist())


class TestEnergyDelayOrdering:
    def test_ema_energy_never_above_doa_on_shared_association_space(self):
        hits = 0
        for seed in range(8):
            inst, placement = desk_pipeline(seed)
            s, demands = inst.scenario, inst.demands
            T = serving_time(s, demands, None, "relaxed")
            try:
                e = ema(s, demands, placement)
                d = doa(s, demands, placement)
            except ModelError:
                continue
            hits += 1
            energy_e = float(e.power.p @ T)
            energy_d = float(d.power.p @ T)
            # nearest-SBS choice targets energy; allow equality on ties
            assert energy_e <= energy_d + 1e-6 * max(1.0, energy_d)
        assert hits >= 3
