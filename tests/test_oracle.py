"""Exhaustive-enumeration solver: ordering, pruning, tie-breaking."""

import itertools

import numpy as np
import pytest

from dscnopt import benders, oracle, scenario as scn
from dscnopt.baselines import min_power_for
from dscnopt.model import (
    Association,
    CachePlacement,
    DemandMatrix,
    InfeasibleInstanceError,
    ModelError,
    Scenario,
    objective,
    serving_time,
)
from dscnopt.benders import delay_coefficients, reachable_sbs
from dscnopt.oracle import (
    EnumerationCapError,
    brute_force,
    brute_force_sweep,
    enumerate_candidates,
)
from dscnopt.placement import lpf_greedy
from dscnopt.popularity import local_popularity

from reference import iter_assignments


def make_scenario(
    gains, thresholds, max_power=1.0, backhaul=(0.5, 1.5), file_sizes=(1e6, 2e6)
):
    return Scenario(
        sbs_count=2,
        user_count=2,
        file_count=2,
        max_power=[max_power] * 2,
        cache_capacity=[3e6, 3e6],
        backhaul_mean=list(backhaul),
        file_sizes=list(file_sizes),
        sinr_thresholds=thresholds,
        bandwidth=1e6,
        noise_power=1e-3,
        pathloss_exponent=3.0,
        channel_gains=gains,
        alpha=0.5,
        load_coefficients=[0.5, 0.5],
        central_zone_radius=25.0,
    )


def all_feasible_case():
    s = make_scenario([[1.0, 0.5], [0.5, 0.8]], [0.2, 0.3])
    return s, DemandMatrix([[1, 0], [0, 1]]), CachePlacement([[1, 0], [0, 1]])


class TestIterAssignments:
    def test_count_and_order(self):
        got = [a.tolist() for a in iter_assignments(2, 3)]
        assert len(got) == 9
        assert got[:4] == [[0, 0], [0, 1], [0, 2], [1, 0]]
        assert got[-1] == [2, 2]

    def test_single_sbs(self):
        assert [a.tolist() for a in iter_assignments(3, 1)] == [[0, 0, 0]]


class TestEnumerateCandidates:
    def test_keeps_only_feasible(self):
        s = make_scenario([[1.0, 0.9], [0.9, 0.8]], [3.0, 3.0])
        demands = DemandMatrix([[1, 0], [0, 1]])
        placement = CachePlacement([[1, 1], [0, 0]])
        cands = enumerate_candidates(s, demands, placement)
        kept = {tuple(c.assigned) for c in cands}
        for assigned in iter_assignments(2, 2):
            feasible = (
                min_power_for(s, demands, Association.from_assignment(assigned, 2))
                is not None
            )
            assert (tuple(assigned) in kept) == feasible

    def test_energy_and_delay_fields(self):
        s, demands, placement = all_feasible_case()
        T = serving_time(s, demands, None, "relaxed")
        dcoef = delay_coefficients(s, demands, placement)
        for cand in enumerate_candidates(s, demands, placement):
            assert cand.energy == pytest.approx(float(cand.power.p @ T))
            assert cand.delay == pytest.approx(
                float(dcoef[np.arange(2), cand.assigned].sum())
            )

    def test_candidates_score_as_objective(self):
        # bit for bit, as model.objective scores the same association
        for seed in range(6):
            inst = scn.generate(scn.desk_scale(), seed)
            s, demands = inst.scenario, inst.demands
            placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
            for cand in enumerate_candidates(s, demands, placement):
                assoc = Association.from_assignment(cand.assigned, s.sbs_count)
                value = objective(s, demands, placement, assoc, cand.power)
                assert (cand.energy, cand.delay) == (value.energy, value.delay)

    def test_reachability_prescreen_matches_lp(self):
        # prescreen must only skip assignments the LP would reject anyway
        inst = scn.generate(scn.desk_scale(), 0)
        s, demands = inst.scenario, inst.demands
        reach = reachable_sbs(s, demands)
        for assigned in list(iter_assignments(s.user_count, s.sbs_count))[:60]:
            if not reach[np.arange(s.user_count), assigned].all():
                assoc = Association.from_assignment(assigned, s.sbs_count)
                assert min_power_for(s, demands, assoc) is None

    def test_walks_reachable_feasible_associations_in_order(self, monkeypatch):
        inst = scn.generate(scn.desk_scale(), 0)
        s, demands = inst.scenario, inst.demands
        placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
        reach = reachable_sbs(s, demands)
        assert not reach.all()
        expected = [
            assigned.tolist()
            for assigned in iter_assignments(s.user_count, s.sbs_count)
            if reach[np.arange(s.user_count), assigned].all()
            and min_power_for(
                s, demands, Association.from_assignment(assigned, s.sbs_count)
            ) is not None
        ]
        # the walked indices are valid by construction: none is checked again
        calls = []
        checked = Association.from_assignment

        def counted(assigned, sbs_count):
            calls.append(assigned)
            return checked(assigned, sbs_count)

        monkeypatch.setattr(Association, "from_assignment", counted)
        got = [c.assigned.tolist() for c in enumerate_candidates(s, demands, placement)]
        assert got == expected
        assert calls == []

    def test_cap_enforced(self, monkeypatch):
        s, demands, placement = all_feasible_case()
        monkeypatch.setattr(oracle, "DEFAULT_ENUMERATION_CAP", 3)
        with pytest.raises(EnumerationCapError):
            enumerate_candidates(s, demands, placement)

    def test_cap_counts_the_reachable_product(self, monkeypatch):
        inst = scn.generate(scn.desk_scale(), 0)
        s, demands = inst.scenario, inst.demands
        placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
        walked = int(np.prod(reachable_sbs(s, demands).sum(axis=1)))
        assert walked < s.sbs_count**s.user_count
        # B^U above the cap, the reachable product at it: the walk runs
        monkeypatch.setattr(oracle, "DEFAULT_ENUMERATION_CAP", walked)
        assert enumerate_candidates(s, demands, placement)
        monkeypatch.setattr(oracle, "DEFAULT_ENUMERATION_CAP", walked - 1)
        with pytest.raises(EnumerationCapError, match=f"^{walked} reachable "):
            enumerate_candidates(s, demands, placement)


def desk_case(user_count, seed):
    inst = scn.generate(scn.desk_scale(user_count=user_count), seed)
    s, demands = inst.scenario, inst.demands
    placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
    return s, demands, placement


def plain_walk(s, demands, placement):
    """The walk without no-goods: every reachable association is solved.

    Candidates as (assigned, powers, energy, delay), floats as ``float.hex``.
    """
    reach = reachable_sbs(s, demands)
    rows = benders._SinrRows(s, demands)   # the instance's, built once
    out = []
    for walk in itertools.product(*(np.flatnonzero(row).tolist() for row in reach)):
        # the indices come from np.flatnonzero over B columns: valid by construction
        assoc = Association._unchecked(np.array(walk), s.sbs_count)
        power = min_power_for(s, demands, assoc, rows)
        if power is not None:
            value = objective(s, demands, placement, assoc, power)
            out.append((walk, [float(p).hex() for p in power.p],
                        value.energy.hex(), value.delay.hex()))
    return out


def walked(cands):
    return [(tuple(c.assigned.tolist()), [float(p).hex() for p in c.power.p],
             c.energy.hex(), c.delay.hex()) for c in cands]


def recorded_solves(monkeypatch):
    """Patch ``benders._min_power`` to log (assigned, answer) of every call."""
    solves = []
    solve = benders._min_power

    def recorded(rows, assigned):
        answer = solve(rows, assigned)
        solves.append((tuple(assigned.tolist()), answer))
        return answer

    monkeypatch.setattr(benders, "_min_power", recorded)
    return solves


class TestLearnedNoGoods:
    @pytest.mark.parametrize("user_count, seeds", [
        (4, range(40)),
        (6, range(40)),
        (9, range(40)),
        # the oracle-enum benchmark's core instances
        (9, range(1_000_000, 1_000_003)),
    ], ids=["U4", "U6", "U9", "U9-core"])
    def test_same_candidates_as_the_plain_walk(self, user_count, seeds):
        for seed in seeds:
            s, demands, placement = desk_case(user_count, seed)
            assert (walked(enumerate_candidates(s, demands, placement))
                    == plain_walk(s, demands, placement)), seed

    def test_solves_fewer_associations_than_it_walks(self, monkeypatch):
        s, demands, placement = desk_case(9, 0)
        reachable = int(np.prod(reachable_sbs(s, demands).sum(axis=1)))
        solves = recorded_solves(monkeypatch)
        assert enumerate_candidates(s, demands, placement)
        assert 0 < len(solves) < reachable

    def test_every_skipped_association_holds_a_learned_no_good(self, monkeypatch):
        # desk U=9 seed 2 learns a no-good of three pairs
        s, demands, placement = desk_case(9, 2)
        solves = recorded_solves(monkeypatch)
        monkeypatch.setattr(benders, "conflict_seed", None)   # not used
        enumerate_candidates(s, demands, placement)
        nogoods = [
            [(int(i), assigned[i]) for i in np.flatnonzero(answer.nu)]
            for assigned, answer in solves if answer.power is None
        ]
        assert 3 in {len(pairs) for pairs in nogoods}
        solved = {assigned for assigned, _ in solves}
        assert len(solved) == len(solves)              # none solved twice
        reach = reachable_sbs(s, demands)
        skipped = 0
        for walk in itertools.product(*(np.flatnonzero(r).tolist() for r in reach)):
            if walk not in solved:
                skipped += 1
                assert any(all(walk[i] == j for i, j in pairs)
                           for pairs in nogoods), walk
        assert skipped > 0


class TestBruteForce:
    def test_matches_manual_minimum(self):
        s, demands, placement = all_feasible_case()
        alpha = 0.3
        T = serving_time(s, demands, None, "relaxed")
        dcoef = delay_coefficients(s, demands, placement)
        best, best_assigned = None, None
        for assigned in iter_assignments(2, 2):
            power = min_power_for(s, demands, Association.from_assignment(assigned, 2))
            value = alpha * float(power.p @ T) + (1 - alpha) * float(
                dcoef[np.arange(2), assigned].sum()
            )
            if best is None or value < best:
                best, best_assigned = value, assigned
        sol = brute_force(s, demands, placement, alpha)
        assert sol.objective == pytest.approx(best)
        assert sol.assoc.assigned_sbs.tolist() == best_assigned.tolist()
        assert sol.objective == pytest.approx(
            alpha * sol.energy + (1 - alpha) * sol.delay
        )

    def test_rejects_bad_alpha(self):
        s, demands, placement = all_feasible_case()
        with pytest.raises(ModelError):
            brute_force(s, demands, placement, -0.1)

    def test_infeasible_instance_raises(self):
        s = make_scenario([[1.0, 0.9], [0.9, 0.8]], [3.0, 3.0], max_power=1e-4)
        demands = DemandMatrix([[1, 0], [0, 1]])
        with pytest.raises(InfeasibleInstanceError):
            brute_force(s, demands, CachePlacement([[1, 1], [0, 0]]), 0.5)

    def test_tie_breaks_lexicographically(self):
        # alpha = 0 with a placement caching nothing: all-equal-backhaul
        # delays make many associations tie; the first enumerated must win
        s = make_scenario(
            [[1.0, 0.5], [0.5, 1.0]], [0.2, 0.2],
            backhaul=(1.0, 1.0), file_sizes=(1e6, 1e6),
        )
        demands = DemandMatrix([[1, 0], [0, 1]])
        sol = brute_force(s, demands, CachePlacement([[0, 0], [0, 0]]), 0.0)
        assert sol.assoc.assigned_sbs.tolist() == [0, 0]


class TestSweep:
    def test_matches_per_alpha_brute_force(self):
        inst = scn.generate(scn.desk_scale(), 1)
        pop = local_popularity(inst.scenario, inst.preferences)
        placement, _ = lpf_greedy(inst.scenario, pop)
        alphas = [0.0, 0.5, 1.0]
        swept = brute_force_sweep(inst.scenario, inst.demands, placement, alphas)
        for alpha, sol in swept:
            single = brute_force(inst.scenario, inst.demands, placement, alpha)
            assert sol.objective == pytest.approx(single.objective)
            assert np.array_equal(
                sol.assoc.assigned_sbs, single.assoc.assigned_sbs
            )

    def test_rejects_alpha_outside_unit_interval(self):
        s, demands, placement = all_feasible_case()
        with pytest.raises(ModelError):
            brute_force_sweep(s, demands, placement, [0.5, 1.5])

    def test_pareto_consistent(self):
        inst = scn.generate(scn.desk_scale(), 2)
        pop = local_popularity(inst.scenario, inst.preferences)
        placement, _ = lpf_greedy(inst.scenario, pop)
        alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
        swept = brute_force_sweep(inst.scenario, inst.demands, placement, alphas)
        energies = [sol.energy for _, sol in swept]
        delays = [sol.delay for _, sol in swept]
        # more weight on energy: energy never increases, delay never decreases
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-9
        for a, b in zip(delays, delays[1:]):
            assert b >= a - 1e-9
