"""Cache placement policies against the exact knapsack oracle."""

import itertools
import math

import numpy as np
import pytest

from dscnopt.model import CachePlacement, ModelError
from dscnopt.placement import (
    DEFAULT_GRID_BYTES,
    KnapsackError,
    gpc_placement,
    hit_ratio,
    knapsack_exact,
    lpf_greedy,
    rc_placement,
)
from dscnopt.popularity import local_popularity
from dscnopt import scenario as scn


@pytest.fixture(scope="module")
def desk():
    inst = scn.generate(scn.desk_scale(), 0)
    pop = local_popularity(inst.scenario, inst.preferences)
    return inst, pop


def brute_knapsack(sizes, values, capacity):
    best = 0.0
    for mask in itertools.product([0, 1], repeat=len(sizes)):
        mask = np.array(mask)
        if mask @ sizes <= capacity:
            best = max(best, float(mask @ values))
    return best


class TestKnapsackExact:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            sizes = rng.integers(1, 20, n).astype(float) * DEFAULT_GRID_BYTES
            values = rng.uniform(0.0, 1.0, n)
            capacity = float(rng.integers(5, 60)) * DEFAULT_GRID_BYTES
            chosen, value = knapsack_exact(sizes, values, capacity)
            assert chosen @ sizes <= capacity + 1e-9
            assert value == pytest.approx(brute_knapsack(sizes, values, capacity))

    def test_rejects_off_grid_sizes(self):
        with pytest.raises(ModelError):
            knapsack_exact([1.5 * DEFAULT_GRID_BYTES], [1.0], DEFAULT_GRID_BYTES)

    def test_rejects_huge_tables(self):
        with pytest.raises(KnapsackError):
            knapsack_exact(
                [DEFAULT_GRID_BYTES] * 10, [1.0] * 10, 1e7 * DEFAULT_GRID_BYTES
            )

    @pytest.mark.parametrize("sizes, values, capacity, message", [
        ([1.0], [1.0], -0.5, "capacity"),
        ([1.0], [1.0], -3.0, "capacity"),
        ([1.0], [1.0], math.nan, "capacity"),
        ([1.0], [1.0], math.inf, "capacity"),
        ([math.nan], [1.0], 1.0, "finite"),
        ([math.inf], [1.0], 1.0, "finite"),
        ([1.0], [math.nan], 1.0, "finite"),
        ([1.0], [math.inf], 1.0, "finite"),
        ([1.0, 2.0], [1.0], 3.0, "equal length"),
        ([1.0], [1.0, 2.0], 3.0, "equal length"),
        ([[1.0]], [[1.0]], 3.0, "1-D"),
    ], ids=[
        "capacity-half-cell-below-0", "capacity-3-cells-below-0", "capacity-nan",
        "capacity-inf", "size-nan", "size-inf", "value-nan", "value-inf",
        "more-sizes", "more-values", "2-d",
    ])
    def test_rejects_malformed_input(self, sizes, values, capacity, message):
        # sizes and capacity in grid cells
        with pytest.raises(ModelError, match=message):
            knapsack_exact(
                np.multiply(sizes, DEFAULT_GRID_BYTES), values,
                capacity * DEFAULT_GRID_BYTES,
            )

    def test_zero_capacity(self):
        chosen, value = knapsack_exact(
            [DEFAULT_GRID_BYTES], [1.0], 0.5 * DEFAULT_GRID_BYTES
        )
        assert chosen.tolist() == [0] and value == 0.0


class TestLpfGreedy:
    def test_respects_capacity(self, desk):
        inst, pop = desk
        placement, mass = lpf_greedy(inst.scenario, pop)
        assert placement.check_capacity(inst.scenario)
        assert mass == pytest.approx((pop.psi * placement.y).sum(axis=1))

    def test_greedy_at_most_exact(self, desk):
        inst, pop = desk
        s = inst.scenario
        placement, _ = lpf_greedy(s, pop)
        for j in range(s.sbs_count):
            _, exact = knapsack_exact(
                s.file_sizes, pop.psi[j], float(s.cache_capacity[j])
            )
            greedy = float(pop.psi[j] @ placement.y[j])
            assert greedy <= exact + 1e-12

    def test_full_capacity_caches_everything(self):
        inst = scn.generate(scn.desk_scale(cache_fraction=1.0), 1)
        pop = local_popularity(inst.scenario, inst.preferences)
        placement, _ = lpf_greedy(inst.scenario, pop)
        assert np.all(placement.y == 1)


class TestBaselinePolicies:
    def test_gpc_is_rank_based_and_uniform(self, desk):
        inst, _ = desk
        placement = gpc_placement(inst.scenario)
        assert placement.check_capacity(inst.scenario)
        # equal capacities -> identical rows
        assert np.all(placement.y == placement.y[0])

    def test_rc_is_seeded(self, desk):
        inst, _ = desk
        a = rc_placement(inst.scenario, 4)
        b = rc_placement(inst.scenario, 4)
        c = rc_placement(inst.scenario, 5)
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)
        assert a.check_capacity(inst.scenario)


class TestHitRatio:
    def test_hand_computed(self):
        pop_psi = np.array([[0.6, 0.4], [0.1, 0.9]])
        placement = CachePlacement([[1, 0], [0, 1]])
        from dscnopt.popularity import PopularityTable

        table = PopularityTable(pop_psi)
        per_sbs, mean = hit_ratio(placement, table)
        assert per_sbs == pytest.approx([0.6, 0.9])
        assert mean == pytest.approx(0.75)

    def test_shape_mismatch(self, desk):
        _, pop = desk
        with pytest.raises(ModelError):
            hit_ratio(CachePlacement(np.zeros((2, 2), dtype=int)), pop)
