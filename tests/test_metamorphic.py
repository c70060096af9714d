"""Metamorphic checks: relations between answers that need no oracle value.

Relabeling the users and the SBSs of an instance describes the same
network, so ``ucwt`` must reach the same value, and where the optimum is
unique the oracle must pick the same association, mapped back.
"""

import dataclasses
import functools

import numpy as np
import pytest

from dscnopt import scenario as scn
from dscnopt.benders import ucwt
from dscnopt.model import CachePlacement, DemandMatrix, weighted
from dscnopt.oracle import brute_force_sweep, enumerate_candidates
from dscnopt.placement import lpf_greedy
from dscnopt.popularity import local_popularity

ALPHAS = (0.0, 0.5, 1.0)


@functools.cache
def desk(B, U, seed):
    """(scenario, demands, placement) of a desk instance with lpf placement."""
    inst = scn.generate(scn.desk_scale(sbs_count=B, user_count=U), seed)
    s, demands = inst.scenario, inst.demands
    placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
    return s, demands, placement


def relabel(s, demands, placement, users, sbs):
    """The instance with new user i the old ``users[i]`` and new SBS j the old ``sbs[j]``."""
    per_sbs = ("max_power", "cache_capacity", "backhaul_mean", "load_coefficients")
    relabeled = dataclasses.replace(
        s,
        channel_gains=s.channel_gains[users][:, sbs],
        user_positions=s.user_positions[users],
        sbs_positions=s.sbs_positions[sbs],
        **{name: getattr(s, name)[sbs] for name in per_sbs},
    )
    return relabeled, DemandMatrix(demands.theta[users]), CachePlacement(placement.y[sbs])


def shuffled(rng, n):
    """A seeded permutation of range(n) other than the identity."""
    while True:
        perm = rng.permutation(n)
        if (perm != np.arange(n)).any():
            return perm


def mapped_back(assigned, users, sbs):
    """Old labels of an assignment made under ``relabel``'s new ones."""
    old = np.empty_like(assigned)
    old[users] = sbs[assigned]
    return old


class TestRelabeling:
    @pytest.mark.parametrize("B, U", [(3, 10), (4, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["users", "sbs"])
    def test_same_value_and_unique_optimum(self, B, U, seed, kind):
        s, demands, placement = desk(B, U, seed)
        rng = np.random.default_rng(seed)
        users = shuffled(rng, U) if kind == "users" else np.arange(U)
        sbs = shuffled(rng, B) if kind == "sbs" else np.arange(B)
        relabeled = relabel(s, demands, placement, users, sbs)

        candidates = enumerate_candidates(s, demands, placement)
        energies = np.array([c.energy for c in candidates])
        delays = np.array([c.delay for c in candidates])
        before = brute_force_sweep(s, demands, placement, ALPHAS)
        after = brute_force_sweep(*relabeled, ALPHAS)
        for alpha, (_, old), (_, new) in zip(ALPHAS, before, after):
            value = ucwt(s, demands, placement, alpha).trace.final_objective
            moved = ucwt(*relabeled, alpha).trace.final_objective
            assert moved == pytest.approx(value, rel=1e-12, abs=0), alpha
            assert new.objective == pytest.approx(old.objective, rel=1e-12, abs=0)

            least, *rest = np.sort(weighted(alpha, energies, delays))
            if not rest or rest[0] > least + 1e-9 * abs(least):
                back = mapped_back(new.assoc.assigned_sbs, users, sbs)
                assert back.tolist() == old.assoc.assigned_sbs.tolist(), alpha
