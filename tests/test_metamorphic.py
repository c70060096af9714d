"""Metamorphic checks: relations between answers that need no oracle value.

Relabeling the users and the SBSs of an instance describes the same
network, so ``ucwt`` must reach the same value, and where the optimum is
unique the oracle must pick the same association, mapped back. The desk
preset gives every SBS the same load and cap, so SBS relabeling is also
checked on instances whose per-SBS loads and caps differ.
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


def unequal(s, rng):
    """``s`` with seeded unequal per-SBS loads and caps.

    The loads are positive and sum to 1; each cap is scaled up, so every
    association feasible in ``s`` stays feasible.
    """
    loads = rng.uniform(0.5, 1.5, s.sbs_count)
    return dataclasses.replace(
        s,
        load_coefficients=loads / loads.sum(),
        max_power=s.max_power * rng.uniform(1.0, 3.0, s.sbs_count),
    )


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


def check_relabeling(s, demands, placement, users, sbs):
    """The same ``ucwt`` and oracle values after ``relabel``, and the same unique optimum."""
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


class TestRelabeling:
    @pytest.mark.parametrize("B, U", [(3, 10), (4, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["users", "sbs"])
    def test_same_value_and_unique_optimum(self, B, U, seed, kind):
        s, demands, placement = desk(B, U, seed)
        rng = np.random.default_rng(seed)
        users = shuffled(rng, U) if kind == "users" else np.arange(U)
        sbs = shuffled(rng, B) if kind == "sbs" else np.arange(B)
        check_relabeling(s, demands, placement, users, sbs)

    @pytest.mark.parametrize("B, U", [(3, 10), (4, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sbs_relabeling_with_unequal_loads_and_caps(self, B, U, seed):
        # an SBS index mixed up in load_coefficients or max_power shows
        # only where those arrays differ across SBSs; a cap mixed up moves
        # verdicts that the optimum need not see
        s, demands, placement = desk(B, U, seed)
        rng = np.random.default_rng(seed)
        s = unequal(s, rng)
        users, sbs = np.arange(U), shuffled(rng, B)
        check_relabeling(s, demands, placement, users, sbs)
        feasible = enumerate_candidates(s, demands, placement)
        moved = enumerate_candidates(*relabel(s, demands, placement, users, sbs))
        back = sorted(mapped_back(c.assigned, users, sbs).tolist() for c in moved)
        assert back == sorted(c.assigned.tolist() for c in feasible)
