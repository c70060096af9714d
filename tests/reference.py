"""References that only the tests run: no solver or command calls them.

``build_subproblem_primal`` is the minimum-power LP of the paper's power
subproblem, over every (user, SBS) pair; criterion 4 and the subproblem
checks solve it with ``dscnopt.lp``. ``penalty_lambda`` and
``rmp_penalty_value`` are the paper's penalized relaxed master, checked
by criterion 10. ``iter_assignments`` lists every assignment in the
lexicographic order that the oracle and the master's tie rule follow.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from dscnopt import lp as lpmod
from dscnopt.benders import varrho
from dscnopt.model import (
    Association,
    CachePlacement,
    DemandMatrix,
    ModelError,
    Scenario,
    delay_coefficients,
    requested_thresholds,
    serving_time,
    total_transmission_time,
)


def build_subproblem_primal(
    scenario: Scenario,
    demands: DemandMatrix,
    x,
) -> lpmod.LinearProgram:
    """Minimum-energy power LP at a fixed association, over every pair.

    ``x`` is an ``Association`` or a (U, B) matrix, possibly fractional.
    Every (user, SBS) pair carries a relaxed SINR row; rows for
    non-assigned pairs are slack for any feasible power by construction
    of ``varrho``. It is the reference that ``solve_subproblem``'s
    energies are checked against.
    """
    rho = varrho(scenario, demands)
    X = np.asarray(x.x if isinstance(x, Association) else x, dtype=float)
    U, B = scenario.user_count, scenario.sbs_count
    if X.shape != (U, B):
        raise ModelError("association matrix has wrong shape")
    g = scenario.channel_gains
    gammas = requested_thresholds(scenario, demands)
    T = serving_time(scenario, demands, None, "relaxed")
    # row i*B + j: the interference row -gamma_i g_i with g_ij on the diagonal
    A = np.repeat(-gammas[:, None] * g, B, axis=0)
    A[np.arange(U * B), np.tile(np.arange(B), U)] = g.ravel()
    b = (gammas[:, None] * scenario.noise_power - (1.0 - X) / rho).ravel()
    return lpmod.LinearProgram(
        sense="min",
        c=T,
        A=A,
        b=b,
        row_senses=[lpmod.GE] * (U * B),
        upper=scenario.max_power.copy(),
    )


def penalty_lambda(scenario: Scenario, demands: DemandMatrix) -> float:
    """Penalty weight: 10 p_max + total relaxed transmission time + backhaul means."""
    return float(
        10.0 * scenario.max_power.max()
        + total_transmission_time(scenario, demands)
        + scenario.backhaul_mean.sum()
    )


def rmp_penalty_value(
    scenario: Scenario,
    demands: DemandMatrix,
    placement: CachePlacement,
    alpha: float,
    lam: float,
    eta: float,
    x,
) -> float:
    """Penalized relaxed-master objective at a (possibly fractional) association.

    ``eta`` is the energy bound at ``x``, the caller's largest optimality
    cut there. At binary X the penalty vanishes and the value equals the
    master objective; fractional entries are charged lam * (x - x^2) each.
    """
    X = np.asarray(x.x if isinstance(x, Association) else x, dtype=float)
    if np.any(X < -1e-12) or np.any(X > 1 + 1e-12):
        raise ModelError("association entries must lie in [0, 1]")
    dcoef = delay_coefficients(scenario, demands, placement)
    penalty = lam * float((X - X**2).sum())
    return alpha * eta + (1.0 - alpha) * float((dcoef * X).sum()) + penalty


def iter_assignments(user_count: int, sbs_count: int) -> Iterator[np.ndarray]:
    """All assignments in lexicographic (mixed-radix, user 0 most significant) order."""
    return map(np.array, itertools.product(range(sbs_count), repeat=user_count))
