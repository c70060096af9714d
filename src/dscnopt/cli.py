"""Command-line experiment runner producing plot-ready CSV tables.

Subcommands cover single-instance solves, alpha tradeoff sweeps, caching
policy comparisons, association algorithm comparisons, and instance
generation. All outputs are deterministic given (instance, seed, flags);
floats are written with 9 significant digits.

Exit codes: 0 success, 1 solver non-convergence or a doa/ema repair that
gave up, 2 usage error (including an oracle request above the enumeration
cap and an output file that cannot be written), 3 infeasible instance,
4 internal solver fault. A ucwt run that stops unconverged with an
incumbent still writes it, says why on stderr and exits 1.

Every solve of one alpha runs through ``_run``, which also values the
answer (``sweep-alpha``'s oracle sweep takes its values from
``oracle.brute_force_sweep``). A command keeps only the outcomes it
writes as rows: ``_answer`` turns no answer into empty cells, and
``sweep-alpha`` pads an infeasible replication and blanks an alpha whose
iteration budget ran out. Every other error escapes to ``_Command``,
whose one table ``_EXITS`` gives its stderr prefix and exit code: an
infeasible instance exits 3, non-convergence and a repair that gave up
exit 1, the enumeration cap and an unwritable ``--out`` or
``--trace-out`` are usage errors, and a ``SolverFault`` or any other
``ModelError`` is a solver fault, never an infeasible instance.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import math
import os
import sys
from typing import Iterable, List, Optional, Sequence

import click
import numpy as np

from . import baselines, benders, oracle, placement as plc, scenario as scn
from .model import (
    InfeasibleInstanceError,
    ModelError,
    objective,
    total_transmission_time,
)
from .popularity import local_popularity

EXIT_NONCONVERGENCE = 1
EXIT_INFEASIBLE = 3
EXIT_SOLVER_FAULT = 4

_PAPER_SCALE_WARNING = (
    "warning: paper-scale instances (B=25, U=150, F=600) make the exact "
    "master solve exponential in the worst case; expect long runtimes"
)


def _f(v: float) -> str:
    return format(float(v), ".9g")


class _Unwritable(Exception):
    """An output file that cannot be written."""


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failure to write ``path`` into ``_Unwritable``, naming the path."""
    try:
        yield
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc.strerror}") from exc


def _write_csv(path: str, rows: List[Sequence]) -> None:
    """Write ``rows``, the header row first."""
    with _writing(path), open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _config(paper_scale: bool) -> scn.GenerationConfig:
    """The desk or paper-scale preset; paper scale warns on stderr."""
    if not paper_scale:
        return scn.desk_scale()
    click.echo(_PAPER_SCALE_WARNING, err=True)
    return scn.paper_scale()


def _load_instances(
    instance: Optional[str], seeds: Sequence[int], paper_scale: bool
) -> Iterable[scn.Instance]:
    """The instance file once per seed, or one generated instance per seed.

    The preset is built once, so paper scale warns once per command.
    """
    if instance is not None:
        if paper_scale:
            raise click.UsageError("--instance and --paper-scale are exclusive")
        try:
            return [scn.load(instance)] * len(seeds)
        except (OSError, scn.ParseError) as exc:
            raise click.UsageError(f"cannot load instance: {exc}")
    config = _config(paper_scale)
    return (scn.generate(config, seed) for seed in seeds)


def _pipeline(inst: scn.Instance):
    """Popularity and cache placement shared by every solve-style command."""
    pop = local_popularity(inst.scenario, inst.preferences)
    cache, _ = plc.lpf_greedy(inst.scenario, pop)
    return pop, cache


def _with_capacity(s, fraction: float):
    """``s`` with the per-SBS cache capacity ``scn.generate`` gives ``fraction``.

    Generation draws nothing from the cache fraction, so this is the
    scenario generated at ``fraction`` from the same seed. Only placement
    reads the capacity.
    """
    return dataclasses.replace(
        s, cache_capacity=np.full(s.sbs_count, fraction * s.file_sizes.sum())
    )


def sampled_backhaul_delay(
    inst: scn.Instance,
    cache,
    assoc,
    rng: np.random.Generator,
    samples: int,
) -> float:
    """Monte Carlo mean total delay with exponential backhaul draws.

    The wireless part is deterministic; each cache miss redraws its
    backhaul delay from an exponential with the SBS's configured mean.
    The draws come sample by sample, each over its misses in user order,
    and are added in that order.
    """
    s = inst.scenario
    assigned = assoc.assigned_sbs
    miss = cache.y[assigned, inst.demands.requested_file] == 0
    draws = rng.exponential(np.tile(s.backhaul_mean[assigned[miss]], samples))
    table = np.column_stack([
        np.full(samples, total_transmission_time(s, inst.demands)),
        draws.reshape(samples, -1),
    ])
    # cumsum adds in order; a sum over an axis would add pairwise
    return float(table.cumsum(axis=1)[:, -1].cumsum()[-1]) / samples


def _parse_grid(raw: str, name: str) -> List[float]:
    try:
        values = [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError:
        raise click.UsageError(f"{name} must be a comma-separated list of numbers")
    if not values:
        raise click.UsageError(f"{name} must be non-empty")
    return values


def _check_alpha(alpha: float) -> float:
    if not 0.0 <= alpha <= 1.0:
        raise click.UsageError("alpha must lie in [0, 1]")
    return alpha


def _check_epsilon(epsilon: Optional[float]) -> None:
    if epsilon is not None and not 0.0 < epsilon < math.inf:
        raise click.UsageError("epsilon must be a finite positive number")


def _run(
    algorithm: str,
    inst: scn.Instance,
    cache,
    alpha: float,
    epsilon: Optional[float] = None,
    master: Optional[benders.InstanceMaster] = None,
):
    """One solve and its value: (association, powers, the ``model.objective``
    value at ``alpha``, ucwt's trace or None).

    ``master``, ucwt's ``InstanceMaster`` of ``inst``, is shared by the
    caller's solves of one instance. Each solver is looked up on its
    module at call time, so a replaced module attribute is the one that
    runs.
    """
    s, d = inst.scenario, inst.demands
    trace = None
    if algorithm == "ucwt":
        res = benders.ucwt(s, d, cache, alpha, epsilon, master=master)
        trace = res.trace
    elif algorithm == "oracle":
        res = oracle.brute_force(s, d, cache, alpha)
    else:
        res = {"doa": baselines.doa, "ema": baselines.ema}[algorithm](s, d, cache)
    value = objective(s, d, cache, res.assoc, res.power, alpha)
    return res.assoc, res.power, value, trace


def _answer(algorithm: str, inst: scn.Instance, cache, alpha: float, master=None):
    """(association, objective value) of one comparison run, or None for no answer.

    No answer is an infeasible instance, a spent ucwt budget, a doa/ema
    repair that gave up, or a non-converged ucwt run; the caller writes
    empty cells for it.
    """
    try:
        assoc, _, value, trace = _run(algorithm, inst, cache, alpha, master=master)
    except (InfeasibleInstanceError, benders.IterationBudgetError,
            baselines.RepairFailedError):
        return None
    if trace is not None and not trace.converged:
        return None
    return assoc, value


def _gap_left(trace: benders.BendersTrace) -> str:
    """Why a ucwt run that kept an incumbent stopped short: its last gap."""
    last = trace.iterations[-1]
    return (f"gap {_f(last.psi_upper - last.psi_lower)} above epsilon "
            f"{_f(trace.epsilon)} after {len(trace.iterations)} iterations")


# Every error a command lets escape, with its stderr prefix and exit code;
# the first row that matches wins. A row without a prefix is a usage error,
# which click prints under the usage line.
_EXITS = (
    (InfeasibleInstanceError, "infeasible", EXIT_INFEASIBLE),
    (benders.IterationBudgetError, "not converged", EXIT_NONCONVERGENCE),
    # a heuristic that gives up proves nothing about the instance
    (baselines.RepairFailedError, "no answer", EXIT_NONCONVERGENCE),
    (oracle.EnumerationCapError, None, click.UsageError.exit_code),
    (_Unwritable, None, click.UsageError.exit_code),
    (benders.SolverFault, "solver fault", EXIT_SOLVER_FAULT),
    (ModelError, "solver fault", EXIT_SOLVER_FAULT),
)


class _Command(click.Command):
    """A subcommand whose escaping errors exit through ``_EXITS``."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except tuple(row[0] for row in _EXITS) as exc:
            prefix, code = next(row[1:] for row in _EXITS if isinstance(exc, row[0]))
            if prefix is None:
                raise click.UsageError(str(exc), ctx)
            click.echo(f"{prefix}: {exc}", err=True)
            sys.exit(code)


@click.group()
def main() -> None:
    """Energy-delay optimization experiments for cached small cell networks."""


# every subcommand below is a ``_Command``
main.command_class = _Command


@main.command()
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--paper-scale", is_flag=True, help="Use the full-size preset.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def generate(seed: int, paper_scale: bool, out: str) -> None:
    """Generate a random instance and write it to a file."""
    (inst,) = _load_instances(None, [seed], paper_scale)
    with _writing(out):
        scn.save(inst, out)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--paper-scale", is_flag=True)
@click.option(
    "--algorithm",
    type=click.Choice(["ucwt", "doa", "ema", "oracle"]),
    default="ucwt",
    show_default=True,
)
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option(
    "--trace-out",
    type=click.Path(dir_okay=False),
    help="Per-iteration bounds CSV (ucwt only); defaults to OUT + '.trace.csv'.",
)
def solve(instance, seed, paper_scale, algorithm, alpha, epsilon, out, trace_out):
    """Solve one instance and write the objective, association and powers."""
    _check_alpha(alpha)
    _check_epsilon(epsilon)
    (inst,) = _load_instances(instance, [seed], paper_scale)
    _, cache = _pipeline(inst)
    assoc, power, value, trace = _run(algorithm, inst, cache, alpha, epsilon)
    converged = trace is None or trace.converged
    _write_csv(out, [
        ("field", "index", "value"),
        ("algorithm", "", algorithm),
        ("alpha", "", _f(alpha)),
        ("energy_joules", "", _f(value.energy)),
        ("delay_seconds", "", _f(value.delay)),
        ("weighted", "", _f(value.weighted)),
        ("converged", "", int(converged)),
        ("iterations", "", 0 if trace is None else len(trace.iterations)),
        *(("assigned_sbs", i, int(j)) for i, j in enumerate(assoc.assigned_sbs)),
        *(("power_w", j, _f(p)) for j, p in enumerate(power.p)),
    ])
    if trace is not None:
        trace_path = trace_out or out + ".trace.csv"
        try:
            with _writing(trace_path), open(trace_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(trace.csv_rows()) + "\n")
        except _Unwritable:
            # a usage error leaves no output file behind
            os.remove(out)
            raise
    if not converged:
        click.echo(f"not converged: {_gap_left(trace)}", err=True)
        sys.exit(EXIT_NONCONVERGENCE)


@main.command("sweep-alpha")
@click.option("--instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--paper-scale", is_flag=True)
@click.option(
    "--algorithm",
    type=click.Choice(["ucwt", "oracle"]),
    default="oracle",
    show_default=True,
)
@click.option(
    "--grid",
    default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1",
    show_default=True,
    help="Comma-separated alpha values in [0, 1].",
)
@click.option("--replications", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def sweep_alpha(instance, seed, paper_scale, algorithm, grid, replications, epsilon, out):
    """Trace the energy-delay tradeoff over an alpha grid."""
    alphas = _parse_grid(grid, "--grid")
    for a in alphas:
        _check_alpha(a)
    _check_epsilon(epsilon)
    rows = [("alpha", "replication", "energy_joules", "delay_seconds", "weighted")]
    infeasible = nonconverged = 0
    seeds = range(seed, seed + replications)
    for rep, inst in enumerate(_load_instances(instance, seeds, paper_scale)):
        start = len(rows)
        _, cache = _pipeline(inst)
        s = inst.scenario
        try:
            if algorithm == "oracle":
                for a, sol in oracle.brute_force_sweep(s, inst.demands, cache, alphas):
                    rows.append((_f(a), rep, _f(sol.energy), _f(sol.delay),
                                 _f(sol.objective)))
            else:
                master = benders.InstanceMaster(s, inst.demands)
                for a in alphas:
                    try:
                        _, _, v, trace = _run("ucwt", inst, cache, a, epsilon, master)
                    except benders.IterationBudgetError as exc:
                        # no incumbent: a row of empty cells
                        cells, why = ("", "", ""), exc
                    else:
                        cells = (_f(v.energy), _f(v.delay), _f(v.weighted))
                        why = None if trace.converged else _gap_left(trace)
                    if why is not None:
                        nonconverged += 1
                        click.echo(f"not converged: replication {rep} (seed "
                                   f"{seed + rep}), alpha {_f(a)}: {why}", err=True)
                    rows.append((_f(a), rep, *cells))
        except InfeasibleInstanceError as exc:
            # every alpha still without a row gets one of empty cells
            infeasible += 1
            click.echo(f"infeasible: replication {rep} (seed {seed + rep}): {exc}",
                       err=True)
            rows += [(_f(a), rep, "", "", "") for a in alphas[len(rows) - start:]]
    _write_csv(out, rows)
    if infeasible == replications:
        sys.exit(EXIT_INFEASIBLE)
    if nonconverged:
        sys.exit(EXIT_NONCONVERGENCE)


@main.command("compare-caching")
@click.option("--seeds", type=click.IntRange(min=1), default=10, show_default=True,
              help="Number of seeded instances per grid point.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Base seed; instance r uses seed + r.")
@click.option("--paper-scale", is_flag=True)
@click.option("--capacity-grid", default="0.1,0.25,0.5,1.0", show_default=True,
              help="Cache capacity as a fraction of total catalog bytes.")
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def compare_caching(seeds, seed, paper_scale, capacity_grid, alpha, out):
    """Compare caching policies (lpf, gpc, rc) over a capacity grid."""
    _check_alpha(alpha)
    fractions = _parse_grid(capacity_grid, "--capacity-grid")
    for f in fractions:
        if not 0.0 <= f <= 1.0:
            raise click.UsageError("capacity fractions must lie in [0, 1]")
    config = _config(paper_scale)
    rows = []
    for r in range(seeds):
        # one instance and one ucwt master per seed: the fraction changes
        # only the cache capacity
        inst = scn.generate(config, seed + r)
        pop = local_popularity(inst.scenario, inst.preferences)
        master = benders.InstanceMaster(inst.scenario, inst.demands)
        for frac in fractions:
            s = _with_capacity(inst.scenario, frac)
            policies = {
                "lpf": plc.lpf_greedy(s, pop)[0],
                "gpc": plc.gpc_placement(s),
                "rc": plc.rc_placement(s, seed + r),
            }
            for name, cache in policies.items():
                _, mean_hit = plc.hit_ratio(cache, pop)
                answer = _answer("ucwt", inst, cache, alpha, master)
                cells = ("", "") if answer is None else (
                    _f(answer[1].energy), _f(answer[1].delay))
                rows.append((name, _f(frac), seed + r, _f(mean_hit), *cells))
    rows.sort(key=lambda row: (row[0], float(row[1]), int(row[2])))
    _write_csv(out, [("policy", "capacity_fraction", "seed", "hit_ratio",
                      "energy_joules", "delay_seconds"), *rows])


@main.command("compare-algorithms")
@click.option("--seeds", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--sweep", type=click.Choice(["users", "capacity"]),
              default="users", show_default=True)
@click.option("--grid", default=None,
              help="Sweep values; defaults to 4,5,6 users or 0.1,0.25,0.5 capacity.")
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--sample-backhaul", is_flag=True,
              help="Report Monte Carlo mean delay with exponential backhaul draws.")
@click.option("--samples", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def compare_algorithms(seeds, seed, sweep, grid, alpha, sample_backhaul, samples, out):
    """Compare ucwt/doa/ema energy and delay across a swept parameter."""
    _check_alpha(alpha)
    if grid is None:
        values = [4.0, 5.0, 6.0] if sweep == "users" else [0.1, 0.25, 0.5]
    else:
        values = _parse_grid(grid, "--grid")
    for value in values:
        if sweep == "users" and (value < 1 or not value.is_integer()):
            raise click.UsageError("user counts must be positive integers")
        if sweep == "capacity" and not 0.0 <= value <= 1.0:
            raise click.UsageError("capacity fractions must lie in [0, 1]")
    rows = []
    header = ["sweep", "value", "seed", "algorithm", "energy_joules",
              "delay_seconds"]
    if sample_backhaul:
        header.append("sampled_delay_seconds")
    master = None
    for r in range(seeds):
        if sweep == "capacity":
            # one instance and one ucwt master per seed, as in compare-caching
            inst = scn.generate(scn.desk_scale(), seed + r)
            pop = local_popularity(inst.scenario, inst.preferences)
            master = benders.InstanceMaster(inst.scenario, inst.demands)
        for value in values:
            if sweep == "users":
                inst = scn.generate(scn.desk_scale(user_count=int(value)), seed + r)
                _, cache = _pipeline(inst)
            else:
                cache, _ = plc.lpf_greedy(_with_capacity(inst.scenario, value), pop)
            for alg_tag, name in enumerate(("ucwt", "doa", "ema")):
                row = [sweep, _f(value), seed + r, name]
                answer = _answer(name, inst, cache, alpha, master)
                if answer is None:
                    rows.append(row + [""] * (len(header) - len(row)))
                    continue
                assoc, v = answer
                row += [_f(v.energy), _f(v.delay)]
                if sample_backhaul:
                    rng = np.random.default_rng((seed + r, alg_tag))
                    row.append(_f(sampled_backhaul_delay(
                        inst, cache, assoc, rng, samples)))
                rows.append(row)
    rows.sort(key=lambda row: (float(row[1]), int(row[2]), row[3]))
    _write_csv(out, [header, *rows])


if __name__ == "__main__":  # pragma: no cover
    main()
