"""Command-line experiment runner producing plot-ready CSV tables.

Subcommands cover single-instance solves, alpha tradeoff sweeps, caching
policy comparisons, association algorithm comparisons, and instance
generation. All outputs are deterministic given (instance, seed, flags);
floats are written with 9 significant digits.

Exit codes: 0 success, 1 solver non-convergence or a doa/ema repair that
gave up, 2 usage error (including an oracle request above the enumeration
cap), 3 infeasible instance, 4 internal solver fault.

Each command handles only the outcomes it turns into rows or exit codes:
``InfeasibleInstanceError`` (exit 3, padded sweep rows or empty cells),
and ``IterationBudgetError`` or ``RepairFailedError`` (exit 1 or empty
cells). Every command maps the rest in one place (``_Command``): an
``EnumerationCapError`` is a usage error, and a ``SolverFault`` or any
other ``ModelError`` is a solver fault, never an infeasible instance.
"""

from __future__ import annotations

import csv
import dataclasses
import math
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


def _write_csv(path: str, header: Sequence[str], rows: List[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
):
    """One solve: (association, powers, ucwt's trace or None).

    Each solver is looked up on its module at call time, so a replaced
    module attribute is the one that runs.
    """
    s, d = inst.scenario, inst.demands
    if algorithm == "ucwt":
        res = benders.ucwt(s, d, cache, alpha, epsilon)
        return res.assoc, res.power, res.trace
    if algorithm == "oracle":
        res = oracle.brute_force(s, d, cache, alpha)
    else:
        res = {"doa": baselines.doa, "ema": baselines.ema}[algorithm](s, d, cache)
    return res.assoc, res.power, None


def _answer(algorithm: str, inst: scn.Instance, cache, alpha: float):
    """(association, powers) of one comparison run, or None for no answer.

    No answer is an infeasible instance, a spent ucwt budget, a doa/ema
    repair that gave up, or a non-converged ucwt run; the caller writes
    empty cells for it.
    """
    try:
        assoc, power, trace = _run(algorithm, inst, cache, alpha)
    except (InfeasibleInstanceError, benders.IterationBudgetError,
            baselines.RepairFailedError):
        return None
    if trace is not None and not trace.converged:
        return None
    return assoc, power


class _Command(click.Command):
    """A subcommand that maps the failures it does not handle to exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except oracle.EnumerationCapError as exc:
            raise click.UsageError(str(exc), ctx)
        except (benders.SolverFault, ModelError) as exc:
            click.echo(f"solver fault: {exc}", err=True)
            sys.exit(EXIT_SOLVER_FAULT)


@click.group()
def main() -> None:
    """Energy-delay optimization experiments for cached small cell networks."""


# every subcommand below is a ``_Command``
main.command_class = _Command


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--paper-scale", is_flag=True, help="Use the full-size preset.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def generate(seed: int, paper_scale: bool, out: str) -> None:
    """Generate a random instance and write it to a file."""
    (inst,) = _load_instances(None, [seed], paper_scale)
    scn.save(inst, out)
    click.echo(f"wrote {out}")


def _solve_rows(inst, cache, algorithm, alpha, epsilon):
    """Run one algorithm; returns (long-format rows, exit code, trace|None)."""
    assoc, power, trace = _run(algorithm, inst, cache, alpha, epsilon)
    converged = trace is None or trace.converged
    iterations = 0 if trace is None else len(trace.iterations)
    value = objective(inst.scenario, inst.demands, cache, assoc, power, alpha)
    rows: List[Sequence] = [
        ("algorithm", "", algorithm),
        ("alpha", "", _f(alpha)),
        ("energy_joules", "", _f(value.energy)),
        ("delay_seconds", "", _f(value.delay)),
        ("weighted", "", _f(value.weighted)),
        ("converged", "", int(converged)),
        ("iterations", "", iterations),
    ]
    for i, j in enumerate(assoc.assigned_sbs):
        rows.append(("assigned_sbs", i, int(j)))
    for j, p in enumerate(power.p):
        rows.append(("power_w", j, _f(p)))
    code = 0 if converged else EXIT_NONCONVERGENCE
    return rows, code, trace


@main.command()
@click.option("--instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=0, show_default=True)
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
    try:
        rows, code, trace = _solve_rows(inst, cache, algorithm, alpha, epsilon)
    except InfeasibleInstanceError as exc:
        click.echo(f"infeasible: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    except benders.IterationBudgetError as exc:
        click.echo(f"not converged: {exc}", err=True)
        sys.exit(EXIT_NONCONVERGENCE)
    except baselines.RepairFailedError as exc:
        # a heuristic that gives up proves nothing about the instance
        click.echo(f"no answer: {exc}", err=True)
        sys.exit(EXIT_NONCONVERGENCE)
    _write_csv(out, ("field", "index", "value"), rows)
    if trace is not None:
        trace_path = trace_out or out + ".trace.csv"
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(trace.csv_rows()) + "\n")
    sys.exit(code)


@main.command("sweep-alpha")
@click.option("--instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=0, show_default=True)
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
@click.option("--replications", type=int, default=1, show_default=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def sweep_alpha(instance, seed, paper_scale, algorithm, grid, replications, epsilon, out):
    """Trace the energy-delay tradeoff over an alpha grid."""
    alphas = _parse_grid(grid, "--grid")
    for a in alphas:
        _check_alpha(a)
    _check_epsilon(epsilon)
    if replications < 1:
        raise click.UsageError("replications must be positive")
    rows = []
    infeasible = nonconverged = 0
    seeds = range(seed, seed + replications)
    for rep, inst in enumerate(_load_instances(instance, seeds, paper_scale)):
        start = len(rows)
        _, cache = _pipeline(inst)
        s = inst.scenario
        try:
            if algorithm == "oracle":
                for a, sol in oracle.brute_force_sweep(
                    s, inst.demands, cache, alphas
                ):
                    rows.append((_f(a), rep, _f(sol.energy), _f(sol.delay),
                                 _f(sol.objective)))
            else:
                for a in alphas:
                    try:
                        assoc, power, trace = _run("ucwt", inst, cache, a, epsilon)
                    except benders.IterationBudgetError:
                        # no incumbent: a row of empty cells
                        nonconverged += 1
                        rows.append((_f(a), rep, "", "", ""))
                        continue
                    if not trace.converged:
                        nonconverged += 1
                    v = objective(s, inst.demands, cache, assoc, power, a)
                    rows.append((_f(a), rep, _f(v.energy), _f(v.delay),
                                 _f(v.weighted)))
        except InfeasibleInstanceError as exc:
            # every alpha still without a row gets one of empty cells
            infeasible += 1
            click.echo(f"infeasible: replication {rep} (seed {seed + rep}): {exc}",
                       err=True)
            rows += [(_f(a), rep, "", "", "") for a in alphas[len(rows) - start:]]
    _write_csv(
        out,
        ("alpha", "replication", "energy_joules", "delay_seconds", "weighted"),
        rows,
    )
    if infeasible == replications:
        sys.exit(EXIT_INFEASIBLE)
    if nonconverged:
        sys.exit(EXIT_NONCONVERGENCE)


@main.command("compare-caching")
@click.option("--seeds", type=int, default=10, show_default=True,
              help="Number of seeded instances per grid point.")
@click.option("--seed", type=int, default=0, show_default=True,
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
    if seeds < 1:
        raise click.UsageError("seeds must be positive")
    base = _config(paper_scale)
    rows = []
    for frac in fractions:
        config = dataclasses.replace(base, cache_fraction=frac)
        for r in range(seeds):
            inst = scn.generate(config, seed + r)
            s = inst.scenario
            pop = local_popularity(s, inst.preferences)
            policies = {
                "lpf": plc.lpf_greedy(s, pop)[0],
                "gpc": plc.gpc_placement(s),
                "rc": plc.rc_placement(s, seed + r),
            }
            for name, cache in policies.items():
                _, mean_hit = plc.hit_ratio(cache, pop)
                answer = _answer("ucwt", inst, cache, alpha)
                energy = delay = ""
                if answer is not None:
                    v = objective(s, inst.demands, cache, *answer)
                    energy, delay = _f(v.energy), _f(v.delay)
                rows.append((name, _f(frac), seed + r, _f(mean_hit), energy, delay))
    rows.sort(key=lambda row: (row[0], float(row[1]), int(row[2])))
    _write_csv(
        out,
        ("policy", "capacity_fraction", "seed", "hit_ratio",
         "energy_joules", "delay_seconds"),
        rows,
    )


@main.command("compare-algorithms")
@click.option("--seeds", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--sweep", type=click.Choice(["users", "capacity"]),
              default="users", show_default=True)
@click.option("--grid", default=None,
              help="Sweep values; defaults to 4,5,6 users or 0.1,0.25,0.5 capacity.")
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--sample-backhaul", is_flag=True,
              help="Report Monte Carlo mean delay with exponential backhaul draws.")
@click.option("--samples", type=int, default=200, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def compare_algorithms(seeds, seed, sweep, grid, alpha, sample_backhaul, samples, out):
    """Compare ucwt/doa/ema energy and delay across a swept parameter."""
    _check_alpha(alpha)
    if seeds < 1 or samples < 1:
        raise click.UsageError("seeds and samples must be positive")
    if grid is None:
        values = [4.0, 5.0, 6.0] if sweep == "users" else [0.1, 0.25, 0.5]
    else:
        values = _parse_grid(grid, "--grid")
    rows = []
    header = ["sweep", "value", "seed", "algorithm", "energy_joules",
              "delay_seconds"]
    if sample_backhaul:
        header.append("sampled_delay_seconds")
    for value in values:
        if sweep == "users":
            if value < 1 or not value.is_integer():
                raise click.UsageError("user counts must be positive integers")
            config = scn.desk_scale(user_count=int(value))
        else:
            if not 0.0 <= value <= 1.0:
                raise click.UsageError("capacity fractions must lie in [0, 1]")
            config = scn.desk_scale(cache_fraction=value)
        for r in range(seeds):
            inst = scn.generate(config, seed + r)
            _, cache = _pipeline(inst)
            for alg_tag, name in enumerate(("ucwt", "doa", "ema")):
                row = [sweep, _f(value), seed + r, name]
                answer = _answer(name, inst, cache, alpha)
                if answer is None:
                    rows.append(row + [""] * (len(header) - len(row)))
                    continue
                v = objective(inst.scenario, inst.demands, cache, *answer)
                row += [_f(v.energy), _f(v.delay)]
                if sample_backhaul:
                    rng = np.random.default_rng((seed + r, alg_tag))
                    row.append(_f(sampled_backhaul_delay(
                        inst, cache, answer[0], rng, samples)))
                rows.append(row)
    rows.sort(key=lambda row: (float(row[1]), int(row[2]), row[3]))
    _write_csv(out, header, rows)


if __name__ == "__main__":  # pragma: no cover
    main()
