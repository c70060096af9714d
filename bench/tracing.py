"""Span tracer for the traced benchmark run, applied from outside the package.

Spans are recorded by replacing module attributes of ``dscnopt`` with
timing wrappers, so nothing under ``src/`` is instrumented. A span holds its
name, start, end, the index of the span that was open when it started, the
shared id of the unit of work it belongs to, and the phase ("setup" or
"pass"). Simplex pivots are counted as calls to ``dscnopt.lp.lu_factor``,
which ``lp._simplex`` makes exactly once per pivot, and are charged to the
innermost open span.

Spans stay in memory until the run ends; ``write_spans`` then writes them
out as CSV and ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import dscnopt.baselines
import dscnopt.benders
import dscnopt.cli
import dscnopt.lp
import dscnopt.oracle
import dscnopt.placement
import dscnopt.popularity
import dscnopt.scenario


@dataclass
class Span:
    name: str
    start: float
    parent: int                  # index into Tracer.spans, -1 for a root span
    solve_id: int
    phase: str
    end: float = 0.0
    pivots: int = 0
    status: str = ""             # outcome: lp status, feasibility, or "raised:<type>"
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around calls into dscnopt while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.solve_id = -1
        self.phase = "setup"
        self._stack: List[int] = []
        self._patched: list = []

    def _wrap(self, owner, attr: str, name: str,
              on_result: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        self._stack[-1] if self._stack else -1,
                        self.solve_id, self.phase)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.status = "raised:" + type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(span, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def _count_pivot(self, original):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            if self._stack:
                self.spans[self._stack[-1]].pivots += 1
            return original(*args, **kwargs)
        return counted

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        bd, lp, bl, orc = (dscnopt.benders, dscnopt.lp, dscnopt.baselines,
                           dscnopt.oracle)
        self._wrap(bd, "ucwt", "benders.ucwt", _record_ucwt)
        self._wrap(bd, "solve_subproblem", "benders.subproblem")
        self._wrap(bd, "solve_master", "benders.master")
        self._wrap(bd, "recover_power", "benders.recover_power")
        self._wrap(lp, "solve_lp", "lp.solve", _record_status)
        # oracle imports min_power_for by name, so both bindings are wrapped
        self._wrap(bl, "min_power_for", "baselines.min_power", _record_feasible)
        self._wrap(orc, "min_power_for", "oracle.min_power", _record_feasible)
        self._wrap(bl, "doa", "baselines.doa")
        self._wrap(bl, "ema", "baselines.ema")
        self._wrap(orc, "brute_force_sweep", "oracle.sweep")
        self._wrap(orc, "enumerate_candidates", "oracle.enumerate",
                   _record_assignments)
        self._wrap(dscnopt.scenario, "generate", "scenario.generate")
        for owner in (dscnopt.popularity, dscnopt.scenario, dscnopt.cli):
            self._wrap(owner, "local_popularity", "popularity.local")
        for attr, name in (("lpf_greedy", "lpf"), ("gpc_placement", "gpc"),
                           ("rc_placement", "rc")):
            self._wrap(dscnopt.placement, attr, "placement." + name)
        for command in ("compare-algorithms", "compare-caching"):
            self._wrap(dscnopt.cli.main.commands[command], "callback",
                       "cli." + command)
        original = lp.lu_factor
        lp.lu_factor = self._count_pivot(original)
        self._patched.append((lp, "lu_factor", original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _record_ucwt(span: Span, args, result) -> None:
    trace = result.trace
    span.counts["iterations"] = len(trace.iterations)
    span.counts["cuts_feasibility"] = sum(c.kind == "feasibility" for c in trace.cuts)
    span.counts["cuts_optimality"] = sum(c.kind == "optimality" for c in trace.cuts)


def _record_status(span: Span, args, result) -> None:
    span.status = result.status


def _record_feasible(span: Span, args, result) -> None:
    span.status = "infeasible" if result is None else "feasible"


def _record_assignments(span: Span, args, result) -> None:
    s = args[0]
    span.counts["assignments"] = s.sbs_count ** s.user_count


_LP_PARENTS = {
    "benders.subproblem": "subproblem",
    "benders.master": "master",
    "benders.recover_power": "recover",
    "baselines.min_power": "min_power",
    "oracle.min_power": "min_power",
}

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("benders.ucwt_calls", "count", "lower"),
    ("benders.ucwt_s", "s", "lower"),
    ("benders.iterations", "count", "lower"),
    ("benders.cuts_feasibility", "count", "lower"),
    ("benders.cuts_optimality", "count", "lower"),
    ("benders.cut_duplicate_ratio", "ratio", "lower"),
    ("benders.subproblem_calls", "count", "lower"),
    ("benders.subproblem_s", "s", "lower"),
    ("benders.master_calls", "count", "lower"),
    ("benders.master_s", "s", "lower"),
    ("benders.master_lp_calls", "count", "lower"),
    ("benders.recover_power_s", "s", "lower"),
    ("lp.solve_calls", "count", "lower"),
    ("lp.solve_s", "s", "lower"),
    ("lp.pivots", "count", "lower"),
] + [
    (f"lp.{what}.{parent}", unit, "lower")
    for parent in ("subproblem", "master", "recover", "min_power")
    for what, unit in (("solve_calls", "count"), ("solve_s", "s"),
                       ("pivots", "count"))
] + [
    ("lp.infeasible", "count", "lower"),
    ("lp.unbounded", "count", "lower"),
    ("oracle.assignments", "count", "lower"),
    ("oracle.min_power_calls", "count", "lower"),
    ("oracle.feasible_ratio", "ratio", "higher"),
    ("oracle.s", "s", "lower"),
    ("baselines.min_power_calls", "count", "lower"),
    ("baselines.min_power_s", "s", "lower"),
    ("baselines.doa_s", "s", "lower"),
    ("baselines.ema_s", "s", "lower"),
    ("baselines.repair_failures", "count", "lower"),
    ("scenario.generate_s", "s", "lower"),
    ("popularity.local_s", "s", "lower"),
    ("placement.lpf_s", "s", "lower"),
    ("placement.gpc_s", "s", "lower"),
    ("placement.rc_s", "s", "lower"),
    ("cli.command_s.compare-algorithms", "s", "lower"),
    ("cli.command_s.compare-caching", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: exact counts that must repeat for one seed and change with another seed
EXACT_COUNTS = [
    "benders.iterations", "benders.cuts_feasibility", "benders.cuts_optimality",
    "lp.solve_calls", "lp.pivots", "oracle.min_power_calls",
]


def layer_metrics(spans: List[Span], passes: int) -> Dict[str, float]:
    """Per-layer metrics, per traced pass over the workload's batch.

    Solver layers (benders, lp, oracle, baselines, cli) count only spans of
    the traced passes, since set-up also solves reference answers. The
    instance-preparation layers (scenario, popularity, placement) add the
    set-up spans to the per-pass ones, because set-up is where they run.
    """
    # totals over all traced passes and over the set-up, kept apart so that
    # exact counts stay exact when divided by the number of passes
    totals = {phase: {name: 0 for name, _, _ in PER_LAYER} for phase in ("pass", "setup")}
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.seconds
    prep = ("scenario.", "popularity.", "placement.")
    for k, s in enumerate(spans):
        if s.phase != "pass" and not s.name.startswith(prep):
            continue
        m = totals[s.phase]
        name = s.name
        if name == "benders.ucwt":
            m["benders.ucwt_calls"] += 1
            m["benders.ucwt_s"] += s.seconds
            for key, v in s.counts.items():
                m["benders." + key] += v
        elif name == "benders.subproblem":
            m["benders.subproblem_calls"] += 1
            m["benders.subproblem_s"] += (s.seconds - child_s[k])
        elif name == "benders.master":
            m["benders.master_calls"] += 1
            m["benders.master_s"] += s.seconds
        elif name == "benders.recover_power":
            m["benders.recover_power_s"] += s.seconds
        elif name == "lp.solve":
            parent = _LP_PARENTS.get(spans[s.parent].name) if s.parent >= 0 else None
            for suffix in [""] + (["." + parent] if parent else []):
                m["lp.solve_calls" + suffix] += 1
                m["lp.solve_s" + suffix] += s.seconds
                m["lp.pivots" + suffix] += s.pivots
            if parent == "master":
                m["benders.master_lp_calls"] += 1
            if s.status in ("infeasible", "unbounded"):
                m["lp." + s.status] += 1
        elif name == "oracle.min_power":
            m["oracle.min_power_calls"] += 1
        elif name == "oracle.enumerate":
            m["oracle.assignments"] += s.counts.get("assignments", 0)
        elif name == "oracle.sweep":
            m["oracle.s"] += s.seconds
        elif name == "baselines.min_power":
            m["baselines.min_power_calls"] += 1
            m["baselines.min_power_s"] += s.seconds
        elif name in ("baselines.doa", "baselines.ema"):
            m[name + "_s"] += s.seconds
            # a plain ModelError out of doa/ema is the repair giving up
            if s.status == "raised:ModelError":
                m["baselines.repair_failures"] += 1
        elif name.startswith("cli."):
            m["cli.command_s." + name[4:]] += s.seconds
        elif name.startswith(prep):
            m[name + "_s"] += s.seconds
    m = {name: totals["pass"][name] / passes + totals["setup"][name]
         for name, _, _ in PER_LAYER}
    iterations = m["benders.iterations"]
    kept = m["benders.cuts_feasibility"] + m["benders.cuts_optimality"]
    m["benders.cut_duplicate_ratio"] = (iterations - kept) / iterations if iterations else 0.0
    feasible = sum(1 for s in spans if s.phase == "pass" and s.name == "oracle.min_power"
                   and s.status == "feasible") / passes
    calls = m["oracle.min_power_calls"]
    m["oracle.feasible_ratio"] = feasible / calls if calls else 0.0
    return m


def write_spans(spans: List[Span], path: str) -> None:
    """Write every recorded span as one CSV row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["index", "name", "phase", "solve_id", "parent",
                      "start_s", "end_s", "pivots", "status"])
        for k, s in enumerate(spans):
            out.writerow([k, s.name, s.phase, s.solve_id, s.parent,
                          f"{s.start:.9f}", f"{s.end:.9f}", s.pivots, s.status])
