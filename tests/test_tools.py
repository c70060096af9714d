"""The repository's own tools, run as a user runs them, and the source layout."""

import ast
import fnmatch
import hashlib
import importlib.util
import logging
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import dscnopt
from dscnopt import benders, oracle, placement, popularity, scenario as scn
from dscnopt.placement import lpf_greedy
from dscnopt.popularity import local_popularity

import reference

ROOT = Path(__file__).resolve().parent.parent

# solve_lp call sites in src/: a metric heading to 0, so it may only fall
MAX_SOLVE_LP_SITES = 0


def src_size_rows():
    """``tools/src_size.py``'s rows after the header, split into fields."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_size.py")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["module", "lines", "code", "solve_lp", "settable"]
    return [row.split() for row in rows]


def test_src_size_caps_solve_lp_call_sites():
    total = src_size_rows()[-1]
    assert total[0] == "total"
    lines, code, sites, _ = map(int, total[1:])
    assert 0 < code <= lines
    assert sites <= MAX_SOLVE_LP_SITES


SAMPLE_SOURCE = textwrap.dedent("""
    @dataclass(frozen=True)
    class Point:
        x: float
        y: float = 0.0
        norm: float = field(init=False)

    class Grid:
        def cell(self, i, *rest, j=0, **named):
            return lambda k: k
""")


def test_src_size_counts_settable_values():
    *modules, total = src_size_rows()
    assert int(total[4]) == sum(int(row[4]) for row in modules) > 0
    spec = importlib.util.spec_from_file_location("src_size", ROOT / "tools" / "src_size.py")
    src_size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_size)
    # x and y; i, rest, j and named; k
    assert src_size._settable_values(ast.parse(SAMPLE_SOURCE)) == 2 + 4 + 1


def src_size_defs(root):
    """``tools/src_size.py --defs`` on ``root``, one list of fields per line."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_size.py"), "--defs", str(root)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return [line.split() for line in run.stdout.splitlines()]


def test_src_size_lists_settable_values_per_def(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE_SOURCE, encoding="utf-8")
    # most settable values first, each at the line of its def or class
    assert src_size_defs(tmp_path) == [
        ["4", "Grid.cell", "sample.py:9"],
        ["2", "Point", "sample.py:3"],
        ["1", "Grid.cell.<lambda>", "sample.py:10"],
    ]
    # over the package, the lines add up to the table's total
    total = src_size_rows()[-1]
    assert sum(int(fields[0]) for fields in src_size_defs(ROOT / "src")) == int(total[4])


def test_package_import_leaves_lp_unloaded():
    # the package and its commands take no answer from the simplex
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import dscnopt, dscnopt.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('dscnopt')))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    loaded = ast.literal_eval(run.stdout)
    assert "dscnopt.benders" in loaded and "dscnopt.cli" in loaded
    assert "dscnopt.lp" not in loaded


def test_test_only_references_live_in_tests(pytestconfig):
    moved = {benders: ("build_subproblem_primal", "penalty_lambda",
                       "rmp_penalty_value"),
             oracle: ("iter_assignments",)}
    for module, names in moved.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert callable(getattr(reference, name))
    # a module of references, not of tests: no python_files pattern names it
    path = ROOT / "tests" / "reference.py"
    assert Path(reference.__file__).resolve() == path
    assert not any(fnmatch.fnmatch(path.name, pattern)
                   for pattern in pytestconfig.getini("python_files"))


def test_ab_pass_times_the_repository_against_itself():
    # an A/A run: both sides import this checkout and check every answer
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_pass.py"), str(ROOT), str(ROOT),
         "--workload", "oracle-enum", "--rounds", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert re.search(
        r"^change/parent ratio: median \d+\.\d{3} \[Q1 \d+\.\d{3}, Q3 \d+\.\d{3}\]$",
        run.stdout, re.MULTILINE,
    ), run.stdout


def test_master_sets_digests_each_solve_at_both_limits():
    # one small solve: the digest covers its objective, association, powers
    # and trace rows, and the limit-0 run searches its master to the same
    spec = importlib.util.spec_from_file_location(
        "master_sets", ROOT / "tools" / "master_sets.py"
    )
    master_sets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(master_sets)
    cases = master_sets.instances(dscnopt, [(3, 8, range(1))])
    (s, demands, placement_), = cases
    result = benders.ucwt(s, demands, placement_, 0.5)
    power = ",".join(map(float.hex, result.power.p.tolist()))
    expected = hashlib.sha256(
        f"{result.trace.final_objective.hex()}|"
        f"{result.assoc.assigned_sbs.tolist()}|{power}\n".encode()
        + "\n".join(result.trace.csv_rows()).encode() + b"\n"
    ).hexdigest()
    limit = benders._MASTER_ENUMERATION_LIMIT
    digest, seconds, searched = master_sets.solve_set(benders, cases, (0.5,))
    assert (digest, searched) == (expected, 0) and seconds > 0
    digest, _, searched = master_sets.solve_set(benders, cases, (0.5,), 0)
    assert (digest, searched) == (expected, 1)
    assert benders._MASTER_ENUMERATION_LIMIT == limit


def test_paper_physics_checks_ucwt_against_the_oracle(monkeypatch, caplog):
    # one small case: the reading counts its solve, its match, its
    # iterations and the exact re-runs that its ucwt solve logged
    spec = importlib.util.spec_from_file_location(
        "paper_physics", ROOT / "tools" / "paper_physics.py"
    )
    paper_physics = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules; the tool puts its
    # own directory on sys.path, to import master_sets
    monkeypatch.setitem(sys.modules, spec.name, paper_physics)
    monkeypatch.setattr(sys, "path", sys.path[:])
    spec.loader.exec_module(paper_physics)
    cases = paper_physics.instances(dscnopt, 4, 8, range(1))
    (s, demands, placement_), = cases
    with caplog.at_level(logging.WARNING, logger="dscnopt.benders"):
        result = benders.ucwt(s, demands, placement_, 1.0)
    reruns = sum("unverified" in r.getMessage() for r in caplog.records)
    readings, oracle_reruns, seconds = paper_physics.campaign(
        dscnopt, cases, (1.0,)
    )
    reading = readings[1.0]
    assert (reading.solves, reading.matches, reading.unconverged) == (1, 1, 0)
    assert reading.worst <= paper_physics.MATCH
    assert reading.iterations == len(result.trace.iterations)
    assert reading.unverified == reruns
    assert list(oracle_reruns) == list(paper_physics.KINDS) and seconds > 0
    # with every check failing, each of the oracle's power solves is re-run
    # exactly, and counted by the kind of its float answer
    calls, kinds = [], Counter()
    min_power = benders._min_power

    def failed(system, answer):
        if answer.power is not None:
            kinds["powers"] += 1
        else:
            kinds["rays on a cap" if answer.mu.any() else "rays with mu = 0"] += 1
        return False

    monkeypatch.setattr(benders, "_verified", failed)
    with monkeypatch.context() as m:
        m.setattr(
            benders, "_min_power", lambda *args: calls.append(args) or min_power(*args)
        )
        dscnopt.oracle.enumerate_candidates(s, demands, placement_)
    expected = {kind: kinds[kind] for kind in paper_physics.KINDS}
    _, forced, _ = paper_physics.campaign(dscnopt, cases, (1.0,))
    assert sum(forced.values()) == len(calls) == sum(expected.values())
    assert dict(forced) == expected and benders._verified is failed
    assert expected["powers"] > 0 and expected["rays with mu = 0"] > 0


def load_tracing(monkeypatch):
    """``bench/tracing.py`` as a module of its own, registered for this test only."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_benders_loop(monkeypatch):
    # the benchmark's per-layer metrics rest on these wrap points
    inst = scn.generate(scn.desk_scale(), 0)
    s, demands = inst.scenario, inst.demands
    placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
    tracer = load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._patched)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in wrapped)
        result = benders.ucwt(s, demands, placement, 0.5)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)
    names = [span.name for span in tracer.spans]
    iterations = len(result.trace.iterations)
    assert iterations > 0 and names.count("benders.ucwt") == 1
    assert names.count("benders.subproblem") == iterations
    # one master call on the seed alone, then one per iteration
    assert names.count("benders.master") == iterations + 1
    assert "benders.recover_power" not in names
    assert all(span.parent == 0 for span in tracer.spans[1:]
               if span.name.startswith("benders."))


def test_tracer_wraps_the_oracle_sweep(monkeypatch):
    inst = scn.generate(scn.desk_scale(), 0)
    s, demands = inst.scenario, inst.demands
    placement, _ = lpf_greedy(s, local_popularity(s, inst.preferences))
    tracer = load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._patched)
        swept = oracle.brute_force_sweep(s, demands, placement, [0.0, 0.5, 1.0])
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)
    assert len(swept) == 3
    names = [span.name for span in tracer.spans]
    assert names.count("oracle.sweep") == 1
    assert names.count("oracle.enumerate") == 1
    enumerate_span = tracer.spans[names.index("oracle.enumerate")]
    assert enumerate_span.parent == names.index("oracle.sweep")


def test_tracer_wraps_the_instance_set_up(monkeypatch):
    # scenario.generate_s, popularity.local_s and placement.*_s rest on these
    tracer = load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        # through the modules, as the CLI and the benchmark call them
        inst = scn.generate(scn.desk_scale(), 0)
        s = inst.scenario
        pop = popularity.local_popularity(s, inst.preferences)
        placement.lpf_greedy(s, pop)
        placement.gpc_placement(s)
        placement.rc_placement(s, 0)
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert names.count("scenario.generate") == 1
    generate = names.index("scenario.generate")
    local = [span for span in tracer.spans if span.name == "popularity.local"]
    # one inside generate, one called on its own
    assert [span.parent for span in local] == [generate, -1]
    for name in ("placement.lpf", "placement.gpc", "placement.rc"):
        assert names.count(name) == 1
        assert tracer.spans[names.index(name)].parent == -1
