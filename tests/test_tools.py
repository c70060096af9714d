"""The repository's own tools, run as a user runs them."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from dscnopt import benders, scenario as scn
from dscnopt.placement import lpf_greedy
from dscnopt.popularity import local_popularity

ROOT = Path(__file__).resolve().parent.parent

# solve_lp call sites in src/: a metric heading to 0, so it may only fall
MAX_SOLVE_LP_SITES = 3


def test_src_size_caps_solve_lp_call_sites():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_size.py")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    total = run.stdout.splitlines()[-1].split()
    assert total[0] == "total"
    lines, code, sites = map(int, total[1:])
    assert 0 < code <= lines
    assert sites <= MAX_SOLVE_LP_SITES


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
