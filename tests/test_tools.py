"""The repository's own tools, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

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
