"""The benchmark's self-check, run against the library as it stands."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    # every workload at tiny size, untraced and traced: a library change that
    # breaks the benchmark's traced wrappers (which unpack ``solve_tagged``'s
    # positional arguments, say) or its oracle checks fails here
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith("selfcheck passed\n")
