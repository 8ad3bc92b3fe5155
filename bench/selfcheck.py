"""Tiny-size self-check of the benchmark, kept out of the test suite.

Runs every workload of ``BENCHMARK.json`` at minimal size, untraced and
traced, in this one process. Each run must report exactly the metrics
``BENCHMARK.json`` names for its mode, each with its unit, and no operation
may fail (``failed_frac == 0``). Exits 1 and lists the problems otherwise.

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEED = 1
SECONDS = 0.2


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    speed = run.Speed()
    for _ in range(run.Speed.WINDOW):
        speed.probe()
    imports = run.import_library(run.ROOT)
    import_factor = speed.factor()
    workdir = run.ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            try:
                metrics, _, ops, failed, _, _ = run.measure(
                    name, SEED, SECONDS, trace, imports, import_factor, speed, workdir, tiny=True
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            reported = {key: m["unit"] for key, m in metrics.items()}
            for key in sorted(expected.keys() | reported.keys()):
                if expected.get(key) != reported.get(key):
                    problems.append(
                        f"{name} {kind} {key}: unit {reported.get(key)!r}, expected {expected.get(key)!r}"
                    )
            if failed:
                problems.append(f"{name} {kind}: failed_frac {failed / ops:.3g}")
            print(f"{name} trace={int(trace)}: {ops} ops, {len(reported)} metrics, failed_frac {failed / ops:.3g}")
    for problem in problems:
        print("PROBLEM " + problem)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
