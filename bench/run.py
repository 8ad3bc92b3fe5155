"""circnot benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload derive-large --seed 1 --seconds 15 --trace 0

Workloads are defined in ``workloads.py``. The run is one process with no
threads. It imports ``circnot`` from ``src/`` of the checkout, builds the
workload's inputs from the seed (several times, reporting the median),
then times whole blocks of operations until the total comes nearest to
``--seconds`` (at least one block). Each result is checked against an
independent oracle right after its operation, outside the timed region.

Times in the end-to-end metrics are scaled by the machine's speed at the
moment they were taken (``Speed``), so they read as on a machine where a
fixed pure-Python probe takes 1 ms. The figures as measured are printed
beside them. On a shared machine this takes out drifts of tens of per
cent that last for whole runs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics instead, as measured: it times a prefix of the first
block without tracing, installs the span wrappers of ``spans.py``, then
runs the same loop traced; ``trace.overhead_frac`` compares the two scaled
timings of that prefix. Spans are written to
``.bench_out/spans-<workload>.tsv.gz``.

Lines before the last describe the environment and every metric by name
and unit, including ``failed_frac``, the share of operations that raised
or disagreed with the oracle. The last line is the JSON result. Any failed
operation is printed with its inputs on stderr and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import builtins
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("derive-large", "icm-fault", "sweep-small", "search-cli")


def import_library(root: Path) -> tuple[float, float]:
    """Import ``circnot`` from ``root/src``; return (import s, numpy share s).

    The numpy share is the time spent in the outermost import of numpy
    while circnot loads, measured by a hook on ``builtins.__import__``.
    """
    src = root / "src"
    if not (src / "circnot" / "__init__.py").is_file():
        raise SystemExit(f"error: no circnot sources under {src}")
    sys.path.insert(0, str(src))
    numpy_s = 0.0
    plain_import = builtins.__import__

    def timed_import(name, *args, **kwargs):
        nonlocal numpy_s
        if (name == "numpy" or name.startswith("numpy.")) and "numpy" not in sys.modules:
            start = time.perf_counter()
            try:
                return plain_import(name, *args, **kwargs)
            finally:
                numpy_s += time.perf_counter() - start
        return plain_import(name, *args, **kwargs)

    builtins.__import__ = timed_import
    try:
        start = time.perf_counter()
        import circnot
        import_s = time.perf_counter() - start
    finally:
        builtins.__import__ = plain_import
    if Path(circnot.__file__).resolve().parent != (src / "circnot").resolve():
        raise SystemExit(f"error: imported circnot from {circnot.__file__}, not {src}")
    return import_s, numpy_s


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Speed:
    """Tracks how fast the machine runs Python right now, by a fixed probe.

    On a shared machine the speed of the same code drifts by tens of per
    cent over spells of seconds. A short pure-Python probe, independent of
    circnot, runs every ``INTERVAL`` seconds; ``factor`` is the median of
    the last ``WINDOW`` probe times over ``PROBE_REF_S``. Timings divided
    by it read as on a machine where the probe takes exactly 1 ms.
    """

    INTERVAL = 0.1
    WINDOW = 5
    PROBE_REF_S = 1e-3
    PROBE_STEPS = 4000
    TABLE = [(i * 2654435761) & 0xFFFF for i in range(256)]

    def __init__(self):
        self.samples: list[float] = []
        self.last = -1.0

    def probe(self) -> None:
        table, x = self.TABLE, 0
        start = time.perf_counter()
        for i in range(self.PROBE_STEPS):
            x = ((x << 1) ^ table[(x ^ i) & 255]) & 0xFFFFFFFF
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def factor(self) -> float:
        if time.perf_counter() - self.last >= self.INTERVAL:
            self.probe()
        return statistics.median(self.samples[-self.WINDOW :]) / self.PROBE_REF_S


class Run:
    """Times one workload's operations and checks every result.

    Each latency is kept as measured and divided by the machine's current
    speed factor; the end-to-end metrics use the latter.
    """

    def __init__(self, wl, speed: Speed):
        self.wl = wl
        self.speed = speed
        self.tracer = None
        self.ops = 0
        self.failed = 0
        self.labels: list[str] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def step(self, op) -> None:
        wl, tracer = self.wl, self.tracer
        factor = self.speed.factor()
        if tracer:
            tracer.op, tracer.phase = self.ops, spans.LOOP
        self.ops += 1
        self.labels.append(wl.label(op))
        start = time.perf_counter()
        try:
            result, error = wl.run(op), None
        except Exception as exc:  # a failed operation is counted and reported, the run goes on
            result, error = None, exc
        latency = time.perf_counter() - start
        self.raw.append(latency)
        self.scaled.append(latency / factor)
        if tracer:
            tracer.phase = spans.CHECK
        if error is not None:
            problem = "".join(traceback.format_exception(error))
        else:
            try:
                problem = wl.check(op, result)
            except Exception:
                problem = "check raised\n" + traceback.format_exc()
        if problem:
            self.failed += 1
            print(f"FAILED {wl.name}: {problem}", file=sys.stderr)
            print(wl.describe(op), file=sys.stderr)

    def loop(self, seconds: float) -> list[float]:
        """Whole blocks, cycling, until the scaled total comes nearest ``seconds``.

        At least one block runs. Returns the scaled total of each block.
        """
        blocks = self.wl.blocks
        totals: list[float] = []
        while not totals or sum(totals) + statistics.mean(totals) / 2 <= seconds:
            block = blocks[len(totals) % len(blocks)]
            for op in block:
                self.step(op)
            totals.append(sum(self.scaled[-len(block) :]))
        return totals


def percentiles(latencies: list[float]) -> tuple[float, float]:
    """Median and p90 (``statistics.quantiles``, exclusive method)."""
    if len(latencies) == 1:
        return latencies[0], latencies[0]
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]


def measure(name, seed, seconds, trace, imports, import_factor, speed, workdir, tiny=False):
    """Run one workload; return (metrics, raw figures, ops, failed, env, tracer).

    ``imports`` is (import s, numpy share s) as measured, ``import_factor``
    the speed factor when circnot was imported. Set-up runs
    ``SETUP_REPEATS`` times, each scaled by the speed around it. With ``trace``,
    a prefix of the first block, about a fifth of ``seconds``, runs
    untraced first; then the span wrappers go in and the loop runs traced.
    ``trace.overhead_frac`` compares the two timings of that prefix.
    """
    import workloads  # imports circnot, so only after import_library has timed that

    factory = workloads.WORKLOADS[name]
    tracer = spans.Tracer() if trace else None
    setup_times, setup_scaled = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        wl = None
        gc.collect()
        speed.probe()
        if tracer:
            tracer.install()
        start = time.perf_counter()
        wl = factory(seed, workdir, tiny)
        setup_times.append(time.perf_counter() - start)
        if tracer:
            tracer.uninstall()
        speed.probe()
        setup_scaled.append(setup_times[-1] / speed.factor())
    # Writing input files is the file system's cost, not circnot's, and on
    # a shared disk it varied several-fold, so it stays out of setup_s.
    for path, text in wl.files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    gc.collect()

    run = Run(wl, speed)
    if tracer:
        for op in wl.blocks[0]:
            run.step(op)
            if sum(run.scaled) >= seconds / 5:
                break
        reference = sum(run.scaled)
        prefix = run.ops
        run.tracer = tracer
        tracer.install()
        try:
            totals = run.loop(seconds)
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer.spans, run.labels)
        metrics["setup.import_s"], metrics["setup.numpy_import_s"] = imports
        metrics["trace.loop_s"] = sum(run.raw[prefix:])
        metrics["trace.overhead_frac"] = sum(run.scaled[prefix : 2 * prefix]) / reference - 1
        units = spans.LAYER_UNITS
        raw = {}
    else:
        totals = run.loop(seconds)
        p50, p90 = percentiles(run.scaled)
        raw_p50, raw_p90 = percentiles(run.raw)
        metrics = {
            "ops_per_s": run.ops / sum(run.scaled),
            "op_p50_ms": 1000 * p50,
            "op_p90_ms": 1000 * p90,
            "setup_s": imports[0] / import_factor + statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        raw = {
            "ops_per_s": run.ops / sum(run.raw),
            "op_p50_ms": 1000 * raw_p50,
            "op_p90_ms": 1000 * raw_p90,
            "setup_s": imports[0] + statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
    env = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
        "sizes": wl.sizes,
        "blocks_timed": len(totals),
        "ops_timed": run.ops,
        "timed_s": sum(run.raw),
        "speed_factor_median": statistics.median(speed.samples) / Speed.PROBE_REF_S,
        "import_s": imports[0],
        "setup_runs_s": setup_times,
    }
    result = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return result, raw, run.ops, run.failed, env, tracer


END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    speed = Speed()
    for _ in range(Speed.WINDOW):
        speed.probe()
    imports = import_library(ROOT)
    import_factor = speed.factor()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        metrics, raw, ops, failed, env, tracer = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), imports, import_factor, speed, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}.tsv.gz", json.dumps(env))

    print("env " + json.dumps(env, sort_keys=True))
    for key, m in metrics.items():
        as_measured = f" (as measured {raw[key]:.6g})" if key in raw else ""
        print(f"metric {key} {m['value']:.6g} {m['unit']}{as_measured}")
    print(f"metric failed_frac {failed / ops:.6g} frac ({failed} of {ops} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
