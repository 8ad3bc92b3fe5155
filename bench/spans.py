"""Span tracing for the benchmark's traced run, from outside the library.

``Tracer.install`` wraps the public function at each circnot module
boundary and rebinds the wrapper in every circnot module that holds the
original by name (``model`` imports ``linearize``, ``cli`` imports
``search_cuts``, the package re-exports most of them), so calls between
modules are traced as well as the benchmark's own. ``uninstall`` puts the
originals back. Spans stay in memory; ``write`` saves them when the run
ends.

A span is ``(name, parent, start, end, phase, op, info)``: ``parent`` is the
index of the enclosing span or -1, ``phase`` is set-up, timed loop or
check, ``op`` the index of the operation in the run, ``info`` what the
wrapper noted from the call's arguments and result (``None`` when it
raised).
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
import time
from math import comb
from pathlib import Path

SETUP, LOOP, CHECK = 0, 1, 2
PHASE_NAMES = ("setup", "loop", "check")


def _linearize_key(args, kwargs, result):
    c, cuts, d = args[:3]
    return (id(c), cuts, d)


def _search_counts(args, kwargs, result):
    """Candidates that ``search_cuts`` enumerates, C(gaps, need), and hits."""
    c, target, max_cuts = args[:3]
    need = target.n_qubits
    gaps = sum(c.symbol_count(w) for w in range(c.wires))
    candidates = comb(gaps, need) if c.wires <= need <= max_cuts else 0
    return (candidates, len(result) if result is not None else 0)


def _matrix_size(args, kwargs, result):
    """Rows, and rows x (variables + tag width) bits, of one elimination."""
    rows, n_vars, tag_width = args[:3]
    return (len(rows), len(rows) * (n_vars + tag_width))


# (span name, circnot module, function, note taken from the call)
BOUNDARIES = (
    ("textio.parse", "textio", "parse_circuit", None),
    ("textio.parse", "textio", "parse_icm_file", None),
    ("circuits.validate", "circuits", "validate_cut_set", None),
    ("circuits.linearize", "circuits", "linearize", _linearize_key),
    ("circuits.circularize", "circuits", "circularize", None),
    ("model.build", "model", "build_model", None),
    ("model.derive", "model", "derive_transformations", None),
    ("model.search", "model", "search_cuts", _search_counts),
    ("gf2.solve", "gf2", "solve_tagged", _matrix_size),
    ("icm.translate", "icm", "translate_to_icm", None),
    ("icm.strip", "icm", "strip_and_circularize", None),
    ("icm.fault", "icm", "faulted_transformations", None),
    ("cli.main", "cli", "main", None),
    ("pauli.oracle", "pauli", "oracle_map", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.phase = SETUP
        self.op = -1
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                info = note(args, kwargs, None) if note else None
                spans[index] = (name, parent, start, end, self.phase, self.op, info)
                raise
            end = clock()
            stack.pop()
            info = note(args, kwargs, result) if note else None
            spans[index] = (name, parent, start, end, self.phase, self.op, info)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        originals = [
            (name, getattr(importlib.import_module(f"circnot.{mod}"), attr), note)
            for name, mod, attr, note in BOUNDARIES
        ]
        modules = [m for key, m in sys.modules.items() if key == "circnot" or key.startswith("circnot.")]
        for name, fn, note in originals:
            wrapper = self._wrap(name, fn, note)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self._rebound.append((m, key, fn))

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._rebound):
            setattr(m, key, fn)
        self._rebound.clear()

    def write(self, path: Path, header: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write(f"# {header}\n# index\tname\tparent\tstart_s\tend_s\tphase\top\n")
            for i, (name, parent, start, end, phase, op, _) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\t{PHASE_NAMES[phase]}\t{op}\n")


# Per-layer metrics: name -> unit. Times named ``_s`` are inclusive span
# time; ``_self_s`` subtracts the time covered by child spans. A span nested
# in a span of the same name (parse_icm_file calls parse_circuit) is not
# counted again. All sum over set-up and the timed loop, except ``pauli.*``,
# which runs only in checks and set-up. Layers a workload does not reach
# read 0.
SIZE_CLASSES = ("w16g128", "w32g256", "w48g512")
LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.numpy_import_s": "s",
    "textio.parse_s": "s",
    "textio.parse_calls": "count",
    "circuits.validate_s": "s",
    "circuits.validate_calls": "count",
    "circuits.linearize_s": "s",
    "circuits.linearize_calls": "count",
    "circuits.linearize_per_op": "ratio",
    "circuits.circularize_s": "s",
    "model.build_s": "s",
    "model.build_calls": "count",
    "model.derive_self_s": "s",
    "model.derive_calls": "count",
    "model.search_self_s": "s",
    "model.search_candidates": "count",
    "model.search_solved": "count",
    "model.search_solve_ratio": "ratio",
    "model.search_hit_ratio": "ratio",
    "gf2.solve_s": "s",
    "gf2.solve_calls": "count",
    "gf2.rows": "count",
    "gf2.matrix_bits": "count",
    "icm.translate_s": "s",
    "icm.strip_s": "s",
    "icm.fault_self_s": "s",
    "icm.fault_calls": "count",
    "cli.main_self_s": "s",
    "pauli.oracle_s": "s",
    "pauli.oracle_calls": "count",
    **{f"model.derive_ms.{c}": "ms" for c in SIZE_CLASSES},
    **{f"pauli.oracle_ms.{c}": "ms" for c in SIZE_CLASSES},
    **{f"model.derive_over_oracle.{c}": "ratio" for c in SIZE_CLASSES},
    "trace.loop_s": "s",
    "trace.overhead_frac": "frac",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list, op_labels: list[str]) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (without ``setup.*``/``trace.*``)."""
    children = [0.0] * len(spans)
    for name, parent, start, end, *_ in spans:
        if parent >= 0:
            children[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for index, (name, parent, start, end, phase, op, info) in enumerate(spans):
        if parent >= 0 and spans[parent][0] == name:
            continue
        if phase == CHECK and not name.startswith("pauli."):
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start) - children[index]
        calls[name] = calls.get(name, 0) + 1

    def s(name):
        return total.get(name, 0.0)

    def self_s(name):
        return own.get(name, 0.0)

    loop = [sp for sp in spans if sp[4] == LOOP]
    searches = [sp[6] for sp in loop if sp[0] == "model.search"]
    candidates = sum(info[0] for info in searches)
    hits = sum(info[1] for info in searches)
    solved = sum(
        1 for sp in loop if sp[0] == "model.derive" and sp[1] >= 0 and spans[sp[1]][0] == "model.search"
    )
    linearized = [sp for sp in loop if sp[0] == "circuits.linearize"]
    distinct = len({(sp[5], sp[6]) for sp in linearized})
    solves = [sp[6] for sp in spans if sp[0] == "gf2.solve" and sp[4] != CHECK]

    out = {
        "textio.parse_s": s("textio.parse"),
        "textio.parse_calls": calls.get("textio.parse", 0),
        "circuits.validate_s": s("circuits.validate"),
        "circuits.validate_calls": calls.get("circuits.validate", 0),
        "circuits.linearize_s": s("circuits.linearize"),
        "circuits.linearize_calls": calls.get("circuits.linearize", 0),
        "circuits.linearize_per_op": _ratio(len(linearized), distinct),
        "circuits.circularize_s": s("circuits.circularize"),
        "model.build_s": s("model.build"),
        "model.build_calls": calls.get("model.build", 0),
        "model.derive_self_s": self_s("model.derive"),
        "model.derive_calls": calls.get("model.derive", 0),
        "model.search_self_s": self_s("model.search"),
        "model.search_candidates": candidates,
        "model.search_solved": solved,
        "model.search_solve_ratio": _ratio(solved, candidates),
        "model.search_hit_ratio": _ratio(hits, solved),
        "gf2.solve_s": s("gf2.solve"),
        "gf2.solve_calls": len(solves),
        "gf2.rows": sum(info[0] for info in solves),
        "gf2.matrix_bits": sum(info[1] for info in solves),
        "icm.translate_s": s("icm.translate"),
        "icm.strip_s": s("icm.strip"),
        "icm.fault_self_s": self_s("icm.fault"),
        "icm.fault_calls": calls.get("icm.fault", 0),
        "cli.main_self_s": self_s("cli.main"),
        "pauli.oracle_s": s("pauli.oracle"),
        "pauli.oracle_calls": calls.get("pauli.oracle", 0),
    }
    for c in SIZE_CLASSES:
        derive = [1000 * (sp[3] - sp[2]) for sp in loop if sp[0] == "model.derive" and op_labels[sp[5]] == c]
        oracle = [
            1000 * (sp[3] - sp[2])
            for sp in spans
            if sp[0] == "pauli.oracle" and sp[4] == CHECK and op_labels[sp[5]] == c
        ]
        out[f"model.derive_ms.{c}"] = statistics.median(derive) if derive else 0.0
        out[f"pauli.oracle_ms.{c}"] = statistics.median(oracle) if oracle else 0.0
        out[f"model.derive_over_oracle.{c}"] = _ratio(out[f"model.derive_ms.{c}"], out[f"pauli.oracle_ms.{c}"])
    return out
