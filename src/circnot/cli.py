"""Command-line front end.

Exit status: 0 on success, 1 on a domain error (printed to stderr with its
stable error code), 2 on usage errors. Output is byte-identical for
identical inputs and flags.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import cache
from pathlib import Path

from . import textio
from .circuits import (
    CircularCircuit,
    CutSet,
    Direction,
    LinearCircuit,
    LinearGate,
    circularize,
    enumerate_cut_points,
    linearize,
    validate_cut_set,
)
from .dot import export_dot
from .errors import CircnotError, FileNotFound, UnreadableFile, WrongCircuitKind, quote
from .icm import GADGETS, FaultSpec, faulted_transformations, gadget, translate_to_icm
from .model import (
    ModelKind,
    apply_cuts,
    build_model,
    derive_transformations,
    parity_rows,
    search_hits,
)
from .stabmap import StabiliserMap

# argparse lists the choices in this order
GADGET_NAMES = tuple(GADGETS)


def _read(path: str) -> str:
    try:
        try:
            f = open(path, encoding="utf-8")
        except OSError:
            # pathlib reads "x/" and "./x" as "x" and "" as ".", and errors
            # name the path so; a plain open() first saves building a Path
            f = open(Path(path), encoding="utf-8")
        with f:
            return f.read()
    except FileNotFoundError as err:  # err.filename is the path as opened: no "./"
        raise FileNotFound(f"[Errno {err.errno}] {err.strerror}: {quote(err.filename)}") from None
    except OSError as err:
        raise UnreadableFile(f"{quote(path)}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise UnreadableFile(f"{quote(path)}: not UTF-8 text at byte {err.start}") from None


def _load_circuit(path: str):
    return textio.parse_circuit(_read(path))


def _load_cuts(args) -> tuple[CutSet, Direction]:
    cuts, file_dir = textio.parse_cut_file(_read(args.cuts))
    direction = Direction.parse(args.dir) if args.dir else (file_dir or Direction.CW)
    return cuts, direction


def _require_circular(circuit) -> CircularCircuit:
    if not isinstance(circuit, CircularCircuit):
        raise WrongCircuitKind("this command needs a circular circuit")
    return circuit


def _require_linear(circuit) -> LinearCircuit:
    if not isinstance(circuit, LinearCircuit):
        raise WrongCircuitKind("this command needs a linear circuit")
    return circuit


def _emit(out, text: str) -> None:
    out.write(text if text.endswith("\n") else text + "\n")


def cmd_parse(args, out) -> int:
    circuit = _load_circuit(args.circuit)
    if args.format == "kv":
        _emit(out, textio.kv_dumps(textio.circuit_to_kv(circuit)))
    else:
        _emit(out, textio.format_circuit(circuit))
    return 0


def cmd_cuts(args, out) -> int:
    circuit = _require_circular(_load_circuit(args.circuit))
    if args.validate:
        cuts, _ = textio.parse_cut_file(_read(args.validate))
        validate_cut_set(circuit, cuts)
        _emit(out, f"valid ({len(cuts)} cuts)")
        return 0
    for point in enumerate_cut_points(circuit):
        _emit(out, f"cut {point.gap.wire} {point.gap.index}")
    return 0


def cmd_linearize(args, out) -> int:
    circuit = _require_circular(_load_circuit(args.circuit))
    cuts, direction = _load_cuts(args)
    lin = linearize(circuit, cuts, direction)
    if args.format == "kv":
        _emit(out, textio.kv_dumps(textio.circuit_to_kv(lin)))
    else:
        _emit(out, textio.format_circuit(lin))
    return 0


def cmd_circularize(args, out) -> int:
    circuit = _require_linear(_load_circuit(args.circuit))
    circ, record = circularize(circuit)
    if args.format == "kv":
        _emit(out, textio.kv_dumps(textio.circuit_to_kv(circ)))
        _emit(out, textio.kv_dumps(textio.join_record_to_kv(record)))
    else:
        _emit(out, textio.format_circuit(circ))
        for consumer, producer in record.joins:
            _emit(out, f"join q{consumer}.in <- q{producer}.out")
        for consumer, producer in record.loops:
            _emit(out, f"loop q{consumer}.in <- q{producer}.out")
        _emit(out, "wires " + " ".join(f"q{q}:w{w}" for q, w in enumerate(record.wire_of)))
    return 0


def parity_text(rows, n_vars: int) -> str:
    """Sparse parity rows as 0/1 text: per row, each variable's bit, then the constant.

    A row is ``(variables, rhs)``, its variables distinct and below ``n_vars``.
    """
    lines = []
    for vs, rhs in rows:
        bits = ["0"] * n_vars + [str(rhs & 1)]
        for v in vs:
            bits[v] = "1"
        lines.append(" ".join(bits))
    return "\n".join(lines)


def cmd_model(args, out) -> int:
    circuit = _require_circular(_load_circuit(args.circuit))
    model = build_model(circuit, ModelKind(args.kind))
    if args.cuts:
        cuts, _ = textio.parse_cut_file(_read(args.cuts))
        model = apply_cuts(model, cuts)
    _emit(out, model.dump())
    if args.parity:
        _emit(out, parity_text(parity_rows(model), model.n_vars))
    return 0


def cmd_derive(args, out) -> int:
    circuit = _require_circular(_load_circuit(args.circuit))
    cuts, direction = _load_cuts(args)
    derived = derive_transformations(circuit, cuts, direction)
    _emit(out, derived.report())
    return 0


def cmd_search(args, out) -> int:
    circuit = _require_circular(_load_circuit(args.circuit))
    target = StabiliserMap.from_report(_read(args.target))
    hits = search_hits(circuit, target, args.max_cuts)
    lines = [f"cuts {' '.join([f'({w},{i})' for w, i in gaps])} direction {d.value}\n" for gaps, d in hits]
    lines.append(f"found {len(hits)}\n")
    out.write("".join(lines))
    return 0


def cmd_icm(args, out) -> int:
    if args.gadget:
        icm = gadget(args.gadget)
    else:
        if not args.program:
            raise CircnotError("provide a program file or --gadget")
        gates, qubits = textio.parse_program(_read(args.program))
        icm = translate_to_icm(gates, qubits)
    _emit(out, textio.format_icm(icm))
    return 0


def cmd_fault(args, out) -> int:
    circuit = _require_circular(_load_circuit(args.circuit))
    cuts, direction = _load_cuts(args)
    result = faulted_transformations(circuit, cuts, direction, FaultSpec(gate=args.smgf))
    _emit(out, textio.format_cut_set(result.cuts))
    patch = result.patch
    _emit(
        out,
        f"ancilla wire {patch.wire} gaps ({patch.before_gap.index},{patch.after_gap.index})"
        f" init {patch.init}",
    )
    _emit(out, f"live-inputs {' '.join(str(q) for q in sorted(result.live_inputs))}")
    _emit(out, f"live-outputs {' '.join(str(q) for q in sorted(result.live_outputs))}")
    _emit(out, result.map.report())
    return 0


def cmd_export(args, out) -> int:
    circuit = _load_circuit(args.circuit)
    cuts = None
    if args.cuts:
        cuts, _ = textio.parse_cut_file(_read(args.cuts))
    _emit(out, export_dot(circuit, cuts))
    return 0


def cmd_check(args, out) -> int:
    """Randomized round-trip driver: circularize then seam-cut linearize."""
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(1, args.count + 1):
        n = rng.randint(2, 8)
        m = rng.randint(n, 20)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(m)]
        lin = LinearCircuit(
            n_qubits=n,
            gates=tuple(LinearGate(control=c, target=t) for c, t in pairs),
        )
        circ, record = circularize(lin)
        redone = linearize(circ, record.seam, Direction.CW)
        expected = [(record.wire_of[g.control], record.wire_of[g.target]) for g in lin.gates]
        if list(redone.gate_pairs()) != expected:
            failures += 1
            _emit(out, f"trial {trial}: round trip failed")
    _emit(out, f"round-trip trials {args.count} failures {failures}")
    return 0 if failures == 0 else 1


def _int(text: str) -> int:
    """An int in the file grammar's digits, else a usage error worded as argparse words a bad int."""
    try:
        return textio._ascii_int(text)
    except ValueError:  # also a number longer than int() reads
        raise argparse.ArgumentTypeError(f"invalid int value: {quote(text)}") from None


def _count(text: str) -> int:
    """A non-negative ``_int``."""
    count = _int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {quote(text)}")
    return count


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="circnot",
        description="Circular CNOT circuit modelling, cutting, and ICM tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate and reprint a circuit file")
    p.add_argument("circuit")
    p.add_argument("--format", choices=("text", "kv"), default="text")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("cuts", help="enumerate or validate cut points")
    p.add_argument("circuit")
    p.add_argument("--validate", metavar="CUTFILE")
    p.set_defaults(func=cmd_cuts)

    p = sub.add_parser("linearize", help="cut a circular circuit open")
    p.add_argument("circuit")
    p.add_argument("--cuts", required=True)
    p.add_argument("--dir", choices=("cw", "ccw"))
    p.add_argument("--format", choices=("text", "kv"), default="text")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("circularize", help="close a linear circuit into loops")
    p.add_argument("circuit")
    p.add_argument("--format", choices=("text", "kv"), default="text")
    p.set_defaults(func=cmd_circularize)

    p = sub.add_parser("model", help="dump the parity model of a circular circuit")
    p.add_argument("circuit")
    p.add_argument("--kind", choices=("x", "z", "combined"), default="x")
    p.add_argument("--cuts")
    p.add_argument(
        "--parity",
        action="store_true",
        help="also dump the 0/1 rows; combined clauses carry no selector, "
        "so --kind combined --parity exits 1 with unpinned-selector",
    )
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("derive", help="derive the stabiliser map of a cut circuit")
    p.add_argument("circuit")
    p.add_argument("--cuts", required=True)
    p.add_argument("--dir", choices=("cw", "ccw"))
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("search", help="find cut sets deriving a target map")
    p.add_argument("circuit")
    p.add_argument("--target", required=True)
    p.add_argument("--max-cuts", type=_int, required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("icm", help="build ICM circuits from gadgets or programs")
    p.add_argument("program", nargs="?")
    p.add_argument("--gadget", choices=GADGET_NAMES)
    p.set_defaults(func=cmd_icm)

    p = sub.add_parser("fault", help="inject a single-missing-gate fault")
    p.add_argument("circuit")
    p.add_argument("--cuts", required=True)
    p.add_argument("--smgf", type=_int, required=True, metavar="GATEID")
    p.add_argument("--dir", choices=("cw", "ccw"))
    p.set_defaults(func=cmd_fault)

    p = sub.add_parser("export", help="emit a DOT graph of a circuit")
    p.add_argument("circuit")
    p.add_argument("--cuts")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("check", help="randomized round-trip property driver")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--count", type=_count, default=100)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out or sys.stdout
    try:
        return args.func(args, out)
    except CircnotError as err:
        print(f"error {err.code}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
