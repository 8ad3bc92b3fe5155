"""Seeded inputs, timed operations and oracle checks for the four workloads.

Every input is generated here from the run's seed, written in one of the
library's text formats and parsed back through ``circnot.textio``, so the
library sees only generated inputs. Nothing here imports from ``tests/``.

Constructing a workload object is its set-up step; the object holds
``blocks``: lists of operations. Every block of a workload has the same
mix of sizes, and a run times whole blocks only, so the share of each size
in the latency percentiles is fixed by construction and does not depend on
the seed or on how fast the program is. When a run needs more blocks than
were built, it cycles through them again.

``files`` maps the paths of input files under the run's work directory
to their text; the runner writes them after set-up.

Per operation a workload gives ``run`` (the timed library call), ``check``
(the comparison with an independent oracle, made outside the timed region;
returns ``None`` or a description of the disagreement), ``describe`` (the
inputs, printed when an operation fails) and ``label`` (its size class).

The library is always reached through module attributes such as
``model.derive_transformations``, so that the traced run's wrappers, which
rebind those attributes, see every call.
"""

from __future__ import annotations

import bisect
import io
import itertools
import random
from pathlib import Path

from circnot import circuits, cli, icm, model, pauli, textio
from circnot.circuits import CutSet, Direction, LinearCircuit
from circnot.errors import NoRadialCut
from circnot.icm import FaultSpec
from circnot.model import ModelKind
from circnot.stabmap import StabiliserMap

DIRECTIONS = (Direction.CW, Direction.CCW)
SINGLE_QUBIT_GATES = ("t", "tdg", "p", "pdg", "v", "h")


# --- generators ---------------------------------------------------------------


def circuit_text(header: str, wires: int, pairs) -> str:
    """A circuit file: ``linear`` or ``circular``, ``wires N``, one cnot a line."""
    lines = [header, f"wires {wires}"]
    lines += [f"cnot {c} {t}" for c, t in pairs]
    return "\n".join(lines) + "\n"


def random_pairs(rng: random.Random, wires: int, gates: int) -> list[tuple[int, int]]:
    """Uniform random (control, target) pairs touching every wire.

    A wire without gates cannot be closed into a loop, so draws that leave
    one untouched are redrawn.
    """
    while True:
        pairs = [tuple(rng.sample(range(wires), 2)) for _ in range(gates)]
        if len({q for pair in pairs for q in pair}) == wires:
            return pairs


def random_program(rng: random.Random, qubits: int, gates: int) -> list[tuple]:
    """A {CNOT, T, Tdg, P, Pdg, V, H} program touching every qubit.

    CNOTs are drawn three times as often as each single-qubit gate, so
    about a third of the gates entangle and the rest become gadgets.
    """
    kinds = ("cnot",) * 3 + SINGLE_QUBIT_GATES
    while True:
        program = []
        for _ in range(gates):
            kind = rng.choice(kinds)
            if kind == "cnot":
                program.append(("cnot", *rng.sample(range(qubits), 2)))
            else:
                program.append((kind, rng.randrange(qubits)))
        if len({q for op in program for q in op[1:]}) == qubits:
            return program


def small_circuit_pairs(max_wires: int = 3, max_gates: int = 4) -> list[tuple[int, list]]:
    """Every circular circuit up to wire relabelling, all wires touched.

    Each circuit is the least gate list, in lexicographic order, among its
    relabellings; ``itertools.product`` visits that one first.
    """
    out = []
    for wires in range(2, max_wires + 1):
        pairs = [(a, b) for a in range(wires) for b in range(wires) if a != b]
        perms = list(itertools.permutations(range(wires)))
        for gates in range(1, max_gates + 1):
            for combo in itertools.product(pairs, repeat=gates):
                if len({q for pair in combo for q in pair}) != wires:
                    continue
                if all(
                    combo <= tuple((p[c], p[t]) for c, t in combo) for p in perms
                ):
                    out.append((wires, list(combo)))
    return out


def known_cut_set(rng: random.Random, c, extra: int) -> CutSet:
    """A radial cut at a seeded slot plus ``extra`` seeded gaps elsewhere."""
    slot = rng.randrange(len(c.slots()))
    seam = {c.gap_spanning(w, slot) for w in range(c.wires)}
    others = [p.gap for p in circuits.enumerate_cut_points(c) if p.gap not in seam]
    return CutSet.of(sorted(seam | set(rng.sample(others, extra))))


# --- independent oracles --------------------------------------------------------


def has_radial_slot(wires: int, pairs, gaps) -> bool:
    """Whether some slot has the gap spanning it cut on every wire.

    Written from the circuit-file definition, not from ``circuits``: gate
    ``j`` sits at position ``j``; slot ``j`` lies between gates ``j`` and
    ``j + 1`` (cyclically); on each wire the gap spanning slot ``j`` is the
    one after the wire's last symbol at or before position ``j``, or after
    its last symbol overall when it has none there. ``gaps`` holds
    ``(wire, index)`` pairs.
    """
    touching = [[j for j, (c, t) in enumerate(pairs) if w in (c, t)] for w in range(wires)]
    for slot in range(len(pairs)):
        for w, positions in enumerate(touching):
            before = bisect.bisect_right(positions, slot)
            index = before - 1 if before else len(positions) - 1
            if (w, index) not in gaps:
                break
        else:
            return True
    return False


def restrict_map(m: StabiliserMap, live_in, live_out) -> StabiliserMap:
    """Blank absorbed input rows and drop absorbed outputs from every row."""
    live_out = frozenset(live_out)

    def rows(table):
        return tuple(
            table[q] & live_out if q in live_in else frozenset() for q in range(m.n_qubits)
        )

    return StabiliserMap(m.n_qubits, rows(m.x_out), rows(m.z_out))


def _oracle(c, cuts: CutSet, d: Direction) -> StabiliserMap:
    return pauli.oracle_map(circuits.linearize(c, cuts, d))


def _cuts_text(cuts: CutSet, d: Direction) -> str:
    gaps = " ".join(f"({g.wire},{g.index})" for g in cuts.sorted_gaps())
    return f"cuts {gaps} direction {d.value}"


# --- workloads ------------------------------------------------------------------


class DeriveLarge:
    """Large seeded circuits, each derived in both directions.

    Why: GF(2) elimination in ``gf2.solve_tagged`` is about 80% of the time
    here, model building most of the rest, and linearize/validate a few per
    cent, so a solver change must show here and a circuits-layer change
    should not. Models are built per call, as the CLI does.

    Sizes: (label, wires, gates, circuits per block). The counts put the
    median inside the 16x128 class and p90 inside the 32x256 class, away
    from class boundaries, with 102 operations in a block of about five
    seconds. 64x1024 (seconds per derivation) and 128x4096 (minutes) are
    left out: a block holding them could not also hold 100 operations
    within a run's time.
    """

    name = "derive-large"
    FULL = (("w16g128", 16, 128, 44), ("w32g256", 32, 256, 6), ("w48g512", 48, 512, 1))
    TINY = (("w4g16", 4, 16, 2), ("w6g32", 6, 32, 1))
    BLOCKS = 2
    MAX_EXTRA_GAPS = 3

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        classes = self.TINY if tiny else self.FULL
        self.sizes = {label: {"wires": w, "gates": g, "circuits_per_block": k} for label, w, g, k in classes}
        self.blocks = []
        self.files = {}
        for _ in range(self.BLOCKS):
            ops = []
            for label, wires, gates, count in classes:
                for _ in range(count):
                    text = circuit_text("linear", wires, random_pairs(rng, wires, gates))
                    c, record = circuits.circularize(textio.parse_circuit(text))
                    others = [p.gap for p in circuits.enumerate_cut_points(c) if p.gap not in record.seam]
                    extra = rng.sample(others, rng.randint(0, self.MAX_EXTRA_GAPS))
                    cuts = CutSet.of(sorted(record.seam.gaps() | set(extra)))
                    ops += [(label, c, cuts, d) for d in DIRECTIONS]
            rng.shuffle(ops)
            self.blocks.append(ops)

    def run(self, op):
        _, c, cuts, d = op
        return model.derive_transformations(c, cuts, d)

    def check(self, op, result):
        _, c, cuts, d = op
        return None if result == _oracle(c, cuts, d) else "derived map differs from the Pauli oracle"

    def describe(self, op):
        _, c, cuts, d = op
        return textio.format_circuit(c) + _cuts_text(cuts, d)

    def label(self, op):
        return op[0]


class IcmFault:
    """Seeded Clifford+T programs: translate, strip, then single-gate faults.

    Why: the same solver used another way, with pins, bridges and
    non-radial fault cuts; the only workload on the ``icm`` layer. Each
    program is translated to ICM form, stored with its seeded fault gates
    as an ICM file, parsed back, stripped to a circular circuit, and every
    fault is derived over the seam cut in both directions.

    Sizes: (label, qubits, gates, programs per block, faults per program).
    One fault a program spreads a block over many programs, whose costs
    differ more than their faults' do. The counts put the median in the
    middle of the 4x40 class and p90 in the middle of the 6x100 class,
    with 104 operations in a block of about three seconds; 8x150 is the
    slow tail. 10x300 (0.4 s per fault) is left out so that a run holds
    several blocks.
    """

    name = "icm-fault"
    FULL = (
        ("q3g20", 3, 20, 8, 1),
        ("q4g40", 4, 40, 35, 1),
        ("q6g100", 6, 100, 7, 1),
        ("q8g150", 8, 150, 2, 1),
    )
    TINY = (("q3g12", 3, 12, 2, 2),)
    BLOCKS = 3

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        classes = self.TINY if tiny else self.FULL
        self.sizes = {
            label: {"qubits": q, "gates": g, "programs_per_block": k, "faults_per_program": f}
            for label, q, g, k, f in classes
        }
        self.blocks = []
        self.files = {}
        for _ in range(self.BLOCKS):
            ops = []
            for label, qubits, gates, count, faults in classes:
                for _ in range(count):
                    translated = icm.translate_to_icm(random_program(rng, qubits, gates), qubits)
                    ids = rng.sample(range(len(translated.circuit.gates)), faults)
                    text = textio.format_icm(translated, [FaultSpec(gate=i) for i in ids])
                    parsed, specs = textio.parse_icm_file(text)
                    c, record = icm.strip_and_circularize(parsed)
                    ops += [(label, c, record.seam, d, f) for f in specs for d in DIRECTIONS]
            rng.shuffle(ops)
            self.blocks.append(ops)

    def run(self, op):
        _, c, base, d, fault = op
        return icm.faulted_transformations(c, base, d, fault)

    def check(self, op, result):
        _, c, base, d, fault = op
        lin = circuits.linearize(c, base, d)
        kept = tuple(g for g in lin.gates if g.source != fault.gate)
        if len(kept) != len(lin.gates) - 1:
            return f"gate {fault.gate} is not in the linearization exactly once"
        expected = restrict_map(
            pauli.oracle_map(LinearCircuit(n_qubits=lin.n_qubits, gates=kept)),
            result.live_inputs,
            result.live_outputs,
        )
        return None if result.map == expected else "faulted map differs from the gate-deleted oracle"

    def describe(self, op):
        _, c, base, d, fault = op
        return textio.format_circuit(c) + _cuts_text(base, d) + f"\nsmgf {fault.gate}"

    def label(self, op):
        return op[0]


class SweepSmall:
    """The exhaustive small-circuit sweep, in a seeded order.

    Why: each operation is tiny, so ``circuits`` (validate_cut_set,
    radial_slots, gap_spanning, linearize) and per-call overhead dominate
    and the solver is about a tenth of the time; a solver change should
    show no effect here.

    Every circular circuit up to 3 wires and 4 gates, every cut subset of
    up to 6 cuts: one operation validates the subset and, if accepted,
    derives it in both directions with the circuit's models, built once in
    set-up. All (circuit, subset) pairs are shuffled with the seed and cut
    into blocks, so each block is a random sample of the whole sweep.
    """

    name = "sweep-small"
    MAX_WIRES, MAX_GATES, MAX_CUTS = 3, 4, 6
    BLOCK = 2000
    TINY_CIRCUITS, TINY_BLOCK = 12, 50

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        shapes = small_circuit_pairs(self.MAX_WIRES, self.MAX_GATES)
        if tiny:
            shapes = rng.sample(shapes, self.TINY_CIRCUITS)
        self.circuits = []
        self.files = {}
        population = []
        for index, (wires, pairs) in enumerate(shapes):
            c = textio.parse_circuit(circuit_text("circular", wires, pairs))
            models = (model.build_model(c, ModelKind.X), model.build_model(c, ModelKind.Z))
            self.circuits.append((c, models, wires, pairs))
            gaps = [p.gap for p in circuits.enumerate_cut_points(c)]
            for k in range(1, min(self.MAX_CUTS, len(gaps)) + 1):
                population += [(index, combo) for combo in itertools.combinations(gaps, k)]
        rng.shuffle(population)
        size = self.TINY_BLOCK if tiny else self.BLOCK
        self.blocks = [population[i : i + size] for i in range(0, len(population), size)]
        self.sizes = {
            "circuits": len(shapes),
            "subsets": len(population),
            "max_wires": self.MAX_WIRES,
            "max_gates": self.MAX_GATES,
            "max_cuts": self.MAX_CUTS,
            "block": size,
        }

    def run(self, op):
        index, combo = op
        c, models, _, _ = self.circuits[index]
        cuts = CutSet.of(combo)
        try:
            circuits.validate_cut_set(c, cuts)
        except NoRadialCut:
            return None
        return tuple(model.derive_transformations(c, cuts, d, models=models) for d in DIRECTIONS)

    def check(self, op, result):
        index, combo = op
        c, _, wires, pairs = self.circuits[index]
        radial = has_radial_slot(wires, pairs, {(g.wire, g.index) for g in combo})
        if result is None:
            return "rejected a cut set that has a radial slot" if radial else None
        if not radial:
            return "accepted a cut set without a radial slot"
        cuts = CutSet.of(combo)
        for d, derived in zip(DIRECTIONS, result):
            if derived != _oracle(c, cuts, d):
                return f"{d.value} map differs from the Pauli oracle"
        return None

    def describe(self, op):
        index, combo = op
        return textio.format_circuit(self.circuits[index][0]) + _cuts_text(CutSet.of(combo), Direction.CW)

    def label(self, op):
        return ""


class SearchCli:
    """``circnot search`` queries run in-process through ``cli.main``.

    Why: about half the time is the combination filter inside
    ``search_cuts`` and half is thousands of small derivations; going
    through the CLI also puts ``textio``, ``StabiliserMap.from_report`` and
    ``cli`` on the measured path. Circuit and target files are written
    after set-up; each target is the oracle map of a known cut set (a
    radial cut plus 0-2 extra gaps) in a seeded direction.

    Shapes: (wires, gates, extra gaps), one query each per block. Repeats
    give the mix its weights: the median falls among the ten 25-35 ms
    queries and p90 among the six ~80 ms queries, whose cost varies most
    from circuit to circuit and so needs the most samples. A block holds
    20 queries of about 40 ms each, so that a run holds over 100 queries.
    """

    name = "search-cli"
    FULL = (
        (2, 4, 0), (2, 4, 1), (3, 4, 1), (2, 4, 2),
        *[(2, 6, 1)] * 5, *[(3, 6, 1)] * 5,
        *[(3, 8, 1)] * 6,
    )
    TINY = ((2, 3, 0), (2, 4, 1))
    BLOCKS = 16

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        shapes = self.TINY if tiny else self.FULL
        self.sizes = {"shapes_per_block": [list(s) for s in shapes], "max_cuts": "need"}
        self.blocks = []
        self.files = {}
        for b in range(self.BLOCKS):
            ops = []
            for q, (wires, gates, extra) in enumerate(shapes):
                text = circuit_text("circular", wires, random_pairs(rng, wires, gates))
                c = textio.parse_circuit(text)
                cuts = known_cut_set(rng, c, extra)
                d = rng.choice(DIRECTIONS)
                target = _oracle(c, cuts, d)
                circuit_file = workdir / f"b{b}q{q}.circ"
                target_file = workdir / f"b{b}q{q}.map"
                self.files[circuit_file] = text
                self.files[target_file] = target.report() + "\n"
                argv = ["search", str(circuit_file), "--target", str(target_file)]
                argv += ["--max-cuts", str(len(cuts))]
                ops.append((f"w{wires}g{gates}", c, cuts, d, target, argv))
            rng.shuffle(ops)
            self.blocks.append(ops)

    def run(self, op):
        argv = op[5]
        out = io.StringIO()
        return cli.main(argv, out=out), out.getvalue()

    def check(self, op, result):
        _, c, cuts, d, target, _ = op
        code, text = result
        if code != 0:
            return f"exit code {code}"
        *rows, last = text.splitlines()
        if last != f"found {len(rows)}":
            return f"summary line {last!r} does not match {len(rows)} results"
        if _cuts_text(cuts, d) not in rows:
            return "known cut set missing from the results"
        for row in rows:
            found, direction = _parse_result(row)
            if _oracle(c, found, direction) != target:
                return f"result {row!r} does not derive the target"
        return None

    def describe(self, op):
        _, c, cuts, d, target, argv = op
        return " ".join(["circnot", *argv]) + "\n" + textio.format_circuit(c) + _cuts_text(cuts, d)

    def label(self, op):
        return op[0]


def _parse_result(row: str) -> tuple[CutSet, Direction]:
    """Read back a ``cuts (w,i) ... direction d`` line of ``circnot search``."""
    words = row.split()
    if words[0] != "cuts" or words[-2] != "direction":
        raise ValueError(f"unexpected search output line {row!r}")
    gaps = [tuple(int(v) for v in w.strip("()").split(",")) for w in words[1:-2]]
    return CutSet.of(gaps), Direction.parse(words[-1])


WORKLOADS = {w.name: w for w in (DeriveLarge, IcmFault, SweepSmall, SearchCli)}
