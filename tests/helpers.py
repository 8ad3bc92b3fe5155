"""Shared fixtures and independent references for the test suite.

Each library path is checked against one reference that shares none of
its code:

* ``model_columns`` solves a model's cut system, the rows ``circnot model
  --parity`` prints (``parity_rows`` of ``apply_cuts``), plus one row per
  input segment, with ``reference_solve``. It shares nothing with the
  traversal substitution that derivations, faults and the search use.
  ``solve_model_map`` reads one model's map rows off it, at the segments
  ``input_output_segments`` picks for each qubit of ``arc_ends``.
* ``fault_expected`` is the Pauli oracle of the linearization with the
  faulty gate deleted, numbered as ``arc_ends`` numbers the qubits.
* ``reference_slot_systems`` solves the X model once with every gap cut
  (``model_columns``) and rewrites the result per slot, apart from the
  search's per-slot walk; ``reference_columns`` and ``reference_search``
  read every candidate on those systems in full, apart from its pruning.
* ``commutation_by_derivation`` derives every radial map before and after
  a swap, apart from the CNOT rule it checks.
* ``conjugate_by_cnot`` and ``restrict_map`` are set algebra; the unitary
  brute force is numpy; ``clause_truth`` reads a model's clauses as plain
  Boolean formulas; ``isomorphic_to_reference`` matches hand-written SWAP
  clause shapes.
* GF(2) references share no code with ``gf2``: ``gf2_rank`` keeps an XOR
  basis by leading bit, ``reference_solve`` eliminates on the same basis
  and substitutes, and ``brute_force_solutions`` tries every assignment.

``inverse`` builds the map the counter-clockwise reading must equal, with
two ``gf2.invert``s; it is the reference for ``StabiliserMap.inverse``,
which swaps the halves instead, not a reference for ``gf2``.

``sweep_table`` holds what the library says about every small cut set,
beside its radial families read off the gate list, for the small-sweep
tests to compare with their references. Circuit
generators build objects through the public constructors only.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from circnot import (
    CircularCircuit,
    CNOTGate,
    CutSet,
    Direction,
    Gap,
    LinearCircuit,
    LinearGate,
    StabiliserMap,
    apply_cuts,
    build_model,
    derive_transformations,
    linearize,
    oracle_map,
    spanning_gaps,
    validate_cut_set,
)
from circnot import gf2
from circnot.circuits import CutTable
from circnot.errors import Inconsistent, NoRadialCut, NotAdjacent
from circnot.icm import FaultSpec, inject_smgf
from circnot.model import BooleanModel, ModelKind, parity_rows


def mkcirc(wires: int, pairs) -> CircularCircuit:
    return CircularCircuit(
        wires=wires,
        gates=tuple(CNOTGate(id=i, control=c, target=t) for i, (c, t) in enumerate(pairs)),
    )


def mklin(n: int, pairs) -> LinearCircuit:
    return LinearCircuit(
        n_qubits=n,
        gates=tuple(LinearGate(control=c, target=t) for c, t in pairs),
    )


SWAP_PAIRS = [(0, 1), (1, 0), (0, 1)]


def swap_circular() -> CircularCircuit:
    return mkcirc(2, SWAP_PAIRS)


def all_small_circuits(max_wires: int = 3, max_gates: int = 4):
    """Every circular circuit up to wire relabeling, all wires touched."""
    seen = set()
    out = []
    for w in range(2, max_wires + 1):
        pairs = [(a, b) for a in range(w) for b in range(w) if a != b]
        for m in range(1, max_gates + 1):
            for combo in itertools.product(pairs, repeat=m):
                touched = set()
                for c, t in combo:
                    touched.update((c, t))
                if touched != set(range(w)):
                    continue
                canon = min(
                    tuple((perm[c], perm[t]) for c, t in combo)
                    for perm in itertools.permutations(range(w))
                )
                if (w, canon) in seen:
                    continue
                seen.add((w, canon))
                out.append(mkcirc(w, combo))
    return out


def spanning_gap_index(pairs, wire: int, slot: int) -> int:
    """Index of the gap on ``wire`` spanning ``slot``, from the gate list alone.

    As in the circuit file format, gates are listed clockwise and gap ``i``
    of a wire follows its ``i``-th symbol; slot ``j`` follows gate ``j``. The
    spanning gap follows the wire's last symbol at or before gate ``j``, or
    its last symbol when it has none there.
    """
    touches = [k for k, (c, t) in enumerate(pairs) if wire in (c, t)]
    return (sum(1 for k in touches if k <= slot) - 1) % len(touches)


class SweepEntry(NamedTuple):
    """One cut set: its radial families by the definition, and what the library says about it.

    ``families`` maps each radial slot, clockwise, to its spanning gap
    index on every wire, read off the gate list (``spanning_gap_index``);
    it is empty when no slot is radial. ``table`` is ``validate_cut_set``'s
    ``CutTable``, or ``missing`` its ``NoRadialCut.missing_by_slot``. For
    a valid set, per direction (clockwise first), ``derived`` holds its
    derivation (``Inconsistent`` when that raised) and ``oracle`` the Pauli
    oracle of its linearization.
    """

    cuts: CutSet
    families: dict[int, tuple[int, ...]]
    table: CutTable | None
    missing: dict | None
    derived: tuple = ()
    oracle: tuple = ()


def sweep_table(circuits, max_cuts: int) -> list[tuple[CircularCircuit, list[SweepEntry]]]:
    """Per circuit, a ``SweepEntry`` for every subset of 1 to ``max_cuts`` of its gaps.

    Gaps are numbered by (wire, gap) from the symbol counts; subsets come
    by size, then in ``itertools.combinations`` order, so each size lists
    its cut sets sorted by gaps.
    """
    table = []
    for c in circuits:
        pairs = [(g.control, g.target) for g in c.gates]
        span = [tuple(spanning_gap_index(pairs, w, j) for w in range(c.wires)) for j in range(len(pairs))]
        gaps = [Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))]
        entries = []
        for k in range(1, min(max_cuts, len(gaps)) + 1):
            for combo in itertools.combinations(gaps, k):
                cuts = CutSet.of(combo)
                chosen = {(g.wire, g.index) for g in combo}
                families = {j: row for j, row in enumerate(span) if all((w, i) in chosen for w, i in enumerate(row))}
                try:
                    checked = validate_cut_set(c, cuts)
                except NoRadialCut as err:
                    entries.append(SweepEntry(cuts, families, None, err.missing_by_slot))
                    continue
                derived = []
                for d in Direction:
                    try:
                        derived.append(derive_transformations(c, cuts, d))
                    except Inconsistent:
                        derived.append(Inconsistent)
                oracle = tuple(oracle_map(linearize(c, cuts, d)) for d in Direction)
                entries.append(SweepEntry(cuts, families, checked, None, tuple(derived), oracle))
        table.append((c, entries))
    return table


def family_plus_two(c: CircularCircuit, entries) -> list[SweepEntry]:
    """The entries of at most ``c.wires + 2`` cuts holding a radial family: each family plus 0-2 other gaps."""
    return [e for e in entries if e.families and len(e.cuts) <= c.wires + 2]


# --- model reference ------------------------------------------------------------


def rows_of_columns(cols) -> tuple[frozenset[int], ...]:
    """Per input ``i``, the outputs ``j`` whose column mask has bit ``i``."""
    return tuple(frozenset(j for j, col in enumerate(cols) if col >> i & 1) for i in range(len(cols)))


def model_columns(m: BooleanModel, cuts: CutSet, ins, outs) -> list[int]:
    """Map columns of a model's cut system: per output segment, the inputs that reach it.

    The system is ``parity_rows(apply_cuts(m, cuts))``, the rows ``circnot
    model --parity`` prints, plus one row per input segment ``ins[i]``
    giving it the symbolic value of input ``i`` (rhs bit ``1 + i``),
    solved by ``reference_solve``. Output ``j``'s column is an int mask
    with bit ``i`` set when input ``i`` reaches ``outs[j]``. Raises what
    ``solve_rows`` raises when the system is not uniquely solvable.
    """
    rows = parity_rows(apply_cuts(m, cuts)) + [((v,), 2 << i) for i, v in enumerate(ins)]
    sol = solve_rows(rows, m.n_vars)
    return [sol[v] >> 1 for v in outs]


class ArcEnds(NamedTuple):
    """A linear qubit's wire and the gaps its arc is entered and left at, in the traversal direction."""

    wire: int
    input_cut: Gap
    output_cut: Gap


def arc_ends(c: CircularCircuit, cuts: CutSet, d: Direction) -> tuple[int, tuple[ArcEnds, ...]]:
    """The start slot and each qubit's ``ArcEnds``, read off the gate list alone.

    The start slot is the wrap slot when its family is cut, else the first
    radial slot clockwise; raises StopIteration when none is. A family is
    read as ``spanning_gap_index`` reads it, each wire's gates at or before
    the slot found by bisection. Qubits are numbered by wire, then by arc
    clockwise from the start slot's family gap. Clockwise an arc is
    entered at its start cut and left at the wire's next cut;
    counter-clockwise the other way round.
    """
    chosen = {(g.wire, g.index) for g in cuts.gaps()}
    touches = [[k for k, g in enumerate(c.gates) if w in (g.control, g.target)] for w in range(c.wires)]
    n = len(c.gates)
    start = next(
        j
        for j in (n - 1, *range(n - 1))
        if all((w, (bisect_right(t, j) - 1) % len(t)) in chosen for w, t in enumerate(touches))
    )
    origins = []
    for w, t in enumerate(touches):
        k = len(t)
        family = (bisect_right(t, start) - 1) % k
        on_wire = sorted((i for v, i in chosen if v == w), key=lambda i: (i - family) % k)
        for a, b in zip(on_wire, on_wire[1:] + on_wire[:1]):
            entered, left = (a, b) if d is Direction.CW else (b, a)
            origins.append(ArcEnds(w, Gap(w, entered), Gap(w, left)))
    return start, tuple(origins)


def input_output_segments(m: BooleanModel, origins, d: Direction) -> tuple[list[int], list[int]]:
    """Per linear qubit (``ArcEnds``), the variables of its first and last segment under the traversal."""
    first, last = (1, 0) if d is Direction.CW else (0, 1)
    ins = [m.gap_vars[o.wire][o.input_cut.index][first] for o in origins]
    outs = [m.gap_vars[o.wire][o.output_cut.index][last] for o in origins]
    return ins, outs


def solve_model_map(c: CircularCircuit, cuts: CutSet, d: Direction, model: BooleanModel):
    """Map rows of one uncut parity model (X or Z) under the cuts, by ``model_columns``."""
    origins = arc_ends(c, cuts, d)[1]
    return rows_of_columns(model_columns(model, cuts, *input_output_segments(model, origins, d)))


def fault_expected(c: CircularCircuit, cuts: CutSet, d: Direction, gate_id: int):
    """The oracle of the linearization with the gate deleted, its qubits numbered as ``arc_ends`` numbers them.

    Returns the map and the live inputs and outputs: a base qubit whose
    input (output) cut is the fault ancilla's is absorbed.
    """
    lin = linearize(c, cuts, d)
    kept = tuple(g for g in lin.gates if g.source != gate_id)
    patch = inject_smgf(c, cuts, FaultSpec(gate=gate_id))[1]
    anc_in, anc_out = (patch.before_gap, patch.after_gap)[:: 1 if d is Direction.CW else -1]
    origins = arc_ends(c, cuts, d)[1]
    live_in = frozenset(q for q, o in enumerate(origins) if o.input_cut != anc_in)
    live_out = frozenset(q for q, o in enumerate(origins) if o.output_cut != anc_out)
    expected = oracle_map(LinearCircuit(n_qubits=lin.n_qubits, gates=kept))
    return restrict_map(expected, live_in, live_out), live_in, live_out


# --- search references ----------------------------------------------------------


def reference_slot_systems(c: CircularCircuit) -> list[tuple]:
    """Reference for ``model._slot_system``: one model solve with every gap cut, rewritten per slot.

    ``model_columns`` solves the X model with every gap cut and each gap's
    starting segment a symbolic input, which gives the value arriving at
    each gap over the gaps' starts. Each slot, the wrap slot first and then
    clockwise from slot 0, rewrites those values in traversal order: a
    family gap's start is its wire's input bit and any other gap's start is
    its arriving value XOR its own tag bit. Gaps are numbered by (wire,
    gap) and found from the gate list alone (``spanning_gap_index``).
    Returns per slot ``(family, others, wires, rows, family_rows)``.
    """
    pairs = [(g.control, g.target) for g in c.gates]
    m = build_model(c, ModelKind.X)
    gaps = [Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))]
    index = {gap: k for k, gap in enumerate(gaps)}
    ins = [m.gap_vars[gap.wire][gap.index][1] for gap in gaps]
    outs = [m.gap_vars[gap.wire][gap.index][0] for gap in gaps]
    arriving = model_columns(m, CutSet.of(gaps), ins, outs)
    n_gates = len(pairs)
    systems = []
    for s in (n_gates - 1, *range(n_gates - 1)):
        family = tuple(index[Gap(w, spanning_gap_index(pairs, w, s))] for w in range(c.wires))
        start = {k: 1 << w for w, k in enumerate(family)}  # per gap met, its starting value
        others, wires, rows = [], [], []
        family_rows = [0] * c.wires
        for x in range(s + 1, s + 1 + n_gates):
            for w in pairs[x % n_gates]:
                k = index[Gap(w, spanning_gap_index(pairs, w, x % n_gates))]
                value = 0
                for j in range(len(gaps)):
                    if arriving[k] >> j & 1:
                        value ^= start[j]  # a gap's arriving value reads only gaps met before it
                if k == family[w]:
                    family_rows[w] = value
                else:
                    start[k] = value ^ 1 << (c.wires + len(others))
                    others.append(k)
                    wires.append(w)
                    rows.append(value)
        systems.append((family, tuple(others), tuple(wires), tuple(rows), tuple(family_rows)))
    return systems


def reference_columns(system: tuple, extras: tuple[int, ...]) -> list[int]:
    """X columns of a slot system's family plus ``others[p]`` for each ``p`` in ``extras``, ascending.

    ``system`` is ``(family, others, wires, rows, family_rows)`` as
    ``reference_slot_systems`` gives it. Qubits are numbered by wire, then
    by arc clockwise from the family gap. Going through the extra cuts in
    traversal order, each one closes the arc before it, whose output reads
    the arriving value, and fixes its tag to the new input XOR that value;
    every family gap then closes its wire's last arc.
    """
    family, _, wires, rows, family_rows = system
    n_wires = len(family)
    counts = [1] * n_wires
    for p in extras:
        counts[wires[p]] += 1
    qubit = list(itertools.accumulate(counts, initial=0))  # per wire, its open arc
    known = [(1 << w, 1 << qubit[w]) for w in range(n_wires)]

    def evaluate(row: int) -> int:
        value = 0
        for bit, known_value in known:
            if row & bit:
                value ^= known_value
        return value

    cols = [0] * qubit[-1]
    for p in extras:
        value = evaluate(rows[p])
        w = wires[p]
        cols[qubit[w]] = value
        qubit[w] += 1
        known.append((1 << (n_wires + p), 1 << qubit[w] ^ value))
    for w, row in enumerate(family_rows):
        cols[qubit[w]] = evaluate(row)
    return cols


def reference_search(c: CircularCircuit, target: StabiliserMap, need: int) -> list[tuple[CutSet, Direction]]:
    """Reference for ``search_cuts`` with ``max_cuts`` at least ``need``: every candidate read in full.

    Per slot of ``reference_slot_systems``, skipping a family an earlier
    slot had, every choice of the remaining cuts among the other gaps
    (``itertools.combinations``), less those holding the rest of an
    earlier family, is read by ``reference_columns`` and compared with the
    target's X columns (clockwise) and its inverse's (counter-clockwise).
    No candidate bound applies. A target that is not symplectic, or has
    fewer qubits than wires or more than gaps, has no hit.
    """
    gaps = [Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))]
    if not c.wires <= target.n_qubits == need <= len(gaps) or not target.is_symplectic():
        return []
    cw_cols, ccw_cols = target.x_columns(), inverse(target).x_columns()
    n_extra = need - c.wires
    visited: list[tuple[int, ...]] = []
    found = []
    for system in reference_slot_systems(c):
        family, others = system[0], system[1]
        if family in visited:
            continue
        position = {k: p for p, k in enumerate(others)}
        blockers = [{position[k] for k in earlier if k in position} for earlier in visited]
        visited.append(family)
        for extras in itertools.combinations(range(len(others)), n_extra):
            if blockers and any(blocker.issubset(extras) for blocker in blockers):
                continue
            cols = reference_columns(system, extras)
            if cols != cw_cols and cols != ccw_cols:
                continue
            cuts = CutSet.of([gaps[k] for k in family] + [gaps[others[p]] for p in extras])
            if cols == cw_cols:
                found.append((cuts, Direction.CW))
            if cols == ccw_cols:
                found.append((cuts, Direction.CCW))
    found.sort(key=lambda hit: hit[0].sorted_gaps())
    return found


# --- rotation algebra references --------------------------------------------


def cyclic_equal(a, b, renaming: dict[int, int] | None = None) -> bool:
    """True when gate list ``b`` is a rotation of ``a`` under the renaming.

    Lists may be (control, target) pairs or gate objects carrying those
    attributes; other attributes are ignored.
    """

    def pairs(seq):
        return [(g[0], g[1]) if isinstance(g, tuple) else (g.control, g.target) for g in seq]

    pa, pb = pairs(a), pairs(b)
    if len(pa) != len(pb):
        return False
    if renaming:
        pa = [(renaming.get(c, c), renaming.get(t, t)) for c, t in pa]
    return not pa or any(pa[shift:] + pa[:shift] == pb for shift in range(len(pa)))


def commutation_by_derivation(c: CircularCircuit, g1: int, g2: int) -> bool:
    """Reference for ``check_commutation_invariance``: derive every radial map.

    Swapping the two gates in the list relabels their crossing segments; the swap
    is invariant exactly when every radial linearization that keeps the pair
    contiguous derives the same stabiliser map before and after. The slot
    between the pair is skipped for longer circuits because cutting there
    separates the gates instead of commuting them.
    """
    ia, ib = c.gate_index(g1), c.gate_index(g2)
    pair = {ia, ib}
    slot_pairs = [{a, b} for a, b in c.slots()]
    if ia == ib or pair not in slot_pairs:
        raise NotAdjacent(f"gates {g1} and {g2} are not cyclically adjacent")
    swapped = list(c.gates)
    swapped[ia], swapped[ib] = swapped[ib], swapped[ia]
    c2 = CircularCircuit(wires=c.wires, gates=tuple(swapped))
    for span1, span2, slot_pair in zip(spanning_gaps(c), spanning_gaps(c2), slot_pairs):
        if slot_pair == pair and len(slot_pairs) > 2:
            continue
        m1 = derive_transformations(c, CutSet.of(enumerate(span1)), Direction.CW)
        m2 = derive_transformations(c2, CutSet.of(enumerate(span2)), Direction.CW)
        if m1 != m2:
            return False
    return True


def inverse(m: StabiliserMap) -> StabiliserMap:
    """Map of the reversed circuit (CNOT lists are gate-wise self-inverse), one ``gf2.invert`` per half.

    The columns of X⁻¹ are the rows of (Xᵀ)⁻¹, so the inverse's X columns
    invert the X columns and its Z rows the Z rows. Raises ``Inconsistent``
    for a singular map.
    """
    n = m.n_qubits
    x_cols = gf2.invert(m.x_columns(), n)
    z_rows = gf2.invert([sum(1 << o for o in outs) for outs in m.z_out], n)
    z_out = tuple(frozenset(o for o in range(n) if row >> o & 1) for row in z_rows)
    return StabiliserMap(n, rows_of_columns(x_cols), z_out)


def conjugate_by_cnot(m: StabiliserMap, control: int, target: int) -> StabiliserMap:
    """The map g·M·g of g = CNOT(control, target), by set algebra alone.

    Rows are read as images: X row ``q`` is where ``X_q`` ends up. ``g``
    sends ``X_control`` to ``X_control X_target`` and ``Z_target`` to
    ``Z_control Z_target``, so the Z map is the X rule with control and
    target swapped.
    """

    def conjugate(rows, c, t):
        def gate(s):
            return s ^ {t} if c in s else s

        def through_m(s):
            out = frozenset()
            for i in s:
                out ^= rows[i]
            return out

        return tuple(gate(through_m(gate(frozenset({q})))) for q in range(len(rows)))

    return StabiliserMap(
        m.n_qubits, conjugate(m.x_out, control, target), conjugate(m.z_out, target, control)
    )


# --- dense unitary brute force ---------------------------------------------

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(label: str) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for ch in label:
        out = np.kron(out, PAULI_1Q[ch])
    return out


def cnot_matrix(n: int, control: int, target: int) -> np.ndarray:
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for basis in range(dim):
        bits = [(basis >> (n - 1 - q)) & 1 for q in range(n)]
        if bits[control]:
            bits[target] ^= 1
        image = sum(bit << (n - 1 - q) for q, bit in enumerate(bits))
        mat[image, basis] = 1.0
    return mat


def circuit_unitary(n: int, pairs) -> np.ndarray:
    u = np.eye(2**n, dtype=complex)
    for c, t in pairs:
        u = cnot_matrix(n, c, t) @ u
    return u


# --- truth-table oracle for Boolean models ----------------------------------


def clause_truth(model: BooleanModel, assignment) -> bool:
    """Evaluate an X or Z model as a plain Boolean formula (no linear algebra).

    ``assignment[v]`` is the value of variable ``v``.
    """
    for clause_vars in model.gate_vars:
        a, b, crossing = (assignment[v] for v in clause_vars)
        if not (a ^ b ^ (not crossing)):
            return False
    for _, (r, t) in model.joins:
        if not ((not assignment[r]) ^ assignment[t]):
            return False
    return True


def count_model_solutions(model: BooleanModel) -> int:
    n = model.n_vars
    count = 0
    for bits in range(1 << n):
        if clause_truth(model, [bool(bits >> i & 1) for i in range(n)]):
            count += 1
    return count


def parity_solutions(model: BooleanModel) -> list[int]:
    """Every solution of ``parity_rows(model)``, bit ``v`` for variable ``v`` (small models)."""
    n = model.n_vars
    return brute_force_solutions([sum(1 << v for v in vs) | rhs << n for vs, rhs in parity_rows(model)], n)


# Clause-shape references for the circular SWAP models, written over abstract
# labels: each gate clause is (crossing, before, after); joins are unordered.
SWAP_X_REF = {
    "cnots": [("A", "e", "f"), ("G", "b", "c"), ("D", "h", "i")],
    "joins": [{"A", "D"}, {"A", "b"}, {"c", "D"}, {"e", "i"}, {"f", "G"}, {"G", "h"}],
}
SWAP_Z_REF = {
    "cnots": [("P", "k", "l"), ("M", "q", "r"), ("S", "n", "o")],
    "joins": [{"k", "o"}, {"l", "M"}, {"M", "n"}, {"P", "S"}, {"P", "q"}, {"r", "S"}],
}


def isomorphic_to_reference(model, ref) -> bool:
    """Match an X or Z model's clause-variable incidence against a reference up to renaming."""
    cnots = list(model.gate_vars)
    joins = [frozenset(pair) for _, pair in model.joins]
    if len(cnots) != len(ref["cnots"]) or len(joins) != len(ref["joins"]):
        return False
    for perm in itertools.permutations(range(len(cnots))):
        mapping = {}
        ok = True
        for mi, ri in enumerate(perm):
            before, after, crossing = cnots[mi]
            for seg, label in (
                (crossing, ref["cnots"][ri][0]),
                (before, ref["cnots"][ri][1]),
                (after, ref["cnots"][ri][2]),
            ):
                if mapping.get(seg, label) != label:
                    ok = False
                    break
                mapping[seg] = label
            if not ok:
                break
        if not ok or len(set(mapping.values())) != len(mapping):
            continue
        mapped_joins = [frozenset(mapping[v] for v in j) for j in joins]
        ref_joins = [frozenset(j) for j in ref["joins"]]
        if sorted(map(sorted, mapped_joins)) == sorted(map(sorted, ref_joins)):
            return True
    return False


def restrict_map(m: StabiliserMap, live_in, live_out) -> StabiliserMap:
    """Blank absorbed rows and intersect output sets, for fault comparisons."""
    x_out, z_out = m.x_out, m.z_out  # each read builds its rows
    x = tuple(
        x_out[q] & frozenset(live_out) if q in live_in else frozenset()
        for q in range(m.n_qubits)
    )
    z = tuple(
        z_out[q] & frozenset(live_out) if q in live_in else frozenset()
        for q in range(m.n_qubits)
    )
    return StabiliserMap(m.n_qubits, x, z)


# --- GF(2) references, apart from gf2 -----------------------------------------


def gf2_rank(rows, n_cols: int) -> int:
    """Rank of bitmask rows over their first ``n_cols`` bits, by an XOR basis keyed by leading bit."""
    basis: dict[int, int] = {}
    for row in rows:
        row &= (1 << n_cols) - 1
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


class Underdetermined(Exception):
    """A reference solve leaves variables free; ``free`` lists them."""

    def __init__(self, free):
        super().__init__(f"free variables remain: {free}")
        self.free = free


def reference_solve(rows, n_vars: int):
    """Solve bitmask rows ``coeffs | rhs << n_vars`` by elimination over every variable.

    Each row is reduced by the rows kept so far, keyed by leading
    coefficient as ``gf2_rank`` keys them, and kept under its leading
    coefficient if one is left. A kept row holds only lower columns besides
    its own, so the values follow by substitution in ascending column order.
    Returns the per-variable rhs list, or ``(Inconsistent, None)`` when a
    row reduces to a nonzero rhs alone, else ``(Underdetermined, free)``
    with the columns no row leads.
    """
    coeff_mask = (1 << n_vars) - 1
    kept: dict[int, int] = {}
    inconsistent = False
    for row in rows:
        top = (row & coeff_mask).bit_length() - 1
        while top in kept:
            row ^= kept[top]
            top = (row & coeff_mask).bit_length() - 1
        if top >= 0:
            kept[top] = row
        elif row:
            inconsistent = True
    if inconsistent:
        return Inconsistent, None
    free = [col for col in range(n_vars) if col not in kept]
    if free:
        return Underdetermined, free
    values = [0] * n_vars
    for col in range(n_vars):
        row = kept[col]
        rhs, lower = row >> n_vars, row & ((1 << col) - 1)
        while lower:
            low = lower & -lower
            rhs ^= values[low.bit_length() - 1]
            lower ^= low
        values[col] = rhs
    return values


def solve_rows(rows, n_vars: int) -> list[int]:
    """``reference_solve`` of sparse ``(variables, rhs)`` rows; raises Inconsistent or Underdetermined."""
    out = reference_solve([sum(1 << v for v in vs) | rhs << n_vars for vs, rhs in rows], n_vars)
    if isinstance(out, list):
        return out
    if out[0] is Inconsistent:
        raise Inconsistent("contradictory parity constraints")
    raise Underdetermined(out[1])


def brute_force_solutions(rows, n_vars: int) -> list[int]:
    """Every assignment satisfying bitmask rows ``coeffs | rhs << n_vars``, trying all ``2**n_vars``."""
    return [
        v
        for v in range(1 << n_vars)
        if all(bin(v & row).count("1") & 1 == row >> n_vars for row in rows)
    ]
