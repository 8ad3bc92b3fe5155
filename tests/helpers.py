"""Shared fixtures and independent oracles for the test suite.

Everything here deliberately avoids the library's derivation internals:
unitary brute force uses numpy, truth-table counting evaluates the model's
integer clauses (``gate_vars`` and ``joins``) as plain Boolean formulas,
map conjugation is set algebra, and circuit generators build objects
through the public constructors only. GF(2) references share no code
with ``gf2``: ``gf2_rank`` keeps an XOR basis by leading bit,
``reference_solve`` eliminates on the same basis and substitutes, and
``brute_force_solutions`` tries every assignment; every reference solve
here runs ``reference_solve``.

The library substitutes along the traversal and builds no model to
derive. The references solve a model's cut system instead:
``solve_classes`` writes its rows over the classes of
``reference_join_classes``, a per-variable fold of the joins the cuts
leave, and ``solve_map_rows`` reads map columns off it at the segments
``input_output_segments`` picks for each qubit of ``arc_ends``, which
names each qubit's input and output gaps off ``cut_table(...).arcs()``.
``solve_model_map``/``derive_by_both_models`` solve the Z model directly
where ``derive_transformations`` reads Z off the X map;
``solve_map_rows_with_joins``/``propagate_with_joins`` keep one row per
uncut join where ``solve_map_rows`` solves over join classes; and
``fault_map_by_model`` keeps the pinned-ancilla fault body that built
both models, where ``faulted_transformations`` leaves the missing gate
out of one X substitution. ``fault_expected`` reads the gate-deleted
oracle with ``arc_ends``' qubit numbering. ``reference_slot_systems``
keeps the search's every-gap solve and per-slot rewrite, which the
per-slot walk replaced. ``commutation_by_derivation``,
which ``check_commutation_invariance`` is tested against, derives with
the library. ``reference_build_model`` keeps the segment loop that
``build_model`` is compared with. Solver columns (per output, the
inputs reaching it) are read into map rows by ``rows_of_columns``, by
set algebra, not through ``StabiliserMap``.
"""

from __future__ import annotations

import itertools
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
    build_model,
    derive_transformations,
    enumerate_cut_points,
    linearize,
    oracle_map,
    spanning_gaps,
)
from circnot.circuits import CONTROL, TARGET, cut_table
from circnot.errors import Inconsistent, NotAdjacent, UnpinnedSelector
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


def small_sweep_cut_sets():
    """Every ``all_small_circuits(3, 4)`` circuit with each radial family plus 0-2 extra gaps.

    Yields ``(circuit, cut sets)``; the cut sets of one circuit are distinct.
    """
    for c in all_small_circuits(3, 4):
        gaps = [p.gap for p in enumerate_cut_points(c)]
        cut_sets = set()
        for slot in range(len(c.gates)):
            family = {c.gap_spanning(w, slot) for w in range(c.wires)}
            others = [gap for gap in gaps if gap not in family]
            for k in range(3):
                cut_sets.update(
                    CutSet.of(family.union(extra)) for extra in itertools.combinations(others, k)
                )
        yield c, sorted(cut_sets, key=CutSet.sorted_gaps)


# --- two-model derivation references -----------------------------------------


def rows_of_columns(cols) -> tuple[frozenset[int], ...]:
    """Per input ``i``, the outputs ``j`` whose column mask has bit ``i``."""
    return tuple(frozenset(j for j, col in enumerate(cols) if col >> i & 1) for i in range(len(cols)))


def solve_classes(m: BooleanModel, cut_gaps, ins, pins) -> tuple[list[int], list[int]]:
    """Per join class its solved rhs, and per variable its class, for a model's cut system.

    ``m`` is an X or Z model (a combined clause has no selector and raises
    UnpinnedSelector). The classes are ``reference_join_classes``
    under the cuts (``cut_gaps`` and the model's own). Rows over classes,
    one per input (rhs bit ``1 + i``; None skips one), one per pin
    (variable -> bool, rhs bit 0) and one per gate clause, go to
    ``reference_solve``.
    """
    if m.kind is ModelKind.COMBINED:
        raise UnpinnedSelector(f"combined clause for gate {m.gate_ids[0]} has no selector")
    cls, n = reference_join_classes(m, m.cut_gaps | cut_gaps)  # raises UnknownGap
    rows = [((cls[v],), 2 << i) for i, v in enumerate(ins) if v is not None]
    rows += [((cls[v],), int(bool(value))) for v, value in pins.items()]
    for vs in m.gate_vars:
        a, b, x = (cls[v] for v in vs)
        rows.append(((a, b, x) if a != b else (x,), 0))
    return solve_rows(rows, n), cls


def solve_map_rows(m: BooleanModel, cut_gaps, ins, outs, pins=None) -> list[int]:
    """Map columns of a model's cut system: per output, the inputs that reach it.

    Segments are variable indices of an X or Z model of ``c``, solved over
    join classes (``solve_classes``). The solve is symbolic, so one
    elimination yields every single-input propagation. Only the linear
    part is read, not pinned offsets: output ``j``'s column is an int mask
    with bit ``i`` set when input ``i`` reaches it; a skipped input sets no
    bit.
    """
    sol, cls = solve_classes(m, cut_gaps, ins, pins or {})
    return [sol[cls[v]] >> 1 for v in outs]


class ArcEnds(NamedTuple):
    """A linear qubit's wire and the gaps its arc is entered and left at, in the traversal direction."""

    wire: int
    input_cut: Gap
    output_cut: Gap


def arc_ends(c: CircularCircuit, cuts: CutSet, d: Direction) -> tuple[int, tuple[ArcEnds, ...]]:
    """The start slot and each qubit's ``ArcEnds``, off ``cut_table(c, cuts).arcs()``, reversed counter-clockwise."""
    table = cut_table(c, cuts)
    starts, ends = table.arcs() if d is Direction.CW else table.arcs()[::-1]
    return table.start, tuple(ArcEnds(w, Gap(w, a), Gap(w, b)) for (w, a), (_, b) in zip(starts, ends))


def input_output_segments(m: BooleanModel, origins, d: Direction) -> tuple[list[int], list[int]]:
    """Per linear qubit (``ArcEnds``), the variables of its first and last segment under the traversal."""
    first, last = (1, 0) if d is Direction.CW else (0, 1)
    ins = [m.gap_pair(origin.input_cut)[first] for origin in origins]
    outs = [m.gap_pair(origin.output_cut)[last] for origin in origins]
    return ins, outs


def solve_model_map(c: CircularCircuit, cuts: CutSet, d: Direction, model: BooleanModel):
    """Map rows of one parity model (X or Z), solved directly from that model."""
    origins = arc_ends(c, cuts, d)[1]
    return rows_of_columns(solve_map_rows(model, cuts.gaps(), *input_output_segments(model, origins, d)))


def derive_by_both_models(c: CircularCircuit, cuts: CutSet, d: Direction, models=None) -> StabiliserMap:
    """Reference for ``derive_transformations``: solve the X and the Z model.

    ``derive_transformations`` solves X only and reads Z as the inverse
    transpose; this keeps the body that solved both, so the symplectic
    tests compare derive with an independent Z solve, not with itself.
    """
    if models is None:
        models = (build_model(c, ModelKind.X), build_model(c, ModelKind.Z))
    origins = arc_ends(c, cuts, d)[1]
    x_out, z_out = (
        rows_of_columns(solve_map_rows(m, cuts.gaps(), *input_output_segments(m, origins, d)))
        for m in models
    )
    return StabiliserMap(len(origins), x_out, z_out)


def solve_map_rows_with_joins(m: BooleanModel, cut_gaps, ins, outs, pins=None, bridges=()):
    """Reference for ``solve_map_rows``: one join row per gap the cuts leave.

    ``solve_map_rows`` substitutes the joins away and solves over join
    classes; this keeps the system it replaced, over every model variable:
    the gate rows, then the uncut joins by (wire, gap), bridges (pairs of
    variables made equal, which only ``fault_map_by_model`` writes), inputs
    and pins.
    """
    cut = m.cut_gaps | cut_gaps
    for gap in cut:
        m.gap_pair(gap)  # raises UnknownGap
    rows = [(vs, 0) for vs in m.gate_vars]
    rows += [
        ((end, start), 0)
        for w, pairs in enumerate(m.gap_vars)
        for i, (end, start) in enumerate(pairs)
        if end != start and Gap(w, i) not in cut
    ]
    rows += [((a, b), 0) for a, b in bridges if a != b]
    rows += [((v,), 1 << (1 + i)) for i, v in enumerate(ins) if v is not None]
    rows += [((v,), int(bool(value))) for v, value in (pins or {}).items()]
    sol = solve_rows(rows, m.n_vars)
    return [sol[v] >> 1 for v in outs]


def propagate_with_joins(m: BooleanModel, pins: dict[int, bool]) -> list[bool]:
    """The pinned model's unique assignment: ``parity_rows`` plus one row per pin, over every variable.

    Pins are variable indices of the model. Raises what ``solve_rows``
    raises when the pins leave a variable free or contradict the system.
    """
    rows = parity_rows(m) + [((v,), int(bool(value))) for v, value in pins.items()]
    return [bool(bit) for bit in solve_rows(rows, m.n_vars)]


def fault_map_by_model(c: CircularCircuit, base: CutSet, d: Direction, f, solve=None) -> StabiliserMap:
    """Reference for ``faulted_transformations``: the pinned-ancilla construction.

    ``faulted_transformations`` solves X once over the base cuts with the
    missing gate's clause left out, and reads Z as the inverse transpose.
    This keeps the construction it replaced: cut the fault's two gaps,
    build both models and solve each over variables, the ancilla's first
    segment pinned to |0>'s value (X false, Z true). When both gaps are
    fresh a bridge re-joins the severed neighbours; when one is fresh its
    continuation is pinned too. ``solve`` takes
    ``solve_map_rows_with_joins``' arguments, and is that by default.
    """
    solve = solve or solve_map_rows_with_joins
    origins = arc_ends(c, base, d)[1]
    cuts, patch = inject_smgf(c, base, f)
    added = {g for g in (patch.before_gap, patch.after_gap) if g not in base.gaps()}
    anc_in_gap = patch.before_gap if d is Direction.CW else patch.after_gap
    anc_out_gap = patch.after_gap if d is Direction.CW else patch.before_gap
    live_in = {q for q, o in enumerate(origins) if o.input_cut != anc_in_gap}
    live_out = {q for q, o in enumerate(origins) if o.output_cut != anc_out_gap}
    out_side = 1 if d is Direction.CW else 0

    def model_cols(m, pin_value):
        anc_first = m.gap_pair(anc_in_gap)[out_side]
        ins, outs = input_output_segments(m, origins, d)
        ins = [seg if q in live_in else None for q, seg in enumerate(ins)]
        pins = {anc_first: pin_value}
        bridges: tuple = ()
        if len(added) == 2:
            bridges = ((m.gap_pair(patch.before_gap)[0], m.gap_pair(patch.after_gap)[1]),)
        elif len(added) == 1:
            in_side = m.gap_pair(next(iter(added)))[out_side]
            if in_side != anc_first:
                pins[in_side] = pin_value
        cols = solve(m, cuts.gaps(), ins, outs, pins=pins, bridges=bridges)
        return [col if q in live_out else 0 for q, col in enumerate(cols)]

    x_cols = model_cols(build_model(c, ModelKind.X), False)
    z_cols = model_cols(build_model(c, ModelKind.Z), True)
    return StabiliserMap.from_columns(x_cols, z_cols)


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


# --- reference model builder and join classes ---------------------------------


def reference_build_model(c: CircularCircuit, kind: ModelKind) -> BooleanModel:
    """Reference for ``build_model``: the per-symbol segment loop it replaced.

    Gaps and the symbols of the kind's splitting roles cut each wire into
    segments. Segment ``j`` starts at the ``j``-th boundary clockwise, and
    each symbol's gap follows it: ``seg`` is the segment starting at the
    current boundary and ``prev`` the one ending there, wrapping at ``j = 0``.
    """
    splitting = {ModelKind.X: (TARGET,), ModelKind.Z: (CONTROL,), ModelKind.COMBINED: (CONTROL, TARGET)}[kind]
    # per gate index: (before, after) variables at a splitting symbol, or
    # (containing,) at a crossing one
    control_at: list = [None] * len(c.gates)
    target_at: list = [None] * len(c.gates)
    offsets = [0]
    gap_vars = []
    for w in range(c.wires):
        syms = c.symbols(w)
        first = offsets[-1]
        n_segs = len(syms) + sum(1 for _, sk in syms if sk in splitting)
        prev, seg = first + n_segs - 1, first
        pairs = []
        for gi, sk in syms:
            at = control_at if sk == CONTROL else target_at
            if sk in splitting:
                at[gi] = (prev, seg)
                prev, seg = seg, seg + 1
            else:
                at[gi] = (prev,)
            pairs.append((prev, seg))
            prev, seg = seg, seg + 1
        offsets.append(first + n_segs)
        gap_vars.append(tuple(pairs))
    if kind is ModelKind.X:
        gate_vars = tuple(t + ctl for ctl, t in zip(control_at, target_at))
    else:
        gate_vars = tuple(ctl + t for ctl, t in zip(control_at, target_at))
    return BooleanModel(
        kind=kind,
        offsets=tuple(offsets),
        gate_vars=gate_vars,
        gate_ids=tuple(g.id for g in c.gates),
        gap_vars=tuple(gap_vars),
    )


def reference_join_classes(m: BooleanModel, cut_gaps) -> tuple[list[int], int]:
    """The class of each variable of an X or Z model under the cuts, and the class count.

    Within a wire, variable ``v`` continues the class of ``v - 1``
    (cyclically) unless a split symbol (each clause's second variable) or
    a cut gap comes before it; a wire with neither is one class.
    """
    breaks = bytearray(m.n_vars)
    for _, after, _ in m.gate_vars:
        breaks[after] = 1
    for gap in cut_gaps:
        breaks[m.gap_pair(gap)[1]] = 1
    heads = []
    for lo, hi in itertools.pairwise(m.offsets):
        first = breaks.find(1, lo, hi)
        if first < 0:
            breaks[lo] = 1  # a wire without a break is one class
        elif first > lo:
            heads.append((lo, first, hi))
    # class of v: the breaks up to v, less one
    cls = list(itertools.accumulate(breaks, initial=-1))[1:]
    for lo, first, hi in heads:
        # the wire's head continues its last class
        cls[lo:first] = [cls[hi - 1]] * (first - lo)
    return cls, breaks.count(1)


def reference_slot_systems(c: CircularCircuit) -> list[tuple]:
    """Reference for ``model._slot_systems``: one solve with every gap cut, rewritten per slot.

    The reference X model is solved over join classes with every gap cut
    and each gap's starting segment a symbolic input, which gives the value
    arriving at each gap over the gaps' starts. Each slot, the wrap slot
    first and then clockwise from slot 0, rewrites those values in
    traversal order: a family gap's start is its wire's input bit and any
    other gap's start is its arriving value XOR its own tag bit. Gaps are
    numbered by (wire, gap) and found from the gate list alone
    (``spanning_gap_index``). Returns per slot ``(family, others, wires,
    rows, family_rows)``.
    """
    pairs = [(g.control, g.target) for g in c.gates]
    m = reference_build_model(c, ModelKind.X)
    gaps = [Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))]
    index = {gap: k for k, gap in enumerate(gaps)}
    ins = [m.gap_pair(gap)[1] for gap in gaps]
    outs = [m.gap_pair(gap)[0] for gap in gaps]
    arriving = solve_map_rows(m, frozenset(gaps), ins, outs)
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
    models1 = (build_model(c, ModelKind.X), build_model(c, ModelKind.Z))
    models2 = (build_model(c2, ModelKind.X), build_model(c2, ModelKind.Z))
    for span1, span2, slot_pair in zip(spanning_gaps(c), spanning_gaps(c2), slot_pairs):
        if slot_pair == pair and len(slot_pairs) > 2:
            continue
        m1 = derive_transformations(c, CutSet.of(enumerate(span1)), Direction.CW, models=models1)
        m2 = derive_transformations(c2, CutSet.of(enumerate(span2)), Direction.CW, models=models2)
        if m1 != m2:
            return False
    return True


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
