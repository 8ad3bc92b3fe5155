"""Parity-constraint models of circular CNOT circuits.

Wire segments carry one GF(2) variable each: true means the segment is
stabilised, false means stabiliser identity. A gate contributes one clause
tying the two segments split by one of its symbols to the segment crossing
its other symbol; a gap contributes an equivalence (join) clause that a cut
removes. X and Z flow are tracked by separate models and never mix. Each
clause being satisfied is one homogeneous linear equation, so the whole
model is a parity system over GF(2).

Segment boundaries per model kind:

* X model: gaps and target symbols split segments; control symbols do not.
* Z model: gaps and control symbols split; target symbols do not.
* combined model: gaps and both symbol kinds split; each gate's clause
  would need a selector to pick its X or its Z reading, and none is
  pinned, so the model is dumped but gives no parity rows.

The joins a cut set leaves are equalities, so every solve runs over join
classes. One walk over each wire's symbol table (``walk_classes``) numbers
them: given each gate's splitting symbol and the cut gaps, a class starts
at each splitting symbol and each cut gap (a break). Classes are numbered
by break, wire by wire and clockwise from each wire's first symbol, and a
wire's head (its symbols before its first break) continues its last class.
The walk gives each gate's (before, after, crossing) classes and each cut
gap's (ending, starting) classes.
``solve_walk`` writes one row per class: the inputs, then the gate
clauses in the order given, and solves them by forward substitution
(``gf2.solve_tagged``). A derivation or fault gives its traversal order
(``traversal_order``) and the search cuts every gap, so each clause fixes
one new class, its ``after``, from classes already fixed.

``derive_transformations``, ``icm.faulted_transformations`` and the search
(``_slot_systems``) put their inputs and outputs at cut gaps, so they write
their rows straight from the walk and build no model; a derivation or
fault (``_x_columns``) walks ``circuits.cut_table``'s per-wire cut lists
and reads its qubits' first and last classes off them (``qubit_ends``). A
fault is a derivation whose missing gate splits nothing and writes no
clause.
``build_model`` is the same walk with every gap cut: the classes are then
the segments, which ``BooleanModel`` stores as integer variables, wire by
wire and each wire's clockwise; a cut model records only its cut gaps.

A model is not solved. ``parity_rows`` lists every X or Z clause, joins
included, as sparse ``(variables, rhs)`` rows for ``circnot model
--parity``.

``derive_transformations`` solves the X system only. A CNOT circuit acts
symplectically, so its Z map is the inverse transpose of its X map:
Z = (Xᵀ)⁻¹ is one ``gf2.invert`` of the X columns (``StabiliserMap.from_x``).
A fault derivation (``icm``) is read the same way. The Z model serves
``circnot model``.

``search_cuts`` derives no map per candidate. One X solve with every gap
cut gives the value arriving at each gap over the gaps' starting values.
Per radial slot, one pass in traversal order rewrites these over the slot
family's inputs and one tag bit per other gap (``_slot_systems``),
and a candidate's X columns are a substitution over its extra cuts
(``_columns``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import accumulate, combinations
from math import comb
from typing import NamedTuple

from . import gf2
from .circuits import (
    CONTROL,
    TARGET,
    CircularCircuit,
    CutSet,
    CutTable,
    Direction,
    Gap,
    cut_table,
    spanning_gaps,
    traversal_order,
)
from .errors import (
    BudgetTooSmall,
    DuplicateCut,
    NotAdjacent,
    SearchTooLarge,
    UnknownGap,
    UnpinnedSelector,
    quote_int,
)
from .stabmap import StabiliserMap


class ModelKind(Enum):
    X = "x"
    Z = "z"
    COMBINED = "combined"


class ClassWalk(NamedTuple):
    """Join classes of one cut system, from ``walk_classes``.

    Per gate index: ``before`` and ``after`` are the classes on either side
    of its splitting symbol, ``crossing`` the class at its other symbol
    (the class before it when every symbol splits, ``crossing_after`` then
    holding the one after it, else None). ``ending[w][k]`` and
    ``starting[w][k]`` are the classes ending and starting at wire ``w``'s
    ``k``-th cut gap in ascending order (its gap ``k`` when every gap is
    cut); ``starts`` is each wire's first class, then the class count.
    """

    before: list[int]
    after: list[int]
    crossing: list[int]
    crossing_after: list[int] | None
    ending: list[list[int]]
    starting: list[list[int]]
    starts: list[int]

    @property
    def n(self) -> int:
        return self.starts[-1]


def walk_classes(c: CircularCircuit, split, cut, both: bool = False) -> ClassWalk:
    """Number the join classes of a cut system in one walk over each wire's symbols.

    ``split[g]`` is the kind (``CONTROL`` or ``TARGET``) of gate ``g``'s
    splitting symbol; with ``both`` the other symbol splits too. Without
    ``both`` it may be None for a gate that splits nothing (a missing
    gate, whose clause is not written): its own entries are then not
    meaningful. ``cut`` lists each wire's cut gap indices ascending
    (``CutTable.cuts``), which must exist, or is None for every gap. A
    class starts at each splitting symbol and each cut gap; classes are
    numbered wire by wire, each wire's clockwise from its first symbol,
    and a wire's head (its symbols before its first break) continues its
    last class. A wire without a break is one class.
    """
    symbols = c.symbol_tables
    n_gates = len(split)
    before = [0] * n_gates
    after = [0] * n_gates
    crossing = [0] * n_gates
    crossing_after = [0] * n_gates if both else None
    ending: list[list[int]] = [[] for _ in symbols]
    starting: list[list[int]] = [[] for _ in symbols]
    starts = []
    n = 0
    for w, syms in enumerate(symbols):
        starts.append(n)
        ends, begins = ending[w], starting[w]
        # the wire's cut gap indices ascending, then -1, which no symbol reaches
        wire_cuts = range(len(syms)) if cut is None else cut[w]
        cuts = iter(wire_cuts)
        next_cut = next(cuts, -1)
        cur = -1  # the head's class, known once the wire is walked
        j = 0
        for gi, sk in syms:
            if sk is split[gi]:
                before[gi] = cur
                after[gi] = cur = n
                n += 1
            elif both:
                crossing[gi] = cur
                crossing_after[gi] = cur = n
                n += 1
            else:
                crossing[gi] = cur
            if j == next_cut:
                ends.append(cur)
                begins.append(n)
                cur = n
                n += 1
                next_cut = next(cuts, -1)
            j += 1
        if cur < 0:  # no break: the wire is one class
            cur = n
            n += 1
        # the head continues the last class, up to the ending side of the
        # first break
        gi, sk = syms[0]
        if sk is split[gi]:
            before[gi] = cur
            continue
        first_cut = wire_cuts[0] if wire_cuts else -1
        for j, (gi, sk) in enumerate(syms):
            if sk is split[gi]:
                before[gi] = cur
                break
            crossing[gi] = cur
            if both:
                break
            if j == first_cut:
                ends[0] = cur
                break
    starts.append(n)
    return ClassWalk(before, after, crossing, crossing_after, ending, starting, starts)


def solve_walk(classes: ClassWalk, ins, order=None) -> list[int]:
    """Per class, its solved rhs over the inputs, by forward substitution.

    Rows go to ``gf2.solve_tagged`` in this order: one per input class (rhs
    bit ``1 + i``), then each gate's clause in ``order`` (list order when
    None), which must reach its ``before`` and ``crossing`` classes fixed.
    """
    rows = [((k,), 2 << i) for i, k in enumerate(ins)]
    before, after, crossing = classes.before, classes.after, classes.crossing
    for g in range(len(before)) if order is None else order:
        rows.append(((before[g], after[g], crossing[g]), 0))
    return gf2.solve_tagged(rows, classes.n, 1 + len(ins))


def qubit_ends(table: CutTable, starting, ending, d: Direction) -> tuple[list[int], list[int]]:
    """Per qubit, the classes of its first and last segment under the traversal.

    ``starting``/``ending`` are a walk's classes at the table's cuts, by
    wire. Clockwise, a wire's inputs are the classes starting at its cuts,
    rotated to the family gap (``CutTable.by_qubit``), and its outputs
    those ending at each next cut; counter-clockwise swaps the two lists.
    """
    ins, outs = table.by_qubit(starting), table.by_qubit(ending, 1)
    return (ins, outs) if d is Direction.CW else (outs, ins)


@dataclass(frozen=True, eq=False)
class BooleanModel:
    """A parity model of a circular circuit stored as integer variable indices.

    Variable ``offsets[w] + j`` is segment ``j`` of wire ``w``, named
    ``w<w>s<j>`` (``segment_name``); ``offsets`` has one entry per wire
    plus a last one, ``n_vars``. ``gate_vars[k]`` holds the clause
    variables of the circuit's ``k``-th gate and ``gate_ids[k]``
    that gate's id: (split-before, split-after, crossing) in X and Z,
    (control-before, control-after, target-before, target-after) combined.
    ``gap_vars[w][i]`` is the (ending, starting) variable pair of gap
    ``(w, i)``. ``apply_cuts`` records only ``cut_gaps``; the joins the
    cuts leave are listed by ``joins``.
    """

    kind: ModelKind
    offsets: tuple[int, ...]
    gate_vars: tuple[tuple[int, ...], ...]
    gate_ids: tuple[int, ...]
    gap_vars: tuple[tuple[tuple[int, int], ...], ...]
    cut_gaps: frozenset[Gap] = frozenset()

    @property
    def n_vars(self) -> int:
        return self.offsets[-1]

    def gap_pair(self, gap: Gap) -> tuple[int, int]:
        """The variables of the segments ending and starting at a gap."""
        w, i = gap.wire, gap.index
        if 0 <= w < len(self.gap_vars) and 0 <= i < len(self.gap_vars[w]):
            return self.gap_vars[w][i]
        raise UnknownGap(f"wire {quote_int(w)} gap {quote_int(i)} not in model")

    def segment_name(self, v: int) -> str:
        """``w<wire>s<index>`` of variable ``v``."""
        w = bisect_right(self.offsets, v) - 1
        return f"w{w}s{v - self.offsets[w]}"

    @cached_property
    def joins(self) -> tuple[tuple[Gap, tuple[int, int]], ...]:
        """The joins the cuts leave, by (wire, gap): each gap with its (ending, starting) pair.

        A self-join (a wire with a single boundary) is a tautology and is
        not listed.
        """
        return tuple(
            (Gap(w, i), pair)
            for w, pairs in enumerate(self.gap_vars)
            for i, pair in enumerate(pairs)
            if pair[0] != pair[1] and Gap(w, i) not in self.cut_gaps
        )

    def dump(self) -> str:
        """Gate clauses by position, then ``joins``; one per line, segments by name.

        A combined clause ends in ``x=-``: its selector is not pinned.
        """
        name = self.segment_name
        if self.kind is ModelKind.COMBINED:
            lines = [f"F {' '.join(map(name, vs))} x=-" for vs in self.gate_vars]
        else:
            lines = [f"C {' '.join(map(name, vs))}" for vs in self.gate_vars]
        lines += [f"J {name(a)} {name(b)}" for _, (a, b) in self.joins]
        return "\n".join(lines)


def build_model(c: CircularCircuit, kind: ModelKind) -> BooleanModel:
    """Model of the uncut circuit: one clause per gate, one join per gap.

    Gaps and the symbols of the kind's splitting roles cut each wire into
    segments, so the segments are the classes of ``walk_classes`` with
    every gap cut, numbered alike. The X clause ties the target's split to
    the control's crossing segment, the Z clause the control's split to the
    target's crossing segment, and the combined clause both splits. A join
    whose two variables coincide (a wire with a single boundary) is a
    tautology and is dropped; its gap is already cut-equivalent.
    """
    split = [CONTROL if kind is ModelKind.Z else TARGET] * len(c.gates)
    combined = kind is ModelKind.COMBINED
    segs = walk_classes(c, split, None, both=combined)
    if combined:
        gate_vars = zip(segs.crossing, segs.crossing_after, segs.before, segs.after)
    else:
        gate_vars = zip(segs.before, segs.after, segs.crossing)
    return BooleanModel(
        kind=kind,
        offsets=tuple(segs.starts),
        gate_vars=tuple(gate_vars),
        gate_ids=tuple(g.id for g in c.gates),
        gap_vars=tuple(tuple(zip(ends, begins)) for ends, begins in zip(segs.ending, segs.starting)),
    )


def apply_cuts(m: BooleanModel, cuts: CutSet) -> BooleanModel:
    """Remove the join clauses of the cut gaps; variables stay put.

    Cutting a gap whose self-join was already dropped is a no-op beyond
    marking the gap as cut (the gap was cut-equivalent from the start).
    """
    for gap in cuts.sorted_gaps():
        m.gap_pair(gap)  # raises UnknownGap
        if gap in m.cut_gaps:
            raise DuplicateCut(f"wire {quote_int(gap.wire)} gap {quote_int(gap.index)} already cut")
    return replace(m, cut_gaps=m.cut_gaps | cuts.gaps())


def parity_rows(m: BooleanModel) -> list[tuple[tuple[int, ...], int]]:
    """Every clause as sparse ``(variables, rhs)`` parity rows (requiring it true).

    A row is ``(variables, 0)``: one per gate, in gate order, then one per
    ``m.joins``. A combined clause is an X or a Z clause by a selector that
    no model pins, so a combined model with a gate raises UnpinnedSelector.
    """
    if m.kind is ModelKind.COMBINED and m.gate_ids:
        raise UnpinnedSelector(f"combined clause for gate {m.gate_ids[0]} has no selector")
    rows = list(m.gate_vars)
    rows += [pair for _, pair in m.joins]
    return [(vs, 0) for vs in rows]


def derive_transformations(
    c: CircularCircuit,
    cuts: CutSet,
    d: Direction,
    models: tuple[BooleanModel, BooleanModel | None] | None = None,
) -> StabiliserMap:
    """Stabiliser map of the cut-induced circuit, from the X parity system.

    Checks the cut set once (``cut_table``; no gates are emitted) and solves
    the X join classes of its cuts (``_x_columns``; no model is built).
    Truth of an output class means the output qubit carries that Pauli
    kind; signs are out of model. A CNOT circuit acts symplectically, so Z
    is the inverse transpose of X, read off one ``gf2.invert`` of the X
    columns instead of a second solve. ``models`` is accepted for callers
    that still pass an (X, Z) pair and is not read.
    """
    return StabiliserMap.from_x(_x_columns(c, cut_table(c, cuts), d))


def _x_columns(c: CircularCircuit, table: CutTable, d: Direction, missing: int | None = None) -> list[int]:
    """X columns of the table's derivation: per output qubit, its mask over the inputs.

    Walks the X join classes of the table's cuts, pins each qubit's first
    class (``qubit_ends``) to a distinct symbolic input and solves the gate
    clauses in traversal order from the table's start slot. A ``missing``
    gate index (``icm.faulted_transformations``) splits nothing and is left
    out of the order, so it writes no clause.
    """
    split = [TARGET] * len(c.gates)
    order = traversal_order(c, table.start, d)
    if missing is not None:
        split[missing] = None
        order.remove(missing)
    classes = walk_classes(c, split, table.cuts)
    ins, outs = qubit_ends(table, classes.starting, classes.ending, d)
    sol = solve_walk(classes, ins, order)
    return [sol[k] >> 1 for k in outs]


def check_commutation_invariance(c: CircularCircuit, g1: int, g2: int) -> bool:
    """Whether swapping two cyclically adjacent gates preserves every map.

    A circular circuit stands for every cyclic rotation of its gate list, so
    the swap is invariant when every radial reading that keeps the pair
    together keeps its map (a cut between the pair separates the gates
    instead of commuting them). Each such map has the form A·(g_b·g_a)·B,
    where A and B are the invertible maps of the gates read after and before
    the pair. So every reading keeps its map exactly when the two CNOTs
    commute over GF(2), and two CNOTs fail to commute only when one gate's
    target is the other's control.
    """
    ia, ib = c.gate_index(g1), c.gate_index(g2)
    if ia == ib or {ia, ib} not in ({a, b} for a, b in c.slots()):
        raise NotAdjacent(f"gates {quote_int(g1)} and {quote_int(g2)} are not cyclically adjacent")
    ga, gb = c.gates[ia], c.gates[ib]
    return not (ga.target == gb.control or gb.target == ga.control)


MAX_SEARCH_CANDIDATES = 100_000
"""Most candidates ``search_cuts`` may build; a larger search is refused.

The search holds no candidate set, only its hits and one slot's reduced
system, so the limit bounds time alone. Measured with Python 3.11 on a
shared 2-vCPU Xeon: a random 3-wire, 37-gate circuit searched for 5 cuts
(91,945 candidates by the bound) takes 0.74 s, about 8 µs a candidate,
with peak RSS unchanged at 17 MB; the Toffoli circular form (5 wires, 20
gates, 40 gaps) takes 0.13 s for its 11,900 at 7 cuts. The next Toffoli
size up, 8 cuts (130,900 by the bound), is past the limit.
"""


class _SlotSystem(NamedTuple):
    """The X system of one radial slot, reduced for ``search_cuts``.

    Gaps are numbered by (wire, gap). ``family[w]`` is the slot's spanning
    gap on wire ``w`` and ``others`` lists every other gap in traversal
    order from the slot, ``wires[p]`` being the wire of ``others[p]``. A
    value is a mask over the slot's symbols: bit ``w`` is the value
    entering after ``family[w]`` and bit ``len(family) + p`` the tag of
    ``others[p]``, its starting value XOR its arriving value (zero when
    the gap is not cut). ``rows[p]`` is the value arriving at ``others[p]``
    and ``family_rows[w]`` the one arriving at ``family[w]``.
    """

    family: tuple[int, ...]
    others: tuple[int, ...]
    wires: tuple[int, ...]
    rows: tuple[int, ...]
    family_rows: tuple[int, ...]


def _slot_systems(c: CircularCircuit, gaps: list[Gap]):
    """Every slot's ``_SlotSystem``, the wrap slot first and then clockwise from slot 0.

    ``gaps`` lists the circuit's gaps by (wire, gap). One X solve with
    every gap cut and each gap's starting class a symbolic input gives
    the value arriving at each gap as a mask over gap starts. Each slot
    then rewrites those masks in traversal order: a family gap's start is
    its wire's input and any other gap's start is its arriving value XOR
    its tag.
    """
    first = list(accumulate((c.symbol_count(w) for w in range(c.wires)), initial=0))
    classes = walk_classes(c, [TARGET] * len(c.gates), None)
    sol = solve_walk(classes, [classes.starting[gap.wire][gap.index] for gap in gaps])
    arriving = [sol[classes.ending[gap.wire][gap.index]] >> 1 for gap in gaps]
    spans = [tuple(span) for span in spanning_gaps(c)]
    n_gates, n_wires = len(spans), c.wires
    for s in (n_gates - 1, *range(n_gates - 1)):
        family = tuple(first[w] + i for w, i in enumerate(spans[s]))
        start: list = [None] * first[-1]  # per gap, its starting value
        for w, k in enumerate(family):
            start[k] = 1 << w
        others, wires, rows = [], [], []
        family_rows = [0] * n_wires
        for x in range(s + 1, s + 1 + n_gates):
            gate, span = c.gates[x % n_gates], spans[x % n_gates]
            for w in (gate.control, gate.target):
                k = first[w] + span[w]
                # the gaps a gap's arriving value reads come before it
                value, mask = 0, arriving[k]
                while mask:
                    low = mask & -mask
                    value ^= start[low.bit_length() - 1]
                    mask ^= low
                if k == family[w]:
                    family_rows[w] = value
                else:
                    start[k] = value ^ 1 << (n_wires + len(others))
                    others.append(k)
                    wires.append(w)
                    rows.append(value)
        yield _SlotSystem(family, tuple(others), tuple(wires), tuple(rows), tuple(family_rows))


def _columns(system: _SlotSystem, extras: tuple[int, ...]) -> list[int]:
    """X columns of the slot's family plus ``others[p]`` for each ``p`` in ``extras``, ascending.

    Qubits are numbered as ``CutTable.arcs`` numbers them from this slot:
    by wire, then by arc clockwise from the family gap. Going through the
    extra cuts in traversal order, each one closes the arc before it, whose
    output reads the arriving value, and fixes its tag to the new input XOR
    that value; every family gap then closes its wire's last arc.
    """
    wires = system.wires
    n_wires = len(system.family)
    counts = [1] * n_wires
    for p in extras:
        counts[wires[p]] += 1
    qubit = list(accumulate(counts, initial=0))  # per wire, its open arc
    known = [(1 << w, 1 << qubit[w]) for w in range(n_wires)]

    def evaluate(row: int) -> int:
        value = 0
        for bit, known_value in known:
            if row & bit:
                value ^= known_value
        return value

    cols = [0] * qubit[-1]
    rows = system.rows
    for p in extras:
        value = evaluate(rows[p])
        w = wires[p]
        cols[qubit[w]] = value
        qubit[w] += 1
        known.append((1 << (n_wires + p), 1 << qubit[w] ^ value))
    for w, row in enumerate(system.family_rows):
        cols[qubit[w]] = evaluate(row)
    return cols


def search_cuts(
    c: CircularCircuit, target: StabiliserMap, max_cuts: int
) -> list[tuple[CutSet, Direction]]:
    """All (cut set, direction) pairs deriving the target map, sorted by gaps, clockwise first.

    Only sizes equal to the target's qubit count can match because every
    cut contributes exactly one qubit, and a cut set linearizes only if it
    holds a radial family. So the candidates are built, not filtered: per
    slot, the slot's radial family plus every choice of the remaining cuts
    among the other gaps. Slots are visited in ``cut_table``'s start
    order (the wrap slot, then clockwise from slot 0); a slot whose family
    an earlier slot had is skipped, and so is a choice that completes an
    earlier slot's family, so each candidate comes once, at the slot whose
    family numbers its qubits.

    A candidate is read off its slot's reduced X system (``_slot_systems``,
    one X solve per search) by substitution over its extra cuts
    (``_columns``), without deriving a map. The counter-clockwise reading
    is the same gate list reversed on the same qubits, and CNOTs are
    self-inverse, so it matches exactly when the clockwise X columns equal
    ``target.inverse()``'s. X columns suffice because the target is checked
    to have Z the inverse transpose of X, as every derived map has; the
    inverse's X columns are then the target's own Z rows, so nothing is
    inverted.

    A target with more qubits than the circuit has gaps returns no match
    before the candidate bound or the target is looked at. Raises
    ``SearchTooLarge``, before building any candidate, when the candidate
    count could exceed ``MAX_SEARCH_CANDIDATES``. Below that bound, and
    still before building anything, a target that is not of that form
    (X·Zᵀ = I, ``is_symplectic``) returns no match: that covers singular
    targets.
    """
    if max_cuts < c.wires:
        raise BudgetTooSmall(f"need at least one cut per wire ({c.wires})")
    need = target.n_qubits
    if need < c.wires or need > max_cuts:
        return []
    n_gaps = sum(c.symbol_count(w) for w in range(c.wires))
    if need > n_gaps:
        return []
    bound = len(c.gates) * comb(n_gaps - c.wires, need - c.wires)
    if bound > MAX_SEARCH_CANDIDATES:
        raise SearchTooLarge(
            f"search could build {quote_int(bound)} candidates, more than {MAX_SEARCH_CANDIDATES}",
            bound=bound,
            limit=MAX_SEARCH_CANDIDATES,
        )
    # every derived map has Z the inverse transpose of X, so a target
    # without that form matches no candidate in either direction, and for
    # one with it equal X columns mean equal maps; its inverse's X columns,
    # (Xᵀ)⁻¹ by rows, are then its Z rows
    if not target.is_symplectic():
        return []
    cw_cols, ccw_cols = target.x_columns(), list(target._z_rows)
    gaps = [Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))]
    n_extra = need - c.wires
    visited: set[tuple[int, ...]] = set()
    found: list[tuple[CutSet, Direction]] = []
    for system in _slot_systems(c, gaps):
        # slots whose gates between them touch only single-symbol wires
        # share a family, and so every candidate
        if system.family in visited:
            continue
        # an extra set holding the rest of an earlier slot's family was a
        # candidate of that slot; with no extra cuts no other family is held
        blockers = []
        if n_extra:
            position = {k: p for p, k in enumerate(system.others)}
            for family in visited:
                rest = [position[k] for k in family if k in position]
                if len(rest) <= n_extra:
                    blockers.append(sum(1 << p for p in rest))
        visited.add(system.family)
        for extras in combinations(range(len(system.others)), n_extra):
            if blockers:
                chosen = 0
                for p in extras:
                    chosen |= 1 << p
                if any(blocker & chosen == blocker for blocker in blockers):
                    continue
            cols = _columns(system, extras)
            cw, ccw = cols == cw_cols, cols == ccw_cols
            if cw or ccw:
                cuts = CutSet.of([gaps[k] for k in system.family] + [gaps[system.others[p]] for p in extras])
                if cw:
                    found.append((cuts, Direction.CW))
                if ccw:
                    found.append((cuts, Direction.CCW))
    # stable: a cut set's clockwise hit stays before its counter-clockwise one
    found.sort(key=lambda hit: hit[0].sorted_gaps())
    return found
