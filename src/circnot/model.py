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

``build_model`` numbers the segments wire by wire, each wire's clockwise
from its first symbol; a wire's head (its symbols before its first
boundary) continues its last segment. ``BooleanModel`` stores them as
integer variables, and a cut model records only its cut gaps.

A model is not solved. ``parity_rows`` lists every X or Z clause, joins
included, as sparse ``(variables, rhs)`` rows for ``circnot model
--parity``.

Derivations, faults and the search build no model and call no solver.
Read in traversal order (``traversal_order``) from a radial slot, each X
clause fixes the segment after its target from segments already met, so
the X equations are solved by substituting along the traversal: each
wire holds the value of the segment it last entered, a gate XORs its
control's value into its target's, an uncut gap is a join, and a cut gap
ends one qubit's arc and starts the next (``_x_columns``). A fault is a
derivation whose missing gate writes nothing.

A CNOT circuit acts symplectically, so its Z map is the inverse transpose
of its X map: Z = (Xᵀ)⁻¹ is one ``gf2.invert`` of the X columns
(``StabiliserMap.from_x``), for a derivation and a fault (``icm``) alike.
The Z model serves ``circnot model``.

``search_cuts`` derives no map per candidate. Per radial slot, the same
walk gives the value arriving at each gap over the slot family's inputs
and one tag bit per other gap (``_slot_systems``), and a candidate's X
columns are a substitution over its extra cuts (``_columns``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import accumulate, combinations
from math import comb
from typing import NamedTuple

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
    segments. The X clause ties the target's split to the control's
    crossing segment, the Z clause the control's split to the target's
    crossing segment, and the combined clause both splits. A join whose two
    variables coincide (a wire with a single boundary) is a tautology and
    is dropped; its gap is already cut-equivalent.
    """
    split = CONTROL if kind is ModelKind.Z else TARGET
    both = kind is ModelKind.COMBINED
    # per gate index: (before, after) at its splitting symbol, and at its
    # other symbol (crossing,), or (before, after) when that splits too
    split_at: list[tuple[int, ...]] = [()] * len(c.gates)
    other_at: list[tuple[int, ...]] = [()] * len(c.gates)
    offsets = [0]
    gap_vars = []
    for syms in c.symbol_tables:
        seg = offsets[-1]
        # the head continues the wire's last segment
        prev = seg + len(syms) + sum(1 for _, sk in syms if both or sk is split) - 1
        pairs = []
        for gi, sk in syms:
            at = split_at if sk is split else other_at
            if both or sk is split:
                at[gi] = (prev, seg)
                prev, seg = seg, seg + 1
            else:
                at[gi] = (prev,)
            pairs.append((prev, seg))
            prev, seg = seg, seg + 1
        offsets.append(seg)
        gap_vars.append(tuple(pairs))
    if both:  # control (the other symbol) first
        gate_vars = map(tuple.__add__, other_at, split_at)
    else:
        gate_vars = map(tuple.__add__, split_at, other_at)
    return BooleanModel(
        kind=kind,
        offsets=tuple(offsets),
        gate_vars=tuple(gate_vars),
        gate_ids=tuple(g.id for g in c.gates),
        gap_vars=tuple(gap_vars),
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

    Checks the cut set once (``cut_table``; no gates are emitted) and
    substitutes the X equations along the traversal (``_x_columns``; no
    model is built and no solver is called). A set bit in an output column
    means the output qubit carries that Pauli kind; signs are out of model.
    A CNOT circuit acts symplectically, so Z is the inverse transpose of X,
    read off one ``gf2.invert`` of the X columns instead of a second solve.
    ``models`` is accepted for callers that still pass an (X, Z) pair and
    is not read.
    """
    return StabiliserMap.from_x(_x_columns(c, cut_table(c, cuts), d))


def _x_columns(c: CircularCircuit, table: CutTable, d: Direction, missing: int | None = None) -> list[int]:
    """X columns of the table's derivation: per output qubit, its mask over the inputs.

    Substitutes the X equations along the traversal from the table's start
    slot. Each wire holds the value of the segment it last entered, at
    first its family gap's input. A gate XORs its control's value into its
    target's, and the traversal then meets the gap next to each of its
    symbols: after it clockwise, before it counter-clockwise. An uncut gap
    is a join. A cut gap ends one qubit's arc, whose output column takes
    the value, and starts the next, whose input bit the wire then holds.
    Qubits are numbered by ``CutTable.arcs``, as ``linearize`` numbers
    them; counter-clockwise an arc starts at its clockwise end cut. A
    ``missing`` gate index (``icm.faulted_transformations``) writes nothing.
    """
    starts, ends = table.arcs()
    if d is Direction.CCW:
        starts, ends = ends, starts
    ending = {cut: q for q, cut in enumerate(ends)}
    symbols = c.symbol_tables
    # per wire and gap: None when uncut, else the qubit whose arc ends there
    # and the input bit of the one starting there
    at: list[list[tuple[int, int] | None]] = [[None] * len(syms) for syms in symbols]
    for q, (w, i) in enumerate(starts):
        at[w][i] = (ending[w, i], 1 << q)
    # per gate index, the gap met next to its control symbol and its target symbol
    at_control: list = [None] * len(c.gates)
    at_target: list = [None] * len(c.gates)
    for syms, gaps in zip(symbols, at):
        for i, (gi, sk) in enumerate(syms, 0 if d is Direction.CW else -1):
            (at_target if sk is TARGET else at_control)[gi] = gaps[i]
    value = [gaps[wire_cuts[k]][1] for gaps, wire_cuts, k in zip(at, table.cuts, table.anchors)]
    cols = [0] * len(starts)
    gates = c.gates
    for gi in traversal_order(c, table.start, d):
        g = gates[gi]
        control, target = g.control, g.target
        if gi != missing:
            value[target] ^= value[control]
        cut = at_control[gi]
        if cut:
            cols[cut[0]], value[control] = value[control], cut[1]
        cut = at_target[gi]
        if cut:
            cols[cut[0]], value[target] = value[target], cut[1]
    return cols


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


def _slot_systems(c: CircularCircuit):
    """Every slot's ``_SlotSystem``, the wrap slot first and then clockwise from slot 0.

    Per slot, one walk in traversal order substitutes the X equations as
    ``_x_columns`` does, with symbols for inputs: each wire starts with its
    family input bit, and a gate XORs its control's value into its
    target's. At the gap after each symbol, a family gap records the
    arriving value in ``family_rows``; any other gap appends it to
    ``rows``, and the wire's value then XORs in that gap's tag.
    """
    first = list(accumulate((c.symbol_count(w) for w in range(c.wires)), initial=0))
    spans = [tuple(span) for span in spanning_gaps(c)]
    n_gates, n_wires = len(spans), c.wires
    for s in (n_gates - 1, *range(n_gates - 1)):
        family = tuple(first[w] + i for w, i in enumerate(spans[s]))
        value = [1 << w for w in range(n_wires)]
        others, wires, rows = [], [], []
        family_rows = [0] * n_wires
        for x in range(s + 1, s + 1 + n_gates):
            gate, span = c.gates[x % n_gates], spans[x % n_gates]
            value[gate.target] ^= value[gate.control]
            for w in (gate.control, gate.target):
                k = first[w] + span[w]
                if k == family[w]:
                    family_rows[w] = value[w]
                else:
                    rows.append(value[w])
                    value[w] ^= 1 << (n_wires + len(others))
                    others.append(k)
                    wires.append(w)
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
    one walk per slot) by substitution over its extra cuts
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
    for system in _slot_systems(c):
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
