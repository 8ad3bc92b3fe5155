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
Read in clockwise order (``traversal_order``) from a radial slot, each X
clause fixes the segment after its target from segments already met, so
the X equations are solved by substituting along the traversal: each
wire holds the value of the segment it last entered, a gate XORs its
control's value into its target's, an uncut gap is a join, and a cut gap
ends one qubit's arc and starts the next (``_x_columns``). A fault is a
derivation whose missing gate writes nothing.

A CNOT circuit acts symplectically, so its Z map is the inverse transpose
of its X map: Z = (Xᵀ)⁻¹ is one ``gf2.invert`` of the X columns
(``StabiliserMap.from_x``), for a derivation and a fault (``icm``) alike.
The Z model serves ``circnot model``. Every walk runs clockwise: a
counter-clockwise reading is the clockwise gate list reversed on the same
qubits, and CNOTs are self-inverse, so its map is the clockwise one's
``StabiliserMap.inverse``.

``search_hits`` derives no map per candidate. Per radial slot, the same
walk gives the value arriving at each gap over the slot family's inputs
and one tag bit per other gap (``_slot_system``). A depth-first walk over
the other gaps then chooses the extra cuts (``_walk_slot``), checking
each arc's X column against the target and against the target's inverse
as its cut closes it. Its hits are ``(wire, gap)`` pairs and a direction;
``search_cuts`` reads them back as cut sets.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain
from math import comb
from typing import NamedTuple

from .circuits import (
    CircularCircuit,
    CutSet,
    CutTable,
    Direction,
    Gap,
    gaps_by_wire,
    spanning_gaps,
    traversal_order,
    validate_cut_set,
)
from .errors import (
    BudgetTooSmall,
    DuplicateCut,
    NotAdjacent,
    SearchTooLarge,
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
    variables of gate ``k``: (split-before, split-after, crossing) in X and
    Z, (control-before, control-after, target-before, target-after) combined.
    ``gap_vars[w][i]`` is the (ending, starting) variable pair of gap
    ``(w, i)``. ``apply_cuts`` records only ``cut_gaps``; the joins the
    cuts leave are listed by ``joins``.
    """

    kind: ModelKind
    offsets: tuple[int, ...]
    gate_vars: tuple[tuple[int, ...], ...]
    gap_vars: tuple[tuple[tuple[int, int], ...], ...]
    cut_gaps: frozenset[Gap] = frozenset()

    @property
    def n_vars(self) -> int:
        return self.offsets[-1]

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
    split_control = kind is ModelKind.Z
    both = kind is ModelKind.COMBINED
    # per gate index: (before, after) at its splitting symbol, and at its
    # other symbol (crossing,), or (before, after) when that splits too
    split_at: list[tuple[int, ...]] = [()] * len(c.gates)
    other_at: list[tuple[int, ...]] = [()] * len(c.gates)
    offsets = [0]
    gap_vars = []
    for w in range(c.wires):
        # per symbol, its gate index and whether it has the splitting kind:
        # the control in the Z model, the target in X and combined
        syms = [(gi, (c.gates[gi].control == w) == split_control) for gi in c.symbols(w)]
        seg = offsets[-1]
        # the head continues the wire's last segment
        prev = seg + len(syms) + sum(1 for _, splits in syms if both or splits) - 1
        pairs = []
        for gi, splits in syms:
            at = split_at if splits else other_at
            if both or splits:
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
        gap_vars=tuple(gap_vars),
    )


def apply_cuts(m: BooleanModel, cuts: CutSet) -> BooleanModel:
    """Remove the join clauses of the cut gaps; variables stay put.

    Raises ``UnknownGap`` naming the least gap the model does not have,
    then ``DuplicateCut`` for the least gap already cut. Cutting a gap
    whose self-join was already dropped is a no-op beyond marking the gap
    as cut (the gap was cut-equivalent from the start).
    """
    gaps_by_wire([len(pairs) for pairs in m.gap_vars], cuts)
    for gap in cuts.sorted_gaps():
        if gap in m.cut_gaps:
            raise DuplicateCut(f"wire {quote_int(gap.wire)} gap {quote_int(gap.index)} already cut")
    return replace(m, cut_gaps=m.cut_gaps | cuts.gaps())


def parity_rows(m: BooleanModel) -> list[tuple[tuple[int, ...], int]]:
    """Every clause as sparse ``(variables, rhs)`` parity rows (requiring it true).

    A row is ``(variables, 0)``: one per gate, in gate order, then one per
    ``m.joins``. A combined clause is an X or a Z clause by a selector that
    no model pins, so a combined model with a gate raises UnpinnedSelector.
    """
    if m.kind is ModelKind.COMBINED and m.gate_vars:
        raise UnpinnedSelector("combined clause for gate 0 has no selector")
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

    Checks the cut set once (``validate_cut_set``; no gates are emitted) and
    substitutes the X equations along the traversal (``_x_columns``; no
    model is built and no solver is called). A set bit in an output column
    means the output qubit carries that Pauli kind; signs are out of model.
    A CNOT circuit acts symplectically, so Z is the inverse transpose of X,
    read off one ``gf2.invert`` of the X columns instead of a second solve;
    counter-clockwise, the map is its ``inverse()``. ``models`` is accepted
    for callers that still pass an (X, Z) pair and is not read.
    """
    table = validate_cut_set(c, cuts)
    m = StabiliserMap.from_x(_x_columns(c, table, _cut_ends(c, table)))
    return m if d is Direction.CW else m.inverse()


def _cut_ends(c: CircularCircuit, table: CutTable) -> tuple[list[list[tuple[int, int] | None]], int]:
    """Per wire and gap, None when uncut, else the qubits a clockwise traversal leaves and enters there; and the qubit count.

    Qubits are numbered as ``CutTable`` orders the cuts and ``linearize``
    numbers them: a wire's ``j``-th cut ends its ``(j - 1)``-th arc,
    cyclically, and starts its ``j``-th, so a traversal leaves the ending
    arc and enters the starting one.
    """
    at: list[list[tuple[int, int] | None]] = [[None] * c.symbol_count(w) for w in range(c.wires)]
    q = 0
    for row, wire_cuts in zip(at, table.cuts):
        k = len(wire_cuts)
        for j, i in enumerate(wire_cuts):
            row[i] = (q + (j - 1) % k, q + j)
        q += k
    return at, q


def _x_columns(
    c: CircularCircuit,
    table: CutTable,
    cut_ends: tuple[list[list[tuple[int, int] | None]], int],
    missing: int | None = None,
) -> list[int]:
    """X columns of the table's clockwise derivation: per output qubit, its mask over the inputs.

    Substitutes the X equations along the traversal from the table's start
    slot. Each wire holds the value of the segment it last entered, at
    first its family gap's input. A gate XORs its control's value into its
    target's, and the traversal then meets the gap after the gate's symbol
    on each of its two wires. An uncut gap is a join. A cut gap ends one
    qubit's arc, whose output column takes the value, and starts the next,
    whose input bit the wire then holds. The qubits at each cut gap are
    read off ``cut_ends``, the table's ``_cut_ends``. A ``missing`` gate
    index (``icm.faulted_transformations``) writes nothing.

    Each wire's cursor on the gap it met last steps once per gate passing
    the wire, from a lap below its family gap (its index minus the wire's
    symbol count): it meets each gap once, the family gap (its first cut)
    last, and indexes the gap list with no modulo.
    """
    at, n = cut_ends
    pos = [wire_cuts[0] - len(gaps) for gaps, wire_cuts in zip(at, table.cuts)]
    value = [1 << gaps[p][1] for gaps, p in zip(at, pos)]
    cols = [0] * n
    gates = c.gates
    for gi in traversal_order(c, table.start):
        g = gates[gi]
        control, target = g.control, g.target
        if gi != missing:
            value[target] ^= value[control]
        p = pos[control] = pos[control] + 1
        cut = at[control][p]
        if cut:
            cols[cut[0]], value[control] = value[control], 1 << cut[1]
        p = pos[target] = pos[target] + 1
        cut = at[target][p]
        if cut:
            cols[cut[0]], value[target] = value[target], 1 << cut[1]
    return cols


def check_commutation_invariance(c: CircularCircuit, g1: int, g2: int) -> bool:
    """Whether swapping the cyclically adjacent gates ``g1`` and ``g2`` (indices) preserves every map.

    A circular circuit stands for every cyclic rotation of its gate list, so
    the swap is invariant when every radial reading that keeps the pair
    together keeps its map (a cut between the pair separates the gates
    instead of commuting them). Each such map has the form A·(g_b·g_a)·B,
    where A and B are the invertible maps of the gates read after and before
    the pair. So every reading keeps its map exactly when the two CNOTs
    commute over GF(2), and two CNOTs fail to commute only when one gate's
    target is the other's control.
    """
    ga, gb = c.gates[c.gate_index(g1)], c.gates[c.gate_index(g2)]
    if g1 == g2 or {g1, g2} not in ({a, b} for a, b in c.slots()):
        raise NotAdjacent(f"gates {quote_int(g1)} and {quote_int(g2)} are not cyclically adjacent")
    return not (ga.target == gb.control or gb.target == ga.control)


MAX_SEARCH_CANDIDATES = 100_000
"""Most candidates a search may stand for; a larger search is refused.

The bound is slots × C(gaps − wires, need − wires), every candidate that
an unpruned search would read. The walk holds only its hits, one slot's
reduced system and the branch it is on, and it prunes least where many
placements of the extra cuts stay alive. Measured with Python 3.11 on a
shared 2-vCPU Xeon, the worst cases found under the limit take about
half a second: a ring of 307 wires (``cnot w w+1``) for one extra cut
(94,249 by the bound, no hit) in 0.33-0.53 s, and the identity on
``cnot 0 1`` × 36 for 4 cuts (86,940 by the bound) in 0.25-0.40 s, its
39,780 hits raising peak RSS from 28 to 40 MB. Past the limit, a random
3-wire, 37-gate circuit searched for one of its 6-cut readings
(2,114,735 by the bound) takes 0.013 s once the limit is lifted: the
bound no longer measures the walk's cost.
"""


class _SlotSystem(NamedTuple):
    """The X system of one radial slot, reduced for ``search_hits``.

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


def _slot_families(c: CircularCircuit) -> list[tuple[int, ...]]:
    """Per slot, its radial family: the gap spanning it on each wire, numbered by (wire, gap)."""
    first = list(accumulate((c.symbol_count(w) for w in range(c.wires)), initial=0))
    return [tuple(first[w] + i for w, i in enumerate(span)) for span in spanning_gaps(c)]


def _slot_system(c: CircularCircuit, families: list[tuple[int, ...]], s: int) -> _SlotSystem:
    """Slot ``s``'s ``_SlotSystem``, ``families`` being ``_slot_families(c)``.

    One walk in traversal order substitutes the X equations as
    ``_x_columns`` does, with symbols for inputs: each wire starts with its
    family input bit, and a gate XORs its control's value into its
    target's. At the gap after each symbol (the gate's own slot's family
    gap on that wire), a family gap records the arriving value in
    ``family_rows``; any other gap appends it to ``rows``, and the wire's
    value then XORs in that gap's tag.
    """
    family = families[s]
    n_wires = c.wires
    value = [1 << w for w in range(n_wires)]
    others, wires, rows = [], [], []
    family_rows = [0] * n_wires
    tag = 1 << n_wires
    gates = c.gates
    for x in traversal_order(c, s):
        gate, after = gates[x], families[x]
        value[gate.target] ^= value[gate.control]
        for w in (gate.control, gate.target):
            k = after[w]
            if k == family[w]:
                family_rows[w] = value[w]
            else:
                rows.append(value[w])
                value[w] ^= tag
                tag <<= 1
                others.append(k)
                wires.append(w)
    return _SlotSystem(family, tuple(others), tuple(wires), tuple(rows), tuple(family_rows))


def _compositions(caps: list[int], total: int) -> list[tuple[tuple[int, int], ...]]:
    """Every way to share ``total`` extra cuts among the wires, at most ``caps[w]`` on wire ``w``.

    A way is its ``(wire, count)`` pairs with a count above zero, by wire.
    """
    room = list(accumulate(reversed(caps), initial=0))[::-1]  # room[w]: the most wires w on take
    if total > room[0]:
        return []
    n = len(caps)
    counts = [0] * n
    out = []

    def fill(start: int, left: int) -> None:
        # each wire from ``start`` on takes the least that leaves room for the rest
        for w in range(start, n):
            counts[w] = max(0, left - room[w + 1])
            left -= counts[w]
        out.append(tuple((w, k) for w, k in enumerate(counts) if k))

    fill(0, total)
    while True:
        # the last wire that can take one more cut from the wires after it
        left = 0
        for w in range(n - 1, -1, -1):
            left += counts[w]
            if counts[w] < caps[w] and counts[w] < left:
                counts[w] += 1
                fill(w + 1, left - counts[w])
                break
        else:
            return out


def _evaluate(row: int, segments: list[tuple[int, int]], tags: list[tuple[int, int]]) -> int:
    """A slot-system value given the inputs' qubits and the tags chosen so far.

    ``segments`` moves each run of input bits up to its qubits, and
    ``tags`` pairs each cut's tag bit with the tag's value.
    """
    value = 0
    for mask, shift in segments:
        value ^= (row & mask) << shift
    for bit, tag in tags:
        if row & bit:
            value ^= tag
    return value


def _walk_slot(
    system: _SlotSystem,
    compositions: list[tuple[tuple[int, int], ...]],
    cw_cols: list[int],
    ccw_cols: list[int],
    mask: int,
    earlier: Iterable[int],
):
    """Yield every choice of extra cuts on the slot whose X columns are ``cw_cols`` or ``ccw_cols``.

    Yields ``(extras, cw, ccw)``: the extra gaps, in traversal order, and
    which of the two the columns equal. Qubits are numbered as
    ``CutTable`` numbers them from the slot: by wire, then by arc
    clockwise from the family gap, so a composition (``_compositions``)
    fixes every qubit number; wire ``w``'s first arc is qubit ``w`` plus
    the extra cuts on the wires before it. Per composition, the walk goes
    through ``others`` in traversal order and decides for each gap on a
    wire that takes extra cuts whether to cut it. A cut closes its wire's
    open arc, whose column is the arriving value over the inputs and the
    tags chosen so far, and sets its tag to the next arc's input XOR that
    value; an uncut gap's tag is zero. A branch whose columns so far match
    neither direction is dropped, and so is one that leaves a wire fewer
    gaps than it still needs. At a leaf every family gap closes its wire's
    last arc. ``mask`` is the slot's family and ``earlier`` the families of
    earlier slots, as masks over gaps; a choice whose extra cuts hold the
    rest of an earlier family, so that the family and the extra cuts cover
    it, is skipped.
    """
    others, wires, rows, family_rows = system.others, system.wires, system.rows, system.family_rows
    n_wires = len(system.family)
    on_wire: list[list[int]] = [[] for _ in range(n_wires)]
    for p, w in enumerate(wires):
        on_wire[w].append(p)
    rest = [0] * len(wires)  # per position, the later positions on its wire
    for positions in on_wire:
        for k, p in enumerate(reversed(positions)):
            rest[p] = k
    for composition in compositions:
        # an input bit moves up by the extra cuts on the wires before its
        # wire: one (input mask, shift) segment per run of wires
        segments = []
        qubit = {}  # per wire taking extra cuts, its open arc
        left = {}  # and the extra cuts it still needs
        shift = low = 0
        for w, k in composition:
            segments.append(((1 << (w + 1)) - (1 << low), shift))
            qubit[w] = w + shift
            left[w] = k
            shift += k
            low = w + 1
        segments.append(((1 << n_wires) - (1 << low), shift))
        live = sorted(chain.from_iterable(on_wire[w] for w in left))
        n_live = len(live)
        remaining = shift
        tags: list[tuple[int, int]] = []  # per cut, its tag bit and the tag's value
        trail: list[tuple[int, bool, bool]] = []  # per cut, its index in ``live`` and the flags before it
        cw_ok = ccw_ok = True
        i = 0
        while True:
            while remaining and i < n_live:
                p = live[i]
                w = wires[p]
                need = left[w]
                if need:
                    value = _evaluate(rows[p], segments, tags)
                    q = qubit[w]
                    cw = cw_ok and value == cw_cols[q]
                    ccw = ccw_ok and value == ccw_cols[q]
                    if cw or ccw:
                        trail.append((i, cw_ok, ccw_ok))
                        tags.append((1 << (n_wires + p), 1 << (q + 1) ^ value))
                        qubit[w] = q + 1
                        left[w] = need - 1
                        remaining -= 1
                        cw_ok, ccw_ok = cw, ccw
                    elif rest[p] < need:
                        break
                i += 1
            if not remaining:
                # wire w's last arc is qubit w plus the extra cuts up to its own
                cw, ccw = cw_ok, ccw_ok
                up = 0
                for w, row in enumerate(family_rows):
                    if w in qubit:
                        up = qubit[w] - w
                    value = _evaluate(row, segments, tags)
                    cw = cw and value == cw_cols[w + up]
                    ccw = ccw and value == ccw_cols[w + up]
                    if not (cw or ccw):
                        break
                else:
                    extras = [others[live[cut[0]]] for cut in trail]
                    # with no extra cuts no other family is held
                    uncut = ~(mask | sum(1 << k for k in extras))
                    if not extras or all(other & uncut for other in earlier):
                        yield extras, cw, ccw
            # undo the latest cut and leave its gap uncut instead, if its wire can spare it
            while trail:
                i, cw_ok, ccw_ok = trail.pop()
                tags.pop()
                p = live[i]
                w = wires[p]
                qubit[w] -= 1
                left[w] += 1
                remaining += 1
                if rest[p] >= left[w]:
                    i += 1
                    break
            else:
                break


def search_cuts(
    c: CircularCircuit, target: StabiliserMap, max_cuts: int
) -> list[tuple[CutSet, Direction]]:
    """All (cut set, direction) pairs deriving the target map, sorted by gaps, clockwise first.

    ``search_hits``, with each hit's gaps read back as a ``CutSet``. Raises
    as ``search_hits`` does.
    """
    return [(CutSet.of(gaps), d) for gaps, d in search_hits(c, target, max_cuts)]


def search_hits(
    c: CircularCircuit, target: StabiliserMap, max_cuts: int
) -> list[tuple[tuple[tuple[int, int], ...], Direction]]:
    """All (gaps, direction) pairs deriving the target map, sorted by gaps, clockwise first.

    A hit's gaps are its cuts as ascending ``(wire, gap)`` pairs, one
    tuple shared by both directions when both derive the target. No
    ``Gap`` or ``CutSet`` is built: ``circnot search`` prints the pairs as
    they are, and ``search_cuts`` builds a ``CutSet`` per hit.

    Only sizes equal to the target's qubit count can match because every
    cut contributes exactly one qubit, and a cut set linearizes only if it
    holds a radial family. So the candidates are each slot's radial family
    plus a choice of the remaining cuts among the other gaps. Slots are
    visited in ``validate_cut_set``'s start order (the wrap slot, then clockwise
    from slot 0); a slot whose family an earlier slot had is skipped before
    its system is built, and so is a choice that completes an earlier
    slot's family, so each candidate comes once, at the slot whose family
    numbers its qubits.

    Each slot's X system is reduced once (``_slot_system``), and the extra
    cuts are chosen by a depth-first walk over it (``_walk_slot``), once
    per way of sharing them among the wires (``_compositions``, computed
    once per search). The walk checks each arc's X column as its cut
    closes it and drops a branch as soon as a column matches the target in
    neither direction. The counter-clockwise map is the inverse of the
    clockwise one, so a candidate matches counter-clockwise exactly when
    its clockwise X columns equal those of ``target.inverse()``. X columns
    suffice because the target is checked to have Z the inverse transpose
    of X, as every derived map has.

    A target with more qubits than the circuit has gaps returns no match
    before the candidate bound or the target is looked at. Raises
    ``BudgetTooSmall`` when ``max_cuts`` is below the wire count, and
    ``SearchTooLarge``, before walking anything, when the candidate count
    could exceed ``MAX_SEARCH_CANDIDATES``. Below that bound, and still
    before walking anything, a target that is not of that form (X·Zᵀ = I,
    ``is_symplectic``) returns no match: that covers singular targets.
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
    # every derived map has Z the inverse transpose of X: a target without
    # that form matches no candidate, and for one with it X decides equality
    if not target.is_symplectic():
        return []
    cw_cols, ccw_cols = target.x_columns(), target.inverse().x_columns()
    n_extra = need - c.wires
    compositions = _compositions([c.symbol_count(w) - 1 for w in range(c.wires)], n_extra)
    families = _slot_families(c)
    visited: dict[tuple[int, ...], int] = {}  # per family walked, its mask over gaps
    hits: list[tuple[list[int], bool, bool]] = []
    n_slots = len(families)
    for s in (n_slots - 1, *range(n_slots - 1)):
        family = families[s]
        # slots whose gates between them touch only single-symbol wires
        # share a family, and so every candidate
        if family in visited:
            continue
        mask = sum(1 << k for k in family)
        system = _slot_system(c, families, s)
        # an extra set holding the rest of an earlier slot's family was a
        # candidate of that slot; the walk reads ``visited`` as it goes, so
        # this slot's family joins it only after the walk
        for extras, cw, ccw in _walk_slot(system, compositions, cw_cols, ccw_cols, mask, visited.values()):
            hits.append((sorted((*family, *extras)), cw, ccw))
        visited[family] = mask
    # gaps numbered by (wire, gap) sort as the gaps do; each cut set is one hit
    hits.sort()
    first = list(accumulate((c.symbol_count(w) for w in range(c.wires)), initial=0))
    found: list[tuple[tuple[tuple[int, int], ...], Direction]] = []
    for numbers, cw, ccw in hits:
        pairs = []
        for k in numbers:
            w = bisect_right(first, k) - 1
            pairs.append((w, k - first[w]))
        gaps = tuple(pairs)
        if cw:
            found.append((gaps, Direction.CW))
        if ccw:
            found.append((gaps, Direction.CCW))
    return found
