"""Circular and linear CNOT circuits, cut enumeration, and rewiring.

A circular circuit is its gate list read around a circle: a gate's index
in the list is its place, clockwise is increasing index, and the cyclic
rotations of the list are the linear circuits the one circle stands for.
Every wire is a closed loop passing all gates. A wire carries a control
symbol at each gate that controls from it and a target symbol at each gate
that targets it. A circuit's symbol table for a wire lists only the index
of each symbol's gate, clockwise (``CircularCircuit.symbols``); a symbol's
kind is read off its gate where it is needed. Gaps sit between cyclically
adjacent symbols of one wire and are the only legal cut locations. Gap
``(w, i)`` is the gap that follows wire ``w``'s ``i``-th symbol in
clockwise order. A linear circuit's gate list is its time order.

``validate_cut_set`` is the one place that checks a cut set and numbers
its qubits: it lists the cut gap indices by wire (``gaps_by_wire``, the
gap range check that ``dot`` and ``model.apply_cuts`` share) and picks the
slot a linearization starts from. Each arc between consecutive cuts is one
qubit, numbered by wire, then clockwise from that slot's family gap, the
order in which ``CutTable`` lists each wire's cuts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from operator import index
from typing import NamedTuple

from .errors import (
    ControlEqualsTarget,
    DuplicateCut,
    DuplicateGate,
    EmptyCutSet,
    EmptyWire,
    NoRadialCut,
    UnknownGap,
    UnknownGate,
    WireOutOfRange,
    quote,
    quote_int,
)

class Direction(Enum):
    CW = "cw"
    CCW = "ccw"

    @classmethod
    def parse(cls, text: str) -> "Direction":
        """The direction spelled exactly ``cw`` or ``ccw``, as ``--dir`` takes it; else ``ValueError``."""
        return cls(text)


@dataclass(frozen=True, order=True, slots=True)
class Gap:
    """Potential cut point: the gap following symbol ``index`` on ``wire``, both read as ints."""

    wire: int
    index: int

    def __post_init__(self):
        if type(self.wire) is not int or type(self.index) is not int:
            for field, name in (("wire", "wire"), ("index", "gap")):
                value = getattr(self, field)
                try:
                    object.__setattr__(self, field, index(value))
                except TypeError:
                    raise UnknownGap(f"cut {name} {quote(repr(value))} is not an integer") from None


@dataclass(frozen=True, order=True)
class CutPoint:
    gap: Gap


@dataclass(frozen=True)
class CutSet:
    cuts: frozenset[Gap]

    @classmethod
    def of(cls, items) -> "CutSet":
        """Build from Gaps or (wire, gap) pairs; rejects repeats."""
        gaps = []
        for item in items:
            if not isinstance(item, Gap):
                w, i = item
                item = Gap(w, i)
            gaps.append(item)
        cuts = frozenset(gaps)
        if len(cuts) != len(gaps):
            seen: set[Gap] = set()
            for dup in gaps:  # the first repeat in the given order
                if dup in seen:
                    break
                seen.add(dup)
            raise DuplicateCut(f"cut repeated at wire {quote_int(dup.wire)} gap {quote_int(dup.index)}")
        return cls(cuts)

    def gaps(self) -> frozenset[Gap]:
        return self.cuts

    def sorted_gaps(self) -> tuple[Gap, ...]:
        return tuple(sorted(self.cuts))

    def __len__(self) -> int:
        return len(self.cuts)

    def __contains__(self, gap: Gap) -> bool:
        return gap in self.cuts


@dataclass(frozen=True, slots=True)
class CNOTGate:
    id: int
    control: int
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise ControlEqualsTarget(f"gate {self.id}: control == target == {quote_int(self.control)}")


@dataclass(frozen=True)
class CircularCircuit:
    """Closed-loop CNOT circuit: no inputs, no outputs.

    ``gates`` is the clockwise order; every wire must carry at least one
    symbol (segmentation is undefined for bare loops).
    """

    wires: int
    gates: tuple[CNOTGate, ...]

    def __post_init__(self):
        if self.wires < 1:
            raise WireOutOfRange(f"a circular circuit needs at least one wire, got {quote_int(self.wires)}")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        ids: set[int] = set()
        # symbol tables: per wire, the indices of the gates it passes, clockwise
        symbols: list[list[int]] = [[] for _ in range(self.wires)]
        for gi, g in enumerate(gates):
            # faults and the commutation check find a gate by its id
            if g.id in ids:
                raise DuplicateGate(f"gate id {quote_int(g.id)} repeated")
            ids.add(g.id)
            for w in (g.control, g.target):
                if not 0 <= w < self.wires:
                    raise WireOutOfRange(f"gate {g.id} references wire {quote_int(w)} of {self.wires}")
            symbols[g.control].append(gi)
            symbols[g.target].append(gi)
        empty = [w for w, row in enumerate(symbols) if not row]
        if empty:
            raise EmptyWire(empty)
        object.__setattr__(self, "_symbols", tuple(map(tuple, symbols)))

    def symbols(self, wire: int) -> tuple[int, ...]:
        """Clockwise, the index of the gate at each of a wire's symbols.

        A symbol's kind is read off its gate: it is a control symbol when
        ``gates[gi].control == wire``, else a target symbol.
        """
        return self._symbols[wire]

    def symbol_count(self, wire: int) -> int:
        return len(self._symbols[wire])

    def gate_index(self, gate_id: int) -> int:
        """Index of the gate with the given id (ids are distinct)."""
        for gi, g in enumerate(self.gates):
            if g.id == gate_id:
                return gi
        raise UnknownGate(f"no gate with id {quote_int(gate_id)}")

    def slots(self) -> tuple[tuple[int, int], ...]:
        """Angular slots as (gate index before, gate index after).

        Slot ``j`` lies strictly between gates ``j`` and ``j + 1``; the last
        slot wraps back to gate 0.
        """
        n = len(self.gates)
        return tuple((j, (j + 1) % n) for j in range(n))

    def gap_spanning(self, wire: int, slot: int) -> Gap:
        """The unique gap on ``wire`` whose arc covers the given slot.

        It follows the wire's last symbol at or before gate ``slot``, or its
        last symbol when it has none there.
        """
        if not 0 <= wire < self.wires:
            raise WireOutOfRange(f"no wire {quote_int(wire)} in {self.wires} wires")
        if not 0 <= slot < len(self.gates):
            raise ValueError(f"slot {slot} outside 0..{len(self.gates) - 1}")
        syms = self._symbols[wire]
        return Gap(wire, (bisect_right(syms, slot) - 1) % len(syms))


@dataclass(frozen=True, slots=True)
class LinearGate:
    control: int
    target: int
    source: int | None = None


@dataclass(frozen=True)
class LinearCircuit:
    """Open CNOT circuit; ``gates`` is the time order, so a gate's time is its index."""

    n_qubits: int
    gates: tuple[LinearGate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for t, g in enumerate(self.gates):
            if g.control == g.target:
                raise ControlEqualsTarget(f"gate at t={t}: control == target")
        for t, g in enumerate(self.gates):
            for q in (g.control, g.target):
                if not 0 <= q < self.n_qubits:
                    raise WireOutOfRange(f"gate at t={t} references qubit {quote_int(q)} of {self.n_qubits}")

    def gate_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((g.control, g.target) for g in self.gates)

    def times_on(self, qubit: int) -> tuple[int, ...]:
        return tuple(t for t, g in enumerate(self.gates) if qubit in (g.control, g.target))


@dataclass(frozen=True)
class JoinRecord:
    """Endpoint pairings produced by circularization.

    ``joins`` are cross-joins (consumer input, producer output) chosen by the
    neighbour scan; ``loops`` close each remaining chain onto itself and
    degenerate to self-loops for unmatched qubits. ``wire_of`` maps every
    source qubit to its circular wire and ``seam`` is the radial cut set that
    undoes the construction.
    """

    joins: tuple[tuple[int, int], ...]
    loops: tuple[tuple[int, int], ...]
    wire_of: tuple[int, ...]
    seam: CutSet


def enumerate_cut_points(c: CircularCircuit) -> list[CutPoint]:
    """All potential cuts, ordered by (wire, gap index)."""
    return [
        CutPoint(Gap(w, i))
        for w in range(c.wires)
        for i in range(c.symbol_count(w))
    ]


def spanning_gaps(c: CircularCircuit):
    """Sweep the slots clockwise: per slot, the gap spanning it on each wire.

    Yields one list per slot, updated in place between slots, whose entry
    ``w`` is the index of the gap on wire ``w`` whose arc covers the slot:
    the gap after the wire's last symbol at or before the slot, or after its
    last symbol when it has none there. Callers keep a copy, not the list.
    """
    counts = [c.symbol_count(w) for w in range(c.wires)]
    span = [k - 1 for k in counts]
    for g in c.gates:
        for w in (g.control, g.target):
            span[w] = (span[w] + 1) % counts[w]
        yield span


def _radial_families(c: CircularCircuit, on_wire: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """The first radial slot clockwise, with the position of its spanning gap in each wire's list.

    ``on_wire`` lists each wire's cut gap indices, which exist; raises
    ``NoRadialCut`` when no slot is radial. Gap ``(w, i)`` spans the slots
    from its symbol's gate index up to the next symbol's, cyclically. Each
    wire ORs its cut gaps' slot masks; the radial slots are in every mask.
    """
    n_gates = len(c.gates)
    radial = full = (1 << n_gates) - 1
    spans: list[list[int]] = [[] for _ in on_wire]  # per wire, each cut gap's slot mask
    masks = [0] * c.wires
    for w, (wire_cuts, syms) in enumerate(zip(on_wire, c._symbols)):
        for i in wire_cuts:
            lo, hi = syms[i], syms[(i + 1) % len(syms)]
            span = (1 << hi) - (1 << lo) if lo < hi else full ^ ((1 << lo) - (1 << hi))
            spans[w].append(span)
            masks[w] |= span
    for mask in masks:
        radial &= mask
    if radial:
        low = radial & -radial
        return low.bit_length() - 1, tuple(next(k for k, span in enumerate(on) if span & low) for on in spans)
    missing = {
        slot: tuple(w for w, mask in enumerate(masks) if not mask >> slot & 1)
        for slot in range(n_gates)
    }
    uncut_everywhere = sorted(set(range(c.wires)).intersection(*missing.values()))
    raise NoRadialCut(
        f"no slot is cut across all wires (wires never cut at any slot: {uncut_everywhere})",
        missing_by_slot=missing,
    )


class CutTable(NamedTuple):
    """A checked cut set, by wire in qubit order, and the slot a linearization starts from.

    ``cuts[w]`` lists wire ``w``'s cut gap indices clockwise from the
    ``start`` slot's family gap. The arc after wire ``w``'s ``j``-th cut is
    qubit ``j`` plus the number of cuts on the wires before ``w``.
    """

    start: int
    cuts: list[list[int]]


def gaps_by_wire(counts, cuts: CutSet) -> list[list[int]]:
    """Per wire, its cut gap indices ascending, for wires carrying ``counts[w]`` symbols each.

    Raises ``UnknownGap`` naming the least cut gap outside those counts.
    """
    on_wire: list[list[int]] = [[] for _ in counts]
    bad = []
    for gap in cuts.cuts:
        w, i = gap.wire, gap.index
        if 0 <= w < len(counts) and 0 <= i < counts[w]:
            on_wire[w].append(i)
        else:
            bad.append(gap)
    if bad:
        raise UnknownGap.least(bad)
    for wire_cuts in on_wire:
        wire_cuts.sort()  # indices are distinct on a wire
    return on_wire


def validate_cut_set(c: CircularCircuit, cuts: CutSet) -> CutTable:
    """Raise unless the cut set admits a valid linearization; return its ``CutTable``.

    Validity needs at least one radial family: a slot whose spanning gap is
    cut on every wire. Given one, every arc between consecutive cuts maps to
    a contiguous stretch of the unrolled timeline, so each gate's control and
    target arcs automatically coexist at the gate.

    Raises ``EmptyCutSet``, ``UnknownGap`` naming the least bad gap, or
    ``NoRadialCut``, whose ``missing_by_slot`` maps every slot to the wires
    whose spanning gap is uncut. The start slot is the wrap slot (before
    gate 0) when it is radial, else the first radial slot clockwise. The
    wrap slot spans every wire's last gap, so testing it takes one look per
    wire; only a cut set without that family sweeps the slots.
    """
    if not cuts.cuts:
        raise EmptyCutSet("cut set is empty")
    counts = [len(syms) for syms in c._symbols]
    on_wire = gaps_by_wire(counts, cuts)
    if all(wire_cuts and wire_cuts[-1] == k - 1 for wire_cuts, k in zip(on_wire, counts)):
        return CutTable(len(c.gates) - 1, [[wire_cuts[-1], *wire_cuts[:-1]] for wire_cuts in on_wire])
    start, at = _radial_families(c, on_wire)
    return CutTable(start, [wire_cuts[k:] + wire_cuts[:k] for wire_cuts, k in zip(on_wire, at)])


def traversal_order(c: CircularCircuit, start: int) -> list[int]:
    """Gate indices in the order a clockwise traversal from slot ``start`` meets them."""
    return [*range(start + 1, len(c.gates)), *range(start + 1)]


def linearize(c: CircularCircuit, cuts: CutSet, d: Direction) -> LinearCircuit:
    """Cut the circle open and read the gates off in the given direction.

    ``validate_cut_set`` checks the cuts and gives the start slot and the
    qubits; this emits the gates clockwise, the first one met from the
    start slot first. Counter-clockwise is that gate list reversed on the
    same qubits: the inverse circuit, since every CNOT is its own inverse.
    """
    table = validate_cut_set(c, cuts)
    # clockwise, an arc holds the symbols after its start cut up to the next cut's
    sym_to_qubit = [[0] * len(syms) for syms in c._symbols]
    q = 0
    for row, wire_cuts in zip(sym_to_qubit, table.cuts):
        k = len(row)
        for a, b in zip(wire_cuts, [*wire_cuts[1:], wire_cuts[0]]):
            span = (b - a) % k or k
            for step in range(1, span + 1):
                row[(a + step) % k] = q
            q += 1

    # a gate's symbol on each of its wires is the gap spanning the slot after it
    qubit_pairs = [
        (sym_to_qubit[g.control][after[g.control]], sym_to_qubit[g.target][after[g.target]])
        for g, after in zip(c.gates, spanning_gaps(c))
    ]
    lin_gates = [
        LinearGate(*qubit_pairs[gi], source=c.gates[gi].id)
        for gi in traversal_order(c, table.start)
    ]
    if d is Direction.CCW:
        lin_gates.reverse()
    return LinearCircuit(n_qubits=q, gates=tuple(lin_gates))


def circularize(l: LinearCircuit) -> tuple[CircularCircuit, JoinRecord]:
    """Close a linear circuit into circular wires (qubit reuse by joining).

    Scans qubits bottom-up; each joins its input to the output of the closest
    not-yet-consumed qubit above whose every gate symbol acts strictly before
    the current qubit's first symbol. Remaining open endpoints are looped
    chain-by-chain. Gate order survives as the clockwise order.
    """
    n = l.n_qubits
    times: list[list[int]] = [[] for _ in range(n)]  # per qubit, its gate times ascending
    for t, g in enumerate(l.gates):
        times[g.control].append(t)
        times[g.target].append(t)
    first = [t[0] if t else None for t in times]
    consumed = [False] * n
    joins: list[tuple[int, int]] = []
    for q in range(n - 1, 0, -1):
        for p in range(q - 1, -1, -1):
            if consumed[p]:
                continue
            if first[q] is not None and times[p] and times[p][-1] >= first[q]:
                continue
            joins.append((q, p))
            consumed[p] = True
            break
    consumer_of = {p: q for q, p in joins}
    heads = sorted(set(range(n)) - {q for q, _ in joins})
    wire_of = [0] * n
    loops: list[tuple[int, int]] = []
    for w, h in enumerate(heads):
        cur = h
        wire_of[cur] = w
        while cur in consumer_of:
            cur = consumer_of[cur]
            wire_of[cur] = w
        loops.append((h, cur))

    record_without_seam = JoinRecord(
        joins=tuple(joins),
        loops=tuple(loops),
        wire_of=tuple(wire_of),
        seam=CutSet(frozenset()),
    )
    gates = tuple(
        CNOTGate(id=i, control=wire_of[g.control], target=wire_of[g.target])
        for i, g in enumerate(l.gates)
    )
    try:
        circ = CircularCircuit(wires=len(heads), gates=gates)
    except EmptyWire as err:
        raise EmptyWire(err.wires, join_record=record_without_seam) from None
    seam = CutSet.of(Gap(w, circ.symbol_count(w) - 1) for w in range(circ.wires))
    return circ, replace(record_without_seam, seam=seam)
