"""Circular and linear CNOT circuits, cut enumeration, and rewiring.

A circular circuit is its gate list read around a circle: a gate's index
in the list is its place, clockwise is increasing index, and the cyclic
rotations of the list are the linear circuits the one circle stands for.
Every wire is a closed loop passing all gates. A wire carries a control
symbol at each gate that controls from it and a target symbol at each gate
that targets it. Gaps sit between cyclically adjacent symbols of one wire
and are the only legal cut locations. Gap ``(w, i)`` is the gap that
follows wire ``w``'s ``i``-th symbol in clockwise order. A linear circuit's
gate list is its time order.

``cut_table`` checks a cut set, lists its gap indices by wire and picks the
slot a linearization starts from; each arc between consecutive cuts is one
qubit, numbered by wire, then clockwise from that slot's family gap.
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

CONTROL = "control"
TARGET = "target"


class Direction(Enum):
    CW = "cw"
    CCW = "ccw"

    @classmethod
    def parse(cls, text: str) -> "Direction":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown direction {text!r}; expected cw or ccw") from None


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


# Per gate index, its control and target symbol, shared by every circuit:
# a program holding many circuits holds each (gate index, kind) pair once.
# It grows by rebinding to a longer tuple, so a reader never sees a partial
# one, and only up to ``_SHARED_SYMBOL_GATES`` gates, so one huge circuit
# leaves nothing large behind.
_SYMBOL_PAIRS: tuple[tuple[tuple[int, str], tuple[int, str]], ...] = ()
_SHARED_SYMBOL_GATES = 4096


def _symbol_pairs(n: int) -> tuple[tuple[tuple[int, str], tuple[int, str]], ...]:
    """Per gate index below ``n`` at least, ``((gi, CONTROL), (gi, TARGET))``."""
    global _SYMBOL_PAIRS
    pairs = _SYMBOL_PAIRS
    if len(pairs) < n:
        pairs += tuple([((gi, CONTROL), (gi, TARGET)) for gi in range(len(pairs), n)])
        if n <= _SHARED_SYMBOL_GATES:
            _SYMBOL_PAIRS = pairs
    return pairs


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
        touched: set[int] = set()
        for g in gates:
            # faults and the commutation check find a gate by its id
            if g.id in ids:
                raise DuplicateGate(f"gate id {quote_int(g.id)} repeated")
            ids.add(g.id)
            for w in (g.control, g.target):
                if not 0 <= w < self.wires:
                    raise WireOutOfRange(f"gate {g.id} references wire {quote_int(w)} of {self.wires}")
            touched.add(g.control)
            touched.add(g.target)
        empty = set(range(self.wires)) - touched
        if empty:
            raise EmptyWire(empty)
        # symbol tables: per wire, (gate index, kind), clockwise
        symbols: list[list[tuple[int, str]]] = [[] for _ in range(self.wires)]
        for g, (control, target) in zip(gates, _symbol_pairs(len(gates))):
            symbols[g.control].append(control)
            symbols[g.target].append(target)
        object.__setattr__(self, "_symbols", tuple(tuple(row) for row in symbols))

    def symbols(self, wire: int) -> tuple[tuple[int, str], ...]:
        """Clockwise (gate index, kind) symbols on a wire."""
        return self._symbols[wire]

    @property
    def symbol_tables(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        """Every wire's ``symbols``, by wire."""
        return self._symbols

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
        return Gap(wire, (bisect_right(syms, slot, key=lambda s: s[0]) - 1) % len(syms))


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


def _radial_families(c: CircularCircuit, on_wire: list[list[int]]) -> dict[int, tuple[int, ...]]:
    """Radial slots, clockwise, each with its spanning gap index on every wire.

    ``on_wire`` lists each wire's cut gap indices, which exist; raises
    ``NoRadialCut`` when no slot is radial. Gap ``(w, i)`` spans the slots
    from its symbol's gate index up to the next symbol's, cyclically. Each
    wire ORs its cut gaps' slot masks; the radial slots are in every mask.
    """
    n_gates = len(c.gates)
    radial = full = (1 << n_gates) - 1
    spans: list[list[tuple[int, int]]] = [[] for _ in on_wire]  # per wire, (mask, gap index)
    masks = [0] * c.wires
    for w, (wire_cuts, syms) in enumerate(zip(on_wire, c._symbols)):
        for i in wire_cuts:
            lo, hi = syms[i][0], syms[(i + 1) % len(syms)][0]
            span = (1 << hi) - (1 << lo) if lo < hi else full ^ ((1 << lo) - (1 << hi))
            spans[w].append((span, i))
            masks[w] |= span
    for mask in masks:
        radial &= mask
    families = {}
    while radial:
        low = radial & -radial
        radial ^= low
        families[low.bit_length() - 1] = tuple(next(i for span, i in on if span & low) for on in spans)
    if families:
        return families
    missing = {
        slot: tuple(w for w, mask in enumerate(masks) if not mask >> slot & 1)
        for slot in range(n_gates)
    }
    uncut_everywhere = sorted(set(range(c.wires)).intersection(*missing.values()))
    raise NoRadialCut(
        f"no slot is cut across all wires (wires never cut at any slot: {uncut_everywhere})",
        missing_by_slot=missing,
    )


def validate_cut_set(c: CircularCircuit, cuts: CutSet) -> dict[int, tuple[int, ...]]:
    """Raise unless the cut set (checked by ``cut_table``) admits a valid linearization.

    Validity needs at least one radial family: a slot whose spanning gap is
    cut on every wire. Given one, every arc between consecutive cuts maps to
    a contiguous stretch of the unrolled timeline, so each gate's control and
    target arcs automatically coexist at the gate. Returns the
    radial slots in clockwise order, each mapped to the index of its family's
    gap on every wire. ``NoRadialCut.missing_by_slot`` maps every slot to the
    wires whose spanning gap is uncut.
    """
    return _radial_families(c, cut_table(c, cuts).cuts)


class CutTable(NamedTuple):
    """A checked cut set, by wire, and the slot a linearization starts from.

    ``cuts[w]`` lists wire ``w``'s cut gap indices ascending, ``anchors[w]``
    the position in it of the ``start`` slot's family gap. Each arc between
    consecutive cuts on a wire is one qubit; ``by_qubit`` puts lists aligned
    with ``cuts`` in qubit order: by wire, then clockwise from the family gap.
    """

    start: int
    cuts: list[list[int]]
    anchors: list[int]

    def by_qubit(self, per_wire, shift: int = 0) -> list:
        """Per qubit, its wire's entry at its arc's clockwise start cut (end cut with ``shift`` 1)."""
        out = []
        for values, at in zip(per_wire, self.anchors):
            at += shift
            out += values[at:]
            out += values[:at]
        return out

    def qubit(self, w: int, k: int, shift: int = 0) -> int:
        """The qubit ``by_qubit`` puts wire ``w``'s entry ``k`` at, with the same ``shift``."""
        return sum(map(len, self.cuts[:w])) + (k - self.anchors[w] - shift) % len(self.cuts[w])

    def arcs(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Per qubit, the ``(wire, gap index)`` of its arc's clockwise start cut, then of its end cut."""
        keys = [[(w, i) for i in wire_cuts] for w, wire_cuts in enumerate(self.cuts)]
        return self.by_qubit(keys), self.by_qubit(keys, 1)


def cut_table(c: CircularCircuit, cuts: CutSet) -> CutTable:
    """Check the cut set, list it by wire and pick the start slot.

    Raises ``EmptyCutSet``, ``UnknownGap`` naming the least bad gap, or
    ``NoRadialCut``. The start slot is the wrap slot (before gate 0) when it
    is radial, else the first radial slot clockwise. The wrap slot spans
    every wire's last gap, so testing it takes one look per wire; only a cut
    set without that family sweeps the slots.
    """
    if not cuts.cuts:
        raise EmptyCutSet("cut set is empty")
    symbols = c._symbols
    on_wire: list[list[int]] = [[] for _ in symbols]
    bad = []
    for gap in cuts.cuts:
        w, i = gap.wire, gap.index
        if 0 <= w < c.wires and 0 <= i < len(symbols[w]):
            on_wire[w].append(i)
        else:
            bad.append(gap)
    if bad:
        gap = min(bad)
        raise UnknownGap(f"wire {quote_int(gap.wire)} gap {quote_int(gap.index)} does not exist")
    for wire_cuts in on_wire:
        wire_cuts.sort()  # indices are distinct on a wire
    if all(wire_cuts and wire_cuts[-1] == len(syms) - 1 for wire_cuts, syms in zip(on_wire, symbols)):
        return CutTable(len(c.gates) - 1, on_wire, [len(wire_cuts) - 1 for wire_cuts in on_wire])
    start, family = next(iter(_radial_families(c, on_wire).items()))
    return CutTable(start, on_wire, [wire_cuts.index(i) for wire_cuts, i in zip(on_wire, family)])


def traversal_order(c: CircularCircuit, start: int, d: Direction) -> list[int]:
    """Gate indices in the order a traversal from slot ``start`` meets them."""
    n_gates = len(c.gates)
    if d is Direction.CW:
        return [*range(start + 1, n_gates), *range(start + 1)]
    return [*range(start, -1, -1), *range(n_gates - 1, start, -1)]


def linearize(c: CircularCircuit, cuts: CutSet, d: Direction) -> LinearCircuit:
    """Cut the circle open and read the gates off in the given direction.

    ``cut_table`` checks the cuts and gives the start slot, and its
    ``arcs`` the qubits; this emits the gates, the first one met from the
    start slot first. Counter-clockwise reverses the gate order and swaps
    input/output endpoints but keeps qubit indices.
    """
    table = cut_table(c, cuts)
    # clockwise, an arc holds the symbols after its start cut up to its end cut's
    sym_to_qubit = [[0] * len(syms) for syms in c._symbols]
    for q, ((w, a), (_, b)) in enumerate(zip(*table.arcs())):
        row = sym_to_qubit[w]
        k = len(row)
        span = (b - a) % k or k
        for step in range(1, span + 1):
            row[(a + step) % k] = q

    # a gate's symbol on each of its wires is the gap spanning the slot after it
    qubit_pairs = [
        (sym_to_qubit[g.control][after[g.control]], sym_to_qubit[g.target][after[g.target]])
        for g, after in zip(c.gates, spanning_gaps(c))
    ]
    lin_gates = [
        LinearGate(*qubit_pairs[gi], source=c.gates[gi].id)
        for gi in traversal_order(c, table.start, d)
    ]
    return LinearCircuit(n_qubits=sum(map(len, table.cuts)), gates=tuple(lin_gates))


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
