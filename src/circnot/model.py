"""Parity-constraint models of circular CNOT circuits.

Wire segments carry one GF(2) variable each: true means the segment is
stabilised, false means stabiliser identity. A gate contributes one clause
tying the two segments split by one of its symbols to the segment crossing
its other symbol; a gap contributes an equivalence (join) clause that a cut
removes. X and Z flow are tracked by separate models and never mix. Each
clause being satisfied is one homogeneous linear equation, so the whole
model is a parity system solvable by Gaussian elimination.

Segment boundaries per model kind:

* X model: gaps and target symbols split segments; control symbols do not.
* Z model: gaps and control symbols split; target symbols do not.
* combined model: gaps and both symbol kinds split; each gate's clause
  carries a selector that picks the X reading (true) or Z reading (false).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations

from . import gf2
from .circuits import (
    CONTROL,
    TARGET,
    CircularCircuit,
    CutSet,
    Direction,
    Gap,
    enumerate_cut_points,
    linearize,
)
from .errors import (
    BudgetTooSmall,
    DuplicateCut,
    Inconsistent,
    NotAdjacent,
    Underdetermined,
    UnknownGap,
    UnknownGate,
    UnknownSegment,
    UnpinnedSelector,
)
from .stabmap import StabiliserMap


class ModelKind(Enum):
    X = "x"
    Z = "z"
    COMBINED = "combined"


class ClauseKind(Enum):
    CNOT = "cnot"
    JOIN = "join"
    COMBINED_CNOT = "combined-cnot"


@dataclass(frozen=True)
class SegmentId:
    """One wire segment of one model.

    ``index`` is the clockwise rank of the segment's start boundary among
    the wire's boundaries for that model kind, so segments from different
    model kinds never compare equal.
    """

    wire: int
    index: int
    kind: "ModelKind"

    @property
    def name(self) -> str:
        return f"w{self.wire}s{self.index}"


@dataclass(frozen=True)
class Clause:
    """CNOT: vars = (split-before, split-after, crossing).
    JOIN: vars = (segment ending at gap, segment starting at gap).
    COMBINED_CNOT: vars = (control-before, control-after, target-before,
    target-after) plus a selector pinned per query."""

    kind: ClauseKind
    vars: tuple[SegmentId, ...]
    source_gate: int | None = None
    source_gap: Gap | None = None
    selector: bool | None = None


@dataclass(frozen=True, eq=False)
class BooleanModel:
    kind: ModelKind
    circuit: CircularCircuit
    variables: tuple[SegmentId, ...]
    clauses: tuple[Clause, ...]
    gap_join: dict  # Gap -> Clause | None (None for dropped self-joins)
    gap_sides: dict  # Gap -> (segment ending here, segment starting here)
    cut_gaps: frozenset[Gap] = frozenset()

    def __post_init__(self):
        index = {v: i for i, v in enumerate(self.variables)}
        object.__setattr__(self, "_var_index", index)
        gate_rows = []
        for cl in self.clauses:
            if cl.kind is ClauseKind.CNOT:
                gate_rows.append(
                    (1 << index[cl.vars[0]])
                    | (1 << index[cl.vars[1]])
                    | (1 << index[cl.vars[2]])
                )
        object.__setattr__(self, "_cnot_rows", tuple(gate_rows))
        join_rows = {}
        for gap, cl in self.gap_join.items():
            if cl is not None:
                join_rows[gap] = (1 << index[cl.vars[0]]) | (1 << index[cl.vars[1]])
        object.__setattr__(self, "_join_rows", join_rows)

    def var_index(self, seg: SegmentId) -> int:
        return self._var_index[seg]

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def cnot_clauses(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.kind is not ClauseKind.JOIN)

    def join_clauses(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.kind is ClauseKind.JOIN)

    def boundary_segments(self) -> frozenset[SegmentId]:
        """Segments adjacent to a cut gap: input/output candidates."""
        out = set()
        for gap in self.cut_gaps:
            end_seg, start_seg = self.gap_sides[gap]
            out.add(end_seg)
            out.add(start_seg)
        return frozenset(out)

    def dump(self) -> str:
        """One clause per line; segment names are ``w<wire>s<index>``."""
        lines = []
        for cl in self.clauses:
            names = [v.name for v in cl.vars]
            if cl.kind is ClauseKind.CNOT:
                lines.append(f"C {names[0]} {names[1]} {names[2]}")
            elif cl.kind is ClauseKind.JOIN:
                lines.append(f"J {names[0]} {names[1]}")
            else:
                sel = "-" if cl.selector is None else ("1" if cl.selector else "0")
                lines.append(f"F {' '.join(names)} x={sel}")
        return "\n".join(lines)


def _wire_boundaries(c: CircularCircuit, wire: int, kind: ModelKind):
    """Clockwise boundary list for one wire.

    Entries are ("gap", Gap, key) or ("sym", gate_index, symbol_kind, key);
    the sort key places each gap right after the symbol it follows.
    """
    syms = c.symbols(wire)
    boundaries = []
    for i, (pos, gi, sk) in enumerate(syms):
        splits = (
            kind is ModelKind.COMBINED
            or (kind is ModelKind.X and sk == TARGET)
            or (kind is ModelKind.Z and sk == CONTROL)
        )
        if splits:
            boundaries.append(("sym", gi, sk, (pos, 0)))
        boundaries.append(("gap", Gap(wire, i), None, (pos, 1)))
    boundaries.sort(key=lambda b: b[3])
    return boundaries


def build_model(c: CircularCircuit, kind: ModelKind) -> BooleanModel:
    """Model of the uncut circuit: one clause per gate, one join per gap.

    A join whose two variables coincide (a wire with a single boundary) is a
    tautology and is dropped; its gap is already cut-equivalent.
    """
    if kind is ModelKind.COMBINED:
        return build_combined_model(c)
    variables: list[SegmentId] = []
    gap_sides: dict[Gap, tuple[SegmentId, SegmentId]] = {}
    # per (wire, gate index): (before segment, after segment) at the splitting
    # symbol, and the containing segment at the crossing symbol
    split_at: dict[tuple[int, int], tuple[SegmentId, SegmentId]] = {}
    crossing_at: dict[tuple[int, int], SegmentId] = {}
    for w in range(c.wires):
        bounds = _wire_boundaries(c, w, kind)
        nb = len(bounds)
        segs = [SegmentId(w, j, kind) for j in range(nb)]
        variables.extend(segs)
        keys = [b[3] for b in bounds]
        for j, b in enumerate(bounds):
            start_seg = segs[j]
            end_seg = segs[(j - 1) % nb]
            if b[0] == "gap":
                gap_sides[b[1]] = (end_seg, start_seg)
            else:
                split_at[(w, b[1])] = (end_seg, start_seg)
        for pos, gi, sk in c.symbols(w):
            if (w, gi) in split_at:
                continue
            j = bisect.bisect_left(keys, (pos, 0)) - 1
            crossing_at[(w, gi)] = segs[j % nb]

    clauses: list[Clause] = []
    for gi, g in enumerate(c.gates):
        if kind is ModelKind.X:
            before, after = split_at[(g.target, gi)]
            crossing = crossing_at[(g.control, gi)]
        else:
            before, after = split_at[(g.control, gi)]
            crossing = crossing_at[(g.target, gi)]
        clauses.append(
            Clause(ClauseKind.CNOT, (before, after, crossing), source_gate=g.id)
        )
    gap_join: dict[Gap, Clause | None] = {}
    for gap in sorted(gap_sides):
        end_seg, start_seg = gap_sides[gap]
        if end_seg == start_seg:
            gap_join[gap] = None
            continue
        cl = Clause(ClauseKind.JOIN, (end_seg, start_seg), source_gap=gap)
        gap_join[gap] = cl
        clauses.append(cl)
    return BooleanModel(
        kind=kind,
        circuit=c,
        variables=tuple(variables),
        clauses=tuple(clauses),
        gap_join=gap_join,
        gap_sides=gap_sides,
    )


def build_combined_model(c: CircularCircuit) -> BooleanModel:
    """One clause per gate over both symbol splits plus a per-gate selector."""
    variables: list[SegmentId] = []
    gap_sides: dict[Gap, tuple[SegmentId, SegmentId]] = {}
    split_at: dict[tuple[int, int], tuple[SegmentId, SegmentId]] = {}
    for w in range(c.wires):
        bounds = _wire_boundaries(c, w, ModelKind.COMBINED)
        nb = len(bounds)
        segs = [SegmentId(w, j, ModelKind.COMBINED) for j in range(nb)]
        variables.extend(segs)
        for j, b in enumerate(bounds):
            start_seg = segs[j]
            end_seg = segs[(j - 1) % nb]
            if b[0] == "gap":
                gap_sides[b[1]] = (end_seg, start_seg)
            else:
                split_at[(w, b[1])] = (end_seg, start_seg)
    clauses: list[Clause] = []
    for gi, g in enumerate(c.gates):
        ca, cb = split_at[(g.control, gi)]
        tc, td = split_at[(g.target, gi)]
        clauses.append(
            Clause(ClauseKind.COMBINED_CNOT, (ca, cb, tc, td), source_gate=g.id)
        )
    gap_join: dict[Gap, Clause | None] = {}
    for gap in sorted(gap_sides):
        end_seg, start_seg = gap_sides[gap]
        if end_seg == start_seg:
            gap_join[gap] = None
            continue
        cl = Clause(ClauseKind.JOIN, (end_seg, start_seg), source_gap=gap)
        gap_join[gap] = cl
        clauses.append(cl)
    return BooleanModel(
        kind=ModelKind.COMBINED,
        circuit=c,
        variables=tuple(variables),
        clauses=tuple(clauses),
        gap_join=gap_join,
        gap_sides=gap_sides,
    )


def pin_selectors(m: BooleanModel, selectors: dict[int, bool]) -> BooleanModel:
    """Pin the X/Z selector of combined clauses, by source gate id."""
    known = {cl.source_gate for cl in m.clauses if cl.kind is ClauseKind.COMBINED_CNOT}
    for gate_id in selectors:
        if gate_id not in known:
            raise UnknownGate(f"no combined clause for gate {gate_id}")
    clauses = tuple(
        replace(cl, selector=selectors[cl.source_gate])
        if cl.kind is ClauseKind.COMBINED_CNOT and cl.source_gate in selectors
        else cl
        for cl in m.clauses
    )
    return BooleanModel(
        kind=m.kind,
        circuit=m.circuit,
        variables=m.variables,
        clauses=clauses,
        gap_join=m.gap_join,
        gap_sides=m.gap_sides,
        cut_gaps=m.cut_gaps,
    )


def apply_cuts(m: BooleanModel, cuts: CutSet) -> BooleanModel:
    """Remove the join clauses of the cut gaps; variables stay put.

    Cutting a gap whose self-join was already dropped is a no-op beyond
    marking the gap as cut (the gap was cut-equivalent from the start).
    """
    gaps = cuts.sorted_gaps()
    for gap in gaps:
        if gap not in m.gap_sides:
            raise UnknownGap(f"wire {gap.wire} gap {gap.index} not in model")
        if gap in m.cut_gaps:
            raise DuplicateCut(f"wire {gap.wire} gap {gap.index} already cut")
    removed = {m.gap_join[g] for g in gaps if m.gap_join[g] is not None}
    clauses = tuple(cl for cl in m.clauses if cl not in removed)
    gap_join = {g: (None if g in set(gaps) else cl) for g, cl in m.gap_join.items()}
    return BooleanModel(
        kind=m.kind,
        circuit=m.circuit,
        variables=m.variables,
        clauses=clauses,
        gap_join=gap_join,
        gap_sides=m.gap_sides,
        cut_gaps=m.cut_gaps | set(gaps),
    )


@dataclass(frozen=True)
class ParitySystem:
    """Homogeneous GF(2) system; bit ``n_vars`` of a row is the constant."""

    variables: tuple[SegmentId, ...]
    rows: tuple[int, ...]

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def rank(self) -> int:
        return gf2.rank(list(self.rows), self.n_vars + 1)

    def dump(self) -> str:
        lines = []
        for row in self.rows:
            bits = [(row >> i) & 1 for i in range(self.n_vars + 1)]
            lines.append(" ".join(str(b) for b in bits))
        return "\n".join(lines)

    def solutions(self):
        """All satisfying assignments as SegmentId->bool dicts (small systems)."""
        for mask in gf2.enumerate_solutions(list(self.rows), self.n_vars):
            yield {v: bool(mask >> i & 1) for i, v in enumerate(self.variables)}


def _clause_rows(m: BooleanModel, cl: Clause) -> list[int]:
    idx = m.var_index
    if cl.kind is ClauseKind.CNOT:
        return [(1 << idx(cl.vars[0])) | (1 << idx(cl.vars[1])) | (1 << idx(cl.vars[2]))]
    if cl.kind is ClauseKind.JOIN:
        return [(1 << idx(cl.vars[0])) | (1 << idx(cl.vars[1]))]
    if cl.selector is None:
        raise UnpinnedSelector(f"combined clause for gate {cl.source_gate} has no selector")
    a, b, tc, td = (1 << idx(v) for v in cl.vars)
    if cl.selector:
        # X reading: control passes through (a = b), target flips by control
        return [a | b, a | tc | td]
    return [tc | td, tc | a | b]


def to_parity_system(m: BooleanModel) -> ParitySystem:
    """Translate every clause to its parity rows (requiring it true)."""
    rows: list[int] = []
    for cl in m.clauses:
        rows.extend(_clause_rows(m, cl))
    return ParitySystem(variables=m.variables, rows=tuple(rows))


def propagate(s: ParitySystem, inputs: dict[SegmentId, bool]) -> dict[SegmentId, bool]:
    """Pin the given variables and complete the assignment uniquely.

    Raises Underdetermined when a free variable remains (a missing radial
    cut) and Inconsistent when the pins contradict the system.
    """
    n = s.n_vars
    rows = list(s.rows)
    index = {v: i for i, v in enumerate(s.variables)}
    for seg, value in inputs.items():
        if seg not in index:
            raise UnknownSegment(f"segment {seg.name} not in system")
        rows.append((1 << index[seg]) | (int(bool(value)) << n))
    try:
        sol = gf2.solve_tagged(rows, n, 1)
    except Underdetermined as err:
        free = [s.variables[i].name for i in (err.free or [])]
        raise Underdetermined(f"free segments remain: {free}", free=free) from None
    return {v: bool(sol[i]) for i, v in enumerate(s.variables)}


def _input_output_segments(m: BooleanModel, lin, d: Direction):
    """Per linear qubit, its first and last segment under the traversal."""
    ins, outs = [], []
    for origin in lin.origins:
        end_seg_in, start_seg_in = m.gap_sides[origin.input_cut]
        end_seg_out, start_seg_out = m.gap_sides[origin.output_cut]
        if d is Direction.CW:
            ins.append(start_seg_in)
            outs.append(end_seg_out)
        else:
            ins.append(end_seg_in)
            outs.append(start_seg_out)
    return ins, outs


def _solve_map_rows(
    m: BooleanModel,
    cut_gaps: frozenset[Gap],
    ins: list[SegmentId | None],
    outs: list[SegmentId],
    pins: dict[SegmentId, bool] | None = None,
    bridges: tuple[tuple[SegmentId, SegmentId], ...] = (),
) -> list[int]:
    """Output rows of the cut system, one bitmask over inputs per qubit.

    The solve is symbolic: input ``i`` is pinned to right-hand-side bit
    ``1 + i`` (bit 0 is the constant column used by ``pins``), so a single
    elimination yields every single-input propagation at once. ``None``
    entries in ``ins`` skip a qubit; ``bridges`` equate extra segment pairs.
    """
    n = m.n_vars
    n_in = len(ins)
    rows = list(m._cnot_rows)
    for gap, row in m._join_rows.items():
        if gap not in cut_gaps:
            rows.append(row)
    for a, b in bridges:
        ia, ib = m.var_index(a), m.var_index(b)
        if ia != ib:
            rows.append((1 << ia) | (1 << ib))
    for i, seg in enumerate(ins):
        if seg is not None:
            rows.append((1 << m.var_index(seg)) | (1 << (n + 1 + i)))
    for seg, value in (pins or {}).items():
        rows.append((1 << m.var_index(seg)) | (int(bool(value)) << n))
    sol = gf2.solve_tagged(rows, n, 1 + n_in)
    return [sol[m.var_index(seg)] for seg in outs]


def _rows_to_sets(out_rows: list[int], n_in: int) -> tuple[frozenset[int], ...]:
    """Transpose solved output rows into per-input output sets.

    Only the linear part over the symbolic inputs is read; the constant
    column carries pinned offsets and is ignored here.
    """
    return tuple(
        frozenset(j for j, row in enumerate(out_rows) if row >> (1 + i) & 1)
        for i in range(n_in)
    )


def derive_transformations(
    c: CircularCircuit,
    cuts: CutSet,
    d: Direction,
    models: tuple[BooleanModel, BooleanModel] | None = None,
) -> StabiliserMap:
    """Stabiliser map of the cut-induced circuit, from the parity models.

    Builds (or reuses) the X and Z models, drops the cut joins, pins each
    qubit's first segment to a distinct symbolic input, and reads the map
    off the unique solution. Truth of an output segment means the output
    qubit carries that Pauli kind; signs are out of model.
    """
    lin = linearize(c, cuts, d)
    if models is None:
        models = (build_model(c, ModelKind.X), build_model(c, ModelKind.Z))
    xm, zm = models
    cut_gaps = cuts.gaps()
    n_in = lin.n_qubits
    x_ins, x_outs = _input_output_segments(xm, lin, d)
    z_ins, z_outs = _input_output_segments(zm, lin, d)
    x_rows = _solve_map_rows(xm, cut_gaps, x_ins, x_outs)
    z_rows = _solve_map_rows(zm, cut_gaps, z_ins, z_outs)
    return StabiliserMap(
        n_qubits=n_in,
        x_out=_rows_to_sets(x_rows, n_in),
        z_out=_rows_to_sets(z_rows, n_in),
    )


def _positions_adjacent(c: CircularCircuit, p1: int, p2: int) -> bool:
    pos = sorted(g.position for g in c.gates)
    m = len(pos)
    for j in range(m):
        a, b = pos[j], pos[(j + 1) % m]
        if (a, b) in ((p1, p2), (p2, p1)):
            return True
    return False


def check_commutation_invariance(c: CircularCircuit, g1: int, g2: int) -> bool:
    """Whether swapping two cyclically adjacent gates preserves every map.

    Swapping the gates' positions relabels their crossing segments; the swap
    is invariant exactly when every radial linearization that keeps the pair
    contiguous derives the same stabiliser map before and after. The slot
    between the pair is skipped for longer circuits because cutting there
    separates the gates instead of commuting them.
    """
    ga = c.gate_by_id(g1)
    gb = c.gate_by_id(g2)
    if ga.id == gb.id or not _positions_adjacent(c, ga.position, gb.position):
        raise NotAdjacent(f"gates {g1} and {g2} are not cyclically adjacent")
    swapped = tuple(
        replace(g, position=gb.position if g.id == ga.id else ga.position)
        if g.id in (ga.id, gb.id)
        else g
        for g in c.gates
    )
    c2 = CircularCircuit(wires=c.wires, gates=swapped)
    pair = {ga.position, gb.position}
    test_slots = [
        j for j, (a, b) in enumerate(c.slots()) if {a, b} != pair
    ] or list(range(len(c.slots())))
    models1 = (build_model(c, ModelKind.X), build_model(c, ModelKind.Z))
    models2 = (build_model(c2, ModelKind.X), build_model(c2, ModelKind.Z))
    for slot in test_slots:
        cuts1 = CutSet.of(c.gap_spanning(w, slot) for w in range(c.wires))
        cuts2 = CutSet.of(c2.gap_spanning(w, slot) for w in range(c2.wires))
        m1 = derive_transformations(c, cuts1, Direction.CW, models=models1)
        m2 = derive_transformations(c2, cuts2, Direction.CW, models=models2)
        if m1 != m2:
            return False
    return True


def search_cuts(
    c: CircularCircuit, target: StabiliserMap, max_cuts: int
) -> list[tuple[CutSet, Direction]]:
    """All (cut set, direction) pairs deriving the target map.

    Enumerates cut sets by size then lexicographically by (wire, gap),
    directions clockwise first. Only sizes equal to the target's qubit
    count can match because every cut contributes exactly one qubit.
    """
    if max_cuts < c.wires:
        raise BudgetTooSmall(f"need at least one cut per wire ({c.wires})")
    need = target.n_qubits
    if need < c.wires or need > max_cuts:
        return []
    spanning = [
        {slot: c.gap_spanning(w, slot) for slot in range(len(c.slots()))}
        for w in range(c.wires)
    ]
    n_slots = len(c.slots())
    all_gaps = [p.gap for p in enumerate_cut_points(c)]
    models = (build_model(c, ModelKind.X), build_model(c, ModelKind.Z))
    found: list[tuple[CutSet, Direction]] = []
    for combo in combinations(all_gaps, need):
        chosen = set(combo)
        if not any(
            all(spanning[w][slot] in chosen for w in range(c.wires))
            for slot in range(n_slots)
        ):
            continue
        cuts = CutSet.of(combo)
        for d in (Direction.CW, Direction.CCW):
            try:
                derived = derive_transformations(c, cuts, d, models=models)
            except (Underdetermined, Inconsistent):
                continue
            if derived == target:
                found.append((cuts, d))
    return found
