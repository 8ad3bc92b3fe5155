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

``build_model`` builds all three kinds with one segmentation. One
translation turns clauses into parity rows, for ``to_parity_system`` and
``solve_map_rows`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import combinations

from . import gf2
from .circuits import (
    CONTROL,
    TARGET,
    CircularCircuit,
    CutSet,
    Direction,
    Gap,
    linearize,
    spanning_gaps,
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
    variables: tuple[SegmentId, ...]
    clauses: tuple[Clause, ...]
    gap_sides: dict  # Gap -> (segment ending here, segment starting here)
    cut_gaps: frozenset[Gap] = frozenset()

    @cached_property
    def gap_join(self) -> dict:
        """Gap -> its join clause, or None once cut or for a dropped self-join."""
        joins = {cl.source_gap: cl for cl in self.clauses if cl.kind is ClauseKind.JOIN}
        return {gap: joins.get(gap) for gap in self.gap_sides}

    @cached_property
    def _var_index(self) -> dict[SegmentId, int]:
        return {v: i for i, v in enumerate(self.variables)}

    @cached_property
    def _rows(self) -> tuple[tuple[Gap | None, int], ...]:
        """Every clause's parity rows, each tagged with the gap whose cut drops it."""
        return tuple((cl.source_gap, row) for cl in self.clauses for row in _clause_rows(self, cl))

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


_SPLITTING = {
    ModelKind.X: (TARGET,),
    ModelKind.Z: (CONTROL,),
    ModelKind.COMBINED: (CONTROL, TARGET),
}


def build_model(c: CircularCircuit, kind: ModelKind) -> BooleanModel:
    """Model of the uncut circuit: one clause per gate, one join per gap.

    Gaps and the symbols of the kind's splitting roles cut each wire into
    segments. The X clause ties the target's split to the control's
    crossing segment, the Z clause the control's split to the target's
    crossing segment, and the combined clause both splits. A join whose two
    variables coincide (a wire with a single boundary) is a tautology and is
    dropped; its gap is already cut-equivalent.
    """
    splitting = _SPLITTING[kind]
    variables: list[SegmentId] = []
    gap_sides: dict[Gap, tuple[SegmentId, SegmentId]] = {}
    # per (wire, gate index): (before, after) segments at a splitting symbol,
    # or (containing segment,) at a crossing one
    at: dict[tuple[int, int], tuple[SegmentId, ...]] = {}
    for w in range(c.wires):
        syms = c.symbols(w)
        n_bounds = len(syms) + sum(1 for _, _, sk in syms if sk in splitting)
        segs = [SegmentId(w, j, kind) for j in range(n_bounds)]
        variables.extend(segs)
        # segment j starts at the j-th boundary clockwise; each symbol's gap
        # follows it, so j counts the boundaries passed and segs[j - 1] wraps
        j = 0
        for i, (_, gi, sk) in enumerate(syms):
            if sk in splitting:
                at[w, gi] = (segs[j - 1], segs[j])
                j += 1
            else:
                at[w, gi] = (segs[j - 1],)
            gap_sides[Gap(w, i)] = (segs[j - 1], segs[j])
            j += 1

    clause_kind = ClauseKind.COMBINED_CNOT if kind is ModelKind.COMBINED else ClauseKind.CNOT
    clauses: list[Clause] = []
    for gi, g in enumerate(c.gates):
        first, second = (g.target, g.control) if kind is ModelKind.X else (g.control, g.target)
        clauses.append(Clause(clause_kind, at[first, gi] + at[second, gi], source_gate=g.id))
    for gap, (end_seg, start_seg) in gap_sides.items():  # in (wire, index) order
        if end_seg != start_seg:
            clauses.append(Clause(ClauseKind.JOIN, (end_seg, start_seg), source_gap=gap))
    return BooleanModel(
        kind=kind,
        variables=tuple(variables),
        clauses=tuple(clauses),
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
    return replace(m, clauses=clauses)


def apply_cuts(m: BooleanModel, cuts: CutSet) -> BooleanModel:
    """Remove the join clauses of the cut gaps; variables stay put.

    Cutting a gap whose self-join was already dropped is a no-op beyond
    marking the gap as cut (the gap was cut-equivalent from the start).
    """
    for gap in cuts.sorted_gaps():
        if gap not in m.gap_sides:
            raise UnknownGap(f"wire {gap.wire} gap {gap.index} not in model")
        if gap in m.cut_gaps:
            raise DuplicateCut(f"wire {gap.wire} gap {gap.index} already cut")
    gaps = cuts.gaps()
    return replace(
        m,
        clauses=tuple(cl for cl in m.clauses if cl.source_gap not in gaps),
        cut_gaps=m.cut_gaps | gaps,
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
    """Parity rows of one clause: CNOT and JOIN clauses are one XOR row each."""
    index = m._var_index
    if cl.kind is not ClauseKind.COMBINED_CNOT:
        row = 0
        for v in cl.vars:
            row ^= 1 << index[v]
        return [row]
    if cl.selector is None:
        raise UnpinnedSelector(f"combined clause for gate {cl.source_gate} has no selector")
    a, b, tc, td = (1 << index[v] for v in cl.vars)
    if cl.selector:
        # X reading: control passes through (a = b), target flips by control
        return [a | b, a | tc | td]
    return [tc | td, tc | a | b]


def to_parity_system(m: BooleanModel) -> ParitySystem:
    """Translate every clause to its parity rows (requiring it true)."""
    return ParitySystem(variables=m.variables, rows=tuple(row for _, row in m._rows))


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


def input_output_segments(m: BooleanModel, lin, d: Direction):
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


def solve_map_rows(
    m: BooleanModel,
    cut_gaps: frozenset[Gap],
    ins: list[SegmentId | None],
    outs: list[SegmentId],
    pins: dict[SegmentId, bool] | None = None,
    bridges: tuple[tuple[SegmentId, SegmentId], ...] = (),
) -> tuple[frozenset[int], ...]:
    """Map rows of the cut system: per input, the outputs it reaches.

    The solve is symbolic: input ``i`` is pinned to right-hand-side bit
    ``1 + i`` (bit 0 is the constant column used by ``pins``), so a single
    elimination yields every single-input propagation at once. The joins of
    ``cut_gaps`` are left out, ``None`` entries in ``ins`` skip a qubit and
    ``bridges`` equate extra segment pairs. Only the linear part over the
    symbolic inputs is read; pinned offsets in the constant column are not.
    """
    n = m.n_vars
    n_in = len(ins)
    rows = [row for gap, row in m._rows if gap not in cut_gaps]
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
    out_rows = [sol[m.var_index(seg)] for seg in outs]
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
    cut_gaps = cuts.gaps()
    x_out, z_out = (
        solve_map_rows(m, cut_gaps, *input_output_segments(m, lin, d)) for m in models
    )
    return StabiliserMap(n_qubits=lin.n_qubits, x_out=x_out, z_out=z_out)


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
    pair = {ga.position, gb.position}
    slot_pairs = [{a, b} for a, b in c.slots()]
    if ga.id == gb.id or pair not in slot_pairs:
        raise NotAdjacent(f"gates {g1} and {g2} are not cyclically adjacent")
    swapped = tuple(
        replace(g, position=gb.position if g.id == ga.id else ga.position)
        if g.id in (ga.id, gb.id)
        else g
        for g in c.gates
    )
    c2 = CircularCircuit(wires=c.wires, gates=swapped)
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


def search_cuts(
    c: CircularCircuit, target: StabiliserMap, max_cuts: int
) -> list[tuple[CutSet, Direction]]:
    """All (cut set, direction) pairs deriving the target map.

    Only sizes equal to the target's qubit count can match because every
    cut contributes exactly one qubit, and a cut set linearizes only if it
    holds a radial family. So the candidates are built, not filtered: per
    slot, the slot's radial family plus every choice of the remaining cuts
    among the other gaps, without repeats. They are tried in the order of
    ``combinations`` over all gaps by (wire, gap), clockwise first.
    """
    if max_cuts < c.wires:
        raise BudgetTooSmall(f"need at least one cut per wire ({c.wires})")
    need = target.n_qubits
    if need < c.wires or need > max_cuts:
        return []
    all_gaps = [(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))]
    candidates = set()
    for span in spanning_gaps(c):
        family = set(enumerate(span))
        others = [gap for gap in all_gaps if gap not in family]
        for extra in combinations(others, need - c.wires):
            candidates.add(tuple(sorted(family.union(extra))))
    models = (build_model(c, ModelKind.X), build_model(c, ModelKind.Z))
    found: list[tuple[CutSet, Direction]] = []
    for combo in sorted(candidates):
        cuts = CutSet.of(combo)
        for d in (Direction.CW, Direction.CCW):
            try:
                derived = derive_transformations(c, cuts, d, models=models)
            except (Underdetermined, Inconsistent):
                continue
            if derived == target:
                found.append((cuts, d))
    return found
