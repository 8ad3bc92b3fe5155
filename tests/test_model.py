import collections
import itertools
import math
import random
import re
import time

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from circnot import (
    CutSet,
    circularize,
    Direction,
    Gap,
    StabiliserMap,
    apply_cuts,
    build_model,
    check_commutation_invariance,
    derive_transformations,
    enumerate_cut_points,
    linearize,
    oracle_map,
    parity_rows,
    search_cuts,
    strip_and_circularize,
    toffoli_decomposition,
    translate_to_icm,
)
from circnot.errors import (
    BudgetTooSmall,
    DuplicateCut,
    EmptyCutSet,
    Inconsistent,
    NoRadialCut,
    NotAdjacent,
    SearchTooLarge,
    UnknownGap,
    UnpinnedSelector,
    WireOutOfRange,
)
from circnot import circuits as circuits_module
from circnot import gf2
from circnot import model as model_module
from circnot.circuits import LinearCircuit, validate_cut_set
from circnot.cli import parity_text
from circnot.icm import FaultSpec, faulted_transformations, inject_smgf
from circnot.model import MAX_SEARCH_CANDIDATES, ModelKind
from circnot.pauli import PauliString, propagate_pauli
from helpers import (
    SWAP_X_REF,
    SWAP_Z_REF,
    all_small_circuits,
    arc_ends,
    commutation_by_derivation,
    conjugate_by_cnot,
    count_model_solutions,
    family_plus_two,
    fault_expected,
    gf2_rank,
    input_output_segments,
    inverse,
    isomorphic_to_reference,
    mkcirc,
    mklin,
    model_columns,
    parity_solutions,
    reference_columns,
    reference_search,
    reference_slot_systems,
    restrict_map,
    rows_of_columns,
    solve_model_map,
    spanning_gap_index,
    sweep_table,
)


class TestBuildModel:
    def test_swap_x_structure(self, swap):
        m = build_model(swap, ModelKind.X)
        assert m.n_vars == 9
        assert len(m.gate_vars) == 3
        assert len(m.joins) == 6
        assert isomorphic_to_reference(m, SWAP_X_REF)

    def test_swap_z_structure(self, swap):
        m = build_model(swap, ModelKind.Z)
        assert m.n_vars == 9
        assert len(m.gate_vars) == 3
        assert len(m.joins) == 6
        assert isomorphic_to_reference(m, SWAP_Z_REF)

    def test_swap_x_and_z_mutually_isomorphic(self, swap):
        # the SWAP exchanges control and target roles between its wires, so
        # its X and Z models share one clause shape
        assert isomorphic_to_reference(build_model(swap, ModelKind.X), SWAP_Z_REF)
        assert isomorphic_to_reference(build_model(swap, ModelKind.Z), SWAP_X_REF)

    def test_isomorphism_checker_rejects_corrupted_reference(self, swap):
        corrupted = {
            "cnots": SWAP_X_REF["cnots"],
            # reroute one join so the crossing G loses a neighbour
            "joins": [{"A", "D"}, {"A", "b"}, {"c", "D"}, {"e", "i"}, {"f", "G"}, {"f", "h"}],
        }
        assert not isomorphic_to_reference(build_model(swap, ModelKind.X), corrupted)
        single = build_model(mkcirc(2, [(0, 1)]), ModelKind.X)
        assert not isomorphic_to_reference(single, SWAP_X_REF)

    def test_single_cnot_x(self, single_cnot):
        m = build_model(single_cnot, ModelKind.X)
        assert m.n_vars == 3
        assert len(m.gate_vars) == 1
        # the target gap keeps its join; the control gap self-join is dropped
        assert [gap for gap, _ in m.joins] == [Gap(1, 0)]
        end, start = m.gap_vars[0][0]
        assert end == start

    def test_counts_invariant_exhaustive(self):
        for c in all_small_circuits(max_wires=3, max_gates=3):
            n_gaps = len(enumerate_cut_points(c))
            for kind in (ModelKind.X, ModelKind.Z):
                m = build_model(c, kind)
                assert len(m.gate_vars) == len(c.gates)
                self_joins = sum(1 for pairs in m.gap_vars for end, start in pairs if end == start)
                assert len(m.joins) == n_gaps - self_joins
            # every symbol splits in the combined model: two segments per
            # symbol, so no wire is left with a single boundary
            m = build_model(c, ModelKind.COMBINED)
            assert [len(vs) for vs in m.gate_vars] == [4] * len(c.gates)
            for w in range(c.wires):
                assert m.offsets[w + 1] - m.offsets[w] == 2 * c.symbol_count(w)
            assert len(m.joins) == n_gaps


class TestCombinedModel:
    def test_unpinned_selector_rejected(self, single_cnot):
        m = build_model(single_cnot, ModelKind.COMBINED)
        with pytest.raises(UnpinnedSelector, match="^combined clause for gate 0 has no selector$"):
            parity_rows(m)

    def test_selector_reduction_matches_split_models(self, single_cnot):
        # the combined clause read as X (true) over (a, c, d) with a == b
        # has the X-model clause's solutions; read as Z (false) the Z model's
        for value, kind in ((True, ModelKind.X), (False, ModelKind.Z)):
            cm = build_model(single_cnot, ModelKind.COMBINED)
            a, b, c, d = cm.gate_vars[0]
            combined = set()
            for bits in itertools.product([False, True], repeat=4):
                assignment = dict(zip((a, b, c, d), bits))
                rows_ok = True
                if value:
                    rows_ok = (assignment[a] == assignment[b]) and (
                        assignment[a] ^ assignment[c] ^ assignment[d]
                    ) is False
                else:
                    rows_ok = (assignment[c] == assignment[d]) and (
                        assignment[c] ^ assignment[a] ^ assignment[b]
                    ) is False
                if rows_ok:
                    key = (
                        (assignment[a], assignment[c], assignment[d])
                        if value
                        else (assignment[c], assignment[a], assignment[b])
                    )
                    combined.add(key)
            sm = build_model(single_cnot, kind)
            before, after, crossing = sm.gate_vars[0]
            split = set()
            for bits in itertools.product([False, True], repeat=3):
                assignment = dict(zip((crossing, before, after), bits))
                if not assignment[before] ^ assignment[after] ^ assignment[crossing]:
                    split.add((assignment[crossing], assignment[before], assignment[after]))
            assert combined == split


class TestApplyCuts:
    def test_radial_removal(self, swap, swap_cut_sets):
        m = build_model(swap, ModelKind.X)
        cut = apply_cuts(m, swap_cut_sets["swap"])
        assert len(cut.joins) == 4
        assert Gap(0, 2) not in dict(cut.joins)
        assert Gap(1, 2) not in dict(cut.joins)
        assert (cut.offsets, cut.gap_vars) == (m.offsets, m.gap_vars)
        assert len({v for gap in cut.cut_gaps for v in cut.gap_vars[gap.wire][gap.index]}) == 4

    def test_teleported_cnot_removal(self, swap, swap_cut_sets):
        for kind in (ModelKind.X, ModelKind.Z):
            cut = apply_cuts(build_model(swap, kind), swap_cut_sets["teleported-cnot"])
            assert len(cut.joins) == 2

    def test_duplicate_cut(self, swap, swap_cut_sets):
        m = apply_cuts(build_model(swap, ModelKind.X), swap_cut_sets["swap"])
        with pytest.raises(DuplicateCut):
            apply_cuts(m, CutSet.of([(0, 2)]))

    def test_unknown_gap(self, swap, swap_cut_sets):
        m = build_model(swap, ModelKind.X)
        with pytest.raises(UnknownGap, match="^wire 0 gap 9 does not exist$"):
            apply_cuts(m, CutSet.of([(0, 9)]))
        # every gap is range-checked before any is looked up among the cut ones
        with pytest.raises(UnknownGap, match="^wire 0 gap 9 does not exist$"):
            apply_cuts(apply_cuts(m, swap_cut_sets["swap"]), CutSet.of([(0, 2), (0, 9)]))

    def test_cut_monotonicity_on_swap(self, swap):
        # removing joins only ever grows the solution set
        m = build_model(swap, ModelKind.X)
        base_count = count_model_solutions(m)
        solutions = set(parity_solutions(m))
        assert len(solutions) == base_count
        for gap in (Gap(0, 2), Gap(1, 2), Gap(0, 0)):
            cut = apply_cuts(m, CutSet.of([gap]))
            cut_solutions = set(parity_solutions(cut))
            assert cut_solutions >= solutions
            solutions = cut_solutions
            m = cut

    def test_self_join_drop_is_sound(self, single_cnot):
        # a join with both sides equal is a tautology: counting solutions of
        # the built model (join dropped) equals the truth-table count with
        # the tautological clause evaluated explicitly
        m = build_model(single_cnot, ModelKind.X)
        dropped_count = count_model_solutions(m)
        seg = m.gap_vars[0][0][0]
        assert m.gap_vars[0][0] == (seg, seg)
        # not(s) xor s is always true, so the count cannot change
        assert dropped_count == len(parity_solutions(m))


class TestParitySystem:
    """``parity_rows`` as a GF(2) system: solutions, rank and the ``--parity`` text."""

    def test_homogeneous_zero_solution(self, swap):
        assert 0 in parity_solutions(build_model(swap, ModelKind.X))

    def test_cut_swap_rank_seven(self, swap, swap_cut_sets):
        cut = apply_cuts(build_model(swap, ModelKind.X), swap_cut_sets["swap"])
        # independent oracle: truth-table count gives 2^(n-rank)
        count = count_model_solutions(cut)
        assert count == 2 ** (9 - 7)
        assert gf2_rank([sum(1 << v for v in vs) for vs, _ in parity_rows(cut)], 9) == 7

    def test_eq6_unit_property(self, single_cnot):
        # pinning the control-side split true leaves exactly one of the
        # crossing and the other split true
        m = apply_cuts(
            build_model(single_cnot, ModelKind.Z), CutSet.of([(0, 0), (1, 0)])
        )
        before, after, crossing = m.gate_vars[0]
        sols = [sol for sol in parity_solutions(m) if sol >> before & 1]
        projected = {(sol >> crossing & 1, sol >> after & 1) for sol in sols}
        assert projected == {(1, 0), (0, 1)}

    def test_dump_shape(self, swap):
        m = build_model(swap, ModelKind.X)
        lines = parity_text(parity_rows(m), m.n_vars).splitlines()
        assert len(lines) == 9
        assert all(len(line.split()) == 10 for line in lines)
        assert all(line.split()[-1] == "0" for line in lines)


SWAP_MAP = StabiliserMap(
    2,
    x_out=(frozenset({1}), frozenset({0})),
    z_out=(frozenset({1}), frozenset({0})),
)
# net single CNOT with control 1, target 0 (the two outer gates cancel)
CNOT_10_MAP = StabiliserMap(
    2,
    x_out=(frozenset({0}), frozenset({0, 1})),
    z_out=(frozenset({0, 1}), frozenset({1})),
)


class TestDeriveTransformations:
    def test_swap_radial_map(self, swap, swap_cut_sets):
        assert derive_transformations(swap, swap_cut_sets["swap"], Direction.CW) == SWAP_MAP

    def test_other_radial_is_single_cnot(self, swap, swap_cut_sets):
        derived = derive_transformations(swap, swap_cut_sets["single-cnot"], Direction.CW)
        assert derived == CNOT_10_MAP

    def test_teleported_cnot_matches_oracle(self, swap, swap_cut_sets):
        cuts = swap_cut_sets["teleported-cnot"]
        derived = derive_transformations(swap, cuts, Direction.CW)
        assert derived == oracle_map(linearize(swap, cuts, Direction.CW))

    def test_direction_duality(self, swap, swap_cut_sets):
        for cuts in swap_cut_sets.values():
            cw = derive_transformations(swap, cuts, Direction.CW)
            ccw = derive_transformations(swap, cuts, Direction.CCW)
            assert ccw == inverse(cw)

    def test_matches_per_input_propagation(self, swap, swap_cut_sets):
        # each input's propagation through the cut model's parity rows, X and
        # Z, both directions: the rows of the model reference's columns
        cases = [(swap, swap_cut_sets["teleported-cnot"], Direction.CW)]
        for c in all_small_circuits(max_wires=3, max_gates=3):
            for slot in range(len(c.slots())):
                cuts = CutSet.of(c.gap_spanning(w, slot) for w in range(c.wires))
                cases += [(c, cuts, d) for d in (Direction.CW, Direction.CCW)]
        for c, cuts, d in cases:
            derived = derive_transformations(c, cuts, d)
            for kind, rows in ((ModelKind.X, derived.x_out), (ModelKind.Z, derived.z_out)):
                assert solve_model_map(c, cuts, d, build_model(c, kind)) == rows


def random_pairs(rng, wires, gates):
    """Seeded CNOT (control, target) pairs touching every wire.

    Each gate touches two wires, so fewer than ``wires / 2`` gates cannot
    touch them all and raise ValueError before any draw.
    """
    if 2 * gates < wires:
        raise ValueError(f"{gates} gates cannot touch {wires} wires")
    while True:
        pairs = [tuple(rng.sample(range(wires), 2)) for _ in range(gates)]
        if len({q for pair in pairs for q in pair}) == wires:
            return pairs


def random_circularized(seed, wires, gates):
    return circularize(mklin(wires, random_pairs(random.Random(seed), wires, gates)))


def test_random_pairs_refuses_too_few_gates():
    # the draw would never touch every wire; the refusal comes first
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="1 gates cannot touch 12 wires"):
        random_pairs(rng, 12, 1)
    assert rng.getstate() == state


def transpose(rows, n):
    return [sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n)]


class TestLargeDerivations:
    @pytest.mark.parametrize("wires,gates", [(16, 128), (32, 256), (64, 1024), (128, 4096)])
    def test_z_map_is_inverse_transpose_of_x_map(self, wires, gates):
        # CNOT circuits act symplectically: Z flow is the inverse transpose
        # of X flow, a check that needs no oracle; derive reads Z off X, so
        # Z comes from solving the Z model directly
        c, record = random_circularized(wires * gates, wires, gates)
        zm = build_model(c, ModelKind.Z)
        for d in (Direction.CW, Direction.CCW):
            derived = derive_transformations(c, record.seam, d)
            z_solved = solve_model_map(c, record.seam, d, zm)
            x_rows = [sum(1 << o for o in outs) for outs in derived.x_out]
            z_rows = [sum(1 << o for o in outs) for outs in z_solved]
            assert z_rows == transpose(gf2.invert(x_rows, wires), wires)
            assert derived.z_out == z_solved

    def test_matches_oracle_at_64_wires_1024_gates(self):
        c, record = random_circularized(64, 64, 1024)
        for d in (Direction.CW, Direction.CCW):
            derived = derive_transformations(c, record.seam, d)
            assert derived == oracle_map(linearize(c, record.seam, d))

    @pytest.mark.parametrize("wires,gates", [(2, 4100), (64, 4200)])
    def test_derive_and_fault_past_4096_gates(self, wires, gates):
        # past the size up to which circuits once shared their symbol
        # tables: the seam plus extra cuts, and a family off the wrap slot
        # plus extra cuts, both directions, faults at both ends and inside
        rng = random.Random(wires * gates)
        c = mkcirc(wires, random_pairs(rng, wires, gates))
        seam = {Gap(w, c.symbol_count(w) - 1) for w in range(wires)}
        middle = {c.gap_spanning(w, gates // 2) for w in range(wires)}
        every = {Gap(w, i) for w in range(wires) for i in range(c.symbol_count(w))}
        extra = set(rng.sample(sorted(every - seam - middle), 6))
        starts = set()
        for gaps in (seam | extra, middle | extra):
            cuts = CutSet.of(sorted(gaps))
            starts.add(validate_cut_set(c, cuts).start)
            for d in Direction:
                assert derive_transformations(c, cuts, d) == oracle_map(linearize(c, cuts, d))
                for gi in (0, 1, gates // 2, gates - 1):
                    gate_id = c.gates[gi].id
                    fd = faulted_transformations(c, cuts, d, FaultSpec(gate=gate_id))
                    assert (fd.map, fd.live_inputs, fd.live_outputs) == fault_expected(c, cuts, d, gate_id)
        assert len(starts) == 2


class TestTraversalSubstitution:
    """Derive and fault substitute the X equations along the traversal (``_x_columns``)."""

    def test_starts_on_and_off_wrap_slot_match_reference(self):
        # start slots on and off the wrap slot, extra cuts, both directions:
        # the columns equal the model reference's
        starts = set()
        for seed in range(4):
            rng = random.Random(seed)
            c, record = random_circularized(seed, 6, 48)
            n_gates = len(c.gates)
            every_gap = {Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))}
            extra = set(rng.sample(sorted(every_gap - record.seam.gaps()), 4))
            # a family away from the wrap slot, with the wrap family left uncut
            middle = {c.gap_spanning(w, n_gates // 2) for w in range(c.wires)}
            cut_sets = [record.seam, CutSet.of(sorted(record.seam.gaps() | extra))]
            if not record.seam.gaps() <= middle | extra:
                cut_sets.append(CutSet.of(sorted(middle | extra)))
            for cuts in cut_sets:
                starts.add(validate_cut_set(c, cuts).start == n_gates - 1)
                assert_substitution_matches_reference(c, cuts)
                for d in Direction:
                    assert derive_transformations(c, cuts, d) == oracle_map(linearize(c, cuts, d))
        assert starts == {True, False}

    def test_fault_bases_match_deleted_gate_oracle(self):
        # the missing gate writes nothing: the columns are the X columns of
        # the linearization with that gate deleted, absorbed qubits included,
        # and the fault map is that map restricted to the live qubits
        # clockwise; counter-clockwise, the gate-deleted map is the inverse
        # of the clockwise one
        added = set()

        def check(c, base, gate):
            table = validate_cut_set(c, base)
            cut_ends = model_module._cut_ends(c, table)
            cols = model_module._x_columns(c, table, cut_ends, missing=c.gate_index(gate.id))
            for d, d_cols in ((Direction.CW, cols), (Direction.CCW, StabiliserMap.from_x(cols).inverse().x_columns())):
                lin = linearize(c, base, d)
                kept = tuple(g for g in lin.gates if g.source != gate.id)
                deleted = oracle_map(LinearCircuit(n_qubits=lin.n_qubits, gates=kept))
                assert d_cols == deleted.x_columns()
                fd = faulted_transformations(c, base, d, FaultSpec(gate=gate.id))
                assert (fd.map, fd.live_inputs, fd.live_outputs) == fault_expected(c, base, d, gate.id)
                added.add(len(fd.cuts) - len(base))

        for seed in range(3):
            rng = random.Random(seed)
            c, record = random_circularized(seed, 5, 32)
            every_gap = {Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))}
            extra = rng.sample(sorted(every_gap - record.seam.gaps()), 6)
            bases = [record.seam, CutSet.of(sorted(record.seam.gaps() | set(extra)))]
            # a base already holding a gate's two fault gaps
            gate = c.gates[seed]
            cuts, _ = inject_smgf(c, record.seam, FaultSpec(gate=gate.id))
            bases.append(cuts)
            for base in bases:
                for gate in {c.gates[seed], *c.gates[seed::3]}:
                    check(c, base, gate)
        # wire 2's one symbol is gate 1's control: the fault's two gaps are one
        single = mkcirc(3, [(0, 1), (2, 1), (1, 0)])
        check(single, CutSet.of([(0, 1), (1, 2), (2, 0)]), single.gates[1])
        assert added == {0, 1, 2}


def test_cut_ends_follow_the_table_order(swap):
    # wrap slot family (0, 2) and (1, 2) plus (0, 0): wire 0's cut at gap 2
    # starts qubit 0 and ends qubit 1, its cut at gap 0 the other way round,
    # and wire 1's one cut starts and ends qubit 2; each pair is (left, entered)
    table = validate_cut_set(swap, CutSet.of([(1, 2), (0, 2), (0, 0)]))
    cw = [[(0, 1), None, (1, 0)], [None, None, (2, 2)]]
    assert model_module._cut_ends(swap, table) == (cw, 3)


class TestCursorLapEdges:
    """``_x_columns`` steps a cursor per wire from its family gap; each edge of a lap, read both ways."""

    # wire 0 passes gates 0, 1, 3 and 4, wire 1 gates 1, 2 and 3, wire 2
    # gates 0 and 2, and wire 3 only gate 4: slot 0's family is wire 0's
    # first gap and wire 1's last, slot 1's wire 0's gap 1 and wire 1's
    # first, and wire 3's one gap is both its first and its last
    PAIRS = [(0, 2), (1, 0), (2, 1), (0, 1), (3, 0)]

    def test_every_family_and_extra_cut_matches_oracle(self):
        c = mkcirc(4, self.PAIRS)
        n_gates = len(c.gates)
        every = [Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))]
        edges = set()
        for slot in range(n_gates):
            family = {c.gap_spanning(w, slot) for w in range(c.wires)}
            for extra in ([], *([gap] for gap in every)):
                cuts = CutSet.of(sorted(family.union(extra)))
                table = validate_cut_set(c, cuts)
                for w, wire_cuts in enumerate(table.cuts):
                    last = c.symbol_count(w) - 1
                    edges.add((table.start == n_gates - 1, wire_cuts[0] == 0, wire_cuts[0] == last, last == 0))
                cut_ends = model_module._cut_ends(c, table)
                cw_cols = model_module._x_columns(c, table, cut_ends)
                assert cw_cols == oracle_map(linearize(c, cuts, Direction.CW)).x_columns()
                ccw_cols = derive_transformations(c, cuts, Direction.CCW).x_columns()
                assert ccw_cols == oracle_map(linearize(c, cuts, Direction.CCW)).x_columns()
                for d in Direction:
                    for g in c.gates:
                        fd = faulted_transformations(c, cuts, d, FaultSpec(gate=g.id))
                        assert (fd.map, fd.live_inputs, fd.live_outputs) == fault_expected(c, cuts, d, g.id)
        # off the wrap slot: a first gap, a last gap and a single-symbol wire
        assert {(False, True, False, False), (False, False, True, False), (False, True, True, True)} <= edges


class TestCommutation:
    def test_shared_control_commutes(self):
        c = mkcirc(3, [(0, 1), (0, 2)])
        assert check_commutation_invariance(c, 0, 1) is True

    def test_shared_target_commutes(self):
        c = mkcirc(3, [(1, 0), (2, 0)])
        assert check_commutation_invariance(c, 0, 1) is True

    def test_chained_does_not(self):
        c = mkcirc(3, [(0, 1), (1, 2)])
        assert check_commutation_invariance(c, 0, 1) is False

    def test_not_adjacent(self):
        c = mkcirc(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        with pytest.raises(NotAdjacent):
            check_commutation_invariance(c, 0, 2)

    @pytest.mark.parametrize(
        "pairs,expected",
        [([(0, 1), (0, 2)], True), ([(1, 0), (2, 0)], True), ([(0, 1), (1, 2)], False)],
    )
    def test_oracle_cross_check(self, pairs, expected):
        # order-independence of Pauli propagation over every 3-wire input
        from helpers import mklin

        forward = mklin(3, pairs)
        backward = mklin(3, list(reversed(pairs)))
        agree = True
        for xbits in range(8):
            for zbits in range(8):
                p = PauliString(3, xbits, zbits)
                a = propagate_pauli(forward, p)
                b = propagate_pauli(backward, p)
                if (a.xmask, a.zmask) != (b.xmask, b.zmask):
                    agree = False
        assert agree is expected
        assert check_commutation_invariance(mkcirc(3, pairs), 0, 1) is expected


def adjacent_id_pairs(c):
    """Every cyclically adjacent gate pair of ``c`` by id, in both orders."""
    pairs = {(c.gates[a].id, c.gates[b].id) for a, b in c.slots() if a != b}
    return sorted(pairs | {(b, a) for a, b in pairs})


class TestCommutationRule:
    """The CNOT rule equals deriving every radial map before and after the swap."""

    def test_small_sweep_both_orders(self):
        checked = 0
        for c in all_small_circuits(3, 4):
            adjacent = adjacent_id_pairs(c)
            for g1, g2 in adjacent:
                assert check_commutation_invariance(c, g1, g2) is commutation_by_derivation(c, g1, g2)
                checked += 1
            for g1, g2 in set(itertools.product(range(len(c.gates)), repeat=2)) - set(adjacent):
                for check in (check_commutation_invariance, commutation_by_derivation):
                    with pytest.raises(NotAdjacent):
                        check(c, g1, g2)
        assert checked == 1956

    @pytest.mark.parametrize("wires,gates", [(3, 6), (4, 16), (8, 32), (16, 64)])
    def test_random_pairs(self, wires, gates):
        rng = random.Random(wires * gates)
        c = mkcirc(wires, random_pairs(rng, wires, gates))
        for g1, g2 in rng.sample(adjacent_id_pairs(c), 3):
            assert check_commutation_invariance(c, g1, g2) is commutation_by_derivation(c, g1, g2)


class TestSlotRotation:
    """Moving a radial-only cut one slot clockwise conjugates its map.

    Reading from slot ``s + 1`` moves gate ``g`` at index ``s + 1`` from
    the front of the gate list to its back, so the map becomes g·M·g. The
    expected map comes from set algebra, not from the Pauli oracle.
    """

    @pytest.mark.parametrize("wires,gates", [(16, 128), (48, 512), (128, 4096)])
    def test_next_slot_conjugates_by_the_gate(self, wires, gates):
        rng = random.Random(wires + gates)
        pairs = random_pairs(rng, wires, gates)
        c = mkcirc(wires, pairs)

        def radial_map(slot):
            cuts = CutSet.of((w, spanning_gap_index(pairs, w, slot)) for w in range(wires))
            return derive_transformations(c, cuts, Direction.CW)

        # the last slot wraps onto the first gate
        for slot in [gates - 1, *rng.sample(range(gates - 1), 2)]:
            after = pairs[(slot + 1) % gates]
            assert radial_map((slot + 1) % gates) == conjugate_by_cnot(radial_map(slot), *after)


class TestSearchCuts:
    def test_finds_swap_reconstruction(self, swap):
        results = search_cuts(swap, SWAP_MAP, max_cuts=2)
        assert (CutSet.of([(0, 2), (1, 2)]), Direction.CW) in results

    def test_finds_single_cnot_cut(self, swap):
        results = search_cuts(swap, CNOT_10_MAP, max_cuts=2)
        assert (CutSet.of([(0, 1), (1, 1)]), Direction.CW) in results

    def test_oversized_target_empty(self, swap):
        target = StabiliserMap(
            5,
            x_out=tuple(frozenset({q}) for q in range(5)),
            z_out=tuple(frozenset({q}) for q in range(5)),
        )
        assert search_cuts(swap, target, max_cuts=4) == []

    def test_budget_too_small(self, swap):
        with pytest.raises(BudgetTooSmall):
            search_cuts(swap, SWAP_MAP, max_cuts=1)

    def test_every_result_rederives(self, swap):
        results = search_cuts(swap, SWAP_MAP, max_cuts=4)
        assert results
        for cuts, direction in results:
            assert derive_transformations(swap, cuts, direction) == SWAP_MAP

    def test_deterministic_order(self, swap):
        a = search_cuts(swap, SWAP_MAP, max_cuts=4)
        b = search_cuts(swap, SWAP_MAP, max_cuts=4)
        assert a == b


def derive_both_ways(c, cuts):
    """CW then CCW map, or the class of the solver error either raised."""
    out = []
    for d in (Direction.CW, Direction.CCW):
        try:
            out.append(derive_transformations(c, cuts, d))
        except Inconsistent as err:
            out.append(type(err))
    return out


def assert_ccw_inverts_cw(cw, ccw):
    if isinstance(cw, type) or isinstance(ccw, type):
        assert cw is ccw
    else:
        assert ccw == inverse(cw)


class TestDirectionInverse:
    """Derive CCW equals the inverse of derive CW, as derive, fault and the search read it.

    A CCW linearization is the CW gate list reversed on the same qubits and
    CNOTs are self-inverse; the two directions also fail together.
    """

    def test_small_sweep_with_extra_gaps(self, small_sweep):
        checked = 0
        for c, entries in small_sweep.table:
            for entry in family_plus_two(c, entries):
                assert_ccw_inverts_cw(*entry.derived)
                checked += 1
        assert checked > 13000


class TestSlotSystems:
    """The reduced per-slot X system that ``search_cuts`` reads candidates on.

    A cut set is read on the system of its first radial slot in the order
    the search visits (the wrap slot, then clockwise from slot 0): its
    columns must be the clockwise derivation's X columns, and the
    counter-clockwise derivation must be their map's inverse.
    """

    def test_small_sweep_matches_derivation(self, small_sweep):
        checked = 0
        for c, entries in small_sweep.table:
            gaps = [Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))]
            systems = slot_systems(c)
            index = {gap: k for k, gap in enumerate(gaps)}
            for entry in family_plus_two(c, entries):
                cut = {index[gap] for gap in entry.cuts.gaps()}
                system = next(s for s in systems if cut.issuperset(s.family))
                extras = tuple(p for p, k in enumerate(system.others) if k in cut)
                cols = reference_columns(system, extras)
                cw, ccw = entry.derived
                assert cols == cw.x_columns()
                assert ccw == inverse(StabiliserMap.from_x(cols))
                checked += 1
        assert checked > 13000

    def test_matches_every_gap_solve_reference(self):
        # each slot's walk gives the rows the every-gap solve rewritten per
        # slot gave: a gap's row is its arriving value, before its own tag
        circuits = all_small_circuits(3, 3) + [random_circularized(seed, 5, 24)[0] for seed in range(3)]
        for c in circuits:
            assert [tuple(system) for system in slot_systems(c)] == reference_slot_systems(c)


def slot_systems(c):
    """Every slot's ``_SlotSystem``, in ``search_cuts``' order: the wrap slot, then clockwise from slot 0."""
    families = model_module._slot_families(c)
    n = len(families)
    return [model_module._slot_system(c, families, s) for s in (n - 1, *range(n - 1))]


class TestDeriveAgainstModels:
    """Derive substitutes X along the traversal and reads Z as its inverse
    transpose; the model reference solves the X and the Z model's systems."""

    def test_small_sweep_matches_both_models(self, small_sweep):
        # each radial family plus 0-2 other gaps, read clockwise; one check
        # per model solved (``TestDirectionInverse`` covers counter-clockwise)
        checked = 0
        for c, entries in small_sweep.table:
            models = (build_model(c, ModelKind.X), build_model(c, ModelKind.Z))
            for entry in family_plus_two(c, entries):
                origins = arc_ends(c, entry.cuts, Direction.CW)[1]
                cols = [
                    model_columns(m, entry.cuts, *input_output_segments(m, origins, Direction.CW))
                    for m in models
                ]
                assert StabiliserMap.from_columns(*cols) == entry.derived[0]
                checked += len(models)
        assert checked > 26000


def identity_map(n):
    rows = tuple(frozenset({q}) for q in range(n))
    return StabiliserMap(n, rows, rows)


# 4-wire circuits where a gate touches only single-symbol wires, so the
# slots on either side of it share a radial family
REPEATED_FAMILIES = [[(0, 1), (2, 3)], [(0, 1), (1, 0), (2, 3)], [(0, 1), (2, 3), (1, 2)]]


class MatchAnything:
    """Equal to every value, so that a search keeps every candidate it reaches."""

    def __eq__(self, other):
        return True


class AnyTarget:
    """A stand-in target of ``n_qubits`` qubits whose X columns, and its inverse's, equal anything."""

    def __init__(self, n_qubits):
        self.n_qubits = n_qubits

    def is_symplectic(self):
        return True

    def inverse(self):
        return self

    def x_columns(self):
        return [MatchAnything()] * self.n_qubits


class TestSearchOneDerivation:
    @staticmethod
    def assert_each_candidate_reached_once(c, needs, monkeypatch):
        # with a target every column matches, nothing is pruned: every cut
        # set of ``need`` gaps holding a radial family is one candidate,
        # reached once and kept in both directions; no candidate reads a cut
        # table or runs a derivation, and each family's slot system is
        # built once
        pairs = [(g.control, g.target) for g in c.gates]
        families = [
            {Gap(w, spanning_gap_index(pairs, w, j)) for w in range(c.wires)}
            for j in range(len(pairs))
        ]
        gaps = [p.gap for p in enumerate_cut_points(c)]
        # the slot systems number a gap by (wire, gap)
        first = list(itertools.accumulate((c.symbol_count(w) for w in range(c.wires)), initial=0))
        numbered = {tuple(sorted(first[g.wire] + g.index for g in family)) for family in families}
        walked = []
        real_slot_system = model_module._slot_system

        def counted(c, slot_families, s):
            walked.append(slot_families[s])
            return real_slot_system(c, slot_families, s)

        def refuse(*args, **kwargs):
            raise AssertionError("search read a cut table or derived a map")

        monkeypatch.setattr(model_module, "_slot_system", counted)
        monkeypatch.setattr(model_module, "validate_cut_set", refuse)
        monkeypatch.setattr(model_module, "derive_transformations", refuse)
        for need in needs:
            walked.clear()
            found = search_cuts(c, AnyTarget(need), need)
            expected = sorted(
                (
                    CutSet.of(combo)
                    for combo in itertools.combinations(gaps, need)
                    if any(family.issubset(combo) for family in families)
                ),
                key=CutSet.sorted_gaps,
            )
            assert found == [(cuts, d) for cuts in expected for d in Direction]
            if need <= len(gaps):
                assert sorted(walked) == sorted(numbered)

    def test_each_candidate_evaluated_once(self, swap, monkeypatch):
        self.assert_each_candidate_reached_once(swap, (2, 3, 4), monkeypatch)

    @pytest.mark.parametrize("pairs", REPEATED_FAMILIES, ids=["two-gates", "three-gates", "linked"])
    def test_shared_family_evaluated_once(self, monkeypatch, pairs):
        # slots sharing a family walk it once and hand each candidate to
        # the first of them only
        self.assert_each_candidate_reached_once(mkcirc(4, pairs), (4, 5, 6), monkeypatch)

    @pytest.mark.parametrize(
        "x_out,error",
        [(({0, 2}, {1}), WireOutOfRange), (({0}, {0}), Inconsistent)],
        ids=["output-out-of-range", "singular"],
    )
    def test_target_without_inverse_matches_no_ccw(self, x_out, error):
        # every reading of two equal CNOTs is the identity; such a target
        # has no inverse, so nothing is read off one
        c = mkcirc(2, [(0, 1), (0, 1)])
        if error is WireOutOfRange:
            # a map cannot hold a row naming an output outside its qubits
            with pytest.raises(WireOutOfRange):
                StabiliserMap(2, tuple(map(frozenset, x_out)), identity_map(2).z_out)
            return
        target = StabiliserMap(2, tuple(map(frozenset, x_out)), identity_map(2).z_out)
        with pytest.raises(error):
            inverse(target)
        assert search_cuts(c, target, 2) == []


# Toffoli circular form (5 wires, 20 gates, 40 gaps), need 7: per target
# (the oracle map of a radial family plus two gaps, in one direction) the
# search's hits, recorded with a search that derived every candidate
TOFFOLI_NEED_7 = [
    (
        [(0, 4), (1, 2), (2, 3), (2, 11), (3, 7), (4, 5), (4, 11)],
        [
            [(0, 4), (1, 2), (2, 3), (2, 11), (3, 7), (4, 5), (4, 11)],
            [(0, 4), (1, 2), (2, 3), (2, 11), (3, 7), (4, 7), (4, 11)],
        ],
    ),
    (
        [(0, 0), (0, 1), (1, 0), (2, 3), (3, 2), (3, 4), (4, 2)],
        [
            [(0, 0), (0, 1), (1, 0), (2, 3), (3, 2), (3, 4), (4, 2)],
            [(0, 0), (0, 1), (1, 0), (2, 3), (3, 4), (3, 7), (4, 2)],
        ],
    ),
    (
        [(0, 2), (1, 2), (2, 0), (2, 7), (3, 6), (4, 6), (4, 9)],
        [
            [(0, 2), (1, 2), (2, 0), (2, 7), (3, 6), (4, 6), (4, 9)],
            [(0, 2), (1, 2), (2, 0), (2, 9), (3, 6), (4, 8), (4, 9)],
        ],
    ),
]


class TestSearchToffoli:
    @pytest.mark.parametrize("d", list(Direction), ids=lambda d: d.value)
    @pytest.mark.parametrize("known,hits", TOFFOLI_NEED_7, ids=["wrap-slot", "slot-6", "slot-13"])
    def test_need_seven_matches_recorded(self, known, hits, d):
        # each hit reads the target in the known set's direction only
        c, _ = strip_and_circularize(translate_to_icm(*toffoli_decomposition()))
        target = oracle_map(linearize(c, CutSet.of(known), d))
        assert search_cuts(c, target, 7) == [(CutSet.of(gaps), d) for gaps in hits]


# what a search calls to walk its slots, and the builders it must not call
SEARCH_WALK_NAMES = (
    "spanning_gaps",
    "_slot_families",
    "_slot_system",
    "_compositions",
    "_walk_slot",
    "build_model",
    "derive_transformations",
)


class TestSearchBound:
    def test_refused_before_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a slot was walked")

        for name in SEARCH_WALK_NAMES:
            monkeypatch.setattr(model_module, name, refuse)
        c = mkcirc(2, [(0, 1)] * 20)  # 20 slots, 40 gaps
        with pytest.raises(SearchTooLarge) as err:
            search_cuts(c, identity_map(6), 6)
        bound = 20 * math.comb(38, 4)
        assert err.value.code == "search-too-large"
        assert err.value.details == {"bound": bound, "limit": MAX_SEARCH_CANDIDATES}

    def test_bound_past_str_limit(self):
        # the message caps the bound without formatting it; details keep it whole
        c = mkcirc(2, [(0, 1)] * 10_000)
        with pytest.raises(SearchTooLarge) as err:
            search_cuts(c, identity_map(10_000), 10_000)
        bound = 10_000 * math.comb(19_998, 9_998)
        assert err.value.details["bound"] == bound
        shown = re.fullmatch(
            r"search could build (\d{64})\.\.\. \((\d+) digits\) candidates, more than 100000", str(err.value)
        )
        digits = int(shown[2])
        assert 10 ** (digits - 1) <= bound < 10**digits
        assert int(shown[1]) == bound // 10 ** (digits - 64)

    def test_limit_is_inclusive(self, swap, monkeypatch):
        # SWAP, 3 cuts: 3 slots x C(6 - 2, 3 - 2) = 12 candidates by the bound
        monkeypatch.setattr(model_module, "MAX_SEARCH_CANDIDATES", 12)
        search_cuts(swap, identity_map(3), 3)
        monkeypatch.setattr(model_module, "MAX_SEARCH_CANDIDATES", 11)
        with pytest.raises(SearchTooLarge) as err:
            search_cuts(swap, identity_map(3), 3)
        assert err.value.details == {"bound": 12, "limit": 11}


class TestSearchImpossibleTarget:
    """Targets no derived map can equal are refused before anything is built."""

    @pytest.mark.parametrize(
        "x_out,z_out",
        [
            (({0, 2}, {1}), ({0}, {1})),
            (({0}, {0}), ({0}, {1})),
            (({0}, {1}), ({1}, {0})),
            (({0, 1}, {1}), ({0}, {1})),
            (({-1}, {1}), ({0}, {1})),
        ],
        ids=["output-out-of-range", "singular", "z-not-inverse-transpose", "z-not-transposed", "negative-output"],
    )
    def test_refused_before_building(self, monkeypatch, x_out, z_out):
        def refuse(*args, **kwargs):
            raise AssertionError("a slot was walked or a model built")

        for name in SEARCH_WALK_NAMES:
            monkeypatch.setattr(model_module, name, refuse)
        c = mkcirc(2, [(0, 1), (1, 0), (0, 1)])
        if any(not 0 <= o < 2 for outs in x_out for o in outs):
            # the constructor refuses these rows, so no such target reaches the search
            with pytest.raises(WireOutOfRange):
                StabiliserMap(2, tuple(map(frozenset, x_out)), tuple(map(frozenset, z_out)))
            return
        target = StabiliserMap(2, tuple(map(frozenset, x_out)), tuple(map(frozenset, z_out)))
        assert search_cuts(c, target, 2) == []

    def test_possible_target_still_searched(self, swap):
        # the SWAP's seam reading is the swap map; its Z is its inverse transpose
        swap_map = StabiliserMap(2, (frozenset({1}), frozenset({0})), (frozenset({1}), frozenset({0})))
        assert (CutSet.of([(0, 2), (1, 2)]), Direction.CW) in search_cuts(swap, swap_map, 2)


class TestSearchReference:
    """``search_cuts`` against a brute force written from the file format.

    The brute force filters the cut sets of ``sweep_table`` (every subset
    of ``need`` gaps by (wire, gap), sorted) through its own radial check,
    one family per slot from the gate list, and keeps the sets whose
    derivation is the target, clockwise first.
    """

    @staticmethod
    def brute_force_table(c, entries, need):
        pairs = [(g.control, g.target) for g in c.gates]
        gaps = [Gap(w, i) for w in range(c.wires) for i in range(sum(w in p for p in pairs))]
        families = [
            {Gap(w, spanning_gap_index(pairs, w, j)) for w in range(c.wires)}
            for j in range(len(pairs))
        ]
        table = [
            (entry.cuts, d, derived)
            for entry in entries
            if len(entry.cuts) == need and any(family <= entry.cuts.gaps() for family in families)
            for d, derived in zip(Direction, entry.derived)
        ]
        return families, gaps, table

    def test_matches_brute_force_exhaustive(self, small_sweep):
        searches = 0
        for c, entries in small_sweep.table:
            families, gaps, table = self.brute_force_table(c, entries, c.wires)
            targets = {
                oracle_map(linearize(c, CutSet.of(family), d))
                for family in families
                for d in Direction
            }
            for target in sorted(targets, key=StabiliserMap.report):
                expected = [(cuts, d) for cuts, d, derived in table if derived == target]
                for max_cuts in (c.wires + 1, c.wires + 2):
                    assert search_cuts(c, target, max_cuts) == expected
                    searches += 1
        assert searches > 1000

    def test_matches_brute_force_beyond_family(self, small_sweep):
        # targets that need one cut beyond a radial family: the wrap slot's
        # family plus each other gap, so the built candidates carry extras;
        # circuits of up to 3 gates
        searches = 0
        for c, entries in small_sweep.table:
            if len(c.gates) > 3:
                continue
            families, gaps, table = self.brute_force_table(c, entries, c.wires + 1)
            wrap = families[-1]
            targets = {
                oracle_map(linearize(c, CutSet.of(wrap | {gap}), d))
                for gap in gaps
                if gap not in wrap
                for d in Direction
            }
            for target in sorted(targets, key=StabiliserMap.report):
                expected = [(cuts, d) for cuts, d, derived in table if derived == target]
                assert search_cuts(c, target, c.wires + 1) == expected
                assert search_cuts(c, target, c.wires) == []
                searches += 1
        assert searches > 50


class TestSearchRepeatedFamilies:
    """Slots sharing a radial family yield each hit once, as the brute force does."""

    @pytest.mark.parametrize("pairs", REPEATED_FAMILIES, ids=["two-gates", "three-gates", "linked"])
    @pytest.mark.parametrize("extra", [0, 1], ids=["family", "family-plus-one"])
    def test_matches_brute_force(self, pairs, extra):
        c = mkcirc(4, pairs)
        [(_, entries)] = sweep_table([c], c.wires + extra)
        families, gaps, table = TestSearchReference.brute_force_table(c, entries, c.wires + extra)
        targets = {
            oracle_map(linearize(c, CutSet.of(family | set(more)), d))
            for family in families
            for more in itertools.combinations(sorted(set(gaps) - family), extra)
            for d in Direction
        }
        for target in sorted(targets, key=StabiliserMap.report):
            expected = [(cuts, d) for cuts, d, derived in table if derived == target]
            found = search_cuts(c, target, c.wires + 2)
            assert len(set(found)) == len(found)
            assert found == expected


@st.composite
def search_cases(draw):
    """A random circuit of 2-5 wires and up to 12 gates, a need of ``wires`` to ``wires + 3`` and a known hit.

    Half the circuits of 4 or 5 wires put their last two wires on one gate
    only, so the slots on either side of it share a radial family. The
    known hit is a random slot's family plus random other gaps, read in a
    random direction.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    wires = draw(st.integers(2, 5))
    gates = draw(st.integers(wires - wires // 2, 12))
    if wires >= 4 and draw(st.booleans()):
        pairs = random_pairs(rng, wires - 2, max(gates - 1, 1))
        pairs.insert(rng.randrange(len(pairs) + 1), (wires - 2, wires - 1))
    else:
        pairs = random_pairs(rng, wires, gates)
    c = mkcirc(wires, pairs)
    gaps = [Gap(w, i) for w in range(wires) for i in range(c.symbol_count(w))]
    need = min(wires + rng.randint(0, 3), len(gaps))
    family = {Gap(w, i) for w, i in enumerate(list(model_module.spanning_gaps(c))[rng.randrange(len(pairs))])}
    extras = rng.sample(sorted(set(gaps) - family), need - wires)
    return c, CutSet.of([*family, *extras]), rng.choice(list(Direction))


class TestSearchWalk:
    """The pruned walk finds what the stream that read every candidate in full found."""

    @staticmethod
    def assert_matches_reference(c, target, need):
        found = search_cuts(c, target, need)
        assert found == reference_search(c, target, need)
        for cuts, d in found:
            assert oracle_map(linearize(c, cuts, d)) == target
        return found

    @given(case=search_cases())
    def test_matches_stream_reference(self, case):
        c, known, d = case
        need = len(known.gaps())
        target = oracle_map(linearize(c, known, d))
        assert (known, d) in self.assert_matches_reference(c, target, need)
        # the same X with the identity's Z is not symplectic unless X is the identity
        bent = StabiliserMap.from_columns(target.x_columns(), identity_map(need).x_columns())
        if not bent.is_symplectic():
            assert self.assert_matches_reference(c, bent, need) == []

    def test_ccw_only_hits(self):
        # targets read counter-clockwise off a seeded sample: some cut sets
        # read the target counter-clockwise only, and the walk keeps them
        ccw_only = 0
        for seed in range(40):
            rng = random.Random(seed)
            wires = rng.randint(2, 4)
            c = mkcirc(wires, random_pairs(rng, wires, rng.randint(wires, 8)))
            gaps = [Gap(w, i) for w in range(wires) for i in range(c.symbol_count(w))]
            family = {Gap(w, i) for w, i in enumerate(next(model_module.spanning_gaps(c)))}
            extras = rng.sample(sorted(set(gaps) - family), min(rng.randint(0, 2), len(gaps) - wires))
            known = CutSet.of([*family, *extras])
            target = oracle_map(linearize(c, known, Direction.CCW))
            found = self.assert_matches_reference(c, target, len(known.gaps()))
            ccw_only += sum(d is Direction.CCW and (cuts, Direction.CW) not in found for cuts, d in found)
        assert ccw_only > 10

    def test_reach_past_the_bound(self, monkeypatch):
        # 3 wires x 37 gates for 6 cuts: 37 x C(71, 3) = 2,114,735 candidates
        # by the bound, which an unpruned search reads in tens of seconds
        monkeypatch.setattr(model_module, "MAX_SEARCH_CANDIDATES", 10**7)
        rng = random.Random(37)
        c = mkcirc(3, random_pairs(rng, 3, 37))
        gaps = [Gap(w, i) for w in range(3) for i in range(c.symbol_count(w))]
        family = {Gap(w, i) for w, i in enumerate(list(model_module.spanning_gaps(c))[rng.randrange(37)])}
        known = CutSet.of([*family, *rng.sample(sorted(set(gaps) - family), 3)])
        d = rng.choice(list(Direction))
        target = oracle_map(linearize(c, known, d))
        start = time.perf_counter()
        found = search_cuts(c, target, 6)
        elapsed = time.perf_counter() - start
        assert (known, d) in found
        for cuts, direction in found:
            assert oracle_map(linearize(c, cuts, direction)) == target
        assert elapsed < 2.0

    def test_many_wires(self):
        # a ring of 200 wires for one extra cut: 200 slots x 200 ways to
        # place the cut, each walked without touching every wire
        n = 200
        c = mkcirc(n, [(w, (w + 1) % n) for w in range(n)])
        family = {Gap(w, i) for w, i in enumerate(list(model_module.spanning_gaps(c))[n // 2])}
        known = CutSet.of([*family, next(Gap(w, i) for w in range(n) for i in (0, 1) if Gap(w, i) not in family)])
        target = oracle_map(linearize(c, known, Direction.CW))
        start = time.perf_counter()
        found = search_cuts(c, target, n + 1)
        elapsed = time.perf_counter() - start
        assert (known, Direction.CW) in found
        for cuts, d in found:
            assert oracle_map(linearize(c, cuts, d)) == target
        assert elapsed < 2.0

    def test_worst_case_under_the_bound(self):
        # twelve equal CNOTs for 6 cuts and the identity, 87,780 candidates
        # by the bound: the column prefixes match widely, so the walk prunes
        # least; the unpruned search took 0.68 s
        c = mkcirc(2, [(0, 1)] * 12)
        start = time.perf_counter()
        found = search_cuts(c, identity_map(6), 6)
        elapsed = time.perf_counter() - start
        assert len(found) == 3440
        for cuts, d in found:
            assert oracle_map(linearize(c, cuts, d)) == identity_map(6)
        assert elapsed < 0.68


class TestModelViewsGolden:
    """The SWAP model's segment names, text captured before the models were
    stored as integer variable indices."""

    def test_segment_views(self, swap):
        m = build_model(swap, ModelKind.X)
        name = m.segment_name
        assert [name(v) for v in range(m.n_vars)] == [
            "w0s0", "w0s1", "w0s2", "w0s3", "w1s0", "w1s1", "w1s2", "w1s3", "w1s4",
        ]
        gaps = [Gap(w, i) for w in range(2) for i in range(3)]
        assert {gap: tuple(map(name, m.gap_vars[gap.wire][gap.index])) for gap in gaps} == {
            Gap(0, 0): ("w0s3", "w0s0"),
            Gap(0, 1): ("w0s1", "w0s2"),
            Gap(0, 2): ("w0s2", "w0s3"),
            Gap(1, 0): ("w1s0", "w1s1"),
            Gap(1, 1): ("w1s1", "w1s2"),
            Gap(1, 2): ("w1s3", "w1s4"),
        }


@st.composite
def circular_circuits(draw, max_wires=8):
    """2 to ``max_wires`` wires and 1-40 gates, every wire touched."""
    wires = draw(st.integers(2, max_wires))
    # a wire and another one, drawn without rejection
    pair = st.tuples(st.integers(0, wires - 1), st.integers(1, wires - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % wires)
    )
    pairs = draw(st.lists(pair, min_size=1, max_size=40 - wires))
    for w in range(wires):
        if not any(w in p for p in pairs):
            other = (w + draw(st.integers(1, wires - 1))) % wires
            gate = (w, other) if draw(st.booleans()) else (other, w)
            pairs.insert(draw(st.integers(0, len(pairs))), gate)
    return pairs, mkcirc(wires, pairs)


class TestDeriveProperties:
    """Random circuits beyond the exhaustive small sweep (profiles in conftest)."""

    @given(data=st.data())
    def test_derive_matches_oracle(self, data):
        pairs, c = data.draw(circular_circuits())
        slot = data.draw(st.integers(0, len(pairs) - 1))
        family = [Gap(w, spanning_gap_index(pairs, w, slot)) for w in range(c.wires)]
        others = [p.gap for p in enumerate_cut_points(c) if p.gap not in family]
        extra = []
        if others:
            extra = data.draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
        cuts = CutSet.of(family + extra)
        n = c.wires + len(extra)
        zm = build_model(c, ModelKind.Z)
        for d in Direction:
            derived = derive_transformations(c, cuts, d)
            assert derived == oracle_map(linearize(c, cuts, d))
            # Z solved from the Z model, not read off derive's X map
            x_rows = [sum(1 << o for o in outs) for outs in derived.x_out]
            z_rows = [sum(1 << o for o in outs) for outs in solve_model_map(c, cuts, d, zm)]
            assert z_rows == transpose(gf2.invert(x_rows, n), n)

    @given(data=st.data())
    def test_ccw_is_inverse_of_cw(self, data):
        # read counter-clockwise, a cut set gives the clockwise gate list
        # reversed: the inverse map, derived and faulted alike; starts off
        # the wrap slot and extra cuts included
        pairs, c = data.draw(circular_circuits())
        slot = data.draw(st.integers(0, len(pairs) - 1))
        family = [Gap(w, spanning_gap_index(pairs, w, slot)) for w in range(c.wires)]
        others = [p.gap for p in enumerate_cut_points(c) if p.gap not in family]
        extra = data.draw(st.lists(st.sampled_from(others), max_size=4, unique=True)) if others else []
        cuts = CutSet.of(family + extra)
        cw, ccw = derive_both_ways(c, cuts)
        # ``inverse`` inverts each half with ``gf2.invert``; the library swaps the halves
        assert_ccw_inverts_cw(cw, ccw)
        assert cw.inverse().inverse() == cw
        gate_id = data.draw(st.sampled_from([g.id for g in c.gates]))
        cw_fault, ccw_fault = (faulted_transformations(c, cuts, d, FaultSpec(gate=gate_id)) for d in Direction)
        # the halves swapped, read as sets: CCW X on input i reaches j when CW Z on input j reached i
        for ccw_rows, cw_rows in ((ccw_fault.map.x_out, cw_fault.map.z_out), (ccw_fault.map.z_out, cw_fault.map.x_out)):
            assert ccw_rows == tuple(frozenset(j for j, row in enumerate(cw_rows) if i in row) for i in range(len(cw_rows)))
        assert (ccw_fault.live_inputs, ccw_fault.live_outputs) == (cw_fault.live_outputs, cw_fault.live_inputs)

    @given(data=st.data())
    def test_no_radial_family_rejected(self, data):
        pairs, c = data.draw(circular_circuits())
        gaps = [p.gap for p in enumerate_cut_points(c)]
        chosen = set(data.draw(st.lists(st.sampled_from(gaps), min_size=1, unique=True)))
        families = [
            {Gap(w, spanning_gap_index(pairs, w, j)) for w in range(c.wires)}
            for j in range(len(pairs))
        ]
        assume(not any(family <= chosen for family in families))
        for d in Direction:
            with pytest.raises(NoRadialCut):
                derive_transformations(c, CutSet.of(chosen), d)


CUT_MODES = ("seam", "no-seam", "every", "none")


def cut_for(c, mode, chosen):
    """``chosen`` with the seam (every wire's last gap) added or removed, every gap, or none."""
    seam = {Gap(w, c.symbol_count(w) - 1) for w in range(c.wires)}
    every = {Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))}
    return {"seam": chosen | seam, "no-seam": chosen - seam, "every": every, "none": set()}[mode]


def assert_substitution_matches_reference(c, cuts) -> bool:
    """Whether the cut set holds a radial family; if so, its X columns
    substituted along the clockwise traversal, and the counter-clockwise
    derivation's, equal the model reference's X columns, read at
    ``arc_ends`` in each direction."""
    try:
        table = validate_cut_set(c, cuts)
    except (EmptyCutSet, NoRadialCut):
        return False
    m = build_model(c, ModelKind.X)
    found = {
        Direction.CW: model_module._x_columns(c, table, model_module._cut_ends(c, table)),
        Direction.CCW: derive_transformations(c, cuts, Direction.CCW).x_columns(),
    }
    for d, cols in found.items():
        ins, outs = input_output_segments(m, arc_ends(c, cuts, d)[1], d)
        assert cols == model_columns(m, cuts, ins, outs)
    return True


class TestSubstitutionAnyCutSet:
    """The traversal's X columns (``_x_columns``) under any cut set equal the
    model reference's."""

    @given(data=st.data())
    def test_matches_model_reference(self, data):
        # a drawn cut set with the seam added or removed, every gap or none
        _, c = data.draw(circular_circuits(max_wires=12))
        gaps = [p.gap for p in enumerate_cut_points(c)]
        chosen = set(data.draw(st.lists(st.sampled_from(gaps), unique=True)))
        cut = cut_for(c, data.draw(st.sampled_from(CUT_MODES)), chosen)
        assert_substitution_matches_reference(c, CutSet.of(sorted(cut)))

    def test_small_circuits_every_cut_set(self):
        # single-symbol wires and wires touched only as control or only as
        # target, under every cut set
        shapes = collections.Counter()
        for c in all_small_circuits(3, 3):
            for w in range(c.wires):
                kinds = {"control" if c.gates[gi].control == w else "target" for gi in c.symbols(w)}
                shapes["single"] += c.symbol_count(w) == 1
                shapes["control-only"] += kinds == {"control"}
                shapes["target-only"] += kinds == {"target"}
            gaps = [p.gap for p in enumerate_cut_points(c)]
            for k in range(len(gaps) + 1):
                for cut in itertools.combinations(gaps, k):
                    shapes["radial"] += assert_substitution_matches_reference(c, CutSet.of(cut))
        assert min(shapes.values()) > 20


class TestCutTableReadOut:
    """Derivations and faults number their qubits off ``validate_cut_set``'s cut lists; ``arc_ends``, read off the gate list, is the reference."""

    @given(data=st.data())
    def test_matches_origins_and_oracle(self, data):
        # start slots off the wrap slot, several cuts on a wire, both directions
        pairs, c = data.draw(circular_circuits(max_wires=12))
        wrap = len(pairs) - 1
        last_gaps = {Gap(w, c.symbol_count(w) - 1) for w in range(c.wires)}
        slot = data.draw(st.integers(0, wrap))
        family = [Gap(w, spanning_gap_index(pairs, w, slot)) for w in range(c.wires)]
        off_wrap = data.draw(st.booleans())
        if off_wrap:
            assume(set(family) != last_gaps)
        others = [
            p.gap for p in enumerate_cut_points(c)
            if p.gap not in family and not (off_wrap and p.gap in last_gaps)
        ]
        extra = data.draw(st.lists(st.sampled_from(others), max_size=8, unique=True)) if others else []
        cuts = CutSet.of(family + extra)
        table = validate_cut_set(c, cuts)
        if off_wrap:
            assert table.start != wrap
        # clockwise, qubit q's arc is entered at the table's q-th cut
        start, origins = arc_ends(c, cuts, Direction.CW)
        assert (table.start, [Gap(w, i) for w, wire_cuts in enumerate(table.cuts) for i in wire_cuts]) == (
            start,
            [o.input_cut for o in origins],
        )
        faulted = data.draw(st.lists(st.sampled_from([g.id for g in c.gates]), min_size=1, max_size=3, unique=True))
        for d in Direction:
            assert table.start == arc_ends(c, cuts, d)[0]
            assert derive_transformations(c, cuts, d) == oracle_map(linearize(c, cuts, d))
            for gate_id in faulted:
                fd = faulted_transformations(c, cuts, d, FaultSpec(gate=gate_id))
                assert (fd.map, fd.live_inputs, fd.live_outputs) == fault_expected(c, cuts, d, gate_id)
        # each qubit's input and output segments, read at its ``arc_ends`` gaps
        assert assert_substitution_matches_reference(c, cuts)


class TestBuildsNoModel:
    """Derivations, faults and searches substitute along the traversal: no model, no solver."""

    def test_fault_and_search_build_no_model(self, monkeypatch):
        c, record = random_circularized(5, 6, 40)
        target = derive_transformations(c, record.seam, Direction.CW)

        def refuse(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(model_module, "build_model", refuse)
        monkeypatch.setattr(model_module, "BooleanModel", refuse)
        faults = [
            (gate.id, d, faulted_transformations(c, record.seam, d, FaultSpec(gate=gate.id)))
            for gate in c.gates[::5]
            for d in Direction
        ]
        hits = search_cuts(c, target, c.wires)
        monkeypatch.undo()
        assert (record.seam, Direction.CW) in hits
        for gate_id, d, fd in faults:
            lin = linearize(c, record.seam, d)
            kept = tuple(g for g in lin.gates if g.source != gate_id)
            expected = oracle_map(LinearCircuit(n_qubits=lin.n_qubits, gates=kept))
            assert fd.map == restrict_map(expected, fd.live_inputs, fd.live_outputs)

    def test_derive_fault_and_search_call_no_solver(self, monkeypatch):
        # no model is built, no gate is emitted and no solver is called;
        # each derived or faulted map is one inversion of its X columns
        c, record = random_circularized(3, 8, 64)
        target = derive_transformations(c, record.seam, Direction.CW)
        inverted = []
        real_invert = gf2.invert

        def refuse(*args, **kwargs):
            raise AssertionError("built a model, emitted a gate or called the solver")

        monkeypatch.setattr(model_module, "build_model", refuse)
        monkeypatch.setattr(model_module, "BooleanModel", refuse)
        monkeypatch.setattr(circuits_module, "LinearGate", refuse)
        monkeypatch.setattr(gf2, "solve_tagged", refuse)
        monkeypatch.setattr(gf2, "invert", lambda rows, n: inverted.append(n) or real_invert(rows, n))
        derived = [derive_transformations(c, record.seam, d) for d in Direction]
        assert inverted == [c.wires] * 2
        faults = [
            (gate.id, d, faulted_transformations(c, record.seam, d, FaultSpec(gate=gate.id)))
            for gate in c.gates[::8]
            for d in Direction
        ]
        assert inverted == [c.wires] * (2 + len(faults))
        hits = search_cuts(c, target, c.wires)
        assert len(inverted) == 2 + len(faults)
        monkeypatch.undo()
        assert derived == [oracle_map(linearize(c, record.seam, d)) for d in Direction]
        assert (record.seam, Direction.CW) in hits
        for gate_id, d, fd in faults:
            assert (fd.map, fd.live_inputs, fd.live_outputs) == fault_expected(c, record.seam, d, gate_id)


@st.composite
def invertible_columns(draw):
    """An invertible GF(2) matrix of 1-12 columns as masks: a permuted identity, then column additions."""
    n = draw(st.integers(1, 12))
    cols = [1 << q for q in draw(st.permutations(range(n)))]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)):
        if i != j:
            cols[i] ^= cols[j]
    return cols


class TestMapReadOut:
    """``StabiliserMap.from_x`` reads solver columns into a map with Z = (Xᵀ)⁻¹."""

    @given(cols=invertible_columns())
    def test_from_x_is_symplectic_and_inverse_round_trips(self, cols):
        m = StabiliserMap.from_x(cols)
        assert m.x_out == rows_of_columns(cols)
        # X·Zᵀ = I: X row i meets Z row k in an odd number of outputs iff i == k
        for i, x in enumerate(m.x_out):
            for k, z in enumerate(m.z_out):
                assert len(x & z) % 2 == (i == k)
        assert m.is_symplectic()
        assert inverse(inverse(m)) == m

    def test_singular_columns_raise(self):
        with pytest.raises(Inconsistent):
            StabiliserMap.from_x([0b11, 0b11])

    def test_inverse_x_columns_are_z_rows(self):
        # a CNOT circuit's map is symplectic, so its inverse's X columns,
        # (Xᵀ)⁻¹ by rows, are its own Z rows: ``StabiliserMap.inverse`` reads them there
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(2, 12)
            m = oracle_map(mklin(n, random_pairs(rng, n, rng.randint(n, 40))))
            assert inverse(m).x_columns() == [sum(1 << o for o in outs) for outs in m.z_out]

    def test_one_invert_per_read_out(self, monkeypatch):
        calls = []
        real_invert = gf2.invert
        monkeypatch.setattr(gf2, "invert", lambda rows, n: calls.append(n) or real_invert(rows, n))
        m = StabiliserMap.from_x([0b01, 0b11])
        assert calls == [2]


@st.composite
def columns_with_inverse(draw):
    """Invertible columns of 1-48 qubits and the rows of their inverse, kept in step without ``gf2``.

    The columns are the rows of a matrix A: a permutation matrix, then row
    additions ``A[i] ^= A[j]``, each of which adds column ``i`` of A⁻¹ to
    its column ``j``.
    """
    n = draw(st.integers(1, 48))
    perm = draw(st.permutations(range(n)))
    cols = [1 << p for p in perm]
    inv = [0] * n
    for q, p in enumerate(perm):
        inv[p] = 1 << q
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=150)):
        if i != j:
            cols[i] ^= cols[j]
            inv = [row ^ (row >> i & 1) << j for row in inv]
    return cols, inv


class TestMaskMap:
    """The mask map against frozenset rows built by ``rows_of_columns``."""

    @given(pair=columns_with_inverse())
    def test_masks_match_reference_rows(self, pair):
        cols, inv = pair
        n = len(cols)
        # Z = (Xᵀ)⁻¹ has the rows of A⁻¹; its columns are their transpose
        z_cols = [sum(1 << i for i in range(n) if inv[i] >> j & 1) for j in range(n)]
        x_ref, z_ref = rows_of_columns(cols), rows_of_columns(z_cols)
        ref = StabiliserMap(n, x_ref, z_ref)
        m = StabiliserMap.from_x(cols)
        assert m == ref
        assert StabiliserMap.from_columns(cols, z_cols) == ref
        assert hash(m) == hash(ref)
        assert (m.x_out, m.z_out) == (x_ref, z_ref)
        assert m.x_columns() == cols
        text = "\n".join(
            f"{kind}{q} -> {kind}{{{','.join(str(o) for o in sorted(outs))}}}"
            for kind, rows in (("X", x_ref), ("Z", z_ref))
            for q, outs in enumerate(rows)
        )
        assert m.report() == text
        assert StabiliserMap.from_report(text) == m
        assert m.is_symplectic()
        assert inverse(inverse(m)) == m
        # the library's inverse swaps the halves; ``inverse`` inverts each
        assert m.inverse() == inverse(m)
        # a restricted map's swap is the inverse's restriction, live sets exchanged
        live_in, live_out = ((1 << n) - 1) ^ 1, ((1 << n) - 1) ^ 1 << (n - 1)
        assert m.restricted(live_in, live_out).inverse() == m.inverse().restricted(live_out, live_in)
        for name in ("n_qubits", "x_out", "z_out", "_x_cols", "_z_rows"):
            with pytest.raises(AttributeError):
                setattr(m, name, ())
