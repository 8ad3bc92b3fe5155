import collections
import dataclasses
import itertools
import math
import random
import re

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
from circnot.circuits import CONTROL, TARGET, LinearCircuit, cut_table
from circnot.cli import parity_text
from circnot.icm import FaultSpec, faulted_transformations, inject_smgf
from circnot.model import MAX_SEARCH_CANDIDATES, ModelKind
from circnot.pauli import PauliString, propagate_pauli
from helpers import (
    SWAP_X_REF,
    SWAP_Z_REF,
    Underdetermined,
    all_small_circuits,
    arc_ends,
    commutation_by_derivation,
    conjugate_by_cnot,
    count_model_solutions,
    derive_by_both_models,
    fault_expected,
    fault_map_by_model,
    gf2_rank,
    input_output_segments,
    isomorphic_to_reference,
    mkcirc,
    mklin,
    parity_solutions,
    propagate_with_joins,
    reference_build_model,
    reference_slot_systems,
    restrict_map,
    rows_of_columns,
    small_sweep_cut_sets,
    solve_classes,
    solve_map_rows,
    solve_map_rows_with_joins,
    solve_model_map,
    spanning_gap_index,
    swap_circular,
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
        end, start = m.gap_pair(Gap(0, 0))
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
        assert len({v for gap in cut.cut_gaps for v in cut.gap_pair(gap)}) == 4

    def test_teleported_cnot_removal(self, swap, swap_cut_sets):
        for kind in (ModelKind.X, ModelKind.Z):
            cut = apply_cuts(build_model(swap, kind), swap_cut_sets["teleported-cnot"])
            assert len(cut.joins) == 2

    def test_duplicate_cut(self, swap, swap_cut_sets):
        m = apply_cuts(build_model(swap, ModelKind.X), swap_cut_sets["swap"])
        with pytest.raises(DuplicateCut):
            apply_cuts(m, CutSet.of([(0, 2)]))

    def test_unknown_gap(self, swap):
        with pytest.raises(UnknownGap):
            apply_cuts(build_model(swap, ModelKind.X), CutSet.of([(0, 9)]))

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
        seg = m.gap_pair(Gap(0, 0))[0]
        assert m.gap_pair(Gap(0, 0)) == (seg, seg)
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
        assert gf2_rank(gf2.pack(parity_rows(cut), 9), 10) == 7

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
            assert ccw == cw.inverse()

    def test_matches_per_input_propagation(self, swap, swap_cut_sets):
        # the one-shot symbolic solve must agree with pinning one input at a
        # time in the cut model's parity rows
        cases = [(swap, swap_cut_sets["teleported-cnot"], Direction.CW)]
        for c in all_small_circuits(max_wires=3, max_gates=3):
            for slot in range(len(c.slots())):
                cuts = CutSet.of(c.gap_spanning(w, slot) for w in range(c.wires))
                cases += [(c, cuts, d) for d in (Direction.CW, Direction.CCW)]
        for c, cuts, d in cases:
            _, origins = arc_ends(c, cuts, d)
            derived = derive_transformations(c, cuts, d)
            # the first segment under the traversal starts after the input
            # cut (cw) or ends before it (ccw); the last one mirrors that
            first, last = (1, 0) if d is Direction.CW else (0, 1)
            for kind, rows in ((ModelKind.X, derived.x_out), (ModelKind.Z, derived.z_out)):
                m = apply_cuts(build_model(c, kind), cuts)
                ins = [m.gap_pair(o.input_cut)[first] for o in origins]
                outs = [m.gap_pair(o.output_cut)[last] for o in origins]
                for q in range(len(origins)):
                    sol = propagate_with_joins(m, {seg: seg == ins[q] for seg in ins})
                    assert frozenset(j for j, seg in enumerate(outs) if sol[seg]) == rows[q]


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


class TestSparseRows:
    """Rows stay ``(variables, rhs)`` pairs from the model to the solver."""

    @pytest.fixture
    def no_packing(self, monkeypatch):
        # bitmask rows exist only for ``circnot model --parity``
        def refuse(rows, n_vars):
            raise AssertionError("rows were packed into bitmasks")

        monkeypatch.setattr(gf2, "pack", refuse)

    def test_large_derivation_packs_nothing(self, no_packing):
        c, record = random_circularized(48 * 512, 48, 512)
        for d in (Direction.CW, Direction.CCW):
            assert derive_transformations(c, record.seam, d) == oracle_map(linearize(c, record.seam, d))

    def test_fault_packs_nothing(self, no_packing):
        c, record = random_circularized(8 * 64, 8, 64)
        lin = linearize(c, record.seam, Direction.CW)
        for gate in c.gates[::16]:
            fd = faulted_transformations(c, record.seam, Direction.CW, FaultSpec(gate=gate.id))
            kept = tuple(g for g in lin.gates if g.source != gate.id)
            expected = oracle_map(LinearCircuit(n_qubits=lin.n_qubits, gates=kept))
            assert fd.map == restrict_map(expected, fd.live_inputs, fd.live_outputs)

    @pytest.mark.parametrize("seed", range(4))
    def test_cuts_on_model_and_call_merge(self, seed):
        # joins cut on the model and joins cut by the call drop alike
        rng = random.Random(seed)
        c, record = random_circularized(seed, 4, 16)
        every_gap = {Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))}
        extra = rng.sample(sorted(every_gap - record.seam.gaps()), 2)
        cuts = CutSet.of(sorted(record.seam.gaps() | set(extra)))
        d = rng.choice([Direction.CW, Direction.CCW])
        _, origins = arc_ends(c, cuts, d)
        gaps = sorted(cuts.gaps())
        derived = derive_transformations(c, cuts, d)
        for kind, rows in ((ModelKind.X, derived.x_out), (ModelKind.Z, derived.z_out)):
            m = build_model(c, kind)
            ins, outs = input_output_segments(m, origins, d)
            whole = solve_map_rows(m, cuts.gaps(), ins, outs)
            assert rows_of_columns(whole) == rows
            for _ in range(6):
                on_model = frozenset(rng.sample(gaps, rng.randint(0, len(gaps))))
                # the call may repeat gaps already cut on the model
                in_call = (cuts.gaps() - on_model) | frozenset(rng.sample(gaps, rng.randint(0, 2)))
                assert solve_map_rows(apply_cuts(m, CutSet(on_model)), in_call, ins, outs) == whole


def solve_or_error(solve, *args, **kwargs):
    """The solution, or the class of the error the reference solve raised."""
    try:
        return solve(*args, **kwargs)
    except (Underdetermined, Inconsistent) as err:
        return type(err)


class TestJoinClasses:
    """``solve_map_rows`` solves over the reference join classes; the join-row solve is the reference."""

    @staticmethod
    def assert_same(m, cut_gaps, ins, outs, pins=None):
        # values, or the error class
        got = solve_or_error(solve_map_rows, m, cut_gaps, ins, outs, pins)
        assert got == solve_or_error(solve_map_rows_with_joins, m, cut_gaps, ins, outs, pins)
        return got

    def test_small_radial_families(self):
        # each radial family alone and with one extra gap, both kinds, both ways
        checked = 0
        for c in all_small_circuits(3, 3):
            gaps = [p.gap for p in enumerate_cut_points(c)]
            models = [build_model(c, kind) for kind in (ModelKind.X, ModelKind.Z)]
            for slot in range(len(c.gates)):
                family = {c.gap_spanning(w, slot) for w in range(c.wires)}
                for extra in [()] + [(gap,) for gap in gaps if gap not in family]:
                    cuts = CutSet.of(family.union(extra))
                    for d in Direction:
                        _, origins = arc_ends(c, cuts, d)
                        for m in models:
                            ins, outs = input_output_segments(m, origins, d)
                            assert isinstance(self.assert_same(m, cuts.gaps(), ins, outs), list)
                            checked += 1
        assert checked > 1800

    @pytest.mark.parametrize("wires,gates", [(16, 128), (32, 256), (64, 1024)])
    def test_large_seeded(self, wires, gates):
        rng = random.Random(wires)
        c, record = random_circularized(wires * gates + 1, wires, gates)
        every_gap = {Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))}
        extra = rng.sample(sorted(every_gap - record.seam.gaps()), 3)
        cuts = CutSet.of(sorted(record.seam.gaps() | set(extra)))
        for kind, d in ((ModelKind.X, Direction.CW), (ModelKind.Z, Direction.CCW)):
            m = build_model(c, kind)
            ins, outs = input_output_segments(m, arc_ends(c, cuts, d)[1], d)
            assert isinstance(self.assert_same(m, cuts.gaps(), ins, outs), list)

    def test_fault_pins_and_bridges(self):
        # the pinned-ancilla fault construction (pins and bridges on the
        # segments at the fault's gaps) gives the fault map; its pinned
        # systems solve alike over join classes and with join rows, and
        # only the join-row solve writes a bridge
        shapes = set()
        for seed in range(3):
            rng = random.Random(seed)
            c, record = random_circularized(seed, 5, 32)

            def both(m, cut_gaps, ins, outs, pins, bridges):
                shapes.add((len(pins), len(bridges)))
                if bridges:
                    return solve_map_rows_with_joins(m, cut_gaps, ins, outs, pins, bridges)
                return self.assert_same(m, cut_gaps, ins, outs, pins)

            every_gap = {Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))}
            extra = rng.sample(sorted(every_gap - record.seam.gaps()), 6)
            for base in (record.seam, CutSet.of(sorted(record.seam.gaps() | set(extra)))):
                for gate in c.gates[seed::3]:
                    for d in Direction:
                        fault = FaultSpec(gate=gate.id)
                        fd = faulted_transformations(c, base, d, fault)
                        assert fd.map == fault_map_by_model(c, base, d, fault, both)
        # both fault gaps fresh (a bridge), one fresh (a second pin), none fresh
        assert {(1, 1), (2, 0), (1, 0)} <= shapes

    def test_non_radial_cut_sets_raise_alike(self):
        # with no radial family, inputs after and outputs before each cut:
        # most systems raise, and both solves raise the same class
        raised = collections.Counter()
        for c in all_small_circuits(3, 3):
            gaps = [p.gap for p in enumerate_cut_points(c)]
            families = [{c.gap_spanning(w, slot) for w in range(c.wires)} for slot in range(len(c.gates))]
            models = [build_model(c, kind) for kind in (ModelKind.X, ModelKind.Z)]
            for k in (1, 2, 3):
                for chosen in itertools.combinations(gaps, k):
                    if any(family <= set(chosen) for family in families):
                        continue
                    for m in models:
                        ins = [m.gap_pair(gap)[1] for gap in chosen]
                        outs = [m.gap_pair(gap)[0] for gap in chosen]
                        got = self.assert_same(m, frozenset(chosen), ins, outs)
                        raised[got if isinstance(got, type) else None] += 1
        assert raised[Underdetermined] > 900 and raised[Inconsistent] > 1300


class TestTraversalSubstitution:
    """Derive and fault substitute the X equations along the traversal (``_x_columns``)."""

    def test_starts_on_and_off_wrap_slot_match_reference(self):
        # start slots on and off the wrap slot, extra cuts, both directions:
        # the columns equal the reference solve over join classes
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
                starts.add(cut_table(c, cuts).start == n_gates - 1)
                assert_substitution_matches_reference(c, cuts)
                for d in Direction:
                    assert derive_transformations(c, cuts, d) == oracle_map(linearize(c, cuts, d))
        assert starts == {True, False}

    def test_fault_bases_match_deleted_gate_oracle(self):
        # the missing gate writes nothing: the columns are the X columns of
        # the linearization with that gate deleted, absorbed qubits included,
        # and the fault map is that map restricted to the live qubits
        added = set()

        def check(c, base, d, gate):
            lin = linearize(c, base, d)
            kept = tuple(g for g in lin.gates if g.source != gate.id)
            deleted = oracle_map(LinearCircuit(n_qubits=lin.n_qubits, gates=kept))
            cols = model_module._x_columns(c, cut_table(c, base), d, missing=c.gate_index(gate.id))
            assert cols == deleted.x_columns()
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
                for d in Direction:
                    for gate in {c.gates[seed], *c.gates[seed::3]}:
                        check(c, base, d, gate)
        # wire 2's one symbol is gate 1's control: the fault's two gaps are one
        single = mkcirc(3, [(0, 1), (2, 1), (1, 0)])
        for d in Direction:
            check(single, CutSet.of([(0, 1), (1, 2), (2, 0)]), d, single.gates[1])
        assert added == {0, 1, 2}


class TestPropagateOverClasses:
    """A pinned solve over the reference join classes (``solve_classes``) against
    ``propagate_with_joins``, which solves ``parity_rows`` over every variable."""

    @staticmethod
    def assert_same(m, pins):
        # values per variable, or the error class
        def over_classes(m, pins):
            sol, cls = solve_classes(m, frozenset(), [], pins)
            return [bool(sol[k]) for k in cls]

        def run(solve):
            try:
                return solve(m, pins)
            except (Underdetermined, Inconsistent, UnpinnedSelector) as err:
                return type(err)

        got = run(over_classes)
        assert got == run(propagate_with_joins)
        return got

    def test_small_circuits_random_cuts_and_pins(self):
        # X and Z models under random cut sets of up to 4 cuts and up to 4
        # pins; a combined model has no selector, so both refuse it
        rng = random.Random(17)
        outcomes = collections.Counter()
        for c in all_small_circuits(3, 3):
            gaps = [p.gap for p in enumerate_cut_points(c)]
            for m in (build_model(c, ModelKind.X), build_model(c, ModelKind.Z)):
                for _ in range(84):
                    cuts = rng.sample(gaps, rng.randint(0, min(4, len(gaps))))
                    cut = apply_cuts(m, CutSet.of(cuts)) if cuts else m
                    pins = {rng.randrange(cut.n_vars): rng.random() < 0.5 for _ in range(rng.randint(0, 4))}
                    got = self.assert_same(cut, pins)
                    outcomes[got if isinstance(got, type) else list] += 1
            assert self.assert_same(build_model(c, ModelKind.COMBINED), {}) is UnpinnedSelector
        assert sum(outcomes.values()) > 7000
        assert min(outcomes[kind] for kind in (list, Underdetermined, Inconsistent)) > 100

    def test_large_uncut_and_seam_cut(self):
        # the uncut model leaves a free class, found over every segment too
        c, record = random_circularized(48 * 512, 48, 512)
        m = build_model(c, ModelKind.X)
        assert self.assert_same(m, {}) is Underdetermined
        cut = apply_cuts(m, record.seam)
        ins, _ = input_output_segments(cut, arc_ends(c, record.seam, Direction.CW)[1], Direction.CW)
        assert isinstance(self.assert_same(cut, {v: q % 3 == 0 for q, v in enumerate(ins)}), list)


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
        models = (build_model(c, ModelKind.X), build_model(c, ModelKind.Z))

        def radial_map(slot):
            cuts = CutSet.of((w, spanning_gap_index(pairs, w, slot)) for w in range(wires))
            return derive_transformations(c, cuts, Direction.CW, models=models)

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


def derive_both_ways(c, cuts, models=None):
    """CW then CCW map, or the class of the solver error either raised."""
    out = []
    for d in (Direction.CW, Direction.CCW):
        try:
            out.append(derive_transformations(c, cuts, d, models=models))
        except Inconsistent as err:
            out.append(type(err))
    return out


def assert_ccw_inverts_cw(cw, ccw):
    if isinstance(cw, type) or isinstance(ccw, type):
        assert cw is ccw
    else:
        assert ccw == cw.inverse()


class TestDirectionInverse:
    """Derive CCW equals the inverse of derive CW, as ``search_cuts`` assumes.

    A CCW linearization is the CW gate list reversed on the same qubits and
    CNOTs are self-inverse; the two directions also fail together.
    """

    def test_small_sweep_with_extra_gaps(self):
        checked = 0
        for c, cut_sets in small_sweep_cut_sets():
            models = (build_model(c, ModelKind.X), build_model(c, ModelKind.Z))
            for cuts in cut_sets:
                assert_ccw_inverts_cw(*derive_both_ways(c, cuts, models))
                checked += 1
        assert checked > 13000


class TestSlotSystems:
    """The reduced per-slot X system that ``search_cuts`` reads candidates on.

    A cut set is read on the system of its first radial slot in the order
    the search visits (the wrap slot, then clockwise from slot 0): its
    columns must be the clockwise derivation's X columns, and the
    counter-clockwise derivation must be their map's inverse.
    """

    def test_small_sweep_matches_derivation(self):
        checked = 0
        for c, cut_sets in small_sweep_cut_sets():
            gaps = [Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))]
            systems = list(model_module._slot_systems(c))
            index = {gap: k for k, gap in enumerate(gaps)}
            models = (build_model(c, ModelKind.X), None)
            for cuts in cut_sets:
                cut = {index[gap] for gap in cuts.gaps()}
                system = next(s for s in systems if cut.issuperset(s.family))
                extras = tuple(p for p, k in enumerate(system.others) if k in cut)
                cols = model_module._columns(system, extras)
                cw, ccw = (derive_transformations(c, cuts, d, models=models) for d in Direction)
                assert cols == cw.x_columns()
                assert ccw == StabiliserMap.from_x(cols).inverse()
                checked += 1
        assert checked > 13000

    def test_matches_every_gap_solve_reference(self):
        # each slot's walk gives the rows the every-gap solve rewritten per
        # slot gave: a gap's row is its arriving value, before its own tag
        circuits = all_small_circuits(3, 3) + [random_circularized(seed, 5, 24)[0] for seed in range(3)]
        for c in circuits:
            assert [tuple(system) for system in model_module._slot_systems(c)] == reference_slot_systems(c)


def derive_or_error(derive, c, cuts, d, models):
    try:
        return derive(c, cuts, d, models=models)
    except (Underdetermined, Inconsistent) as err:
        return type(err)


class TestDeriveFromXModel:
    """Derive solves the X model only and reads Z as its inverse transpose."""

    def test_small_sweep_matches_two_model_body(self):
        # same maps as solving both models, and the same solver errors
        checked = 0
        for c, cut_sets in small_sweep_cut_sets():
            models = (build_model(c, ModelKind.X), build_model(c, ModelKind.Z))
            for cuts in cut_sets:
                for d in Direction:
                    derived = derive_or_error(derive_transformations, c, cuts, d, models)
                    assert derived == derive_or_error(derive_by_both_models, c, cuts, d, models)
                    checked += 1
        assert checked > 26000


def identity_map(n):
    rows = tuple(frozenset({q}) for q in range(n))
    return StabiliserMap(n, rows, rows)


# 4-wire circuits where a gate touches only single-symbol wires, so the
# slots on either side of it share a radial family
REPEATED_FAMILIES = [[(0, 1), (2, 3)], [(0, 1), (1, 0), (2, 3)], [(0, 1), (2, 3), (1, 2)]]


class TestSearchOneDerivation:
    @staticmethod
    def assert_each_candidate_evaluated_once(c, needs, monkeypatch):
        # every cut set of ``need`` gaps holding a radial family is one
        # candidate, evaluated once on its slot's reduced system; no
        # candidate reads a cut table or runs a derivation
        pairs = [(g.control, g.target) for g in c.gates]
        families = [
            {Gap(w, spanning_gap_index(pairs, w, j)) for w in range(c.wires)}
            for j in range(len(pairs))
        ]
        gaps = [p.gap for p in enumerate_cut_points(c)]
        by_index = [Gap(w, i) for w in range(c.wires) for i in range(c.symbol_count(w))]
        evaluated = []
        real_columns = model_module._columns

        def counted(system, extras):
            ks = [*system.family, *(system.others[p] for p in extras)]
            evaluated.append(CutSet.of(by_index[k] for k in ks))
            return real_columns(system, extras)

        def refuse(*args, **kwargs):
            raise AssertionError("search read a cut table or derived a map")

        monkeypatch.setattr(model_module, "_columns", counted)
        monkeypatch.setattr(model_module, "cut_table", refuse)
        monkeypatch.setattr(model_module, "derive_transformations", refuse)
        for need in needs:
            evaluated.clear()
            search_cuts(c, identity_map(need), need)
            expected = [
                CutSet.of(combo)
                for combo in itertools.combinations(gaps, need)
                if any(family.issubset(combo) for family in families)
            ]
            assert sorted(evaluated, key=CutSet.sorted_gaps) == sorted(expected, key=CutSet.sorted_gaps)

    def test_each_candidate_evaluated_once(self, swap, monkeypatch):
        self.assert_each_candidate_evaluated_once(swap, (2, 3, 4), monkeypatch)

    @pytest.mark.parametrize("pairs", REPEATED_FAMILIES, ids=["two-gates", "three-gates", "linked"])
    def test_shared_family_evaluated_once(self, monkeypatch, pairs):
        # slots sharing a family hand each candidate to the first of them only
        self.assert_each_candidate_evaluated_once(mkcirc(4, pairs), (4, 5, 6), monkeypatch)

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
            target.inverse()
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


class TestSearchBound:
    def test_refused_before_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a candidate was built")

        for name in ("spanning_gaps", "combinations", "build_model", "derive_transformations"):
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
            raise AssertionError("a candidate or model was built")

        for name in ("spanning_gaps", "combinations", "build_model", "derive_transformations"):
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

    The brute force filters ``combinations`` over every gap by (wire, gap)
    through its own radial check, one family per slot from the gate list,
    and keeps the sets that derive the target, clockwise first.
    """

    @staticmethod
    def brute_force_table(c, need):
        pairs = [(g.control, g.target) for g in c.gates]
        gaps = [Gap(w, i) for w in range(c.wires) for i in range(sum(w in p for p in pairs))]
        families = [
            {Gap(w, spanning_gap_index(pairs, w, j)) for w in range(c.wires)}
            for j in range(len(pairs))
        ]
        models = (build_model(c, ModelKind.X), build_model(c, ModelKind.Z))
        table = []
        for combo in itertools.combinations(gaps, need):
            if not any(family.issubset(combo) for family in families):
                continue
            cuts = CutSet.of(combo)
            for d in (Direction.CW, Direction.CCW):
                try:
                    table.append((cuts, d, derive_transformations(c, cuts, d, models=models)))
                except Inconsistent:
                    pass
        return families, gaps, table

    def test_matches_brute_force_exhaustive(self):
        searches = 0
        for c in all_small_circuits(3, 4):
            families, gaps, table = self.brute_force_table(c, c.wires)
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

    def test_matches_brute_force_beyond_family(self):
        # targets that need one cut beyond a radial family: the wrap slot's
        # family plus each other gap, so the built candidates carry extras
        searches = 0
        for c in all_small_circuits(3, 3):
            families, gaps, table = self.brute_force_table(c, c.wires + 1)
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
        families, gaps, table = TestSearchReference.brute_force_table(c, c.wires + extra)
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
        assert {gap: tuple(map(name, m.gap_pair(gap))) for gap in gaps} == {
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
        pairs, c = data.draw(circular_circuits())
        slot = data.draw(st.integers(0, len(pairs) - 1))
        family = [Gap(w, spanning_gap_index(pairs, w, slot)) for w in range(c.wires)]
        others = [p.gap for p in enumerate_cut_points(c) if p.gap not in family]
        extra = data.draw(st.lists(st.sampled_from(others), max_size=3, unique=True)) if others else []
        assert_ccw_inverts_cw(*derive_both_ways(c, CutSet.of(family + extra)))

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
    substituted along the traversal equal, both ways, the reference solve
    over join classes of the reference X model, read at ``arc_ends``."""
    try:
        table = cut_table(c, cuts)
    except (EmptyCutSet, NoRadialCut):
        return False
    m = reference_build_model(c, ModelKind.X)
    for d in Direction:
        ins, outs = input_output_segments(m, arc_ends(c, cuts, d)[1], d)
        assert model_module._x_columns(c, table, d) == solve_map_rows(m, cuts.gaps(), ins, outs)
    return True


def assert_build_matches_reference(c):
    for kind in ModelKind:
        got, want = build_model(c, kind), reference_build_model(c, kind)
        for f in dataclasses.fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), f.name


class TestClassWalk:
    """``build_model`` numbers segments as the reference segment loop does, and
    the traversal's X columns under any cut set equal the reference solve over
    join classes."""

    @given(data=st.data())
    def test_matches_reference_classes(self, data):
        # a drawn cut set with the seam added or removed, every gap or none,
        # and every model kind built
        _, c = data.draw(circular_circuits(max_wires=12))
        gaps = [p.gap for p in enumerate_cut_points(c)]
        chosen = set(data.draw(st.lists(st.sampled_from(gaps), unique=True)))
        cut = cut_for(c, data.draw(st.sampled_from(CUT_MODES)), chosen)
        assert_substitution_matches_reference(c, CutSet.of(sorted(cut)))
        assert_build_matches_reference(c)

    def test_small_circuits_every_cut_set(self):
        # single-symbol wires and wires touched only as control or only as
        # target, under every cut set
        shapes = collections.Counter()
        for c in all_small_circuits(3, 3):
            for w in range(c.wires):
                kinds = {kind for _, kind in c.symbols(w)}
                shapes["single"] += c.symbol_count(w) == 1
                shapes["control-only"] += kinds == {CONTROL}
                shapes["target-only"] += kinds == {TARGET}
            gaps = [p.gap for p in enumerate_cut_points(c)]
            for k in range(len(gaps) + 1):
                for cut in itertools.combinations(gaps, k):
                    shapes["radial"] += assert_substitution_matches_reference(c, CutSet.of(cut))
            assert_build_matches_reference(c)
        assert min(shapes.values()) > 20


class TestCutTableReadOut:
    """Derivations and faults number their qubits off ``cut_table``'s cut lists; ``arc_ends`` is the reference."""

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
        table = cut_table(c, cuts)
        if off_wrap:
            assert table.start != wrap
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
        assert m.inverse().inverse() == m

    def test_singular_columns_raise(self):
        with pytest.raises(Inconsistent):
            StabiliserMap.from_x([0b11, 0b11])

    def test_inverse_x_columns_are_z_rows(self):
        # a CNOT circuit's map is symplectic, so its inverse's X columns,
        # (Xᵀ)⁻¹ by rows, are its own Z rows: ``search_cuts`` reads them there
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(2, 12)
            m = oracle_map(mklin(n, random_pairs(rng, n, rng.randint(n, 40))))
            assert m.inverse().x_columns() == [sum(1 << o for o in outs) for outs in m.z_out]

    def test_one_invert_per_read_out(self, monkeypatch):
        calls = []
        real_invert = gf2.invert
        monkeypatch.setattr(gf2, "invert", lambda rows, n: calls.append(n) or real_invert(rows, n))
        m = StabiliserMap.from_x([0b01, 0b11])
        assert calls == [2]
        m.inverse()
        assert calls == [2, 2, 2]


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
        assert m.inverse().inverse() == m
        for name in ("n_qubits", "x_out", "z_out", "_x_cols", "_z_rows"):
            with pytest.raises(AttributeError):
                setattr(m, name, ())
