import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circnot import (
    CircularCircuit,
    CutSet,
    Direction,
    Gap,
    LinearCircuit,
    LinearGate,
    circularize,
    derive_transformations,
    enumerate_cut_points,
    linearize,
    spanning_gaps,
    validate_cut_set,
)
from circnot import circuits as circuits_module
from circnot.circuits import CutTable
from circnot.errors import (
    ControlEqualsTarget,
    DuplicateCut,
    EmptyCutSet,
    EmptyWire,
    NoRadialCut,
    UnknownGap,
    WireOutOfRange,
    quote_int,
)
from circnot.icm import FaultSpec, faulted_transformations
from circnot.textio import parse_circuit
from helpers import (
    ArcEnds,
    all_small_circuits,
    arc_ends,
    cyclic_equal,
    family_plus_two,
    mkcirc,
    mklin,
    spanning_gap_index,
    swap_circular,
)


class TestParsing:
    def test_parse_linear_swap(self):
        lin = parse_circuit("linear\nwires 2\ncnot 0 1\ncnot 1 0\ncnot 0 1\n")
        assert isinstance(lin, LinearCircuit)
        assert lin.n_qubits == 2
        assert lin.gate_pairs() == ((0, 1), (1, 0), (0, 1))

    def test_parse_empty_linear(self):
        lin = parse_circuit("linear\nwires 1\n")
        assert lin.n_qubits == 1
        assert lin.gates == ()

    def test_parse_control_equals_target(self):
        with pytest.raises(ControlEqualsTarget):
            parse_circuit("linear\nwires 2\ncnot 0 0\n")

    def test_parse_wire_out_of_range(self):
        with pytest.raises(WireOutOfRange):
            parse_circuit("circular\nwires 2\ncnot 0 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("circular\nwires 3\ncnot 0 5\ncnot 1 1\n", "gate 1: control == target == 1"),
            ("circular\nwires 0\ncnot 0 1\ncnot 0 0\n", "gate 1: control == target == 0"),
        ],
        ids=["wire-range", "wire-count"],
    )
    def test_control_equals_target_before_wire_range(self, text, message):
        # every gate is checked for control == target before the wire count
        # and any wire's range
        with pytest.raises(ControlEqualsTarget, match=f"^{re.escape(message)}$"):
            parse_circuit(text)


class TestCircularConstruction:
    @pytest.mark.parametrize("wires", [0, -1, -(10**70)])
    def test_rejects_fewer_than_one_wire(self, wires):
        message = f"^a circular circuit needs at least one wire, got {re.escape(quote_int(wires))}$"
        with pytest.raises(WireOutOfRange, match=message):
            CircularCircuit(wires=wires, gates=())

    def test_zero_wire_sources_refused(self):
        # a zero-wire file parsed, and the search then crashed on its empty
        # sweep; a zero-qubit linear circuit stays valid but has no circular form
        with pytest.raises(WireOutOfRange):
            parse_circuit("circular\nwires 0\n")
        lin = parse_circuit("linear\nwires 0\n")
        assert lin.n_qubits == 0
        with pytest.raises(WireOutOfRange):
            circularize(lin)

    def test_rejects_untouched_wire(self):
        with pytest.raises(EmptyWire) as err:
            mkcirc(3, [(0, 1)])
        assert err.value.wires == (2,)

    def test_keeps_given_order(self):
        c = mkcirc(3, [(0, 1), (2, 0), (1, 2), (1, 0)])
        backwards = CircularCircuit(wires=3, gates=[*reversed(c.gates)])
        assert backwards.gates == tuple(reversed(c.gates))
        last = len(c.gates) - 1
        for w in range(3):
            assert backwards.symbols(w) == tuple(last - gi for gi in reversed(c.symbols(w)))
            # each symbol keeps its kind: the gate it reads is the same gate
            for gi, back in zip(c.symbols(w), reversed(backwards.symbols(w))):
                assert backwards.gates[back] is c.gates[gi]

    def test_symbol_tables(self):
        # per wire, the gate index of each symbol clockwise; a gate
        # controlling from the wire gives a control symbol
        swap = swap_circular()
        assert swap.symbols(0) == (0, 1, 2)
        assert swap.symbols(1) == (0, 1, 2)
        assert [swap.gates[gi].control == 0 for gi in swap.symbols(0)] == [True, False, True]
        assert [swap.gates[gi].control == 1 for gi in swap.symbols(1)] == [False, True, False]
        c = mkcirc(3, [(0, 1), (2, 0), (1, 2), (1, 0)])
        assert [c.symbols(w) for w in range(3)] == [(0, 1, 3), (0, 2, 3), (1, 2)]

    @pytest.mark.parametrize(
        "wire, slot, error, message",
        [
            (-1, 0, WireOutOfRange, "no wire -1 in 2 wires"),
            (2, 0, WireOutOfRange, "no wire 2 in 2 wires"),
            (0, -1, ValueError, r"slot -1 outside 0\.\.2"),
            (0, 3, ValueError, r"slot 3 outside 0\.\.2"),
        ],
    )
    def test_gap_spanning_refuses_out_of_range(self, wire, slot, error, message):
        # in-range wires and slots are checked against the gate list in
        # TestSpanningReference::test_matches_definition_exhaustive
        with pytest.raises(error, match=message):
            swap_circular().gap_spanning(wire, slot)


class TestLinearConstruction:
    def test_gates_are_a_tuple(self):
        # a list is normalised, so equal circuits compare and hash alike
        from_list = LinearCircuit(2, [LinearGate(0, 1), LinearGate(1, 0)])
        from_tuple = LinearCircuit(2, (LinearGate(0, 1), LinearGate(1, 0)))
        assert from_list.gates == from_tuple.gates
        assert isinstance(from_list.gates, tuple)
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)
        assert len({from_list, from_tuple}) == 1


class TestCutSetOf:
    @pytest.mark.parametrize(
        "items, message",
        [
            ([(0, 1.7), (1, 0)], "cut gap '1.7' is not an integer"),
            ([(1, 0), (0.0, 1)], "cut wire '0.0' is not an integer"),
            ([("0", 1)], "cut wire \"'0'\" is not an integer"),
            ([(0, None)], "cut gap 'None' is not an integer"),
        ],
    )
    def test_refuses_non_integers(self, items, message):
        # int() truncated 1.7 to gap 1
        with pytest.raises(UnknownGap) as err:
            CutSet.of(items)
        assert str(err.value) == message

    def test_reads_integer_likes_as_ints(self):
        import numpy as np

        cuts = CutSet.of([(np.int64(1), np.uint8(2)), (True, 0), Gap(np.int32(0), 1)])
        assert cuts == CutSet.of([(1, 2), (1, 0), (0, 1)])
        assert all(type(g.wire) is int and type(g.index) is int for g in cuts.gaps())

    @pytest.mark.parametrize("wire, index", [(0, 1.5), (0, 2.0), ("1", 2)])
    def test_gap_refuses_non_integers(self, wire, index):
        # a hand-built Gap(0, 1.5) passed the range check, matched no symbol
        # in the class walk and gave a one-qubit map of the SWAP
        with pytest.raises(UnknownGap, match="is not an integer"):
            Gap(wire, index)


class TestEnumerateCutPoints:
    def test_swap_has_six(self):
        points = enumerate_cut_points(swap_circular())
        assert len(points) == 6
        assert [(p.gap.wire, p.gap.index) for p in points] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_single_cnot_has_two(self):
        assert len(enumerate_cut_points(mkcirc(2, [(0, 1)]))) == 2

    def test_count_equals_symbol_total(self):
        # brute-force symbol count per wire, on a circularized decomposition
        from circnot import strip_and_circularize, toffoli_decomposition, translate_to_icm

        gates, n = toffoli_decomposition()
        circ, _ = strip_and_circularize(translate_to_icm(gates, n))
        total = sum(
            sum(1 for g in circ.gates if w in (g.control, g.target))
            for w in range(circ.wires)
        )
        assert len(enumerate_cut_points(circ)) == total

    def test_deterministic(self):
        c = swap_circular()
        assert enumerate_cut_points(c) == enumerate_cut_points(c)


class TestValidateCutSet:
    def test_radial_pair_valid(self, swap):
        validate_cut_set(swap, CutSet.of([(0, 2), (1, 2)]))

    def test_non_colinear_rejected(self, swap):
        with pytest.raises(NoRadialCut):
            validate_cut_set(swap, CutSet.of([(0, 0), (1, 1)]))

    def test_empty_rejected(self, swap):
        with pytest.raises(EmptyCutSet):
            validate_cut_set(swap, CutSet(frozenset()))

    def test_unknown_gap(self, swap):
        with pytest.raises(UnknownGap):
            validate_cut_set(swap, CutSet.of([(0, 2), (1, 5)]))

    def test_duplicate_cut_at_construction(self):
        with pytest.raises(DuplicateCut):
            CutSet.of([(0, 1), (0, 1)])

    def test_single_wire_uncut_rejected(self, swap):
        with pytest.raises(NoRadialCut) as err:
            validate_cut_set(swap, CutSet.of([(0, 0), (0, 1), (0, 2)]))
        # wire 1 lacks a cut at every slot
        assert all(1 in wires for wires in err.value.missing_by_slot.values())

    def test_uncut_wires_named_are_missing_at_every_slot(self, small_sweep):
        # the message names the wires without a cut; since every cut gap
        # spans a slot, they are the wires missing at every slot
        refused = 0
        for c, entries in small_sweep.table:
            for entry in entries:
                if entry.missing is None:
                    continue
                with pytest.raises(NoRadialCut) as err:
                    validate_cut_set(c, entry.cuts)
                everywhere = sorted(set(range(c.wires)).intersection(*entry.missing.values()))
                assert str(err.value).endswith(f"(wires never cut at any slot: {everywhere})")
                refused += 1
        assert refused > 10000


class TestSpanningReference:
    """Spanning gaps, the start slot with its family, and ``missing_by_slot``
    against the definition read off the gate list (``helpers.spanning_gap_index``)."""

    def test_matches_definition_exhaustive(self, small_sweep):
        # every cut set of up to four cuts in the small-sweep table
        subsets = 0
        for c, entries in small_sweep.table:
            pairs = [(g.control, g.target) for g in c.gates]
            span = [
                [spanning_gap_index(pairs, w, j) for w in range(c.wires)]
                for j in range(len(pairs))
            ]
            assert [list(row) for row in spanning_gaps(c)] == span
            for j, row in enumerate(span):
                assert [c.gap_spanning(w, j) for w in range(c.wires)] == [
                    Gap(w, i) for w, i in enumerate(row)
                ]
            for entry in entries:
                if len(entry.cuts) > 4:
                    continue
                chosen = {(g.wire, g.index) for g in entry.cuts.gaps()}
                missing = {
                    j: tuple(w for w, i in enumerate(row) if (w, i) not in chosen)
                    for j, row in enumerate(span)
                }
                radial = [j for j, wires in missing.items() if not wires]
                if radial:
                    # the wrap slot when it is radial, else the first radial slot
                    start = radial[-1] if radial[-1] == len(pairs) - 1 else radial[0]
                    table = entry.table
                    assert table.start == start
                    assert [cuts[0] for cuts in table.cuts] == span[start]
                else:
                    assert (entry.table, entry.missing) == (None, missing)
                subsets += 1
        assert subsets > 30000


class TestLinearize:
    def test_swap_reconstruction(self, swap, swap_cut_sets):
        lin = linearize(swap, swap_cut_sets["swap"], Direction.CW)
        assert lin.n_qubits == 2
        assert lin.gate_pairs() == ((0, 1), (1, 0), (0, 1))

    def test_rotated_cut_gives_permuted_list(self, swap, swap_cut_sets):
        lin = linearize(swap, swap_cut_sets["single-cnot"], Direction.CW)
        assert lin.gate_pairs() == ((0, 1), (0, 1), (1, 0))

    def test_teleported_cnot_shape(self, swap, swap_cut_sets):
        lin = linearize(swap, swap_cut_sets["teleported-cnot"], Direction.CW)
        assert lin.n_qubits == 4
        assert len(lin.gates) == 3
        # remote-CNOT connectivity: the bridging qubit is target, control,
        # target of the three gates in order
        assert lin.gate_pairs() == ((0, 3), (3, 1), (2, 3))

    def test_sdt_shape(self, swap, swap_cut_sets):
        lin = linearize(swap, swap_cut_sets["sdt"], Direction.CW)
        assert lin.n_qubits == 4
        relabel = {0: 3, 2: 1, 1: 0, 3: 2}
        relabeled = tuple((relabel[c], relabel[t]) for c, t in lin.gate_pairs())
        assert relabeled == ((3, 1), (0, 1), (2, 0))

    def test_qubit_count_equals_cut_count_exhaustive(self):
        # every valid cut set of a small fixture family
        family = [
            mkcirc(2, [(0, 1)]),
            swap_circular(),
            mkcirc(3, [(0, 1), (1, 2), (2, 0)]),
            mkcirc(4, [(0, 1), (2, 3), (1, 2), (3, 0), (0, 2), (1, 3)]),
        ]
        for c in family:
            gaps = [p.gap for p in enumerate_cut_points(c)]
            for k in range(1, len(gaps) + 1):
                for combo in itertools.combinations(gaps, k):
                    cuts = CutSet.of(combo)
                    try:
                        validate_cut_set(c, cuts)
                    except NoRadialCut:
                        continue
                    assert linearize(c, cuts, Direction.CW).n_qubits == len(cuts)

    def test_radial_only_cut_sets_cyclically_equal(self):
        for c in [swap_circular(), mkcirc(3, [(0, 1), (1, 2), (2, 0), (0, 2)])]:
            lists = []
            for slot in range(len(c.slots())):
                cuts = CutSet.of(c.gap_spanning(w, slot) for w in range(c.wires))
                lists.append(linearize(c, cuts, Direction.CW).gate_pairs())
            for a, b in itertools.combinations(lists, 2):
                assert cyclic_equal(a, b)

    def test_ccw_reverses_and_swaps_endpoints(self, swap, swap_cut_sets):
        cw = linearize(swap, swap_cut_sets["swap"], Direction.CW)
        ccw = linearize(swap, swap_cut_sets["swap"], Direction.CCW)
        assert ccw.gate_pairs() == tuple(reversed(cw.gate_pairs()))
        _, cw_origins = arc_ends(swap, swap_cut_sets["swap"], Direction.CW)
        _, ccw_origins = arc_ends(swap, swap_cut_sets["swap"], Direction.CCW)
        for o_cw, o_ccw in zip(cw_origins, ccw_origins):
            assert o_cw.input_cut == o_ccw.output_cut
            assert o_cw.output_cut == o_ccw.input_cut


def arcs_reference(c, cuts, families, d):
    """Start slot and each qubit's ``ArcEnds`` by the rule ``linearize`` always used.

    ``families`` maps each radial slot to its family, read off the gate
    list (``SweepEntry.families``). Start at the wrap slot
    when it is radial, else at the first radial slot; on each wire, the
    arcs run between consecutive sorted cuts, from the start slot's family
    gap on.
    """
    wrap = len(c.gates) - 1
    start = wrap if wrap in families else min(families)
    origins = []
    for w in range(c.wires):
        indices = sorted(g.index for g in cuts.gaps() if g.wire == w)
        at = indices.index(families[start][w])
        rotated = indices[at:] + indices[:at]
        for a, b in zip(rotated, rotated[1:] + rotated[:1]):
            ends = (Gap(w, a), Gap(w, b)) if d is Direction.CW else (Gap(w, b), Gap(w, a))
            origins.append(ArcEnds(w, *ends))
    return start, tuple(origins)


def table_arcs(table, d):
    """Start slot and each qubit's ``ArcEnds`` as a ``CutTable`` numbers them: per wire, each cut to the next."""
    origins = []
    for w, wire_cuts in enumerate(table.cuts):
        for a, b in zip(wire_cuts, wire_cuts[1:] + wire_cuts[:1]):
            ends = (Gap(w, a), Gap(w, b)) if d is Direction.CW else (Gap(w, b), Gap(w, a))
            origins.append(ArcEnds(w, *ends))
    return table.start, tuple(origins)


def error_of(fn, *args):
    try:
        fn(*args)
    except (EmptyCutSet, UnknownGap, NoRadialCut) as err:
        return type(err), str(err), getattr(err, "missing_by_slot", None)
    return None


class TestCutTable:
    """``validate_cut_set``'s start slot and cut lists in qubit order (read
    as arcs by ``table_arcs``) against ``arcs_reference``, and its errors."""

    def test_wrap_slot_table(self, swap):
        table = validate_cut_set(swap, CutSet.of([(1, 2), (0, 2), (0, 0)]))
        # from the family gap (0, 2): wire 0's arcs 2 -> 0 and 0 -> 2, then wire 1's
        assert table == CutTable(2, [[2, 0], [2]])
        g = lambda w, i: Gap(w, i)  # noqa: E731
        cw = (ArcEnds(0, g(0, 2), g(0, 0)), ArcEnds(0, g(0, 0), g(0, 2)), ArcEnds(1, g(1, 2), g(1, 2)))
        assert table_arcs(table, Direction.CW) == (2, cw)

    def test_first_radial_slot_table(self, swap):
        # the wrap slot is not radial; slot 0's family is (0, 0) and (1, 0)
        table = validate_cut_set(swap, CutSet.of([(0, 1), (1, 0), (0, 0)]))
        assert table == CutTable(0, [[0, 1], [0]])
        # a family gap that is not a wire's least cut comes first all the same
        table = validate_cut_set(swap, CutSet.of([(0, 0), (0, 1), (1, 1), (1, 2)]))
        assert table == CutTable(1, [[1, 0], [1, 2]])

    def test_small_sweep_numbers_as_reference(self, small_sweep):
        # each radial family plus 0-2 other gaps, both directions: the
        # table's start slot and arcs are the reference's
        checked = 0
        for c, entries in small_sweep.table:
            for entry in family_plus_two(c, entries):
                start = table_arcs(entry.table, Direction.CW)[0]
                assert [cuts[0] for cuts in entry.table.cuts] == list(entry.families[start])
                for d in Direction:
                    assert table_arcs(entry.table, d) == arcs_reference(c, entry.cuts, entry.families, d)
                    checked += 1
        assert checked > 26000

    def test_small_sweep_matches_reference(self, small_sweep):
        # ``arc_ends``, the numbering that the model tests read off the gate
        # list, is the reference's, both directions
        checked = 0
        for c, entries in small_sweep.table:
            for entry in family_plus_two(c, entries):
                for d in Direction:
                    assert arc_ends(c, entry.cuts, d) == arcs_reference(c, entry.cuts, entry.families, d)
                    checked += 1
        assert checked > 26000

    def test_errors_match_validate_cut_set(self):
        # every subset of up to three gaps, plus empty and unknown gaps: the
        # commands that read a cut set refuse it as ``validate_cut_set`` does
        checked = 0
        for c in all_small_circuits(3, 3):
            gaps = [p.gap for p in enumerate_cut_points(c)]
            unknown = [Gap(c.wires, 0), Gap(0, c.symbol_count(0)), Gap(-1, 0)]
            cut_sets = [CutSet(frozenset()), CutSet.of(unknown), CutSet.of(gaps[:1] + unknown[1:])]
            cut_sets += [CutSet.of(combo) for k in (1, 2, 3) for combo in itertools.combinations(gaps, k)]
            fault = FaultSpec(gate=0)
            for cuts in cut_sets:
                expected = error_of(validate_cut_set, c, cuts)
                if expected is None:
                    continue
                for d in Direction:
                    assert error_of(linearize, c, cuts, d) == expected
                    assert error_of(derive_transformations, c, cuts, d) == expected
                    assert error_of(faulted_transformations, c, cuts, d, fault) == expected
                checked += 1
        assert checked > 1000

    def test_wrap_slot_not_radial(self, swap):
        # slot 0 (after gate 0) is radial, the wrap slot 2 is not
        cuts = CutSet.of([(0, 0), (0, 1), (1, 0)])
        assert validate_cut_set(swap, cuts).start == 0
        g = lambda w, i: Gap(w, i)  # noqa: E731
        cw = (ArcEnds(0, g(0, 0), g(0, 1)), ArcEnds(0, g(0, 1), g(0, 0)), ArcEnds(1, g(1, 0), g(1, 0)))
        assert arc_ends(swap, cuts, Direction.CW) == (0, cw)
        ccw = tuple(ArcEnds(o.wire, o.output_cut, o.input_cut) for o in cw)
        assert arc_ends(swap, cuts, Direction.CCW) == (0, ccw)
        # read from slot 0: gates 1, 2, 0; qubit 0 holds wire 0's symbol 1
        lin = linearize(swap, cuts, Direction.CW)
        assert [gate.source for gate in lin.gates] == [1, 2, 0]
        assert lin.gate_pairs() == ((2, 0), (1, 2), (1, 2))

    def test_radial_wrap_slot_needs_no_sweep(self, monkeypatch):
        c, record = circularize(mklin(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))

        def refuse(*args):
            raise AssertionError("the radial slots were swept")

        monkeypatch.setattr(circuits_module, "spanning_gaps", refuse)
        monkeypatch.setattr(circuits_module, "_radial_families", refuse)
        # one cut per wire, each its wire's last gap
        expected = CutTable(len(c.gates) - 1, [[g.index] for g in record.seam.sorted_gaps()])
        assert validate_cut_set(c, record.seam) == expected


class TestCircularize:
    def test_single_cnot_self_loops(self):
        circ, rec = circularize(mklin(2, [(0, 1)]))
        assert circ.wires == 2
        assert rec.joins == ()
        assert rec.loops == ((0, 0), (1, 1))

    def test_three_qubit_chain_joins(self):
        # gate on (q0,q1) then (q1,q2): q2's first symbol is after all of
        # q0's, so q2's input joins q0's output
        circ, rec = circularize(mklin(3, [(0, 1), (1, 2)]))
        assert circ.wires == 2
        assert rec.joins == ((2, 0),)
        assert rec.wire_of == (0, 1, 0)

    @given(data=st.data())
    def test_idle_qubits_join_in_time_order(self, data):
        # a qubit no gate touches takes the first gate time of the qubit
        # that consumes it, so every chain still meets its gates in time order
        n = data.draw(st.integers(3, 7))
        busy = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n - 1, unique=True))
        pairs = data.draw(st.lists(st.permutations(busy).map(lambda p: tuple(p[:2])), min_size=1, max_size=10))
        lin = mklin(n, pairs)
        circ, rec = circularize(lin)
        consumer_of = {p: q for q, p in rec.joins}
        for head, tail in rec.loops:
            chain = [head]
            while chain[-1] in consumer_of:
                chain.append(consumer_of[chain[-1]])
            assert chain[-1] == tail
            times = [t for q in chain for t, pair in enumerate(pairs) if q in pair]
            assert times == sorted(set(times))
        redone = linearize(circ, rec.seam, Direction.CW)
        assert redone.gate_pairs() == tuple((rec.wire_of[c], rec.wire_of[t]) for c, t in pairs)
        assert redone.n_qubits == circ.wires

    def test_empty_circuit_rejected_with_record(self):
        with pytest.raises(EmptyWire) as err:
            circularize(mklin(1, []))
        assert err.value.join_record is not None
        assert err.value.join_record.loops == ((0, 0),)

    def test_seam_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(120):
            n = rng.randint(2, 8)
            m = rng.randint(n, 20)
            lin = mklin(n, [tuple(rng.sample(range(n), 2)) for _ in range(m)])
            circ, rec = circularize(lin)
            assert circ.wires == n - len(rec.joins)
            # joins form a permutation fragment: no endpoint reused
            consumers = [q for q, _ in rec.joins]
            producers = [p for _, p in rec.joins]
            assert len(set(consumers)) == len(consumers)
            assert len(set(producers)) == len(producers)
            redone = linearize(circ, rec.seam, Direction.CW)
            expected = tuple(
                (rec.wire_of[g.control], rec.wire_of[g.target]) for g in lin.gates
            )
            assert redone.gate_pairs() == expected
            assert redone.n_qubits == circ.wires


class TestCyclicEqual:
    def test_rotation_detected(self):
        assert cyclic_equal([(0, 1), (1, 0), (0, 1)], [(1, 0), (0, 1), (0, 1)])

    def test_identity(self):
        lst = [(0, 1), (2, 1)]
        assert cyclic_equal(lst, lst)

    def test_length_mismatch(self):
        assert not cyclic_equal([(0, 1)] * 3, [(0, 1)])

    def test_renaming_applies(self):
        a = [(0, 1), (1, 0)]
        b = [(1, 0), (0, 1)]
        assert cyclic_equal(a, b, renaming={0: 1, 1: 0})

    def test_gate_objects_accepted(self):
        lin = mklin(2, [(0, 1), (1, 0)])
        assert cyclic_equal(lin.gates, [(1, 0), (0, 1)])


def test_exhaustive_family_size_sanity():
    circuits = all_small_circuits()
    assert len(circuits) > 200
    assert all(c.wires <= 3 and len(c.gates) <= 4 for c in circuits)
