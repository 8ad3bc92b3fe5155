"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every expected value is produced by an independent route: Pauli conjugation
and dense simulation for functional checks, truth tables for model structure,
and plain combinatorics for counting. Stated runtime budgets are asserted.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from circnot import (
    CutSet,
    Direction,
    FaultSpec,
    LinearCircuit,
    StabiliserMap,
    check_commutation_invariance,
    circularize,
    derive_transformations,
    faulted_transformations,
    gadget,
    linearize,
    oracle_map,
    search_cuts,
    strip_and_circularize,
    toffoli_decomposition,
    translate_to_icm,
    validate_cut_set,
)
from circnot.errors import Inconsistent
from circnot.model import ModelKind, apply_cuts, build_model
from conftest import SWAP_CUT_FIXTURES
from helpers import (
    SWAP_X_REF,
    SWAP_Z_REF,
    isomorphic_to_reference,
    mkcirc,
    mklin,
    parity_solutions,
    restrict_map,
)
from oracles import INIT_STATES, PauliString, fidelity, kron_all, propagate_pauli, statevector_run


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS  {label}  ({elapsed:.2f}s)")


def slot_angles(c):
    """Representative angle strictly inside each slot; gate ``j`` sits at angle ``j``."""
    positions = range(len(c.gates))
    out = []
    for j in range(len(positions)):
        a = positions[j]
        b = positions[(j + 1) % len(positions)]
        out.append((a + b) / 2 if a < b else a + 0.5)
    return out


def wire_gap_containing(c, wire, theta):
    """Independent arc walk: which gap's cyclic interval holds the angle."""
    positions = c.symbols(wire)
    k = len(positions)
    if k == 1:
        return 0
    for i in range(k):
        a, b = positions[i], positions[(i + 1) % k]
        inside = (a < theta < b) if a < b else (theta > a or theta < b)
        if inside:
            return i
    raise AssertionError("angle hit a symbol position")


def unroll_families(c) -> list[set[tuple[int, int]]]:
    """Per start angle, the (wire, gap) arcs it crosses: a cut set holding one
    of them leaves no wire arc wrapped across that angle."""
    return [{(w, wire_gap_containing(c, w, theta)) for w in range(c.wires)} for theta in slot_angles(c)]


@pytest.fixture(scope="module")
def sweep(small_sweep):
    """Fused exhaustive sweep backing criteria 4 and 8.

    For every circuit (<=3 wires, <=4 gates, up to relabeling) and every
    cut subset of <=6 cuts (the session's ``small_sweep`` table): compare
    whether validation accepted it with whether the independent unroll
    walker accepts it, and for accepted sets whether both directions'
    derivations match the Pauli oracle exactly.
    """
    stats = {
        "circuits": 0,
        "subsets": 0,
        "accepted": 0,
        "derivations": 0,
        "oracle_mismatches": 0,
        "walker_disagreements": 0,
        "solver_failures": 0,
    }
    t0 = time.perf_counter()
    for c, entries in small_sweep.table:
        stats["circuits"] += 1
        unrolls = unroll_families(c)
        for entry in entries:
            stats["subsets"] += 1
            accepted = entry.table is not None
            chosen = {(g.wire, g.index) for g in entry.cuts.gaps()}
            if accepted != any(family <= chosen for family in unrolls):
                stats["walker_disagreements"] += 1
            if not accepted:
                continue
            stats["accepted"] += 1
            for derived, oracle in zip(entry.derived, entry.oracle):
                if derived is Inconsistent:
                    stats["solver_failures"] += 1
                    continue
                stats["derivations"] += 1
                if derived != oracle:
                    stats["oracle_mismatches"] += 1
    stats["elapsed"] = small_sweep.seconds + time.perf_counter() - t0
    return stats


def test_criterion_1_swap_model_structure(swap):
    with criterion(1, "SWAP model structure and incidence isomorphism"):
        t0 = time.perf_counter()
        xm = build_model(swap, ModelKind.X)
        zm = build_model(swap, ModelKind.Z)
        for m, ref in ((xm, SWAP_X_REF), (zm, SWAP_Z_REF)):
            assert m.n_vars == 9
            assert len(m.gate_vars) == 3
            assert len(m.joins) == 6
            assert isomorphic_to_reference(m, ref)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_worked_cut_fixtures(swap):
    with criterion(2, "four worked cut sets validate, linearize, and agree with the oracle"):
        t0 = time.perf_counter()
        expected_qubits = {
            "swap": 2,
            "single-cnot": 2,
            "teleported-cnot": 4,
            "sdt": 4,
        }
        for name, gaps in SWAP_CUT_FIXTURES.items():
            cuts = CutSet.of(gaps)
            validate_cut_set(swap, cuts)
            lin = linearize(swap, cuts, Direction.CW)
            assert lin.n_qubits == expected_qubits[name]
            assert len(lin.gates) == 3
            derived = derive_transformations(swap, cuts, Direction.CW)
            assert derived == oracle_map(lin)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_two_radial_cuts(swap):
    with criterion(3, "radial cuts give the SWAP map and the single-CNOT map"):
        swap_map = StabiliserMap(
            2, (frozenset({1}), frozenset({0})), (frozenset({1}), frozenset({0}))
        )
        cnot_map = StabiliserMap(
            2,
            (frozenset({0}), frozenset({0, 1})),
            (frozenset({0, 1}), frozenset({1})),
        )
        a = derive_transformations(swap, CutSet.of(SWAP_CUT_FIXTURES["swap"]), Direction.CW)
        b = derive_transformations(
            swap, CutSet.of(SWAP_CUT_FIXTURES["single-cnot"]), Direction.CW
        )
        assert a == swap_map
        assert b == cnot_map


def test_criterion_4_exhaustive_oracle_equivalence(sweep):
    with criterion(4, "exhaustive Boolean-vs-oracle agreement over small circuits"):
        print(
            f"sweep: {sweep['circuits']} circuits, {sweep['subsets']} cut subsets, "
            f"{sweep['derivations']} derivations in {sweep['elapsed']:.1f}s"
        )
        assert sweep["circuits"] > 200
        assert sweep["derivations"] > 10000
        assert sweep["oracle_mismatches"] == 0
        assert sweep["solver_failures"] == 0
        assert sweep["elapsed"] < 60.0


def test_criterion_5_pinned_clause_solutions(single_cnot):
    with criterion(5, "pinning one split true leaves exactly the two complementary solutions"):
        m = apply_cuts(build_model(single_cnot, ModelKind.X), CutSet.of([(0, 0), (1, 0)]))
        before, after, crossing = m.gate_vars[0]
        sols = [s for s in parity_solutions(m) if s >> before & 1]
        assert {(s >> crossing & 1, s >> after & 1) for s in sols} == {(1, 0), (0, 1)}
        assert len(sols) == 2


def test_criterion_6_commutativity():
    with criterion(6, "commutation invariance matches oracle order independence"):
        cases = [
            ([(0, 1), (0, 2)], True),   # shared control
            ([(1, 0), (2, 0)], True),   # shared target
            ([(0, 1), (1, 2)], False),  # control chained into target
        ]
        for pairs, expected in cases:
            assert check_commutation_invariance(mkcirc(3, pairs), 0, 1) is expected
            fwd = mklin(3, pairs)
            bwd = mklin(3, list(reversed(pairs)))
            agree = True
            for qa, qb in itertools.combinations(range(3), 2):
                for k1, k2 in itertools.product("IXYZ", repeat=2):
                    sa = PauliString.single(3, qa, k1)
                    sb = PauliString.single(3, qb, k2)
                    p = PauliString(3, sa.xmask | sb.xmask, sa.zmask | sb.zmask)
                    a, b = propagate_pauli(fwd, p), propagate_pauli(bwd, p)
                    if (a.xmask, a.zmask) != (b.xmask, b.zmask):
                        agree = False
            assert agree is expected


def test_criterion_7_round_trip_500():
    with criterion(7, "circularize/linearize round trip on 500 random circuits"):
        t0 = time.perf_counter()
        rng = random.Random(20240805)
        for _ in range(500):
            n = rng.randint(2, 8)
            m = rng.randint(n, 20)
            lin = mklin(n, [tuple(rng.sample(range(n), 2)) for _ in range(m)])
            circ, rec = circularize(lin)
            redone = linearize(circ, rec.seam, Direction.CW)
            expected = tuple(
                (rec.wire_of[g.control], rec.wire_of[g.target]) for g in lin.gates
            )
            assert redone.gate_pairs() == expected
        assert time.perf_counter() - t0 < 10.0


def test_criterion_8_radial_cut_necessity(sweep):
    with criterion(8, "rejection coincides with unrollability; accepted sets solve uniquely"):
        assert sweep["walker_disagreements"] == 0
        assert sweep["solver_failures"] == 0
        assert sweep["accepted"] > 0
        assert sweep["subsets"] > sweep["accepted"]


def test_criterion_9_gadget_functional_checks():
    with criterion(9, "gadget simulations match their nominal outputs"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(424242)
        rand = rng.normal(size=2) + 1j * rng.normal(size=2)
        rand /= np.linalg.norm(rand)
        one = np.array([0.0, 1.0], dtype=complex)
        t_mat = np.diag([1.0, np.exp(1j * math.pi / 4)])
        p_mat = np.diag([1.0, 1.0j])
        v_mat = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2)
        zero, plus = INIT_STATES["zero"], INIT_STATES["plus"]
        for phi in (zero, one, plus, rand):
            out = statevector_run(gadget("teleport"), [0], bindings={"phi": phi})
            assert fidelity(out, kron_all([zero, phi])) >= 1 - 1e-9
            out = statevector_run(gadget("t"), [0], bindings={"phi": phi})
            assert fidelity(out, kron_all([zero, t_mat @ phi])) >= 1 - 1e-9
            out = statevector_run(gadget("p"), [0], bindings={"phi": phi})
            assert fidelity(out, kron_all([zero, p_mat @ phi])) >= 1 - 1e-9
            out = statevector_run(gadget("v"), [0], bindings={"phi": phi})
            assert fidelity(out, kron_all([v_mat @ phi, plus])) >= 1 - 1e-9
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert fidelity(statevector_run(gadget("bell"), []), bell) >= 1 - 1e-9
        assert time.perf_counter() - t0 < 5.0


def test_criterion_10_smgf_equivalence(swap):
    with criterion(10, "fault injection equals the gate-deleted oracle on both fixtures"):
        for fixture in ("swap", "teleported-cnot"):
            base = CutSet.of(SWAP_CUT_FIXTURES[fixture])
            for d in (Direction.CW, Direction.CCW):
                lin = linearize(swap, base, d)
                for gate in range(len(swap.gates)):
                    fd = faulted_transformations(swap, base, d, FaultSpec(gate=gate))
                    reduced = LinearCircuit(
                        n_qubits=lin.n_qubits,
                        gates=tuple(g for g in lin.gates if g.source != gate),
                    )
                    expected = restrict_map(
                        oracle_map(reduced), fd.live_inputs, fd.live_outputs
                    )
                    assert fd.map == expected


def test_criterion_11_toffoli_scale_report():
    with criterion(11, "translated decomposition strips to a consistent circular form"):
        t0 = time.perf_counter()
        gates, n = toffoli_decomposition()
        icm = translate_to_icm(gates, n)
        circ, rec = strip_and_circularize(icm)
        assert circ.wires == icm.circuit.n_qubits - len(rec.joins)
        # cyclic order preservation: gate i of the circle is gate i of the
        # linear circuit, with its wire-mapped pair
        assert len(circ.gates) == len(icm.circuit.gates)
        for cg, lg in zip(circ.gates, icm.circuit.gates):
            assert cg.control == rec.wire_of[lg.control]
            assert cg.target == rec.wire_of[lg.target]
        reference_icm_qubits, reference_wires = 45, 9
        print(
            "toffoli report: "
            f"icm_qubits={icm.circuit.n_qubits} cross_joins={len(rec.joins)} "
            f"circular_wires={circ.wires} "
            f"(hand-built reference flow: {reference_icm_qubits} qubits, "
            f"{reference_wires} wires)"
        )
        assert time.perf_counter() - t0 < 5.0


def test_criterion_12_search_soundness_completeness(swap):
    with criterion(12, "cut search is sound and finds all worked fixtures"):
        t0 = time.perf_counter()
        for name, gaps in SWAP_CUT_FIXTURES.items():
            cuts = CutSet.of(gaps)
            target = oracle_map(linearize(swap, cuts, Direction.CW))
            results = search_cuts(swap, target, max_cuts=4)
            assert (cuts, Direction.CW) in results
            for found_cuts, direction in results:
                assert derive_transformations(swap, found_cuts, direction) == target
        assert time.perf_counter() - t0 < 30.0
