import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circnot import (
    CutSet,
    Direction,
    FaultSpec,
    Gap,
    ICMCircuit,
    LinearCircuit,
    LinearGate,
    QubitConfig,
    circularize,
    enumerate_cut_points,
    faulted_transformations,
    gadget,
    inject_smgf,
    linearize,
    oracle_map,
    strip_and_circularize,
    toffoli_decomposition,
    translate_to_icm,
)
from circnot.errors import CountMismatch, InvalidAncillaConfig, UnknownGate
from circnot.icm import GADGETS, SINGLE_QUBIT_GATES
from helpers import cyclic_equal, fault_expected, mklin, restrict_map
from oracles import fidelity, kron_all, reduced_density, statevector_run

T_MAT = np.diag([1.0, np.exp(1j * math.pi / 4)])
P_MAT = np.diag([1.0, 1.0j])
V_PLUS = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2)
H_MAT = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
GATE_MATS = {"t": T_MAT, "p": P_MAT, "pdg": P_MAT.conj().T, "v": V_PLUS}


class TestConfigure:
    def test_teleport_structure(self):
        lin = mklin(2, [(1, 0)])
        icm = ICMCircuit(circuit=lin, configs=(QubitConfig("in:phi", "z"), QubitConfig("plus", "none")))
        assert [cfg.meas for cfg in icm.configs] == ["z", "none"]

    def test_sdt_configurable_bases(self):
        lin = mklin(4, [(3, 1), (0, 1), (2, 0)])
        configs = (
            QubitConfig("in:phi", "cfg:z/x"),
            QubitConfig("zero", "cfg:x/z"),
            QubitConfig("plus", "none"),
            QubitConfig("plus", "none"),
        )
        assert ICMCircuit(circuit=lin, configs=configs) == gadget("sdt")

    def test_count_mismatch(self):
        lin = mklin(4, [(0, 1), (2, 3)])
        with pytest.raises(CountMismatch):
            ICMCircuit(circuit=lin, configs=(QubitConfig("zero", "none"),) * 3)

    @pytest.mark.parametrize(
        "init,meas,message",
        [
            ("in:", "none", "empty input name"),
            ("in:a#b", "none", "input name 'a#b' holds whitespace or '#'"),
            ("in:a b", "none", "input name 'a b' holds whitespace or '#'"),
            ("ZERO", "none", "unknown init basis 'ZERO'"),
            ("zero:x", "none", "unknown init basis 'zero:x'"),
            ("in", "none", "unknown init basis 'in'"),
            ("x", "none", "unknown init basis 'x'"),
            ("zero", "cfg:x", "bad configurable basis 'cfg:x'"),
            ("zero", "cfg:x/q", "bad configurable basis 'cfg:x/q'"),
            ("zero", "cfg:x/y/z", "bad configurable basis 'cfg:x/y/z'"),
            ("zero", "cfg:none/x", "bad configurable basis 'cfg:none/x'"),
            ("zero", "cfg", "unknown measurement basis 'cfg'"),
            ("zero", "Z", "unknown measurement basis 'Z'"),
            ("zero", "plus", "unknown measurement basis 'plus'"),
            ("zero", "z" * 65, f"unknown measurement basis {'z' * 64!r}... (65 chars)"),
        ],
    )
    def test_refused_token_names_why(self, init, meas, message):
        # a file line carrying the token is refused with the same words
        with pytest.raises(InvalidAncillaConfig) as err:
            QubitConfig(init, meas)
        assert str(err.value) == message


class TestGadgets:
    def test_t_gadget_structure(self):
        g = gadget("t")
        assert g.circuit.n_qubits == 2
        assert g.circuit.gate_pairs() == ((1, 0),)
        assert g.configs == (QubitConfig("in:phi", "z"), QubitConfig("a", "none"))

    def test_bell_gadget_simulates(self):
        out = statevector_run(gadget("bell"), [])
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert fidelity(out, bell) >= 1 - 1e-9

    def test_sdt_gadget_structure(self):
        g = gadget("sdt")
        assert g.circuit.n_qubits == 4
        assert len(g.circuit.gates) == 3
        assert [cfg.init for cfg in g.configs] == ["in:phi", "zero", "plus", "plus"]

    def test_unknown_gadget(self):
        with pytest.raises(UnknownGate, match="no gadget named 'toffoli'"):
            gadget("toffoli")

    def test_name_read_in_any_case_and_spacing(self):
        assert gadget(" RemoteCNOT\n") == gadget("remotecnot")

    def test_all_gadgets_cnot_only(self):
        for name in GADGETS:
            g = gadget(name)
            assert all(isinstance(gate, LinearGate) for gate in g.circuit.gates)
            assert all(gate.control != gate.target for gate in g.circuit.gates)


class TestTranslate:
    def test_single_t_equals_gadget(self):
        icm = translate_to_icm([("t", 0)], 1)
        ref = gadget("t")
        assert icm.circuit.gate_pairs() == ((1, 0),)
        assert icm.configs[1].init == ref.configs[1].init
        assert [cfg.meas for cfg in icm.configs] == ["z", "none"]

    def test_h_expands_to_three_gadgets(self):
        icm = translate_to_icm([("h", 0)], 1)
        assert icm.circuit.n_qubits == 4
        inits = [cfg.init for cfg in icm.configs]
        assert inits == ["in:q0", "y", "y", "y"]
        assert len(icm.circuit.gates) == 3

    def test_tdg_records_configurable_correction(self):
        icm = translate_to_icm([("tdg", 0)], 1)
        assert icm.configs == (QubitConfig("in:q0", "cfg:z/x"), QubitConfig("a", "none"))

    def test_pdg_is_three_p_gadgets(self):
        icm = translate_to_icm([("pdg", 0)], 1)
        assert icm.circuit.n_qubits == 4
        assert all(cfg.init == "y" for cfg in icm.configs[1:])

    def test_unknown_gate(self):
        with pytest.raises(UnknownGate):
            translate_to_icm([("rx", 0)], 1)

    def test_toffoli_counts(self):
        gates, n = toffoli_decomposition()
        icm = translate_to_icm(gates, n)
        # 3 logical + 7 T-type + 1 P + 2 H * 3
        assert icm.circuit.n_qubits == 17
        assert len(icm.circuit.gates) == 20
        assert all(gate.control != gate.target for gate in icm.circuit.gates)

    def test_toffoli_decomposition_is_exact(self):
        # brute-force unitary product against the doubly-controlled NOT
        gates, n = toffoli_decomposition()
        I2 = np.eye(2, dtype=complex)
        mats = {
            "h": H_MAT,
            "t": T_MAT,
            "tdg": T_MAT.conj().T,
            "p": P_MAT,
            "pdg": P_MAT.conj().T,
        }

        def on(q, mat):
            out = np.array([[1.0]], dtype=complex)
            for i in range(n):
                out = np.kron(out, mat if i == q else I2)
            return out

        from helpers import cnot_matrix

        u = np.eye(2**n, dtype=complex)
        for op in gates:
            u = (cnot_matrix(n, op[1], op[2]) if op[0] == "cnot" else on(op[1], mats[op[0]])) @ u
        toffoli = np.eye(8, dtype=complex)
        toffoli[6:, 6:] = np.array([[0, 1], [1, 0]])
        assert np.allclose(u / u[0, 0], toffoli, atol=1e-12)

    @pytest.mark.parametrize(
        "program,n",
        [
            ([("t", 0)], 1),
            ([("p", 0), ("v", 0)], 1),
            ([("pdg", 0)], 1),
            ([("t", 0), ("cnot", 0, 1), ("v", 1)], 2),
            ([("cnot", 1, 0), ("p", 0), ("t", 1)], 2),
        ],
    )
    def test_lineage_composition(self, program, n):
        # nominal (all-outcome-0) gadget composition equals the plain gate
        # product on the logical qubits; correction-free alphabet only
        rng = np.random.default_rng(99)
        states = []
        for _ in range(n):
            s = rng.normal(size=2) + 1j * rng.normal(size=2)
            states.append(s / np.linalg.norm(s))
        icm = translate_to_icm(program, n)
        bindings = {f"q{i}": states[i] for i in range(n)}
        measured = [cfg for cfg in icm.configs if cfg.meas != "none"]
        out = statevector_run(icm, [0] * len(measured), bindings=bindings)
        logical = kron_all(states)
        from helpers import cnot_matrix

        u = np.eye(2**n, dtype=complex)
        for op in program:
            if op[0] == "cnot":
                u = cnot_matrix(n, op[1], op[2]) @ u
            else:
                mat = GATE_MATS[op[0]]
                full = np.array([[1.0]], dtype=complex)
                for i in range(n):
                    full = np.kron(full, mat if i == op[1] else np.eye(2))
                u = full @ u
        expected = u @ logical
        carriers = [q for q, cfg in enumerate(icm.configs) if cfg.meas == "none"]
        rho = reduced_density(out, carriers)
        overlap = float(np.real(expected.conj() @ rho @ expected))
        assert overlap >= 1 - 1e-9

    def test_h_nominal_is_zhz(self):
        # the P.V.P chain with this V convention nominally implements Z H Z;
        # the recorded measurement bookkeeping, not applied corrections,
        # carries the difference
        rng = np.random.default_rng(4)
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi /= np.linalg.norm(phi)
        icm = translate_to_icm([("h", 0)], 1)
        out = statevector_run(icm, [0, 0, 0], bindings={"q0": phi})
        carriers = [q for q, cfg in enumerate(icm.configs) if cfg.meas == "none"]
        rho = reduced_density(out, carriers)
        Z = np.diag([1.0, -1.0])
        expected = Z @ H_MAT @ Z @ phi
        assert float(np.real(expected.conj() @ rho @ expected)) >= 1 - 1e-9
        not_h = H_MAT @ phi
        assert float(np.real(not_h.conj() @ rho @ not_h)) < 1 - 1e-3


class TestStrip:
    def test_t_gadget_strips_to_self_loops(self):
        circ, rec = strip_and_circularize(gadget("t"))
        assert circ.wires == 2
        assert rec.joins == ()
        assert rec.loops == ((0, 0), (1, 1))

    def test_bell_and_t_share_skeleton(self):
        ct, _ = strip_and_circularize(gadget("t"))
        cb, _ = strip_and_circularize(gadget("bell"))
        assert ct.wires == cb.wires
        assert cyclic_equal(
            [(g.control, g.target) for g in ct.gates],
            [(g.control, g.target) for g in cb.gates],
        )

    def test_configuration_never_changes_skeleton(self):
        lin = mklin(3, [(0, 1), (1, 2), (2, 0)])
        configs = (
            QubitConfig("in:a", "z"),
            QubitConfig("plus", "x"),
            QubitConfig("zero", "none"),
        )
        icm = ICMCircuit(circuit=lin, configs=configs)
        assert strip_and_circularize(icm) == circularize(lin)

    def test_translated_toffoli_wire_count(self):
        gates, n = toffoli_decomposition()
        icm = translate_to_icm(gates, n)
        circ, rec = strip_and_circularize(icm)
        assert circ.wires == icm.circuit.n_qubits - len(rec.joins)
        # cyclic order preserved: gate i of the circle is gate i of the ICM circuit
        assert [(g.control, g.target) for g in circ.gates] == [
            (rec.wire_of[g.control], rec.wire_of[g.target]) for g in icm.circuit.gates
        ]

    def test_radial_cut_of_stripped_gives_equal_qubits(self):
        gates, n = toffoli_decomposition()
        circ, rec = strip_and_circularize(translate_to_icm(gates, n))
        lin = linearize(circ, rec.seam, Direction.CW)
        assert lin.n_qubits == circ.wires


class TestInjectSmgf:
    def test_adds_adjacent_cuts(self, swap, swap_cut_sets):
        base = swap_cut_sets["swap"]
        cuts, patch = inject_smgf(swap, base, FaultSpec(gate=1))
        # gate 1 controls from wire 1 at symbol 1: gaps (1,0) and (1,1)
        assert patch.wire == 1
        assert patch.before_gap == Gap(1, 0)
        assert patch.after_gap == Gap(1, 1)
        assert cuts.gaps() == base.gaps() | {Gap(1, 0), Gap(1, 1)}

    def test_idempotent_when_present(self, swap, swap_cut_sets):
        base = swap_cut_sets["teleported-cnot"]
        cuts, _ = inject_smgf(swap, base, FaultSpec(gate=0))
        assert cuts.gaps() == base.gaps()

    def test_patch_pins_zero(self, swap, swap_cut_sets):
        _, patch = inject_smgf(swap, swap_cut_sets["swap"], FaultSpec(gate=1))
        assert patch.init == "zero"

    def test_unknown_gate(self, swap, swap_cut_sets):
        with pytest.raises(UnknownGate):
            inject_smgf(swap, swap_cut_sets["swap"], FaultSpec(gate=9))

    def test_single_cnot_fault_is_identity_on_target(self, single_cnot):
        base = CutSet.of([(0, 0), (1, 0)])
        fd = faulted_transformations(single_cnot, base, Direction.CW, FaultSpec(gate=0))
        assert fd.live_inputs == frozenset({1})
        assert fd.map.x_out[1] == frozenset({1})
        assert fd.map.z_out[1] == frozenset({1})

    @pytest.mark.parametrize("direction", [Direction.CW, Direction.CCW])
    @pytest.mark.parametrize("fixture", ["swap", "teleported-cnot"])
    def test_fault_equals_deleted_gate_oracle(
        self, swap, swap_cut_sets, fixture, direction
    ):
        base = swap_cut_sets[fixture]
        lin = linearize(swap, base, direction)
        for gate in range(len(swap.gates)):
            fd = faulted_transformations(swap, base, direction, FaultSpec(gate=gate))
            reduced = LinearCircuit(
                n_qubits=lin.n_qubits,
                gates=tuple(g for g in lin.gates if g.source != gate),
            )
            expected = restrict_map(oracle_map(reduced), fd.live_inputs, fd.live_outputs)
            assert fd.map == expected


@st.composite
def icm_programs(draw):
    """A random {cnot, t, tdg, p, pdg, v, h} program up to 4 qubits x 12 gates, every qubit touched."""
    qubits = draw(st.integers(1, 4))
    single = st.tuples(st.sampled_from(SINGLE_QUBIT_GATES), st.integers(0, qubits - 1))
    ops = [single]
    if qubits > 1:
        cnot = st.tuples(st.integers(0, qubits - 1), st.integers(1, qubits - 1)).map(
            lambda p: ("cnot", p[0], (p[0] + p[1]) % qubits)
        )
        ops.append(cnot)
    program = draw(st.lists(st.one_of(ops), max_size=12 - qubits))
    for q in range(qubits):
        if not any(q in op[1:] for op in program):
            program.insert(draw(st.integers(0, len(program))), draw(single.map(lambda op: (op[0], q))))
    return program, qubits


class TestFaultProperties:
    """Faults on random translated programs (profiles in conftest)."""

    @given(data=st.data())
    def test_fault_equals_gate_deleted_oracle(self, data):
        # over the seam plus up to three other gaps, both directions
        program, qubits = data.draw(icm_programs())
        c, record = strip_and_circularize(translate_to_icm(program, qubits))
        others = [p.gap for p in enumerate_cut_points(c) if p.gap not in record.seam]
        extra = data.draw(st.lists(st.sampled_from(others), max_size=3, unique=True)) if others else []
        base = CutSet(record.seam.gaps() | set(extra))
        ids = data.draw(st.lists(st.sampled_from(range(len(c.gates))), min_size=1, max_size=2, unique=True))
        for d in Direction:
            for gate in ids:
                fd = faulted_transformations(c, base, d, FaultSpec(gate=gate))
                assert (fd.map, fd.live_inputs, fd.live_outputs) == fault_expected(c, base, d, gate)
