import math

import numpy as np
import pytest

from circnot import (
    ICMCircuit,
    LinearCircuit,
    LinearGate,
    QubitConfig,
    gadget,
)
from circnot.errors import CountMismatch
import oracles
from oracles import (
    INIT_STATES,
    TooManyQubits,
    ZeroProbabilityOutcome,
    apply_cnot,
    fidelity,
    kron_all,
    reduced_density,
    statevector_run,
)

T_MAT = np.diag([1.0, np.exp(1j * math.pi / 4)])
P_MAT = np.diag([1.0, 1.0j])
# the |Y>-target gadget's nominal action: (I + iX)/sqrt(2)
V_PLUS = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2)

RNG = np.random.default_rng(20240817)
RANDOM_STATE = RNG.normal(size=2) + 1j * RNG.normal(size=2)
RANDOM_STATE /= np.linalg.norm(RANDOM_STATE)

PHI_STATES = [
    INIT_STATES["zero"],
    np.array([0.0, 1.0], dtype=complex),
    INIT_STATES["plus"],
    RANDOM_STATE,
]


def test_init_states_normalised():
    for state in INIT_STATES.values():
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_apply_cnot_norm_preserved():
    rng = np.random.default_rng(3)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    for c, t in [(0, 1), (2, 0), (1, 2)]:
        state = apply_cnot(state, c, t, 3)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9


@pytest.mark.parametrize("phi", PHI_STATES, ids=["zero", "one", "plus", "random"])
def test_teleport_gadget(phi):
    out = statevector_run(gadget("teleport"), [0], bindings={"phi": phi})
    assert fidelity(out, kron_all([INIT_STATES["zero"], phi])) >= 1 - 1e-9


@pytest.mark.parametrize("phi", PHI_STATES, ids=["zero", "one", "plus", "random"])
def test_t_gadget(phi):
    out = statevector_run(gadget("t"), [0], bindings={"phi": phi})
    assert fidelity(out, kron_all([INIT_STATES["zero"], T_MAT @ phi])) >= 1 - 1e-9


@pytest.mark.parametrize("phi", PHI_STATES, ids=["zero", "one", "plus", "random"])
def test_p_gadget(phi):
    out = statevector_run(gadget("p"), [0], bindings={"phi": phi})
    assert fidelity(out, kron_all([INIT_STATES["zero"], P_MAT @ phi])) >= 1 - 1e-9


@pytest.mark.parametrize("phi", PHI_STATES, ids=["zero", "one", "plus", "random"])
def test_v_gadget(phi):
    out = statevector_run(gadget("v"), [0], bindings={"phi": phi})
    expected = kron_all([V_PLUS @ phi, INIT_STATES["plus"]])
    assert fidelity(out, expected) >= 1 - 1e-9


def test_bell_gadget():
    out = statevector_run(gadget("bell"), [])
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    assert fidelity(out, bell) >= 1 - 1e-9


def test_measure_z_gadget_projects():
    # measuring the |0>-target ancilla in Z reads out the control's Z value
    out0 = statevector_run(
        gadget("measurez"), [0], bindings={"phi": INIT_STATES["zero"]}
    )
    assert fidelity(out0, kron_all([INIT_STATES["zero"], INIT_STATES["zero"]])) >= 1 - 1e-9
    one = np.array([0.0, 1.0], dtype=complex)
    out1 = statevector_run(gadget("measurez"), [1], bindings={"phi": one})
    assert fidelity(out1, kron_all([one, one])) >= 1 - 1e-9


def test_remote_cnot_function():
    # verified action: t passes through on the third qubit, the fourth
    # receives c xor t
    g = gadget("remotecnot")
    basis = np.eye(2, dtype=complex)
    for cbit in (0, 1):
        for tbit in (0, 1):
            out = statevector_run(
                g, [0, 0], bindings={"c": basis[cbit], "t": basis[tbit]}
            )
            rho = reduced_density(out, [2, 3])
            expected = kron_all([basis[tbit], basis[cbit ^ tbit]])
            overlap = float(np.real(expected.conj() @ rho @ expected))
            assert overlap >= 1 - 1e-9


def test_sdt_routes_by_basis_choice():
    g = gadget("sdt")
    phi = RANDOM_STATE
    out = statevector_run(g, [0, 0], bindings={"phi": phi}, choices={0: "z", 1: "x"})
    rho = reduced_density(out, [2])
    assert float(np.real(phi.conj() @ rho @ phi)) >= 1 - 1e-9
    out = statevector_run(g, [0, 0], bindings={"phi": phi}, choices={0: "x", 1: "z"})
    rho = reduced_density(out, [3])
    assert float(np.real(phi.conj() @ rho @ phi)) >= 1 - 1e-9


def test_zero_probability_outcome():
    # Bell-style correlation: projecting |00>+|11> onto q0=0 then q1=1 is
    # impossible
    lin = LinearCircuit(n_qubits=2, gates=(LinearGate(control=1, target=0),))
    icm = ICMCircuit(
        circuit=lin,
        configs=(
            QubitConfig("zero", "z"),
            QubitConfig("plus", "z"),
        ),
    )
    with pytest.raises(ZeroProbabilityOutcome):
        statevector_run(icm, [0, 1])


def test_too_many_qubits():
    n = 15
    lin = LinearCircuit(
        n_qubits=n, gates=tuple(LinearGate(control=0, target=q) for q in range(1, n))
    )
    icm = ICMCircuit(
        circuit=lin,
        configs=tuple(QubitConfig("zero", "none") for _ in range(n)),
    )
    with pytest.raises(TooManyQubits):
        statevector_run(icm, [])


def test_outcome_count_mismatch():
    with pytest.raises(CountMismatch):
        statevector_run(gadget("t"), [])


def test_post_selection_renormalises():
    out = statevector_run(gadget("teleport"), [1], bindings={"phi": RANDOM_STATE})
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_norm_check_without_assert(monkeypatch):
    # the norm check is a raise, so it survives ``python -O``
    monkeypatch.setattr(oracles, "project_qubit", lambda state, qubit, eigen, n: 2 * state)
    with pytest.raises(RuntimeError):
        statevector_run(gadget("teleport"), [0], bindings={"phi": RANDOM_STATE})
