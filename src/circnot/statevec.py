"""Small dense statevector simulator with measurement post-selection.

Used to functionally verify teleportation gadgets: initialise each qubit in
its configured basis state, apply the CNOT list, then project every measured
qubit onto the eigenstate selected by the supplied outcome bit and
renormalise. Corrections are never applied; the all-zero outcome branch is
the gadget's nominal behaviour. Qubit 0 is the first tensor factor (most
significant index bit).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CountMismatch, TooManyQubits, ZeroProbabilityOutcome

MAX_QUBITS = 14
_SQ2 = 1.0 / math.sqrt(2.0)

INIT_STATES: dict[str, np.ndarray] = {
    "zero": np.array([1.0, 0.0], dtype=complex),
    "plus": np.array([_SQ2, _SQ2], dtype=complex),
    "y": np.array([_SQ2, 1j * _SQ2], dtype=complex),
    "a": np.array([_SQ2, np.exp(1j * math.pi / 4) * _SQ2], dtype=complex),
}

# outcome-0 / outcome-1 eigenstates per measurement basis
MEAS_EIGENSTATES: dict[str, tuple[np.ndarray, np.ndarray]] = {
    "z": (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)),
    "x": (
        np.array([_SQ2, _SQ2], dtype=complex),
        np.array([_SQ2, -_SQ2], dtype=complex),
    ),
    "y": (
        np.array([_SQ2, 1j * _SQ2], dtype=complex),
        np.array([_SQ2, -1j * _SQ2], dtype=complex),
    ),
    "a": (
        np.array([_SQ2, np.exp(1j * math.pi / 4) * _SQ2], dtype=complex),
        np.array([_SQ2, -np.exp(1j * math.pi / 4) * _SQ2], dtype=complex),
    ),
}


def normalized(state) -> np.ndarray:
    vec = np.asarray(state, dtype=complex).ravel()
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ValueError("cannot normalise the zero vector")
    return vec / norm


def kron_all(factors) -> np.ndarray:
    out = np.array([1.0], dtype=complex)
    for f in factors:
        out = np.kron(out, np.asarray(f, dtype=complex).ravel())
    return out


def apply_cnot(state: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    psi = state.reshape([2] * n)
    idx_ct = [slice(None)] * n
    idx_ct[control] = 1
    out = psi.copy()
    sub = psi[tuple(idx_ct)]
    out[tuple(idx_ct)] = np.flip(sub, axis=target if target < control else target - 1)
    return out.reshape(-1)


def project_qubit(state: np.ndarray, qubit: int, eigen: np.ndarray, n: int) -> np.ndarray:
    """Project one qubit onto a single-qubit state and renormalise."""
    psi = state.reshape([2] * n)
    amp = np.tensordot(eigen.conj(), psi, axes=([0], [qubit]))
    prob = float(np.vdot(amp, amp).real)
    if prob < 1e-12:
        raise ZeroProbabilityOutcome(f"outcome has zero probability on qubit {qubit}")
    collapsed = np.tensordot(eigen, amp, axes=0)
    order = list(range(1, qubit + 1)) + [0] + list(range(qubit + 1, n))
    collapsed = np.transpose(collapsed, order)
    return (collapsed / math.sqrt(prob)).reshape(-1)


def fidelity(a, b) -> float:
    va, vb = normalized(a), normalized(b)
    return abs(np.vdot(va, vb)) ** 2


def reduced_density(state: np.ndarray, keep: list[int]) -> np.ndarray:
    """Density matrix of the kept qubits, in the order given."""
    n = int(round(math.log2(state.size)))
    psi = state.reshape([2] * n)
    others = [q for q in range(n) if q not in keep]
    psi = np.transpose(psi, keep + others)
    mat = psi.reshape(2 ** len(keep), -1)
    return mat @ mat.conj().T


def statevector_run(icm, outcomes, bindings=None, choices=None) -> np.ndarray:
    """Simulate an ICM circuit and post-select the given measurement bits.

    ``outcomes`` supplies one bit per measured qubit, in qubit order.
    ``bindings`` maps symbolic input names to single-qubit states (defaults
    to |0>). ``choices`` picks the basis of configurable measurements by
    qubit index; the first option is the default.
    """
    n = icm.circuit.n_qubits
    if n > MAX_QUBITS:
        raise TooManyQubits(f"{n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    bindings = bindings or {}
    factors = []
    for cfg in icm.configs:
        if cfg.init.state is None:
            bound = bindings.get(cfg.init.input_name, INIT_STATES["zero"])
            factors.append(normalized(bound))
        else:
            factors.append(INIT_STATES[cfg.init.state.value])
    state = kron_all(factors)
    for g in icm.circuit.gates:
        state = apply_cnot(state, g.control, g.target, n)
    measured = icm.measured_qubits()
    if len(outcomes) != len(measured):
        raise CountMismatch(
            f"{len(measured)} measured qubits but {len(outcomes)} outcome bits"
        )
    for q, bit in zip(measured, outcomes):
        cfg = icm.configs[q]
        basis = cfg.meas.kind
        if basis == "cfg":
            basis = (choices or {}).get(q, cfg.meas.options[0])
        eigen = MEAS_EIGENSTATES[basis][int(bit)]
        state = project_qubit(state, q, eigen, n)
    norm = np.linalg.norm(state)
    if not abs(norm - 1.0) < 1e-9:  # also catches a NaN norm
        raise RuntimeError(f"statevector norm drifted to {norm}")
    return state
