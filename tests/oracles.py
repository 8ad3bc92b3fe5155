"""Verification oracles that only the tests call: Pauli strings and a statevector simulator.

``PauliString``, ``conjugate_cnot`` and ``propagate_pauli`` push one Pauli
at a time through a CNOT list; they are the reference for
``circnot.pauli.oracle_map``, which pushes every single-qubit input at
once. Like it, they share no derivation code with the parity-model
pipeline.

``statevector_run`` is a small dense statevector simulator with
measurement post-selection, used to functionally verify teleportation
gadgets: initialise each qubit in its configured basis state, apply the
CNOT list, then project every measured qubit onto the eigenstate selected
by the supplied outcome bit and renormalise. Corrections are never
applied; the all-zero outcome branch is the gadget's nominal behaviour.
Qubit 0 is the first tensor factor (most significant index bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from circnot.circuits import LinearCircuit
from circnot.errors import CountMismatch, WireOutOfRange


class ZeroProbabilityOutcome(Exception):
    """A post-selected measurement outcome the state cannot produce."""


class TooManyQubits(Exception):
    """A circuit too wide for the dense simulator."""


@dataclass(frozen=True)
class PauliString:
    """Per-qubit X/Z bits; Y is both bits set. No sign is kept: conjugating
    an X/Z generator by a CNOT never flips it."""

    n: int
    xmask: int = 0
    zmask: int = 0

    def __post_init__(self):
        if self.xmask >> self.n or self.zmask >> self.n:
            raise WireOutOfRange("Pauli bits exceed qubit count")

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliString":
        if not 0 <= qubit < n:
            raise WireOutOfRange(f"qubit {qubit} of {n}")
        kind = kind.upper()
        x = 1 << qubit if kind in ("X", "Y") else 0
        z = 1 << qubit if kind in ("Z", "Y") else 0
        if kind not in ("I", "X", "Y", "Z"):
            raise ValueError(f"unknown Pauli kind {kind!r}")
        return cls(n, x, z)

    def kind_at(self, qubit: int) -> str:
        x = self.xmask >> qubit & 1
        z = self.zmask >> qubit & 1
        return ("I", "X", "Z", "Y")[x + 2 * z]

    def x_set(self) -> frozenset[int]:
        return frozenset(q for q in range(self.n) if self.xmask >> q & 1)

    def z_set(self) -> frozenset[int]:
        return frozenset(q for q in range(self.n) if self.zmask >> q & 1)


def conjugate_cnot(p: PauliString, control: int, target: int) -> PauliString:
    """Push a Pauli through one CNOT: X spreads control-to-target, Z the other way."""
    if control == target:
        raise ValueError("control and target must differ")
    for q in (control, target):
        if not 0 <= q < p.n:
            raise WireOutOfRange(f"qubit {q} of {p.n}")
    xmask = p.xmask
    zmask = p.zmask
    if xmask >> control & 1:
        xmask ^= 1 << target
    if zmask >> target & 1:
        zmask ^= 1 << control
    return PauliString(p.n, xmask, zmask)


def propagate_pauli(l: LinearCircuit, p: PauliString) -> PauliString:
    """Fold conjugate_cnot over the gate list in time order."""
    if p.n != l.n_qubits:
        raise CountMismatch(f"Pauli over {p.n} qubits but circuit has {l.n_qubits}")
    for g in l.gates:
        p = conjugate_cnot(p, g.control, g.target)
    return p


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
        if cfg.init.startswith("in:"):
            bound = bindings.get(cfg.init[3:], INIT_STATES["zero"])
            factors.append(normalized(bound))
        else:
            factors.append(INIT_STATES[cfg.init])
    state = kron_all(factors)
    for g in icm.circuit.gates:
        state = apply_cnot(state, g.control, g.target, n)
    measured = [q for q, cfg in enumerate(icm.configs) if cfg.meas != "none"]
    if len(outcomes) != len(measured):
        raise CountMismatch(
            f"{len(measured)} measured qubits but {len(outcomes)} outcome bits"
        )
    for q, bit in zip(measured, outcomes):
        cfg = icm.configs[q]
        basis = cfg.meas
        if basis.startswith("cfg:"):
            basis = (choices or {}).get(q, basis[4:].split("/")[0])
        eigen = MEAS_EIGENSTATES[basis][int(bit)]
        state = project_qubit(state, q, eigen, n)
    norm = np.linalg.norm(state)
    if not abs(norm - 1.0) < 1e-9:  # also catches a NaN norm
        raise RuntimeError(f"statevector norm drifted to {norm}")
    return state
