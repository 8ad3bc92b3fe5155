"""Pauli propagation through CNOT lists: the verification oracle.

Deliberately shares no derivation code with the parity-model pipeline; the
two must agree (modulo sign) for every fixture, which is what makes the
cross-checks meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import LinearCircuit
from .errors import CountMismatch, WireOutOfRange
from .stabmap import StabiliserMap


@dataclass(frozen=True)
class PauliString:
    """Per-qubit X/Z bits with a global sign; Y is both bits set."""

    n: int
    xmask: int = 0
    zmask: int = 0
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
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

    def label(self) -> str:
        body = "".join(self.kind_at(q) for q in range(self.n))
        return ("+" if self.sign > 0 else "-") + body


def conjugate_cnot(p: PauliString, control: int, target: int) -> PauliString:
    """Push a Pauli through one CNOT: X spreads control-to-target, Z the
    other way; conjugating X/Z generators never flips the sign."""
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
    return PauliString(p.n, xmask, zmask, p.sign)


def propagate_pauli(l: LinearCircuit, p: PauliString) -> PauliString:
    """Fold conjugate_cnot over the gate list in time order."""
    if p.n != l.n_qubits:
        raise CountMismatch(f"Pauli over {p.n} qubits but circuit has {l.n_qubits}")
    for g in l.gates:
        p = conjugate_cnot(p, g.control, g.target)
    return p


def oracle_map(l: LinearCircuit) -> StabiliserMap:
    """Stabiliser map assembled purely by Pauli conjugation.

    Every single-qubit input is pushed through at once: bit ``i`` of
    ``xcol[q]`` (``zcol[q]``) is set when the X (Z) entering on qubit ``i``
    reaches qubit ``q``. A CNOT copies the control's X onto the target and
    the target's Z onto the control, as in ``conjugate_cnot``, for every
    input in one XOR each. The columns are the map's own masks
    (``StabiliserMap.from_columns``).
    """
    n = l.n_qubits
    xcol = [1 << q for q in range(n)]
    zcol = xcol[:]
    for g in l.gates:
        c, t = g.control, g.target
        xcol[t] ^= xcol[c]
        zcol[c] ^= zcol[t]
    return StabiliserMap.from_columns(xcol, zcol)
