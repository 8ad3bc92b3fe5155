"""Pauli propagation through CNOT lists: the verification oracle.

Deliberately shares no derivation code with the parity-model pipeline; the
two must agree for every fixture, which is what makes the cross-checks
meaningful. The tests check this oracle in turn against one Pauli at a
time (``tests/oracles.py``) and against unitary conjugation.
"""

from __future__ import annotations

from .circuits import LinearCircuit
from .stabmap import StabiliserMap


def oracle_map(l: LinearCircuit) -> StabiliserMap:
    """Stabiliser map assembled purely by Pauli conjugation.

    Every single-qubit input is pushed through at once: bit ``i`` of
    ``xcol[q]`` (``zcol[q]``) is set when the X (Z) entering on qubit ``i``
    reaches qubit ``q``. A CNOT copies the control's X onto the target and
    the target's Z onto the control, for every input in one XOR each. The
    columns are the map's own masks (``StabiliserMap.from_columns``).
    """
    n = l.n_qubits
    xcol = [1 << q for q in range(n)]
    zcol = xcol[:]
    for g in l.gates:
        c, t = g.control, g.target
        xcol[t] ^= xcol[c]
        zcol[c] ^= zcol[t]
    return StabiliserMap.from_columns(xcol, zcol)
