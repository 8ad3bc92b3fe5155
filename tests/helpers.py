"""Shared fixtures and independent oracles for the test suite.

Everything here deliberately avoids the library's solver internals: unitary
brute force uses numpy, truth-table counting evaluates the clauses as plain
Boolean formulas, and circuit generators build objects through the public
constructors only.
"""

from __future__ import annotations

import itertools

import numpy as np

from circnot import (
    CircularCircuit,
    CNOTGate,
    LinearCircuit,
    LinearGate,
    StabiliserMap,
)
from circnot.model import BooleanModel, ClauseKind


def mkcirc(wires: int, pairs) -> CircularCircuit:
    return CircularCircuit(
        wires=wires,
        gates=tuple(CNOTGate(id=i, control=c, target=t, position=i) for i, (c, t) in enumerate(pairs)),
    )


def mklin(n: int, pairs) -> LinearCircuit:
    return LinearCircuit(
        n_qubits=n,
        gates=tuple(LinearGate(control=c, target=t, time=i) for i, (c, t) in enumerate(pairs)),
    )


SWAP_PAIRS = [(0, 1), (1, 0), (0, 1)]


def swap_circular() -> CircularCircuit:
    return mkcirc(2, SWAP_PAIRS)


def all_small_circuits(max_wires: int = 3, max_gates: int = 4):
    """Every circular circuit up to wire relabeling, all wires touched."""
    seen = set()
    out = []
    for w in range(2, max_wires + 1):
        pairs = [(a, b) for a in range(w) for b in range(w) if a != b]
        for m in range(1, max_gates + 1):
            for combo in itertools.product(pairs, repeat=m):
                touched = set()
                for c, t in combo:
                    touched.update((c, t))
                if touched != set(range(w)):
                    continue
                canon = min(
                    tuple((perm[c], perm[t]) for c, t in combo)
                    for perm in itertools.permutations(range(w))
                )
                if (w, canon) in seen:
                    continue
                seen.add((w, canon))
                out.append(mkcirc(w, combo))
    return out


def spanning_gap_index(pairs, wire: int, slot: int) -> int:
    """Index of the gap on ``wire`` spanning ``slot``, from the gate list alone.

    As in the circuit file format, gates are listed clockwise and gap ``i``
    of a wire follows its ``i``-th symbol; slot ``j`` follows gate ``j``. The
    spanning gap follows the wire's last symbol at or before gate ``j``, or
    its last symbol when it has none there.
    """
    touches = [k for k, (c, t) in enumerate(pairs) if wire in (c, t)]
    return (sum(1 for k in touches if k <= slot) - 1) % len(touches)

# --- dense unitary brute force ---------------------------------------------

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(label: str) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for ch in label:
        out = np.kron(out, PAULI_1Q[ch])
    return out


def cnot_matrix(n: int, control: int, target: int) -> np.ndarray:
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for basis in range(dim):
        bits = [(basis >> (n - 1 - q)) & 1 for q in range(n)]
        if bits[control]:
            bits[target] ^= 1
        image = sum(bit << (n - 1 - q) for q, bit in enumerate(bits))
        mat[image, basis] = 1.0
    return mat


def circuit_unitary(n: int, pairs) -> np.ndarray:
    u = np.eye(2**n, dtype=complex)
    for c, t in pairs:
        u = cnot_matrix(n, c, t) @ u
    return u


# --- truth-table oracle for Boolean models ----------------------------------


def clause_truth(model: BooleanModel, assignment: dict) -> bool:
    """Evaluate the model as a plain Boolean formula (no linear algebra)."""
    for cl in model.clauses:
        if cl.kind is ClauseKind.CNOT:
            a, b, crossing = (assignment[v] for v in cl.vars)
            if not (a ^ b ^ (not crossing)):
                return False
        elif cl.kind is ClauseKind.JOIN:
            r, t = (assignment[v] for v in cl.vars)
            if not ((not r) ^ t):
                return False
        else:
            a, b, c, d = (assignment[v] for v in cl.vars)
            x = cl.selector
            lhs = x and (a ^ c ^ (not d)) and (a ^ (not b))
            rhs = (not x) and (c ^ a ^ (not b)) and (c ^ (not d))
            if not (lhs ^ rhs):
                return False
    return True


def count_model_solutions(model: BooleanModel) -> int:
    n = len(model.variables)
    count = 0
    for bits in range(1 << n):
        assignment = {v: bool(bits >> i & 1) for i, v in enumerate(model.variables)}
        if clause_truth(model, assignment):
            count += 1
    return count


# Clause-shape references for the circular SWAP models, written over abstract
# labels: each gate clause is (crossing, before, after); joins are unordered.
SWAP_X_REF = {
    "cnots": [("A", "e", "f"), ("G", "b", "c"), ("D", "h", "i")],
    "joins": [{"A", "D"}, {"A", "b"}, {"c", "D"}, {"e", "i"}, {"f", "G"}, {"G", "h"}],
}
SWAP_Z_REF = {
    "cnots": [("P", "k", "l"), ("M", "q", "r"), ("S", "n", "o")],
    "joins": [{"k", "o"}, {"l", "M"}, {"M", "n"}, {"P", "S"}, {"P", "q"}, {"r", "S"}],
}


def isomorphic_to_reference(model, ref) -> bool:
    """Match clause-variable incidence against a reference up to renaming."""
    cnots = [c for c in model.clauses if c.kind is ClauseKind.CNOT]
    joins = [frozenset(c.vars) for c in model.clauses if c.kind is ClauseKind.JOIN]
    if len(cnots) != len(ref["cnots"]) or len(joins) != len(ref["joins"]):
        return False
    for perm in itertools.permutations(range(len(cnots))):
        mapping = {}
        ok = True
        for mi, ri in enumerate(perm):
            before, after, crossing = cnots[mi].vars
            for seg, label in (
                (crossing, ref["cnots"][ri][0]),
                (before, ref["cnots"][ri][1]),
                (after, ref["cnots"][ri][2]),
            ):
                if mapping.get(seg, label) != label:
                    ok = False
                    break
                mapping[seg] = label
            if not ok:
                break
        if not ok or len(set(mapping.values())) != len(mapping):
            continue
        mapped_joins = [frozenset(mapping[v] for v in j) for j in joins]
        ref_joins = [frozenset(j) for j in ref["joins"]]
        if sorted(map(sorted, mapped_joins)) == sorted(map(sorted, ref_joins)):
            return True
    return False


def restrict_map(m: StabiliserMap, live_in, live_out) -> StabiliserMap:
    """Blank absorbed rows and intersect output sets, for fault comparisons."""
    x = tuple(
        m.x_out[q] & frozenset(live_out) if q in live_in else frozenset()
        for q in range(m.n_qubits)
    )
    z = tuple(
        m.z_out[q] & frozenset(live_out) if q in live_in else frozenset()
        for q in range(m.n_qubits)
    )
    return StabiliserMap(m.n_qubits, x, z)
