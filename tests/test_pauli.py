import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from circnot import CutSet, Direction, StabiliserMap, linearize, oracle_map
from circnot.errors import CountMismatch, WireOutOfRange
from helpers import all_small_circuits, circuit_unitary, mklin, pauli_matrix
from oracles import PauliString, conjugate_cnot, propagate_pauli

TESTS = Path(__file__).resolve().parent
# the library's oracle and the one-Pauli-at-a-time reference it is checked against
ORACLE_SOURCES = [TESTS.parent / "src" / "circnot" / "pauli.py", TESTS / "oracles.py"]


def imported_modules(source: str) -> set[str]:
    """Dotted names of every module an ``import`` in ``source`` reaches, relative ones as ``.name``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            # ``from . import gf2`` and ``from circnot import gf2`` name modules too
            names.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    return names


def test_oracle_imports_no_derivation_code():
    # the oracle checks the parity-model derivation, so it must not share its code
    derivation = {"model", "gf2"}
    for path in ORACLE_SOURCES:
        imported = imported_modules(path.read_text(encoding="utf-8"))
        assert imported, f"{path.name} imports something; an empty set means the scan is broken"
        assert [name for name in imported if derivation & set(name.split("."))] == []


@pytest.mark.parametrize(
    "line",
    ["from .model import build_model", "from . import gf2", "import circnot.model", "from circnot import gf2"],
)
def test_import_scan_sees_derivation_imports(line):
    assert {"model", "gf2"} & {part for name in imported_modules(line) for part in name.split(".")}


class TestConjugateCnot:
    def test_x_on_control_spreads(self):
        p = PauliString.single(2, 0, "X")
        out = conjugate_cnot(p, 0, 1)
        assert out.x_set() == {0, 1} and out.z_set() == set()

    def test_x_on_target_stays(self):
        p = PauliString.single(2, 1, "X")
        out = conjugate_cnot(p, 0, 1)
        assert out.x_set() == {1} and out.z_set() == set()

    def test_z_on_target_spreads(self):
        p = PauliString.single(2, 1, "Z")
        out = conjugate_cnot(p, 0, 1)
        assert out.z_set() == {0, 1} and out.x_set() == set()

    def test_index_out_of_range(self):
        with pytest.raises(WireOutOfRange):
            conjugate_cnot(PauliString(2), 0, 5)

    def test_involution(self):
        for xb, zb in itertools.product(range(4), repeat=2):
            p = PauliString(2, xb, zb)
            assert conjugate_cnot(conjugate_cnot(p, 0, 1), 0, 1) == p


class TestPropagatePauli:
    def test_swap_moves_x(self):
        lin = mklin(2, [(0, 1), (1, 0), (0, 1)])
        out = propagate_pauli(lin, PauliString.single(2, 0, "X"))
        assert out.x_set() == {1}

    def test_empty_list_identity(self):
        lin = mklin(3, [])
        p = PauliString(3, 0b101, 0b010)
        assert propagate_pauli(lin, p) == p

    def test_size_mismatch(self):
        with pytest.raises(CountMismatch):
            propagate_pauli(mklin(2, [(0, 1)]), PauliString(3))

    def test_rotated_swap_equals_single_cnot_brute_force(self):
        # unitary product oracle: the permuted SWAP list is one CNOT(1->0)
        rotated = mklin(2, [(0, 1), (0, 1), (1, 0)])
        u = circuit_unitary(2, rotated.gate_pairs())
        assert np.allclose(u, circuit_unitary(2, [(1, 0)]))
        for kind, q in itertools.product("XZ", range(2)):
            p = PauliString.single(2, q, kind)
            out = propagate_pauli(rotated, p)
            conj = u @ pauli_matrix("".join(p.kind_at(i) for i in range(2))) @ u.conj().T
            expected = pauli_matrix("".join(out.kind_at(i) for i in range(2)))
            assert np.allclose(conj, expected) or np.allclose(conj, -expected)

    def test_commutation_witness_patterns(self):
        # shared control and shared target: propagation is order independent
        # for every two-qubit Pauli on the shared pair (16 inputs each)
        cases = {
            (("shared-control"), ((0, 1), (0, 2))): True,
            (("shared-target"), ((1, 0), (2, 0))): True,
            (("chained"), ((0, 1), (1, 2))): False,
        }
        for (_, pairs), expected in cases.items():
            fwd, bwd = mklin(3, pairs), mklin(3, list(reversed(pairs)))
            agree = all(
                propagate_pauli(fwd, PauliString(3, xb, zb))
                == propagate_pauli(bwd, PauliString(3, xb, zb))
                for xb in range(8)
                for zb in range(8)
            )
            assert agree is expected


class TestOracleMap:
    @pytest.mark.parametrize(
        "pairs,n",
        [
            ([(0, 1)], 2),
            ([(0, 1), (1, 0), (0, 1)], 2),
            ([(0, 3), (3, 1), (2, 3)], 4),
            ([(0, 2), (1, 2), (3, 1)], 4),
        ],
    )
    def test_matches_unitary_conjugation(self, pairs, n):
        lin = mklin(n, pairs)
        m = oracle_map(lin)
        u = circuit_unitary(n, pairs)
        for q in range(n):
            for kind, outs in (("X", m.x_out[q]), ("Z", m.z_out[q])):
                label_in = "".join(kind if i == q else "I" for i in range(n))
                label_out = "".join(kind if i in outs else "I" for i in range(n))
                conj = u @ pauli_matrix(label_in) @ u.conj().T
                expected = pauli_matrix(label_out)
                assert np.allclose(conj, expected) or np.allclose(conj, -expected)


def per_pauli_fold(lin):
    """The map one single-qubit Pauli at a time, by ``propagate_pauli``."""
    n = lin.n_qubits
    return StabiliserMap(
        n,
        tuple(propagate_pauli(lin, PauliString.single(n, q, "X")).x_set() for q in range(n)),
        tuple(propagate_pauli(lin, PauliString.single(n, q, "Z")).z_set() for q in range(n)),
    )


class TestOracleMatchesPerPauliFold:
    """``oracle_map`` carries every input at once; the fold carries one."""

    def test_small_linearizations_exhaustive(self):
        checked = 0
        for c in all_small_circuits(3, 4):
            for slot in range(len(c.gates)):
                cuts = CutSet.of(c.gap_spanning(w, slot) for w in range(c.wires))
                for d in Direction:
                    lin = linearize(c, cuts, d)
                    assert oracle_map(lin) == per_pauli_fold(lin)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("n,gates", [(2, 1), (3, 0), (5, 20), (16, 128), (64, 1024)])
    def test_random_circuits(self, n, gates):
        rng = random.Random(n * 1000 + gates)
        for _ in range(1 if n == 64 else 5):
            lin = mklin(n, [tuple(rng.sample(range(n), 2)) for _ in range(gates)])
            assert oracle_map(lin) == per_pauli_fold(lin)


class TestEquivalence:
    def test_identical_maps(self):
        m = oracle_map(mklin(2, [(0, 1)]))
        assert m == oracle_map(mklin(2, [(0, 1)]))

    def test_detects_difference(self):
        a = oracle_map(mklin(2, [(0, 1)]))
        b = oracle_map(mklin(2, [(1, 0)]))
        assert a != b

    def test_shape_mismatch(self):
        a = oracle_map(mklin(2, [(0, 1)]))
        b = oracle_map(mklin(3, [(0, 1), (1, 2)]))
        assert a != b

    def test_boolean_vs_oracle_swap(self, swap, swap_cut_sets):
        from circnot import Direction, derive_transformations, linearize

        cuts = swap_cut_sets["swap"]
        derived = derive_transformations(swap, cuts, Direction.CW)
        oracled = oracle_map(linearize(swap, cuts, Direction.CW))
        assert derived == oracled
