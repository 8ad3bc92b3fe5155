"""Input-to-output stabiliser mapping of a CNOT circuit, sign-free.

X flow and Z flow never mix in a CNOT-only circuit, so the map is two
independent GF(2) relations: for each input qubit, the set of output qubits
carrying an X (resp. Z) when that single Pauli enters.

Derivations solve for int masks, GF(2) matrices given by columns: per
output, the inputs that reach it (bit ``i`` for input ``i``). This module
is the one place that reads masks into the map's frozenset rows, walking
set bits: ``from_x`` (one ``gf2.invert`` for Z) and ``from_columns``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import gf2
from .errors import CircuitSyntaxError, CountMismatch, WireOutOfRange, quote, quote_int


@dataclass(frozen=True)
class StabiliserMap:
    n_qubits: int
    x_out: tuple[frozenset[int], ...]
    z_out: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.x_out) != self.n_qubits or len(self.z_out) != self.n_qubits:
            raise CountMismatch("one X row and one Z row per qubit required")

    def report(self) -> str:
        """Render as lines ``X<q> -> X{...}`` / ``Z<q> -> Z{...}``."""
        lines = []
        for kind, rows in (("X", self.x_out), ("Z", self.z_out)):
            for q, outs in enumerate(rows):
                inner = ",".join(str(o) for o in sorted(outs))
                lines.append(f"{kind}{q} -> {kind}{{{inner}}}")
        return "\n".join(lines)

    @classmethod
    def from_report(cls, text: str) -> "StabiliserMap":
        rows: dict[str, dict[int, frozenset[int]]] = {"X": {}, "Z": {}}
        pattern = re.compile(r"^([XZ])([0-9]+)\s*->\s*\1\{([0-9,\s]*)\}$")
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = pattern.match(line)
            if not m:
                raise CircuitSyntaxError(f"bad map line {quote(line)}", line=ln)
            kind, body = m.group(1), m.group(3)
            try:
                q = int(m.group(2))
                outs = frozenset(int(tok) for tok in body.replace(",", " ").split())
            except ValueError:  # more digits than int() reads
                raise CircuitSyntaxError(f"bad map line {quote(line)}", line=ln) from None
            if q in rows[kind]:
                raise CircuitSyntaxError(f"repeated map row {kind}{quote_int(q)}", line=ln)
            rows[kind][q] = outs
        if sorted(rows["X"]) != sorted(rows["Z"]) or sorted(rows["X"]) != list(range(len(rows["X"]))):
            raise CountMismatch("map report must cover X and Z rows for qubits 0..n-1")
        n = len(rows["X"])
        for kind, by_qubit in rows.items():
            for q, outs in by_qubit.items():
                if any(o >= n for o in outs):
                    raise WireOutOfRange(f"map row {kind}{q} names an output outside {n} qubits")
        return cls(
            n_qubits=n,
            x_out=tuple(rows["X"][q] for q in range(n)),
            z_out=tuple(rows["Z"][q] for q in range(n)),
        )

    @classmethod
    def from_x(cls, x_cols: list[int]) -> "StabiliserMap":
        """The map with these X columns whose Z rows are their inverse transpose.

        ``x_cols[j]`` has bit ``i`` set when the X entering on qubit ``i``
        reaches output ``j``: the rows of Xᵀ. Every CNOT circuit's map has
        this form: it acts symplectically, so Z = (Xᵀ)⁻¹, one ``gf2.invert``
        of the columns, read as rows. Raises ``Inconsistent`` for singular
        columns.
        """
        n = len(x_cols)
        return cls(n, _transposed(x_cols, n), _row_sets(gf2.invert(x_cols, n)))

    @classmethod
    def from_columns(cls, x_cols: list[int], z_cols: list[int]) -> "StabiliserMap":
        """The map with these X and Z columns (per output, the inputs reaching it)."""
        n = len(x_cols)
        return cls(n, _transposed(x_cols, n), _transposed(z_cols, n))

    def x_columns(self) -> list[int]:
        """The X part as ``from_x`` reads it: per output, the inputs reaching it."""
        cols = [0] * self.n_qubits
        for i, outs in enumerate(self.x_out):
            for j in outs:
                cols[j] |= 1 << i
        return cols

    def inverse(self) -> "StabiliserMap":
        """Map of the reversed circuit (CNOT lists are gate-wise self-inverse).

        Raises ``Inconsistent`` for a singular map and ``WireOutOfRange``
        for a row naming an output outside ``0..n_qubits-1``.
        """
        n = self.n_qubits
        return StabiliserMap(
            n,
            _row_sets(gf2.invert(_masks(self.x_out, n), n)),
            _row_sets(gf2.invert(_masks(self.z_out, n), n)),
        )

    def is_symplectic(self) -> bool:
        """Whether X·Zᵀ = I, the form every CNOT circuit's map has.

        False for a singular map, a Z part other than the inverse transpose
        of X, and a row naming an output outside ``0..n_qubits-1``.
        """
        try:
            xs, zs = _masks(self.x_out, self.n_qubits), _masks(self.z_out, self.n_qubits)
        except WireOutOfRange:
            return False
        return all(
            (x & z).bit_count() & 1 == (i == k) for i, x in enumerate(xs) for k, z in enumerate(zs)
        )


def _masks(rows: tuple[frozenset[int], ...], n_qubits: int) -> list[int]:
    """Rows as GF(2) matrix rows, bit ``o`` for output ``o``."""
    if any(not 0 <= o < n_qubits for outs in rows for o in outs):
        raise WireOutOfRange(f"map row names an output outside {n_qubits} qubits")
    return [sum(1 << o for o in outs) for outs in rows]


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _row_sets(rows: list[int]) -> tuple[frozenset[int], ...]:
    """Per row mask, the set of its bits."""
    # tuple() of a list, not of a generator: CPython over-allocates a
    # generator's tuple and resizes it, and keeps the resized blocks in its
    # tuple free lists until a full collection
    return tuple([frozenset(_bits(row)) for row in rows])


def _transposed(cols: list[int], n: int) -> tuple[frozenset[int], ...]:
    """Per row ``i``, the columns ``j`` whose mask has bit ``i``."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for j, col in enumerate(cols):
        for i in _bits(col):
            rows[i].append(j)
    return tuple([frozenset(r) for r in rows])
