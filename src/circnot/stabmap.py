"""Input-to-output stabiliser mapping of a CNOT circuit, sign-free.

X flow and Z flow never mix in a CNOT-only circuit, so the map is two
independent GF(2) matrices: for each input qubit, the output qubits
carrying an X (resp. Z) when that single Pauli enters.

The map holds both as int masks. X is kept by columns, as derivations
solve for it (bit ``i`` of column ``j``: the X entering on input ``i``
reaches output ``j``), Z by rows, as ``gf2.invert`` returns it. ``from_x``
is one ``gf2.invert``; ``inverse`` swaps the two. ``from_report`` reads
each row of a map file straight into an output mask, with no set in
between; the frozenset rows ``x_out``/``z_out`` and ``report()`` are read
off the masks when asked for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import gf2
from .errors import CircuitSyntaxError, CountMismatch, WireOutOfRange, clean_lines, quote, quote_int


_MAP_ROW = re.compile(r"^([XZ])([0-9]+)\s*->\s*\1\{([0-9,\s]*)\}$")


@dataclass(frozen=True, init=False)
class StabiliserMap:
    n_qubits: int
    _x_cols: tuple[int, ...]
    _z_rows: tuple[int, ...]

    def __init__(self, n_qubits: int, x_out, z_out):
        """The map with these X and Z rows, per input the set of outputs it reaches; raises
        ``WireOutOfRange`` for a row naming an output outside ``0..n_qubits-1``."""
        if len(x_out) != n_qubits or len(z_out) != n_qubits:
            raise CountMismatch("one X row and one Z row per qubit required")
        for kind, rows in (("X", x_out), ("Z", z_out)):
            for q, outs in enumerate(rows):
                if any(not 0 <= o < n_qubits for o in outs):
                    raise WireOutOfRange(f"map row {kind}{q} names an output outside {n_qubits} qubits")
        x_rows = [sum(1 << o for o in outs) for outs in x_out]
        _fill(self, n_qubits, _transposed(x_rows, n_qubits), [sum(1 << o for o in outs) for outs in z_out])

    @property
    def x_out(self) -> tuple[frozenset[int], ...]:
        """Per input, the outputs its X reaches; built from the masks on each read."""
        return _row_sets(_transposed(self._x_cols, self.n_qubits))

    @property
    def z_out(self) -> tuple[frozenset[int], ...]:
        """Per input, the outputs its Z reaches; built from the masks on each read."""
        return _row_sets(self._z_rows)

    def report(self) -> str:
        """Render as lines ``X<q> -> X{...}`` / ``Z<q> -> Z{...}``."""
        lines = []
        for kind, rows in (("X", _transposed(self._x_cols, self.n_qubits)), ("Z", self._z_rows)):
            for q, row in enumerate(rows):
                lines.append(f"{kind}{q} -> {kind}{{{','.join(map(str, _bits(row)))}}}")
        return "\n".join(lines)

    @classmethod
    def from_report(cls, text: str) -> "StabiliserMap":
        """The map of ``report()`` lines, each row read straight into an output mask.

        Outputs are ASCII digits separated by commas, with optional spaces.
        Raises, in this order: ``CircuitSyntaxError`` on the first line
        that is not a map row (a number too long for ``int`` included),
        names an output twice (over GF(2) a repeat would read as
        cancelling, so it is not guessed at) or repeats a row;
        ``CountMismatch`` unless the X and the Z rows both cover qubits
        ``0..n-1``; ``WireOutOfRange`` for the first row naming an output
        past ``n - 1``, X rows first, each kind in file order. A map has at
        most as many qubits as its file has lines, so an output at or past
        that count is out of range whatever ``n`` is, and it is never
        shifted into a mask.
        """
        lines = list(clean_lines(text))
        limit = len(lines)
        rows: dict[str, dict[int, int]] = {"X": {}, "Z": {}}
        for ln, line in lines:
            m = _MAP_ROW.match(line)
            if not m:
                raise CircuitSyntaxError(f"bad map line {quote(line)}", line=ln)
            kind, body = m.group(1), m.group(3)
            mask = 0
            items = body.split(",") if body.strip() else ()
            try:
                q = int(m.group(2))
                # int() takes spaces around an item but no empty item, missing comma or too many digits
                for tok in items:
                    o = int(tok)
                    # all bits set (-1) marks an output past ``limit``: no ``n`` holds it
                    mask |= 1 << o if o < limit else -1
            except ValueError:
                raise CircuitSyntaxError(f"bad map line {quote(line)}", line=ln) from None
            # a repeated output sets fewer bits than there are items
            if (mask.bit_count() if mask >= 0 else len(set(map(int, items)))) != len(items):
                raise CircuitSyntaxError(f"repeated output in map row {kind}{quote_int(q)}", line=ln)
            by_qubit = rows[kind]
            if q in by_qubit:
                raise CircuitSyntaxError(f"repeated map row {kind}{quote_int(q)}", line=ln)
            by_qubit[q] = mask
        x_rows, z_rows = rows["X"], rows["Z"]
        n = len(x_rows)
        # n distinct qubits, each below n, are 0..n-1
        if x_rows.keys() != z_rows.keys() or any(q >= n for q in x_rows):
            raise CountMismatch("map report must cover X and Z rows for qubits 0..n-1")
        for kind, by_qubit in rows.items():
            for q, mask in by_qubit.items():
                if mask >> n:
                    raise WireOutOfRange(f"map row {kind}{q} names an output outside {n} qubits")
        x = [x_rows[q] for q in range(n)]
        return _fill(object.__new__(cls), n, _transposed(x, n), [z_rows[q] for q in range(n)])

    @classmethod
    def from_x(cls, x_cols: list[int]) -> "StabiliserMap":
        """The map with these X columns whose Z rows are their inverse transpose.

        ``x_cols[j]`` has bit ``i`` set when the X entering on qubit ``i``
        reaches output ``j``: the rows of Xᵀ. Every CNOT circuit's map has
        this form: it acts symplectically, so Z = (Xᵀ)⁻¹, one ``gf2.invert``
        of the columns, which returns Z's rows. Raises ``Inconsistent`` for
        singular columns.
        """
        n = len(x_cols)
        return _fill(object.__new__(cls), n, x_cols, gf2.invert(x_cols, n))

    @classmethod
    def from_columns(cls, x_cols: list[int], z_cols: list[int]) -> "StabiliserMap":
        """The map with these X and Z columns (per output, the inputs reaching it)."""
        n = len(x_cols)
        return _fill(object.__new__(cls), n, x_cols, _transposed(z_cols, n))

    def restricted(self, live_in: int, live_out: int) -> "StabiliserMap":
        """The map blanked outside the live inputs and outputs, given as masks.

        X columns of dead outputs and Z rows of dead inputs are empty; the
        other X columns keep only live inputs and Z rows only live outputs.
        """
        x_cols = [col & live_in if live_out >> j & 1 else 0 for j, col in enumerate(self._x_cols)]
        z_rows = [row & live_out if live_in >> i & 1 else 0 for i, row in enumerate(self._z_rows)]
        return _fill(object.__new__(StabiliserMap), self.n_qubits, x_cols, z_rows)

    def inverse(self) -> "StabiliserMap":
        """The map of the reversed CNOT list (a clockwise derivation read counter-clockwise).

        X⁻¹ = Zᵀ and Z⁻¹ = Xᵀ for a symplectic map, so the inverse's X columns
        are these Z rows and its Z rows these X columns. On a restricted map
        (a fault's) the swap is the inverse's restriction, inputs and outputs
        exchanged: ``m.restricted(i, o).inverse() == m.inverse().restricted(o, i)``.
        """
        return _fill(object.__new__(StabiliserMap), self.n_qubits, self._z_rows, self._x_cols)

    def x_columns(self) -> list[int]:
        """The X part as ``from_x`` reads it: per output, the inputs reaching it."""
        return list(self._x_cols)

    def is_symplectic(self) -> bool:
        """Whether X·Zᵀ = I, the form every CNOT circuit's map has.

        For square matrices that is Xᵀ·Z = I: row ``j`` of Xᵀ (X column
        ``j``) picks the Z rows whose XOR must be output ``j`` alone. False
        for a singular map and for a Z part other than the inverse
        transpose of X.
        """
        for j, col in enumerate(self._x_cols):
            acc = 0
            for i in _bits(col):
                acc ^= self._z_rows[i]
            if acc != 1 << j:
                return False
        return True


def _fill(m: StabiliserMap, n: int, x_cols, z_rows) -> StabiliserMap:
    """Set the fields of a frozen map; the one place its masks are stored."""
    object.__setattr__(m, "n_qubits", n)
    object.__setattr__(m, "_x_cols", tuple(x_cols))
    object.__setattr__(m, "_z_rows", tuple(z_rows))
    return m


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _row_sets(rows) -> tuple[frozenset[int], ...]:
    """Per row mask, the set of its bits."""
    # tuple() of a list, not of a generator: CPython over-allocates a
    # generator's tuple and resizes it, and keeps the resized blocks in its
    # tuple free lists until a full collection
    return tuple([frozenset(_bits(row)) for row in rows])


def _transposed(masks, n: int) -> list[int]:
    """The transpose of ``n`` bit-masks over ``n`` bits: bit ``j`` of row ``i`` is bit ``i`` of mask ``j``."""
    rows = [0] * n
    for j, mask in enumerate(masks):
        for i in _bits(mask):
            rows[i] |= 1 << j
    return rows
