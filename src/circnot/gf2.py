"""GF(2) linear algebra: forward substitution on sparse rows, and inversion.

``invert`` takes bitmask rows; ``StabiliserMap`` calls it once to read Z
off X and once per half of an inverse. ``pack`` writes sparse rows as
bitmask rows (bit ``i`` is column ``i``) for ``circnot model --parity``.

``solve_tagged`` solves sparse rows, one per variable, each a tuple of
distinct variable indices plus an int right-hand side, by forward
substitution: each row, read once in order, fixes one variable that no
earlier row fixed; a system of any other form raises RuntimeError. No
library path calls it: derivations, faults and the search substitute
along the traversal themselves (``model._x_columns``). It stays because
the benchmark's traced run wraps it by name.
"""

from __future__ import annotations

from .errors import Inconsistent


def pack(rows, n_vars: int) -> list[int]:
    """Bitmask rows ``coeffs | rhs << n_vars`` of sparse ``(variables, rhs)`` rows."""
    return [sum(1 << v for v in vs) | rhs << n_vars for vs, rhs in rows]


def solve_tagged(rows, n_vars: int, tag_width: int) -> list[int]:
    """Forward substitution on one sparse row per variable, with GF(2)-vector right-hand sides.

    Each row is ``(variables, rhs)``: a tuple of distinct variable indices
    below ``n_vars`` and an int of width ``tag_width`` (symbolic right-hand
    side: bit j stands for input j; width 1 gives a plain constant).
    Returns, per variable, its rhs expression.

    Rows are read once, in order. Each must hold exactly one variable that
    no earlier row fixed, and sets it to its rhs XOR the others; with one
    row per variable, every variable is then fixed. Raises RuntimeError
    when the row count is not ``n_vars`` or a row fixes none or two.
    """
    if len(rows) != n_vars:
        raise RuntimeError(f"{len(rows)} parity rows for {n_vars} variables")
    value: list[int | None] = [None] * n_vars
    for r, (vs, rhs) in enumerate(rows):
        unknown = -1
        for v in vs:
            known = value[v]
            if known is not None:
                rhs ^= known
            elif unknown < 0:
                unknown = v
            else:
                raise RuntimeError(f"parity row {r} has two unfixed variables")
        if unknown < 0:
            raise RuntimeError(f"parity row {r} fixes no new variable")
        value[unknown] = rhs
    return value


def invert(rows: list[int], n: int) -> list[int]:
    """Invert an n x n GF(2) matrix given as row bitmasks, by Gauss-Jordan.

    Raises Inconsistent when a column finds no pivot: the matrix is singular.
    """
    work = [rows[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        bit = 1 << col
        for i in range(col, n):
            if work[i] & bit:
                break
        else:
            raise Inconsistent("matrix is singular")
        work[col], work[i] = work[i], work[col]
        row = work[col]
        for i in range(n):
            if i != col and work[i] & bit:
                work[i] ^= row
    return [r >> n for r in work]
