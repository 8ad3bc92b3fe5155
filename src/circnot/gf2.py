"""GF(2) linear algebra: sparse parity rows and bit-packed elimination.

``solve_tagged`` takes sparse rows, each a tuple of distinct variable
indices plus an int right-hand side, and solves them by unit propagation
in one pass in row order: a row is read again at most once per variable.
Every solve hands it a system over join classes, about one variable per
gate and cut, in which each gate clause fixes one class from classes
already fixed (``circuits.cut_table`` checks for the radial family that
makes this so); derive and fault solves write theirs in traversal order,
so no row is read twice. A system the pass cannot finish is a broken
invariant, not bad input, and raises RuntimeError. ``pack`` writes sparse
rows as bitmask rows (bit ``i`` is column ``i``) for ``circnot model
--parity``. ``invert`` takes bitmask rows; ``StabiliserMap`` calls it once
to read Z off X (derivations and faults alike) and once per half of an
inverse. It runs the one elimination kernel, which scans pivot columns in
ascending order so results are reproducible.
"""

from __future__ import annotations

from .errors import Inconsistent


def _eliminate(work: list[int], n_cols: int) -> dict[int, int]:
    """Reduce ``work`` in place to reduced row echelon form.

    Only the first ``n_cols`` columns are pivoted; higher bits ride along.
    Returns pivot column -> row index, the pivot rows being the leading
    rows of ``work`` in column order. The remaining rows are zero in the
    first ``n_cols`` columns.
    """
    pivots: dict[int, int] = {}
    done = 0
    for col in range(n_cols):
        if done == len(work):
            break
        bit = 1 << col
        for i in range(done, len(work)):
            if work[i] & bit:
                break
        else:
            continue
        work[done], work[i] = work[i], work[done]
        row = work[done]
        for i in range(len(work)):
            if i != done and work[i] & bit:
                work[i] ^= row
        pivots[col] = done
        done += 1
    return pivots


def pack(rows, n_vars: int) -> list[int]:
    """Bitmask rows ``coeffs | rhs << n_vars`` of sparse ``(variables, rhs)`` rows."""
    return [sum(1 << v for v in vs) | rhs << n_vars for vs, rhs in rows]


def solve_tagged(rows, n_vars: int, tag_width: int) -> list[int]:
    """Solve sparse rows whose right-hand sides are GF(2) vectors, by unit propagation in one pass.

    Each row is ``(variables, rhs)``: a tuple of distinct variable indices
    below ``n_vars`` and an int of width ``tag_width`` (symbolic right-hand
    side: bit j stands for input j; width 1 gives a plain constant).
    Returns, per variable, its rhs expression.

    Rows are read in order. A row with one unknown variable fixes it to its
    rhs XOR its known variables, a row with none checks that XOR is zero,
    and a row with more waits on two unknowns and is read again when either
    is fixed. With every variable fixed and every row checked, the
    assignment is the unique solution (the fixing rows are triangular).
    Raises RuntimeError when a row contradicts the rows before it or a
    variable is left unfixed.
    """
    value: list[int | None] = [None] * n_vars
    waiting: dict[int, set[int]] = {}  # variable -> rows waiting on it
    stack: list[int] = []  # waiting rows to read again
    for r in range(len(rows)):
        while True:
            vs, rhs = rows[r]
            unknown = -1
            for v in vs:
                known = value[v]
                if known is not None:
                    rhs ^= known
                elif unknown < 0:
                    unknown = v
                else:
                    waiting.setdefault(unknown, set()).add(r)
                    waiting.setdefault(v, set()).add(r)
                    break
            else:
                if unknown >= 0:
                    value[unknown] = rhs
                    if waiting and unknown in waiting:
                        stack += waiting.pop(unknown)
                elif rhs:
                    raise RuntimeError(f"parity row {r} contradicts the rows before it")
            if not stack:
                break
            r = stack.pop()
    if None in value:
        raise RuntimeError(f"propagation left variable {value.index(None)} of {n_vars} unfixed")
    return value


def invert(rows: list[int], n: int) -> list[int]:
    """Invert an n x n GF(2) matrix given as row bitmasks."""
    work = [rows[i] | (1 << (n + i)) for i in range(n)]
    if len(_eliminate(work, n)) < n:
        raise Inconsistent("matrix is singular")
    # n pivots on n rows: row i now holds the pivot of column i
    return [r >> n for r in work]
