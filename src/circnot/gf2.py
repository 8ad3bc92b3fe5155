"""GF(2) linear algebra: sparse parity rows and bit-packed elimination.

``solve_tagged`` takes sparse rows, each a tuple of distinct variable
indices plus an int right-hand side, and solves them by unit propagation
in one pass in row order: a row is read again at most once per variable.
Every model solve hands it a system over join classes, about one variable
per gate and cut; derive and fault solves write theirs in traversal order,
so no row is read twice. Only a system propagation cannot finish, such as
an underdetermined or inconsistent one, goes through ``pack`` into
bitmask rows (bit ``i`` is column ``i``) for Gauss-Jordan. ``invert``
takes bitmask rows; ``StabiliserMap`` calls it once to read Z off X
(derivations and faults alike) and once per half of an inverse. Both eliminations
run one kernel, which scans pivot columns in ascending order so results
are reproducible.
"""

from __future__ import annotations

from .errors import Inconsistent, Underdetermined


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


def _propagate_units(rows, n_vars: int) -> list[int] | None:
    """Solve sparse rows by unit propagation in one pass, or return None if it cannot finish.

    Rows are read in order. A row with one unknown variable fixes it to its
    rhs XOR its known variables, a row with none checks that XOR is zero,
    and a row with more waits on two unknowns and is read again when either
    is fixed. With every variable fixed and every row checked, the
    assignment is the unique solution (the fixing rows are triangular).
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
                    return None
            if not stack:
                break
            r = stack.pop()
    return None if None in value else value


def solve_tagged(rows, n_vars: int, tag_width: int) -> list[int]:
    """Solve sparse rows whose right-hand sides are GF(2) vectors.

    Each row is ``(variables, rhs)``: a tuple of distinct variable indices
    below ``n_vars`` and an int of width ``tag_width`` (symbolic right-hand
    side: bit j stands for input j; width 1 gives a plain constant).
    Returns, per variable, its rhs expression.

    Unit propagation solves the system when repeatedly fixing the one
    unknown of some row fixes every variable consistently with every row.
    Otherwise Gauss-Jordan runs on the packed rows; it raises Inconsistent
    when a zero coefficient row carries a nonzero rhs and Underdetermined
    (naming the pivot-free variables) when a variable is left free.
    """
    out = _propagate_units(rows, n_vars)
    if out is not None:
        return out
    work = pack(rows, n_vars)
    pivots = _eliminate(work, n_vars)
    for i in range(len(pivots), len(work)):
        if work[i] >> n_vars:
            raise Inconsistent("contradictory parity constraints")
    free = [c for c in range(n_vars) if c not in pivots]
    if free:
        raise Underdetermined(free=free)
    coeff_mask = (1 << n_vars) - 1
    out = [0] * n_vars
    for col, r in pivots.items():
        row = work[r]
        if row & coeff_mask != 1 << col:
            raise RuntimeError(f"elimination left pivot row {col} unreduced")
        out[col] = row >> n_vars
    return out


def invert(rows: list[int], n: int) -> list[int]:
    """Invert an n x n GF(2) matrix given as row bitmasks."""
    work = [rows[i] | (1 << (n + i)) for i in range(n)]
    if len(_eliminate(work, n)) < n:
        raise Inconsistent("matrix is singular")
    # n pivots on n rows: row i now holds the pivot of column i
    return [r >> n for r in work]
