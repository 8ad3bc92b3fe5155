"""Input-to-output stabiliser mapping of a CNOT circuit, sign-free.

X flow and Z flow never mix in a CNOT-only circuit, so the map is two
independent GF(2) relations: for each input qubit, the set of output qubits
carrying an X (resp. Z) when that single Pauli enters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import gf2
from .errors import CircuitSyntaxError, CountMismatch, WireOutOfRange, quote


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
        pattern = re.compile(r"^([XZ])(\d+)\s*->\s*\1\{([\d,\s]*)\}$")
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
    def from_x(cls, n_qubits: int, x_out: tuple[frozenset[int], ...]) -> "StabiliserMap":
        """The map with these X rows whose Z rows are their inverse transpose.

        Every CNOT circuit's map has this form: it acts symplectically, so
        Z flow is the inverse transpose of X flow. Raises ``Inconsistent``
        for singular X rows and ``WireOutOfRange`` for a row naming an
        output outside ``0..n_qubits-1``.
        """
        inv = gf2.invert(_masks(x_out, n_qubits), n_qubits)
        z_out = tuple([
            frozenset(i for i, row in enumerate(inv) if row >> j & 1) for j in range(n_qubits)
        ])
        return cls(n_qubits, x_out, z_out)

    def inverse(self) -> "StabiliserMap":
        """Map of the reversed circuit (CNOT lists are gate-wise self-inverse).

        Raises ``Inconsistent`` for a singular map and ``WireOutOfRange``
        for a row naming an output outside ``0..n_qubits-1``.
        """
        n = self.n_qubits

        def invert(rows: tuple[frozenset[int], ...]) -> tuple[frozenset[int], ...]:
            inv = gf2.invert(_masks(rows, n), n)
            return tuple([frozenset(j for j in range(n) if m >> j & 1) for m in inv])

        return StabiliserMap(n, invert(self.x_out), invert(self.z_out))


def _masks(rows: tuple[frozenset[int], ...], n_qubits: int) -> list[int]:
    """Rows as GF(2) matrix rows, bit ``o`` for output ``o``."""
    if any(not 0 <= o < n_qubits for outs in rows for o in outs):
        raise WireOutOfRange(f"map row names an output outside {n_qubits} qubits")
    return [sum(1 << o for o in outs) for outs in rows]
