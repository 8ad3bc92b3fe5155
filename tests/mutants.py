"""Named mutants of ``src/circnot/``, and a runner that checks the suite catches each one.

A mutant is one text substitution in one source file: ``old`` is replaced
by ``new``. ``tests/test_source.py`` checks that each ``old`` occurs
exactly once in its file, so the list follows the code; a change to a
library path updates the mutants that name it.

Run, from anywhere, with no arguments::

    python tests/mutants.py

It copies the checkout (without ``.git``) to a temporary directory, then
applies one mutant at a time and runs the tier-1 suite there with ``-x``,
one process at a time, leaving out the check that the mutated text is in
the source (a mutated copy fails it by construction). Per mutant it
prints ``caught`` or ``survived``, the seconds to the first failure (or
to the end of the suite) and the first failing test, and it exits 1 when
any mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = Path("src") / "circnot"


class Mutant(NamedTuple):
    name: str
    file: str  # under ``src/circnot/``
    old: str
    new: str


MUTANTS = [
    # counter-clockwise read as the inverse of the clockwise walk
    Mutant(
        "inverse returns the map itself",
        "stabmap.py",
        "return _fill(object.__new__(StabiliserMap), self.n_qubits, self._z_rows, self._x_cols)",
        "return self",
    ),
    Mutant(
        "counter-clockwise derive returns the clockwise map",
        "model.py",
        "return m if d is Direction.CW else m.inverse()",
        "return m",
    ),
    Mutant(
        "counter-clockwise fault keeps its live sets unswapped",
        "icm.py",
        "m, live_in, live_out = m.inverse(), live_out, live_in",
        "m = m.inverse()",
    ),
    Mutant(
        "counter-clockwise fault inverts before restricting with the clockwise masks",
        "icm.py",
        "    m = StabiliserMap.from_x(cols).restricted(in_mask, out_mask)\n"
        "    live_in, live_out = every - {absorbed_in}, every - {absorbed_out}\n"
        "    if d is Direction.CCW:\n"
        "        m, live_in, live_out = m.inverse(), live_out, live_in\n",
        "    m = StabiliserMap.from_x(cols)\n"
        "    live_in, live_out = every - {absorbed_in}, every - {absorbed_out}\n"
        "    if d is Direction.CCW:\n"
        "        m, live_in, live_out = m.inverse(), live_out, live_in\n"
        "    m = m.restricted(in_mask, out_mask)\n",
    ),
    Mutant("linearize does not reverse counter-clockwise", "circuits.py", "lin_gates.reverse()", "pass"),
    Mutant(
        "search reads the counter-clockwise columns off the target itself",
        "model.py",
        "target.inverse().x_columns()",
        "target.x_columns()",
    ),
    # the clockwise walk
    Mutant(
        "_cut_ends pairs swapped",
        "model.py",
        "row[i] = (q + (j - 1) % k, q + j)",
        "row[i] = (q + j, q + (j - 1) % k)",
    ),
    Mutant(
        "_cut_ends (j - 1) % k without the modulo",
        "model.py",
        "row[i] = (q + (j - 1) % k, q + j)",
        "row[i] = (q + (j - 1), q + j)",
    ),
    Mutant(
        "cursor not started a lap below the family gap",
        "model.py",
        "pos = [wire_cuts[0] - len(gaps) for gaps, wire_cuts in zip(at, table.cuts)]",
        "pos = [wire_cuts[0] for gaps, wire_cuts in zip(at, table.cuts)]",
    ),
    Mutant(
        "cursor started at the last cut",
        "model.py",
        "pos = [wire_cuts[0] - len(gaps) for gaps, wire_cuts in zip(at, table.cuts)]",
        "pos = [wire_cuts[-1] - len(gaps) for gaps, wire_cuts in zip(at, table.cuts)]",
    ),
    Mutant("missing gate still XORs", "model.py", "if gi != missing:", "if True:"),
    Mutant(
        "fault's gate read at the before gap",
        "icm.py",
        "gi = c.symbols(w)[patch.after_gap.index]",
        "gi = c.symbols(w)[patch.before_gap.index]",
    ),
    Mutant(
        "wrap path does not rotate",
        "circuits.py",
        "return CutTable(len(c.gates) - 1, [[wire_cuts[-1], *wire_cuts[:-1]] for wire_cuts in on_wire])",
        "return CutTable(len(c.gates) - 1, on_wire)",
    ),
    # the search
    Mutant("unsorted hits", "model.py", "    hits.sort()\n", "\n"),
    Mutant(
        "walk flags not restored on backtrack",
        "model.py",
        "i, cw_ok, ccw_ok = trail.pop()",
        "i, _, _ = trail.pop()",
    ),
    Mutant(
        "earlier slots' families ignored",
        "model.py",
        "if not extras or all(other & uncut for other in earlier):",
        "if True:",
    ),
    # file grammars
    Mutant(
        "naive 1 << o mask in from_report",
        "stabmap.py",
        "mask |= 1 << o if o < limit else -1",
        "mask |= 1 << o",
    ),
    Mutant(
        "repeated map outputs read as a set",
        "stabmap.py",
        "if (mask.bit_count() if mask >= 0 else len(set(map(int, items)))) != len(items):",
        "if False:",
    ),
    Mutant("direction read in any case", "circuits.py", "return cls(text)", "return cls(text.strip().lower())"),
    Mutant(
        "integer tokens read with a leading +",
        "textio.py",
        'digits = token[1:] if token[:1] == "-" else token',
        'digits = token[1:] if token[:1] in "+-" else token',
    ),
]

TIER_1 = [
    sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
    "--deselect", "tests/test_source.py::test_each_mutant_names_its_source_once",
]


def run(mutants=MUTANTS) -> int:
    """Run the suite once per mutant in a copy of the checkout; the number that survived."""
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        for mutant in mutants:
            path = copy / SRC / mutant.file
            source = path.read_text(encoding="utf-8")
            if source.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: the text to replace is not in {mutant.file} exactly once")
            path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.perf_counter()
            done = subprocess.run(
                TIER_1,
                cwd=copy,
                # no bytecode: a restored file must not meet its mutant's cache
                env={**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"},
                capture_output=True,
                text=True,
            )
            seconds = time.perf_counter() - start
            path.write_text(source, encoding="utf-8")
            caught = done.returncode != 0
            survived += not caught
            first = next((line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))), "")
            print(f"{'caught' if caught else 'survived':8} {seconds:6.1f} s  {mutant.name}  {first}", flush=True)
    print(f"{len(mutants) - survived} of {len(mutants)} mutants caught")
    return survived


if __name__ == "__main__":
    if len(sys.argv) > 1:
        raise SystemExit("usage: python tests/mutants.py (no arguments)")
    sys.exit(1 if run() else 0)
