"""Named mutants of ``src/circnot/``, and a runner that checks the suite catches each one.

A mutant is one text substitution in one source file: ``old`` is replaced
by ``new``. ``tests/test_source.py`` checks that each ``old`` occurs
exactly once in its file, so the list follows the code; a change to a
library path updates the mutants that name it.

Run, from anywhere::

    python tests/mutants.py [--only NAME]

It copies the checkout (without ``.git``) to a temporary directory and
runs the tier-1 suite there unmutated; when that fails it stops with exit
status 1, since a failure the environment causes would pass for a catch.
Then it applies one mutant at a time (or only the one named) and runs
the suite with ``-x``, one process at a time, leaving out the check that
the mutated text is in the source (a mutated copy fails it by
construction). Per run it prints a verdict, the seconds to the first
failure (or to the end of the suite) and the first failing test. Each
mutant names the test expected to fail first: the verdict is ``caught``
when that test failed first, ``caught elsewhere`` when another did (what
catches what has drifted), and ``survived`` when none failed. It exits 1
when any mutant survives.
"""

from __future__ import annotations

import argparse
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
    catcher: str  # the test expected to fail first, as pytest names it, without parameters


MUTANTS = [
    # counter-clockwise read as the inverse of the clockwise walk
    Mutant(
        "inverse returns the map itself",
        "stabmap.py",
        "return _fill(object.__new__(StabiliserMap), self.n_qubits, self._z_rows, self._x_cols)",
        "return self",
        "tests/test_acceptance.py::test_criterion_4_exhaustive_oracle_equivalence",
    ),
    Mutant(
        "counter-clockwise derive returns the clockwise map",
        "model.py",
        "return m if d is Direction.CW else m.inverse()",
        "return m",
        "tests/test_acceptance.py::test_criterion_4_exhaustive_oracle_equivalence",
    ),
    Mutant(
        "counter-clockwise fault keeps its live sets unswapped",
        "icm.py",
        "m, live_in, live_out = m.inverse(), live_out, live_in",
        "m = m.inverse()",
        "tests/test_acceptance.py::test_criterion_10_smgf_equivalence",
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
        "tests/test_acceptance.py::test_criterion_10_smgf_equivalence",
    ),
    Mutant(
        "linearize does not reverse counter-clockwise",
        "circuits.py",
        "lin_gates.reverse()",
        "pass",
        "tests/test_acceptance.py::test_criterion_4_exhaustive_oracle_equivalence",
    ),
    Mutant(
        "search reads the counter-clockwise columns off the target itself",
        "model.py",
        "target.inverse().x_columns()",
        "target.x_columns()",
        "tests/test_acceptance.py::test_criterion_12_search_soundness_completeness",
    ),
    # the clockwise walk
    Mutant(
        "_cut_ends pairs swapped",
        "model.py",
        "row[i] = (q + (j - 1) % k, q + j)",
        "row[i] = (q + j, q + (j - 1) % k)",
        "tests/test_acceptance.py::test_criterion_2_worked_cut_fixtures",
    ),
    Mutant(
        "_cut_ends (j - 1) % k without the modulo",
        "model.py",
        "row[i] = (q + (j - 1) % k, q + j)",
        "row[i] = (q + (j - 1), q + j)",
        "tests/test_acceptance.py::test_criterion_2_worked_cut_fixtures",
    ),
    Mutant(
        "cursor not started a lap below the family gap",
        "model.py",
        "pos = [wire_cuts[0] - len(gaps) for gaps, wire_cuts in zip(at, table.cuts)]",
        "pos = [wire_cuts[0] for gaps, wire_cuts in zip(at, table.cuts)]",
        "tests/test_acceptance.py::test_criterion_2_worked_cut_fixtures",
    ),
    Mutant(
        "cursor started at the last cut",
        "model.py",
        "pos = [wire_cuts[0] - len(gaps) for gaps, wire_cuts in zip(at, table.cuts)]",
        "pos = [wire_cuts[-1] - len(gaps) for gaps, wire_cuts in zip(at, table.cuts)]",
        "tests/test_acceptance.py::test_criterion_2_worked_cut_fixtures",
    ),
    Mutant(
        "missing gate still XORs",
        "model.py",
        "if gi != missing:",
        "if True:",
        "tests/test_acceptance.py::test_criterion_10_smgf_equivalence",
    ),
    Mutant(
        "fault skips the gate after its own",
        "icm.py",
        "missing=f.gate)",
        "missing=(f.gate + 1) % len(c.gates))",
        "tests/test_acceptance.py::test_criterion_10_smgf_equivalence",
    ),
    Mutant(
        "wrap path does not rotate",
        "circuits.py",
        "return CutTable(len(c.gates) - 1, [[wire_cuts[-1], *wire_cuts[:-1]] for wire_cuts in on_wire])",
        "return CutTable(len(c.gates) - 1, on_wire)",
        "tests/test_acceptance.py::test_criterion_2_worked_cut_fixtures",
    ),
    # a gate's index is its only name
    Mutant(
        "gate index read from the end when negative",
        "circuits.py",
        "if not 0 <= gi < len(self.gates):",
        "if not gi < len(self.gates):",
        "tests/test_cli.py::test_fault_gate_outside_the_list",
    ),
    Mutant(
        "control-equals-target checked gate by gate with the wire range",
        "circuits.py",
        "        for gi, g in enumerate(gates):\n"
        "            if g.control == g.target:\n"
        '                raise ControlEqualsTarget(f"gate {gi}: control == target == {quote_int(g.control)}")\n'
        "        if self.wires < 1:\n"
        '            raise WireOutOfRange(f"a circular circuit needs at least one wire, got {quote_int(self.wires)}")\n'
        "        # symbol tables: per wire, the indices of the gates it passes, clockwise\n"
        "        symbols: list[list[int]] = [[] for _ in range(self.wires)]\n"
        "        for gi, g in enumerate(gates):\n",
        "        if self.wires < 1:\n"
        '            raise WireOutOfRange(f"a circular circuit needs at least one wire, got {quote_int(self.wires)}")\n'
        "        symbols: list[list[int]] = [[] for _ in range(self.wires)]\n"
        "        for gi, g in enumerate(gates):\n"
        "            if g.control == g.target:\n"
        '                raise ControlEqualsTarget(f"gate {gi}: control == target == {quote_int(g.control)}")\n',
        "tests/test_circuits.py::TestParsing::test_control_equals_target_before_wire_range",
    ),
    Mutant(
        "an idle producer keeps no first gate time",
        "circuits.py",
        "first[p] = first[q]",
        "pass",
        "tests/test_acceptance.py::test_criterion_7_round_trip_500",
    ),
    # the search
    Mutant(
        "unsorted hits",
        "model.py",
        "    hits.sort()\n",
        "\n",
        "tests/test_cli.py::test_search_three_wire_golden",
    ),
    Mutant(
        "walk flags not restored on backtrack",
        "model.py",
        "i, cw_ok, ccw_ok = trail.pop()",
        "i, _, _ = trail.pop()",
        "tests/test_model.py::TestSearchWalk::test_matches_stream_reference",
    ),
    Mutant(
        "earlier slots' families ignored",
        "model.py",
        "if not extras or all(other & uncut for other in earlier):",
        "if True:",
        "tests/test_cli.py::test_search_corpus_golden",
    ),
    # file grammars
    Mutant(
        "naive 1 << o mask in from_report",
        "stabmap.py",
        "mask |= 1 << o if o < limit else -1",
        "mask |= 1 << o",
        "tests/test_cli.py::test_search_hostile_map_file",
    ),
    Mutant(
        "repeated map outputs read as a set",
        "stabmap.py",
        "if (mask.bit_count() if mask >= 0 else len(set(map(int, items)))) != len(items):",
        "if False:",
        "tests/test_cli.py::test_search_hostile_map_file",
    ),
    Mutant(
        "direction read in any case",
        "circuits.py",
        "return cls(text)",
        "return cls(text.strip().lower())",
        "tests/test_cli.py::test_cut_file_direction_spelled_as_dir_spells_it",
    ),
    Mutant(
        "integer tokens read with a leading +",
        "textio.py",
        'digits = token[1:] if token[:1] == "-" else token',
        'digits = token[1:] if token[:1] in "+-" else token',
        "tests/test_cli.py::test_plus_and_digit_separator_refused",
    ),
    Mutant(
        "a flag's integer read by int()",
        "cli.py",
        'p.add_argument("--max-cuts", type=_int, required=True)',
        'p.add_argument("--max-cuts", type=int, required=True)',
        "tests/test_cli.py::test_int_flag_follows_file_grammar",
    ),
    Mutant(
        "a refused flag value quoted whole",
        "cli.py",
        'f"invalid int value: {quote(text)}"',
        'f"invalid int value: {text!r}"',
        "tests/test_cli.py::test_int_flag_follows_file_grammar",
    ),
    # ICM configurations are their file tokens
    Mutant(
        "the empty input name is accepted",
        "icm.py",
        "if not name:",
        "if False:",
        "tests/test_icm.py::TestConfigure::test_refused_token_names_why",
    ),
    Mutant(
        "cfg: takes one option",
        "icm.py",
        "if len(options) == 2 and all(o in BASES for o in options):",
        "if len(options) in (1, 2) and all(o in BASES for o in options):",
        "tests/test_icm.py::TestConfigure::test_refused_token_names_why",
    ),
    Mutant(
        "measure none lines are written",
        "textio.py",
        'for q, cfg in enumerate(icm.configs) if cfg.meas != "none"]',
        "for q, cfg in enumerate(icm.configs)]",
        "tests/test_cli.py::test_icm_commands_golden",
    ),
    Mutant(
        "the t and p gadget rows swapped",
        "icm.py",
        '    "t": (2, ((1, 0),), (("in:phi", "z"), ("a", "none"))),\n'
        '    "p": (2, ((1, 0),), (("in:phi", "z"), ("y", "none"))),\n',
        '    "t": (2, ((1, 0),), (("in:phi", "z"), ("y", "none"))),\n'
        '    "p": (2, ((1, 0),), (("in:phi", "z"), ("a", "none"))),\n',
        "tests/test_acceptance.py::test_criterion_9_gadget_functional_checks",
    ),
    # refusals that name wires
    Mutant(
        "the cut wires named as never cut",
        "circuits.py",
        "uncut = [w for w, wire_cuts in enumerate(on_wire) if not wire_cuts]",
        "uncut = [w for w, wire_cuts in enumerate(on_wire) if wire_cuts]",
        "tests/test_circuits.py::TestValidateCutSet::test_uncut_wires_named_are_missing_at_every_slot",
    ),
    Mutant(
        "a wire list named whole",
        "errors.py",
        "WIRES_SHOWN = 16",
        "WIRES_SHOWN = 1 << 30",
        "tests/test_cli.py::test_empty_wire_message_capped",
    ),
]

TIER_1 = [
    sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
    "--deselect", "tests/test_source.py::test_each_mutant_names_its_source_once",
]


def run_suite(copy: Path) -> tuple[str, float]:
    """Run tier-1 in ``copy``: the first failing test ("" when it passes) and the seconds taken."""
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
    if done.returncode == 0:
        return "", seconds
    first = (line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR")))
    return next(first, f"exit status {done.returncode}"), seconds


def run(mutants=MUTANTS) -> int:
    """Run the suite unmutated, then once per mutant, in a copy of the checkout; the exit status.

    The status is 1 when the unmutated suite fails (no mutant is run) or
    when any mutant survives.
    """
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        first, seconds = run_suite(copy)
        print(f"{'failed' if first else 'passed':16} {seconds:6.1f} s  unmutated  {first}", flush=True)
        if first:
            return 1
        survived = elsewhere = 0
        for mutant in mutants:
            path = copy / SRC / mutant.file
            source = path.read_text(encoding="utf-8")
            if source.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: the text to replace is not in {mutant.file} exactly once")
            path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
            first, seconds = run_suite(copy)
            path.write_text(source, encoding="utf-8")
            if not first:
                verdict, survived = "survived", survived + 1
            elif first.partition("[")[0] == mutant.catcher:
                verdict = "caught"
            else:
                verdict, elsewhere = "caught elsewhere", elsewhere + 1
            print(f"{verdict:16} {seconds:6.1f} s  {mutant.name}  {first}", flush=True)
    print(f"{len(mutants) - survived} of {len(mutants)} mutants caught, {elsewhere} of them elsewhere")
    return 1 if survived else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check that tier-1 catches each named mutant.")
    parser.add_argument("--only", metavar="NAME", help="run only the mutant of this name")
    args = parser.parse_args()
    chosen = MUTANTS
    if args.only is not None:
        chosen = [m for m in MUTANTS if m.name == args.only]
        if not chosen:
            parser.error(f"no mutant named {args.only!r}")
    sys.exit(run(chosen))
