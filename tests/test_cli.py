import contextlib
import io
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circnot.circuits import CutSet, Gap, circularize
from circnot.cli import build_parser, main, parity_text
from circnot.errors import EmptyWire, quote
from circnot.textio import format_circuit, format_cut_set, parse_circuit
from helpers import spanning_gap_index

SWAP_CIRC = "circular\nwires 2\ncnot 0 1\ncnot 1 0\ncnot 0 1\n"
RADIAL_A = "cut 0 2\ncut 1 2\n"
LINEAR_SWAP = "linear\nwires 2\ncnot 0 1\ncnot 1 0\ncnot 0 1\n"


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.circ"
    path.write_text(SWAP_CIRC)
    return str(path)


@pytest.fixture
def cuts_file(tmp_path):
    path = tmp_path / "radialA.cuts"
    path.write_text(RADIAL_A)
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_cuts_enumerate_six_lines(swap_file):
    code, out = run(["cuts", swap_file])
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 6
    assert lines[0] == "cut 0 0"


def test_derive_swap_report(swap_file, cuts_file):
    code, out = run(["derive", swap_file, "--cuts", cuts_file, "--dir", "cw"])
    assert code == 0
    assert "X0 -> X{1}" in out
    assert "Z1 -> Z{0}" in out


def test_search_finds_radial(tmp_path, swap_file):
    target = tmp_path / "cnot.map"
    target.write_text(
        "X0 -> X{0}\nX1 -> X{0,1}\nZ0 -> Z{0,1}\nZ1 -> Z{1}\n"
    )
    code, out = run(["search", swap_file, "--target", str(target), "--max-cuts", "2"])
    assert code == 0
    assert "cuts (0,1) (1,1) direction cw" in out


def test_linearize_swap(swap_file, cuts_file):
    code, out = run(["linearize", swap_file, "--cuts", cuts_file])
    assert code == 0
    assert out == LINEAR_SWAP


def test_circularize_round(tmp_path):
    path = tmp_path / "lin.circ"
    path.write_text(LINEAR_SWAP)
    code, out = run(["circularize", str(path)])
    assert code == 0
    assert "circular" in out
    assert "loop q0.in <- q0.out" in out


def test_parse_kv_format(swap_file):
    code, out = run(["parse", swap_file, "--format", "kv"])
    assert code == 0
    assert "kind circular" in out


LINEAR_CHAIN = "linear\nwires 4\ncnot 0 1\ncnot 1 2\ncnot 3 2\n"
# ``--format kv`` stdout, captured before the kv readers were deleted: one
# file per case under tests/golden, by (command, circuit, cut set, direction)
KV_GOLDEN = Path(__file__).resolve().parent / "golden"
KV_CASES = {
    "parse-swap": ("parse", SWAP_CIRC, None, None),
    "parse-chain": ("parse", LINEAR_CHAIN, None, None),
    "circularize-swap": ("circularize", LINEAR_SWAP, None, None),
    "circularize-chain": ("circularize", LINEAR_CHAIN, None, None),
    **{
        f"linearize-{name}-{d}": ("linearize", SWAP_CIRC, name, d)
        for name in ("swap", "single-cnot", "teleported-cnot", "sdt")
        for d in ("cw", "ccw")
    },
}


@pytest.mark.parametrize("case", sorted(KV_CASES))
def test_kv_format_golden(tmp_path, swap_cut_sets, capsys, case):
    command, circuit, cut_name, direction = KV_CASES[case]
    path = tmp_path / "in.circ"
    path.write_text(circuit)
    argv = [command, str(path), "--format", "kv"]
    if cut_name is not None:
        cuts = tmp_path / "in.cuts"
        cuts.write_text(format_cut_set(swap_cut_sets[cut_name]))
        argv += ["--cuts", str(cuts), "--dir", direction]
    code, out = run(argv)
    assert (code, out.encode()) == (0, (KV_GOLDEN / f"{case}.kv").read_bytes())
    assert capsys.readouterr().err == ""


def _circularized_chain() -> tuple[str, str]:
    """The circular text of ``LINEAR_CHAIN`` closed into loops, and its seam cut file."""
    circ, record = circularize(parse_circuit(LINEAR_CHAIN))
    return format_circuit(circ), format_cut_set(record.seam)


# ``export`` stdout, one file per case under tests/golden, by (circuit, cut file)
DOT_CASES = {
    "export-linear-swap": lambda: (LINEAR_SWAP, None),
    "export-swap-swap": lambda: (SWAP_CIRC, RADIAL_A),  # the swap cut fixture
    "export-circularized-chain": _circularized_chain,
}


@pytest.mark.parametrize("case", sorted(DOT_CASES))
def test_dot_export_golden(tmp_path, capsys, case):
    circuit, cuts = DOT_CASES[case]()
    path = tmp_path / "in.circ"
    path.write_text(circuit)
    argv = ["export", str(path)]
    if cuts is not None:
        cut_path = tmp_path / "in.cuts"
        cut_path.write_text(cuts)
        argv += ["--cuts", str(cut_path)]
    code, out = run(argv)
    assert (code, out.encode()) == (0, (KV_GOLDEN / f"{case}.dot").read_bytes())
    assert capsys.readouterr().err == ""


def test_model_dump(swap_file):
    code, out = run(["model", swap_file, "--kind", "x"])
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(1 for l in lines if l.startswith("C ")) == 3
    assert sum(1 for l in lines if l.startswith("J ")) == 6


def test_fault_report(swap_file, cuts_file):
    code, out = run(["fault", swap_file, "--cuts", cuts_file, "--smgf", "1"])
    assert code == 0
    assert "ancilla wire 1" in out
    assert "X0 -> X{0}" in out


# ``fault`` stdout, captured before a fault was read off one X solve: one
# file per case under tests/golden, by (circuit, cut set, gate, direction);
# each SWAP cut set with each gate both ways, and the translated Toffoli
# over its seam with gate 0 missing
FAULT_CASES = {
    **{
        f"fault-{name}-g{gate}-{d}": (SWAP_CIRC, name, gate, d)
        for name in ("swap", "single-cnot", "teleported-cnot", "sdt")
        for gate in range(3)
        for d in ("cw", "ccw")
    },
    "fault-toffoli-g0-cw": (None, None, 0, "cw"),
}


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_fault_golden(tmp_path, swap_cut_sets, capsys, case):
    from circnot import strip_and_circularize, toffoli_decomposition, translate_to_icm

    circuit, cut_name, gate, direction = FAULT_CASES[case]
    if circuit is None:
        c, record = strip_and_circularize(translate_to_icm(*toffoli_decomposition()))
        circuit, cuts = format_circuit(c), record.seam
    else:
        cuts = swap_cut_sets[cut_name]
    path, cut_path = tmp_path / "in.circ", tmp_path / "in.cuts"
    path.write_text(circuit)
    cut_path.write_text(format_cut_set(cuts))
    code, out = run(["fault", str(path), "--cuts", str(cut_path), "--smgf", str(gate), "--dir", direction])
    assert (code, out.encode()) == (0, (KV_GOLDEN / f"{case}.out").read_bytes())
    assert capsys.readouterr().err == ""


def test_icm_gadget(tmp_path):
    code, out = run(["icm", "--gadget", "t"])
    assert code == 0
    assert "init 1 a" in out
    assert "measure 0 z" in out


def test_icm_program(tmp_path):
    prog = tmp_path / "prog.txt"
    prog.write_text("qubits 1\nt 0\n")
    code, out = run(["icm", str(prog)])
    assert code == 0
    assert "init 1 a" in out


def test_export_dot(swap_file, cuts_file):
    code, out = run(["export", swap_file, "--cuts", cuts_file])
    assert code == 0
    assert out.startswith("digraph")
    assert out.count('[label="cut" shape=box]') == 2


@pytest.mark.parametrize(
    "cut_text, message",
    [
        ("cut 9 9\ncut 0 7\n", "wire 0 gap 7 does not exist"),
        ("cut 0 2\ncut 1 3\n", "wire 1 gap 3 does not exist"),
        ("cut 0 0\ncut -1 0\n", "wire -1 gap 0 does not exist"),
    ],
    ids=["least-of-two", "past-last-gap", "negative-wire"],
)
def test_export_refuses_unknown_gap(tmp_path, swap_file, capsys, cut_text, message):
    # export names the least bad gap, as derive does
    path = tmp_path / "bad.cuts"
    path.write_text(cut_text)
    for command in ("export", "derive"):
        assert run([command, swap_file, "--cuts", str(path)]) == (1, "")
        assert capsys.readouterr().err == f"error unknown-gap: {message}\n"


@pytest.mark.parametrize(
    "command",
    [
        "derive {swap} --cuts {path}",
        "linearize {swap} --cuts {path}",
        "fault {swap} --cuts {path} --smgf 0",
        "cuts {swap} --validate {path}",
        "export {swap} --cuts {path}",
        "model {swap} --cuts {path}",
    ],
    ids=["derive", "linearize", "fault", "cuts-validate", "export", "model"],
)
def test_unknown_gap_message_is_shared(tmp_path, swap_file, capsys, command):
    # every command range-checks its cuts in one place and names the least bad gap
    path = tmp_path / "bad.cuts"
    path.write_text("cut 9 9\ncut 0 7\n")
    assert run(command.format(swap=swap_file, path=path).split()) == (1, "")
    assert capsys.readouterr().err == "error unknown-gap: wire 0 gap 7 does not exist\n"


def test_export_refuses_cuts_on_linear_circuit(tmp_path, cuts_file, capsys):
    path = tmp_path / "lin.circ"
    path.write_text(LINEAR_SWAP)
    assert run(["export", str(path), "--cuts", cuts_file]) == (1, "")
    assert capsys.readouterr().err == "error wrong-circuit-kind: cuts need a circular circuit\n"
    # without cuts the linear circuit is drawn
    code, out = run(["export", str(path)])
    assert code == 0 and out.startswith("digraph")


def test_check_round_trip():
    code, out = run(["check", "--seed", "3", "--count", "25"])
    assert code == 0
    assert "failures 0" in out


def test_check_negative_count_is_usage_error(capsys):
    # a negative count runs no trial, so it is refused, not reported as a pass
    with pytest.raises(SystemExit) as err:
        main(["check", "--count", "-3"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("circnot check: error: argument --count: must not be negative: '-3'\n")
    assert run(["check", "--count", "0"]) == (0, "round-trip trials 0 failures 0\n")


def test_determinism(swap_file, cuts_file):
    _, first = run(["derive", swap_file, "--cuts", cuts_file])
    _, second = run(["derive", swap_file, "--cuts", cuts_file])
    assert first == second


def test_domain_error_exit_code(tmp_path, swap_file, capsys):
    bad = tmp_path / "bad.cuts"
    bad.write_text("cut 0 0\ncut 1 1\n")
    code, _ = run(["derive", swap_file, "--cuts", str(bad)])
    assert code == 1
    assert "error no-radial-cut:" in capsys.readouterr().err


ZERO_WIRES = "error wire-out-of-range: a circular circuit needs at least one wire, got 0\n"


@pytest.mark.parametrize(
    "command, target",
    [("search", ""), ("search", "# nothing here\n"), ("cuts", None), ("model", None), ("export", None), ("parse", None)],
)
def test_zero_wire_circuit_exit_code(tmp_path, capsys, command, target):
    # the search ended in an IndexError traceback; cuts, model, export and
    # parse printed an empty circuit and exited 0
    circ = tmp_path / "zero.circ"
    circ.write_text("circular\nwires 0\n")
    argv = [command, str(circ)]
    if target is not None:
        path = tmp_path / "target.map"
        path.write_text(target)
        argv += ["--target", str(path), "--max-cuts", "2"]
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == ZERO_WIRES


def test_circularize_zero_qubits_exit_code(tmp_path, capsys):
    # printed a circuit of zero wires and a bare "wires " line
    path = tmp_path / "zero.circ"
    path.write_text("linear\nwires 0\n")
    assert run(["circularize", str(path)]) == (1, "")
    assert capsys.readouterr().err == ZERO_WIRES


def test_circularize_long_chain_finishes(tmp_path):
    # each qubit's gate times were found by a scan over every gate, which
    # took seconds at a few thousand qubits
    n = 20_000
    path = tmp_path / "chain.circ"
    path.write_text(f"linear\nwires {n}\n" + "".join(f"cnot {q} {q + 1}\n" for q in range(n - 1)))
    start = time.perf_counter()
    code, out = run(["circularize", str(path)])
    assert time.perf_counter() - start < 10.0
    assert code == 0
    # a chain closes onto two wires, alternating qubit by qubit
    assert out.startswith("circular\nwires 2\ncnot 0 1\ncnot 1 0\n")
    assert out.endswith(" q19998:w0 q19999:w1\n")


def test_repeated_cut_among_many_exit_code(tmp_path, swap_file, capsys):
    # the first repeat was found by comparing each cut with every earlier
    # one, which took seconds at a few thousand cuts
    path = tmp_path / "many.cuts"
    path.write_text("".join(f"cut {w} 0\n" for w in range(20_000)) + "cut 7 0\ncut 9 0\n")
    start = time.perf_counter()
    assert run(["derive", swap_file, "--cuts", str(path)]) == (1, "")
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().err == "error duplicate-cut: cut repeated at wire 7 gap 0\n"


def test_wire_limit_exit_code(tmp_path, capsys, monkeypatch):
    from circnot import textio

    def refuse(*args, **kwargs):
        raise AssertionError("a circuit was built")

    monkeypatch.setattr(textio, "CircularCircuit", refuse)
    path = tmp_path / "huge.circ"
    path.write_text("circular\nwires 1000000000\ncnot 0 1\n")
    code, out = run(["model", str(path)])
    assert (code, out) == (1, "")
    expected = f"error syntax-error: line 2: more than {textio.MAX_WIRES} wires\n"
    assert capsys.readouterr().err == expected


def test_search_too_large_exit_code(tmp_path, capsys):
    circ = tmp_path / "long.circ"
    circ.write_text("circular\nwires 2\n" + "cnot 0 1\n" * 20)
    target = tmp_path / "identity.map"
    target.write_text("".join(f"{k}{q} -> {k}{{{q}}}\n" for k in "XZ" for q in range(6)))
    code, out = run(["search", str(circ), "--target", str(target), "--max-cuts", "6"])
    assert (code, out) == (1, "")
    expected = "error search-too-large: search could build 1476300 candidates, more than 100000\n"
    assert capsys.readouterr().err == expected


def test_search_too_large_bound_past_str_limit(tmp_path, capsys):
    # the bound has over 4,300 digits, more than ``str`` formats
    circ = tmp_path / "long.circ"
    circ.write_text("circular\nwires 2\n" + "cnot 0 1\n" * 10_000)
    target = tmp_path / "identity.map"
    target.write_text("".join(f"{k}{q} -> {k}{{{q}}}\n" for k in "XZ" for q in range(10_000)))
    code, out = run(["search", str(circ), "--target", str(target), "--max-cuts", "10000"])
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error search-too-large: search could build ")
    assert err.endswith(" digits) candidates, more than 100000\n")
    assert len(err.encode()) < 200


def test_empty_wire_message_capped(tmp_path, capsys):
    path = tmp_path / "sparse.circ"
    path.write_text("circular\nwires 65536\ncnot 0 1\n")
    code, out = run(["model", str(path)])
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error empty-wire: wires without gate symbols: [2, 3, ")
    assert err.endswith(", 17, ...] (65534 wires)\n")
    with pytest.raises(EmptyWire) as caught:
        parse_circuit(path.read_text())
    assert caught.value.wires == tuple(range(2, 65536))


@pytest.mark.parametrize(
    "line,message",
    [
        ("t x", "line 3: bad qubit 'x'"),
        ("cnot 0 -1", "line 3: bad qubit '-1'"),
        ("h 2", "line 3: qubit 2 out of range for 2 qubits"),
        ("qubits 65537", "line 3: more than 65536 qubits"),
    ],
)
def test_icm_program_tokens_exit_code(tmp_path, capsys, line, message):
    prog = tmp_path / "prog.txt"
    prog.write_text(f"qubits 2\ncnot 0 1\n{line}\n")
    code, out = run(["icm", str(prog)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error syntax-error: {message}\n"


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("icm", "qubits 2\nqubits 3\ncnot 0 2\n", "line 2: repeated qubits line"),
        ("derive", "cut 0 2\ncut 1 2\ndirection cw\ndirection ccw\n", "line 4: repeated direction line"),
        ("search", "X0 -> X{1}\nX1 -> X{0}\nZ0 -> Z{1}\nZ1 -> Z{0}\nX0 -> X{0}\n", "line 5: repeated map row X0"),
    ],
)
def test_repeated_single_valued_line_exit_code(tmp_path, swap_file, capsys, command, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    argv = {
        "icm": ["icm", str(path)],
        "derive": ["derive", swap_file, "--cuts", str(path)],
        "search": ["search", swap_file, "--target", str(path), "--max-cuts", "2"],
    }[command]
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == f"error syntax-error: {message}\n"


@pytest.mark.parametrize("word", ["CW", "Ccw"])
@pytest.mark.parametrize("command", ["derive", "linearize", "fault"])
def test_cut_file_direction_spelled_as_dir_spells_it(tmp_path, swap_file, capsys, command, word):
    # ``--dir`` takes cw|ccw only, and so does a cut file's direction line
    path = tmp_path / "cuts"
    path.write_text(f"cut 0 2\ncut 1 2\ndirection {word}\n")
    argv = [command, swap_file, "--cuts", str(path), *(["--smgf", "0"] if command == "fault" else [])]
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == f"error syntax-error: line 3: bad direction '{word}'\n"


@pytest.mark.parametrize(
    "command,text,message",
    [
        (
            "search",
            "X\u0660 -> X{\u0661}\nX1 -> X{0}\nZ0 -> Z{1}\nZ1 -> Z{0}\n",
            "line 1: bad map line 'X\u0660 -> X{\u0661}'",
        ),
        (
            "search",
            "X0 -> X{1}\nX1 -> X{0}\nZ0 -> Z{\uff11}\nZ1 -> Z{0}\n",
            "line 3: bad map line 'Z0 -> Z{\uff11}'",
        ),
        ("parse", "circular\nwires \u0662\ncnot 0 1\ncnot 1 0\n", "line 2: bad wires line 'wires \u0662'"),
        ("parse", "circular\nwires 2\ncnot \u0660 1\ncnot 1 0\n", "line 3: bad cnot line 'cnot \u0660 1'"),
        ("derive", "cut 0 2\ncut 1 \uff12\n", "line 2: bad cut line 'cut 1 \uff12'"),
    ],
    ids=["map-qubit", "map-output", "wires", "cnot", "cut"],
)
def test_non_ascii_number_exit_code(tmp_path, swap_file, capsys, command, text, message):
    # int() and the regex \d read other scripts' digits; every number token is ASCII
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    argv = {
        "search": ["search", swap_file, "--target", str(path), "--max-cuts", "2"],
        "parse": ["parse", str(path)],
        "derive": ["derive", swap_file, "--cuts", str(path)],
    }[command]
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == f"error syntax-error: {message}\n"


def test_signed_ascii_numbers_still_read(tmp_path, swap_file, capsys):
    # a leading minus reads, so a negative wire or gap is refused by the
    # range check that names it
    cuts = tmp_path / "signed.cuts"
    cuts.write_text("cut -1 0\ncut 1 2\n")
    assert run(["derive", swap_file, "--cuts", str(cuts)]) == (1, "")
    assert capsys.readouterr().err == "error unknown-gap: wire -1 gap 0 does not exist\n"
    circ = tmp_path / "negative.circ"
    circ.write_text("circular\nwires 2\ncnot 0 -1\n")
    assert run(["parse", str(circ)]) == (1, "")
    assert capsys.readouterr().err == "error wire-out-of-range: gate 0 references wire -1 of 2\n"


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("parse", "circular\nwires 2\ncnot 0 1_0\n", "line 3: bad cnot line 'cnot 0 1_0'"),
        ("parse", "circular\nwires 3\ncnot +1 2\n", "line 3: bad cnot line 'cnot +1 2'"),
        ("validate", "cut 0 0_0\ncut 1 +0\n", "line 1: bad cut line 'cut 0 0_0'"),
        ("validate", "cut 0 0\ncut 1 +0\n", "line 2: bad cut line 'cut 1 +0'"),
    ],
    ids=["cnot-underscore", "cnot-plus", "cut-underscore", "cut-plus"],
)
def test_plus_and_digit_separator_refused(tmp_path, swap_file, capsys, command, text, message):
    # int() reads both; a circuit or cut integer is ASCII digits after at most a minus
    path = tmp_path / "input"
    path.write_text(text)
    argv = ["parse", str(path)] if command == "parse" else ["cuts", swap_file, "--validate", str(path)]
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == f"error syntax-error: {message}\n"


def test_parser_built_once(swap_file, capsys):
    # a usage error after a successful call prints what a fresh parser prints
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as fresh:
        main(["derive", swap_file])
    fresh_err = capsys.readouterr().err
    assert run(["cuts", swap_file])[0] == 0
    with pytest.raises(SystemExit) as again:
        main(["derive", swap_file])
    assert (fresh.value.code, again.value.code) == (2, 2)
    assert capsys.readouterr().err == fresh_err
    assert "the following arguments are required: --cuts" in fresh_err
    assert build_parser.cache_info().misses == 1


def _file_argvs(swap_file: str, path: str) -> list[list[str]]:
    """Every command reading ``path``: as a circuit, cut, map and program file."""
    return [
        ["derive", path, "--cuts", path],
        ["derive", swap_file, "--cuts", path],
        ["search", swap_file, "--target", path, "--max-cuts", "2"],
        ["icm", path],
    ]


def test_unreadable_input_exit_code(tmp_path, swap_file, capsys):
    # a directory, or bytes that are not UTF-8, end in one error line
    binary = tmp_path / "binary"
    binary.write_bytes(b"qubits 1\n\xff\xfe\n")
    for path, reason in ((tmp_path, "Is a directory"), (binary, "not UTF-8 text at byte 9")):
        for argv in _file_argvs(swap_file, str(path)):
            assert run(argv) == (1, "")
            assert capsys.readouterr().err == f"error unreadable-file: {quote(str(path))}: {reason}\n"


def test_missing_file_line(tmp_path, swap_file, capsys):
    # a path past 64 characters (here 15 components of 200) is quoted as its
    # first characters and its length, so the line stays short
    for missing in (str(tmp_path / "missing"), str(tmp_path.joinpath(*["d" * 200] * 15))):
        for argv in _file_argvs(swap_file, missing):
            assert run(argv) == (1, "")
            err = capsys.readouterr().err
            assert err == f"error file-not-found: [Errno 2] No such file or directory: {quote(missing)}\n"
            assert err.count("\n") == 1 and len(err) < 200
    assert quote(str(tmp_path / "missing")) == repr(str(tmp_path / "missing"))


@pytest.mark.parametrize(
    "circuit, target, code, err",
    [
        ("swap.circ/", "./swap.map", 0, ""),
        ("./swap.circ", "swap.map/.", 0, ""),
        ("", "swap.map", 1, "error unreadable-file: '': Is a directory\n"),
        ("swap.circ", "./missing.map", 1, "error file-not-found: [Errno 2] No such file or directory: 'missing.map'\n"),
        (
            "swap.circ",
            "nodir//missing.map",
            1,
            "error file-not-found: [Errno 2] No such file or directory: 'nodir/missing.map'\n",
        ),
    ],
)
def test_paths_read_as_pathlib_reads_them(tmp_path, monkeypatch, capsys, circuit, target, code, err):
    # files are opened as given first, and through pathlib when that fails:
    # a trailing "/" or "/." is dropped, "" is ".", and a missing file is
    # named without "./" or "//"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "swap.circ").write_text(SWAP_CIRC)
    (tmp_path / "swap.map").write_text("X0 -> X{1}\nX1 -> X{0}\nZ0 -> Z{1}\nZ1 -> Z{0}\n")
    out = "cuts (0,2) (1,2) direction cw\ncuts (0,2) (1,2) direction ccw\nfound 2\n" if code == 0 else ""
    assert run(["search", circuit, "--target", target, "--max-cuts", "2"]) == (code, out)
    assert capsys.readouterr().err == err


def test_search_out_of_range_target_exit_code(tmp_path, swap_file, capsys):
    target = tmp_path / "wide.map"
    target.write_text("X0 -> X{0,2}\nX1 -> X{1}\nZ0 -> Z{0}\nZ1 -> Z{1}\n")
    code, out = run(["search", swap_file, "--target", str(target), "--max-cuts", "3"])
    assert (code, out) == (1, "")
    expected = "error wire-out-of-range: map row X0 names an output outside 2 qubits\n"
    assert capsys.readouterr().err == expected


# map files that ``search`` must refuse: name -> (file, stderr). The rows
# are read straight into masks, so an output past the qubit count must be
# refused without being shifted into one (``1 << 9999999999999`` alone is
# over a terabyte); each message is pinned byte for byte.
HOSTILE_ROWS = "X0 -> X{{1}}\nX1 -> X{{{x1}}}\nZ0 -> Z{{1}}\nZ1 -> Z{{0}}\n"
OUT_OF_RANGE = "error wire-out-of-range: map row X1 names an output outside 2 qubits\n"
COUNT_MISMATCH = "error count-mismatch: map report must cover X and Z rows for qubits 0..n-1\n"
HOSTILE_MAPS = {
    "huge-output": (HOSTILE_ROWS.format(x1="9999999999999"), OUT_OF_RANGE),
    "4300-digit-output": (HOSTILE_ROWS.format(x1="7" * 4300), OUT_OF_RANGE),
    "5000-digit-output": (
        HOSTILE_ROWS.format(x1="7" * 5000),
        f"error syntax-error: line 2: bad map line 'X1 -> X{{{'7' * 56}'... (5009 chars)\n",
    ),
    "repeated-row": (HOSTILE_ROWS.format(x1="0") + "X0 -> X{0}\n", "error syntax-error: line 5: repeated map row X0\n"),
    "missing-z-row": ("X0 -> X{1}\nX1 -> X{0}\nZ0 -> Z{1}\n", COUNT_MISMATCH),
    "rows-skip-a-qubit": ("X0 -> X{0}\nX2 -> X{1}\nZ0 -> Z{0}\nZ2 -> Z{1}\n", COUNT_MISMATCH),
    # X rows are checked first, each kind in file order
    "z-row-out-of-range-first": ("Z0 -> Z{5}\nX0 -> X{1}\nX1 -> X{9999999999999}\nZ1 -> Z{0}\n", OUT_OF_RANGE),
    "malformed-line": (
        "X0 -> X{1}\nX1 -> X{0}\nZ0 -> Z{1}\nZ1 -> {0}\n",
        "error syntax-error: line 4: bad map line 'Z1 -> {0}'\n",
    ),
    # over GF(2) a repeated output would cancel: refused, not read as a set
    "repeated-output": (
        HOSTILE_ROWS.format(x1="0,0"),
        "error syntax-error: line 2: repeated output in map row X1\n",
    ),
    "empty-outer-items": (
        HOSTILE_ROWS.format(x1=",0,"),
        "error syntax-error: line 2: bad map line 'X1 -> X{,0,}'\n",
    ),
    "empty-inner-item": (
        "X0 -> X{1}\nX1 -> X{0}\nZ0 -> Z{0,,0,0}\nZ1 -> Z{0}\n",
        "error syntax-error: line 3: bad map line 'Z0 -> Z{0,,0,0}'\n",
    ),
    "outputs-without-comma": (
        HOSTILE_ROWS.format(x1="0 1"),
        "error syntax-error: line 2: bad map line 'X1 -> X{0 1}'\n",
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_MAPS))
def test_search_hostile_map_file(tmp_path, swap_file, capsys, name):
    text, expected = HOSTILE_MAPS[name]
    target = tmp_path / "hostile.map"
    target.write_text(text)
    start = time.perf_counter()
    code, out = run(["search", swap_file, "--target", str(target), "--max-cuts", "2"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == expected


LONG = "7" * 5000


@pytest.mark.parametrize(
    "command,name,text",
    [
        ("parse", "circuit", f"circular\nwires 2\ncnot 0 {LONG}\n"),
        ("derive", "cuts", f"cut 0 {LONG}\n"),
        ("search", "target", f"X0 -> X{{{LONG}}}\nZ0 -> Z{{0}}\n"),
        ("icm", "program", f"qubits 2\nt {LONG}\n"),
    ],
)
def test_long_token_message_capped(tmp_path, swap_file, capsys, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    argv = {
        "parse": ["parse", str(path)],
        "derive": ["derive", swap_file, "--cuts", str(path)],
        "search": ["search", swap_file, "--target", str(path), "--max-cuts", "3"],
        "icm": ["icm", str(path)],
    }[command]
    code, out = run(argv)
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error syntax-error: line ")
    assert err.endswith(" chars)\n")
    assert len(err) < 150


DIGITS = "7" * 4000
# case -> (input file, its command, error message); {n} is the number in the
# input and {swap}, {cuts}, {path} the files
NUMBER_CASES = {
    "circular": (
        "circular\nwires 2\ncnot 0 {n}\n",
        "parse {path}",
        "wire-out-of-range: gate 0 references wire {n} of 2",
    ),
    "linear": (
        "linear\nwires 2\ncnot 0 {n}\n",
        "parse {path}",
        "wire-out-of-range: gate at t=0 references qubit {n} of 2",
    ),
    "cut": ("cut 0 {n}\n", "derive {swap} --cuts {path}", "unknown-gap: wire 0 gap {n} does not exist"),
    "repeated-cut": (
        "cut 0 {n}\ncut 0 {n}\n",
        "derive {swap} --cuts {path}",
        "duplicate-cut: cut repeated at wire 0 gap {n}",
    ),
    "smgf": ("", "fault {swap} --cuts {cuts} --smgf {n}", "unknown-gate: no gate with id {n}"),
}


@pytest.mark.parametrize("case", sorted(NUMBER_CASES))
def test_out_of_range_number_message_capped(tmp_path, swap_file, cuts_file, capsys, case):
    text, command, message = NUMBER_CASES[case]
    path = tmp_path / "input"
    # a short number is printed whole, as before; a long one as a prefix and its length
    for n, shown in (("7", "7"), (DIGITS, "7" * 64 + "... (4000 digits)")):
        path.write_text(text.format(n=n))
        argv = command.format(n=n, swap=swap_file, cuts=cuts_file, path=path).split()
        code, out = run(argv)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error {message.format(n=shown)}\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["derive"])
    assert err.value.code == 2


def test_validate_cuts(swap_file, cuts_file):
    code, out = run(["cuts", swap_file, "--validate", cuts_file])
    assert code == 0
    assert "valid" in out


TELEPORTED_CNOT = "cut 0 0\ncut 0 1\ncut 0 2\ncut 1 2\n"
# ``model --parity`` stdout and exit status on the SWAP, with and without the
# teleported-CNOT cuts. The combined model's selectors are unpinned, so its
# clause dump is followed by an unpinned-selector error instead of rows.
MODEL_PARITY_GOLDEN = {
    ("x", False): (
        0,
        "C w1s4 w1s0 w0s3\n"
        "C w0s0 w0s1 w1s1\n"
        "C w1s2 w1s3 w0s2\n"
        "J w0s3 w0s0\n"
        "J w0s1 w0s2\n"
        "J w0s2 w0s3\n"
        "J w1s0 w1s1\n"
        "J w1s1 w1s2\n"
        "J w1s3 w1s4\n"
        "0 0 0 1 1 0 0 0 1 0\n"
        "1 1 0 0 0 1 0 0 0 0\n"
        "0 0 1 0 0 0 1 1 0 0\n"
        "1 0 0 1 0 0 0 0 0 0\n"
        "0 1 1 0 0 0 0 0 0 0\n"
        "0 0 1 1 0 0 0 0 0 0\n"
        "0 0 0 0 1 1 0 0 0 0\n"
        "0 0 0 0 0 1 1 0 0 0\n"
        "0 0 0 0 0 0 0 1 1 0\n"
    ),
    ("x", True): (
        0,
        "C w1s4 w1s0 w0s3\n"
        "C w0s0 w0s1 w1s1\n"
        "C w1s2 w1s3 w0s2\n"
        "J w1s0 w1s1\n"
        "J w1s1 w1s2\n"
        "0 0 0 1 1 0 0 0 1 0\n"
        "1 1 0 0 0 1 0 0 0 0\n"
        "0 0 1 0 0 0 1 1 0 0\n"
        "0 0 0 0 1 1 0 0 0 0\n"
        "0 0 0 0 0 1 1 0 0 0\n"
    ),
    ("z", False): (
        0,
        "C w0s4 w0s0 w1s3\n"
        "C w1s0 w1s1 w0s1\n"
        "C w0s2 w0s3 w1s2\n"
        "J w0s0 w0s1\n"
        "J w0s1 w0s2\n"
        "J w0s3 w0s4\n"
        "J w1s3 w1s0\n"
        "J w1s1 w1s2\n"
        "J w1s2 w1s3\n"
        "1 0 0 0 1 0 0 0 1 0\n"
        "0 1 0 0 0 1 1 0 0 0\n"
        "0 0 1 1 0 0 0 1 0 0\n"
        "1 1 0 0 0 0 0 0 0 0\n"
        "0 1 1 0 0 0 0 0 0 0\n"
        "0 0 0 1 1 0 0 0 0 0\n"
        "0 0 0 0 0 1 0 0 1 0\n"
        "0 0 0 0 0 0 1 1 0 0\n"
        "0 0 0 0 0 0 0 1 1 0\n"
    ),
    ("z", True): (
        0,
        "C w0s4 w0s0 w1s3\n"
        "C w1s0 w1s1 w0s1\n"
        "C w0s2 w0s3 w1s2\n"
        "J w1s3 w1s0\n"
        "J w1s1 w1s2\n"
        "1 0 0 0 1 0 0 0 1 0\n"
        "0 1 0 0 0 1 1 0 0 0\n"
        "0 0 1 1 0 0 0 1 0 0\n"
        "0 0 0 0 0 1 0 0 1 0\n"
        "0 0 0 0 0 0 1 1 0 0\n"
    ),
    ("combined", False): (
        1,
        "F w0s5 w0s0 w1s5 w1s0 x=-\n"
        "F w1s1 w1s2 w0s1 w0s2 x=-\n"
        "F w0s3 w0s4 w1s3 w1s4 x=-\n"
        "J w0s0 w0s1\n"
        "J w0s2 w0s3\n"
        "J w0s4 w0s5\n"
        "J w1s0 w1s1\n"
        "J w1s2 w1s3\n"
        "J w1s4 w1s5\n"
    ),
    ("combined", True): (
        1,
        "F w0s5 w0s0 w1s5 w1s0 x=-\n"
        "F w1s1 w1s2 w0s1 w0s2 x=-\n"
        "F w0s3 w0s4 w1s3 w1s4 x=-\n"
        "J w1s0 w1s1\n"
        "J w1s2 w1s3\n"
    ),
}


@pytest.mark.parametrize("kind,cut", sorted(MODEL_PARITY_GOLDEN))
def test_model_parity_golden(tmp_path, swap_file, capsys, kind, cut):
    argv = ["model", swap_file, "--kind", kind, "--parity"]
    if cut:
        path = tmp_path / "teleported.cuts"
        path.write_text(TELEPORTED_CNOT)
        argv += ["--cuts", str(path)]
    code, out = run(argv)
    assert (code, out) == MODEL_PARITY_GOLDEN[kind, cut]
    if code:
        assert "error unpinned-selector:" in capsys.readouterr().err


# A 4-wire circuit whose wire 2 holds one control and wire 3 one target, so
# the X model drops wire 2's self-join and the Z model wire 3's. The cut
# file holds a radial family plus gap (0, 2), and cuts wire 2's gap even
# where its join was already dropped.
FOUR_WIRE_CIRC = "circular\nwires 4\ncnot 2 0\ncnot 0 1\ncnot 1 3\ncnot 1 0\n"
FOUR_WIRE_CUTS = "cut 0 0\ncut 0 2\ncut 1 0\ncut 2 0\ncut 3 0\n"
UNPINNED_ERR = "error unpinned-selector: combined clause for gate 0 has no selector\n"
# ``model --parity`` (exit status, stdout, stderr) on that circuit
FOUR_WIRE_MODEL_GOLDEN = {
    ("x", False): (
        0,
        "C w0s4 w0s0 w2s0\n"
        "C w1s3 w1s0 w0s1\n"
        "C w3s1 w3s0 w1s1\n"
        "C w0s2 w0s3 w1s2\n"
        "J w0s0 w0s1\n"
        "J w0s1 w0s2\n"
        "J w0s3 w0s4\n"
        "J w1s0 w1s1\n"
        "J w1s1 w1s2\n"
        "J w1s2 w1s3\n"
        "J w3s0 w3s1\n"
        "1 0 0 0 1 0 0 0 0 1 0 0 0\n"
        "0 1 0 0 0 1 0 0 1 0 0 0 0\n"
        "0 0 0 0 0 0 1 0 0 0 1 1 0\n"
        "0 0 1 1 0 0 0 1 0 0 0 0 0\n"
        "1 1 0 0 0 0 0 0 0 0 0 0 0\n"
        "0 1 1 0 0 0 0 0 0 0 0 0 0\n"
        "0 0 0 1 1 0 0 0 0 0 0 0 0\n"
        "0 0 0 0 0 1 1 0 0 0 0 0 0\n"
        "0 0 0 0 0 0 1 1 0 0 0 0 0\n"
        "0 0 0 0 0 0 0 1 1 0 0 0 0\n"
        "0 0 0 0 0 0 0 0 0 0 1 1 0\n",
        "",
    ),
    ("x", True): (
        0,
        "C w0s4 w0s0 w2s0\n"
        "C w1s3 w1s0 w0s1\n"
        "C w3s1 w3s0 w1s1\n"
        "C w0s2 w0s3 w1s2\n"
        "J w0s1 w0s2\n"
        "J w1s1 w1s2\n"
        "J w1s2 w1s3\n"
        "1 0 0 0 1 0 0 0 0 1 0 0 0\n"
        "0 1 0 0 0 1 0 0 1 0 0 0 0\n"
        "0 0 0 0 0 0 1 0 0 0 1 1 0\n"
        "0 0 1 1 0 0 0 1 0 0 0 0 0\n"
        "0 1 1 0 0 0 0 0 0 0 0 0 0\n"
        "0 0 0 0 0 0 1 1 0 0 0 0 0\n"
        "0 0 0 0 0 0 0 1 1 0 0 0 0\n",
        "",
    ),
    ("z", False): (
        0,
        "C w2s1 w2s0 w0s3\n"
        "C w0s0 w0s1 w1s4\n"
        "C w1s0 w1s1 w3s0\n"
        "C w1s2 w1s3 w0s2\n"
        "J w0s3 w0s0\n"
        "J w0s1 w0s2\n"
        "J w0s2 w0s3\n"
        "J w1s4 w1s0\n"
        "J w1s1 w1s2\n"
        "J w1s3 w1s4\n"
        "J w2s0 w2s1\n"
        "0 0 0 1 0 0 0 0 0 1 1 0 0\n"
        "1 1 0 0 0 0 0 0 1 0 0 0 0\n"
        "0 0 0 0 1 1 0 0 0 0 0 1 0\n"
        "0 0 1 0 0 0 1 1 0 0 0 0 0\n"
        "1 0 0 1 0 0 0 0 0 0 0 0 0\n"
        "0 1 1 0 0 0 0 0 0 0 0 0 0\n"
        "0 0 1 1 0 0 0 0 0 0 0 0 0\n"
        "0 0 0 0 1 0 0 0 1 0 0 0 0\n"
        "0 0 0 0 0 1 1 0 0 0 0 0 0\n"
        "0 0 0 0 0 0 0 1 1 0 0 0 0\n"
        "0 0 0 0 0 0 0 0 0 1 1 0 0\n",
        "",
    ),
    ("z", True): (
        0,
        "C w2s1 w2s0 w0s3\n"
        "C w0s0 w0s1 w1s4\n"
        "C w1s0 w1s1 w3s0\n"
        "C w1s2 w1s3 w0s2\n"
        "J w0s1 w0s2\n"
        "J w1s1 w1s2\n"
        "J w1s3 w1s4\n"
        "0 0 0 1 0 0 0 0 0 1 1 0 0\n"
        "1 1 0 0 0 0 0 0 1 0 0 0 0\n"
        "0 0 0 0 1 1 0 0 0 0 0 1 0\n"
        "0 0 1 0 0 0 1 1 0 0 0 0 0\n"
        "0 1 1 0 0 0 0 0 0 0 0 0 0\n"
        "0 0 0 0 0 1 1 0 0 0 0 0 0\n"
        "0 0 0 0 0 0 0 1 1 0 0 0 0\n",
        "",
    ),
    ("combined", False): (
        1,
        "F w2s1 w2s0 w0s5 w0s0 x=-\n"
        "F w0s1 w0s2 w1s5 w1s0 x=-\n"
        "F w1s1 w1s2 w3s1 w3s0 x=-\n"
        "F w1s3 w1s4 w0s3 w0s4 x=-\n"
        "J w0s0 w0s1\n"
        "J w0s2 w0s3\n"
        "J w0s4 w0s5\n"
        "J w1s0 w1s1\n"
        "J w1s2 w1s3\n"
        "J w1s4 w1s5\n"
        "J w2s0 w2s1\n"
        "J w3s0 w3s1\n",
        UNPINNED_ERR,
    ),
    ("combined", True): (
        1,
        "F w2s1 w2s0 w0s5 w0s0 x=-\n"
        "F w0s1 w0s2 w1s5 w1s0 x=-\n"
        "F w1s1 w1s2 w3s1 w3s0 x=-\n"
        "F w1s3 w1s4 w0s3 w0s4 x=-\n"
        "J w0s2 w0s3\n"
        "J w1s2 w1s3\n"
        "J w1s4 w1s5\n",
        UNPINNED_ERR,
    ),
}


@pytest.mark.parametrize("kind,cut", sorted(FOUR_WIRE_MODEL_GOLDEN))
def test_model_parity_golden_self_joins(tmp_path, capsys, kind, cut):
    circ = tmp_path / "four.circ"
    circ.write_text(FOUR_WIRE_CIRC)
    argv = ["model", str(circ), "--kind", kind, "--parity"]
    if cut:
        path = tmp_path / "four.cuts"
        path.write_text(FOUR_WIRE_CUTS)
        argv += ["--cuts", str(path)]
    code, out = run(argv)
    assert (code, out, capsys.readouterr().err) == FOUR_WIRE_MODEL_GOLDEN[kind, cut]


@pytest.mark.parametrize("seed", range(10))
def test_parity_text_writes_each_row_bit(seed):
    # a row's line is bit i of its mask ``coeffs | rhs << n_vars``, for i up to n_vars
    rng = random.Random(seed)
    n_vars = rng.randint(1, 40)
    rows = [
        (tuple(rng.sample(range(n_vars), rng.randint(0, min(4, n_vars)))), rng.randint(0, 1))
        for _ in range(rng.randint(1, 30))
    ]
    masks = [sum(1 << v for v in vs) | rhs << n_vars for vs, rhs in rows]
    lines = [" ".join(str(mask >> i & 1) for i in range(n_vars + 1)) for mask in masks]
    assert parity_text(rows, n_vars) == "\n".join(lines)


# Junk for ``circnot model``: a well-formed circuit and cut file, each with
# at most one line inserted or replaced by a bad directive (bad, negative,
# huge, signed or non-ASCII numbers; wrong arity; wrong header) or by
# arbitrary text. Cut gaps may lie past a wire's symbols and repeat.
_BAD_LINES = [
    "", "linear", "circular", "circular x", "wires", "wires 0", "wires 1", "wires 65537",
    "wires 1111111111111111111111111", "cnot 0", "cnot 0 0", "cnot 0 9", "cnot -1 0",
    "cnot +1 0", "cnot \u0663 0", "cnot 0 1 2", "cut 0", "cut -1 0", "cut 0 99999999999999999999",
    "direction", "direction up", "direction cw", "# comment", "smgf 0",
]
_bad_line = st.sampled_from(_BAD_LINES) | st.text(st.characters(exclude_categories=("Cs",)), max_size=8)


def _spoil(draw, lines: list) -> str:
    edit = draw(st.none() | st.tuples(st.integers(0, len(lines)), st.booleans(), _bad_line))
    if edit is not None:
        at, replace, line = edit
        lines[at : at + replace] = [line]
    return "\n".join(lines)


@st.composite
def _model_inputs(draw):
    wires = draw(st.integers(2, 4))
    # a wire and another one, drawn without rejection
    pair = st.tuples(st.integers(0, wires - 1), st.integers(1, wires - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % wires)
    )
    pairs = draw(st.lists(pair, max_size=8))
    circuit = ["circular", f"wires {wires}", *(f"cnot {c} {t}" for c, t in pairs)]
    gaps = draw(st.lists(st.tuples(st.integers(0, wires - 1), st.integers(0, 4)), max_size=6))
    cuts = [f"cut {w} {i}" for w, i in gaps]
    cuts += draw(st.lists(st.sampled_from(["direction cw", "direction ccw"]), max_size=1))
    cut_text = _spoil(draw, cuts) if draw(st.booleans()) else None
    return _spoil(draw, circuit), cut_text


@given(_model_inputs(), st.sampled_from(["x", "z", "combined"]))
def test_model_fuzz_exits_cleanly(texts, kind):
    circuit_text, cut_text = texts
    # junk input ends in exit 0, or in exit 1 with one ``error <code>:`` line
    with tempfile.TemporaryDirectory() as tmp:
        circ = Path(tmp, "junk.circ")
        circ.write_text(circuit_text, encoding="utf-8")
        argv = ["model", str(circ), "--kind", kind, "--parity"]
        if cut_text is not None:
            cuts = Path(tmp, "junk.cuts")
            cuts.write_text(cut_text, encoding="utf-8")
            argv += ["--cuts", str(cuts)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        assert re.fullmatch(r"error [a-z-]+: [^\n]*\n", err.getvalue())


# per command, lines its input file is made of; the file may also carry
# junk lines (``_bad_line``) and arbitrary bytes, often not UTF-8
_FILE_LINES = {
    "icm": [
        "qubits 2", "qubits 3", "qubits 65537", "qubits x", "cnot 0 1", "cnot 1 0", "cnot 0 0",
        "t 0", "tdg 1", "p 0", "pdg 1", "v 0", "h 1", "h 2", "t",
    ],
    "search": [
        "X0 -> X{1}", "X1 -> X{0}", "Z0 -> Z{1}", "Z1 -> Z{0}", "X0 -> X{0}", "X1 -> X{0,1}",
        "Z0 -> Z{0,1}", "Z1 -> Z{1}", "X2 -> X{2}", "Z0 -> X{0}", "X0 -> X{9}",
    ],
    "derive": [
        "cut 0 2", "cut 1 2", "cut 0 0", "cut 0 1", "cut 1 0", "cut 1 1", "cut 2 0", "cut 0 9",
        "direction cw", "direction ccw", "direction up",
    ],
}


@st.composite
def _file_input(draw):
    command = draw(st.sampled_from(sorted(_FILE_LINES)))
    lines = draw(st.lists(st.sampled_from(_FILE_LINES[command]) | _bad_line, max_size=8))
    data = "\n".join(lines).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return command, data


@given(_file_input())
def test_file_input_fuzz_exits_cleanly(case):
    # program, map and cut files of junk bytes end in exit 0, or in exit 1
    # with one ``error <code>:`` line, never in an uncaught exception
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        circ = Path(tmp, "swap.circ")
        circ.write_text(SWAP_CIRC)
        path = Path(tmp, "input")
        path.write_bytes(data)
        argv = {
            "icm": ["icm", str(path)],
            "search": ["search", str(circ), "--target", str(path), "--max-cuts", "3"],
            "derive": ["derive", str(circ), "--cuts", str(path)],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        assert re.fullmatch(r"error [a-z-]+: [^\n]*\n", err.getvalue())


def test_derive_rejects_linear_circuit(tmp_path, cuts_file, capsys):
    path = tmp_path / "lin.circ"
    path.write_text(LINEAR_SWAP)
    code, out = run(["derive", str(path), "--cuts", cuts_file])
    assert (code, out) == (1, "")
    assert "error wrong-circuit-kind:" in capsys.readouterr().err


def test_circularize_rejects_circular_circuit(swap_file, capsys):
    code, out = run(["circularize", swap_file])
    assert (code, out) == (1, "")
    assert "error wrong-circuit-kind:" in capsys.readouterr().err


# ``search --max-cuts 4`` stdout on the SWAP, with each SWAP cut fixture's
# clockwise oracle map as target, captured before candidates were built
# from radial families; it pins the result order byte for byte.
SEARCH_SWAP_GOLDEN = {
    "swap": "cuts (0,2) (1,2) direction cw\ncuts (0,2) (1,2) direction ccw\nfound 2\n",
    "single-cnot": (
        "cuts (0,0) (1,0) direction cw\n"
        "cuts (0,0) (1,0) direction ccw\n"
        "cuts (0,1) (1,1) direction cw\n"
        "cuts (0,1) (1,1) direction ccw\n"
        "found 4\n"
    ),
    "teleported-cnot": "cuts (0,0) (0,1) (0,2) (1,2) direction cw\nfound 1\n",
    "sdt": "cuts (0,1) (0,2) (1,0) (1,1) direction cw\nfound 1\n",
}


@pytest.fixture
def no_inverse(monkeypatch):
    # the search reads the counter-clockwise columns off the target's Z rows
    from circnot import gf2

    def refuse(*args):
        raise AssertionError("the target was inverted")

    monkeypatch.setattr(gf2, "invert", refuse)


@pytest.mark.parametrize("name", sorted(SEARCH_SWAP_GOLDEN))
def test_search_swap_golden(tmp_path, swap, swap_file, swap_cut_sets, no_inverse, name):
    from circnot import Direction, linearize, oracle_map

    target = tmp_path / "target.map"
    target.write_text(oracle_map(linearize(swap, swap_cut_sets[name], Direction.CW)).report())
    code, out = run(["search", swap_file, "--target", str(target), "--max-cuts", "4"])
    assert (code, out) == (0, SEARCH_SWAP_GOLDEN[name])


def test_search_target_past_gap_count_inverts_nothing(tmp_path, swap_file, monkeypatch):
    # a 2,000-qubit target against the SWAP's six gaps: no candidate can
    # have that many cuts, so the target's form is not checked and no map
    # is inverted (two 2,000 x 2,000 inversions)
    from circnot import StabiliserMap, gf2

    def refuse(*args):
        raise AssertionError("the target was checked or a matrix inverted")

    monkeypatch.setattr(gf2, "invert", refuse)
    monkeypatch.setattr(StabiliserMap, "is_symplectic", refuse)
    n = 2000
    target = tmp_path / "identity.map"
    target.write_text("".join(f"{kind}{q} -> {kind}{{{q}}}\n" for kind in "XZ" for q in range(n)))
    code, out = run(["search", swap_file, "--target", str(target), "--max-cuts", str(n)])
    assert (code, out) == (0, "found 0\n")


# A 3-wire search whose twelve results span several radial slots; the
# target is the map of cuts (0,0) (0,2) (1,3) (2,0), clockwise.
THREE_WIRE_CIRC = "circular\nwires 3\ncnot 0 1\ncnot 0 1\ncnot 2 1\ncnot 0 1\n"
THREE_WIRE_TARGET = (
    "X0 -> X{0,2}\nX1 -> X{1}\nX2 -> X{2}\nX3 -> X{2,3}\n"
    "Z0 -> Z{0}\nZ1 -> Z{1}\nZ2 -> Z{0,2,3}\nZ3 -> Z{3}\n"
)
THREE_WIRE_SEARCH_GOLDEN = "".join(
    f"cuts {gaps} direction {d}\n"
    for gaps in (
        "(0,0) (0,1) (1,0) (2,0)",
        "(0,0) (0,2) (1,3) (2,0)",
        "(0,1) (0,2) (1,1) (2,0)",
        "(0,1) (0,2) (1,2) (2,0)",
        "(0,1) (1,0) (1,2) (2,0)",
        "(0,2) (1,1) (1,3) (2,0)",
    )
    for d in ("cw", "ccw")
) + "found 12\n"


def test_search_three_wire_golden(tmp_path, no_inverse):
    circ = tmp_path / "three.circ"
    circ.write_text(THREE_WIRE_CIRC)
    target = tmp_path / "three.map"
    target.write_text(THREE_WIRE_TARGET)
    code, out = run(["search", str(circ), "--target", str(target), "--max-cuts", "5"])
    assert (code, out) == (0, THREE_WIRE_SEARCH_GOLDEN)


def _cut_set_search_text(c, target, max_cuts: int) -> str:
    """``search`` stdout as printed from ``search_cuts``' cut sets: sorted gaps, CW line first, then ``found N``."""
    from circnot import search_cuts

    results = search_cuts(c, target, max_cuts)
    lines = [
        f"cuts {' '.join(f'({g.wire},{g.index})' for g in cuts.sorted_gaps())} direction {d.value}\n"
        for cuts, d in results
    ]
    return "".join(lines) + f"found {len(results)}\n"


def _random_pairs(rng: random.Random, wires: int, max_gates: int) -> list[tuple[int, int]]:
    """(control, target) of at most ``max_gates`` random CNOTs on ``wires`` wires, each wire touched."""
    pairs = [tuple(rng.sample(range(wires), 2)) for _ in range(rng.randint(wires, max_gates))]
    for w in range(wires):
        if all(w not in p for p in pairs):
            pairs.append((w, (w + 1) % wires))
    return pairs


def _circular_text(wires: int, pairs: list[tuple[int, int]]) -> str:
    return "circular\nwires %d\n" % wires + "".join("cnot %d %d\n" % p for p in pairs)


def _search_cases(seed: int) -> list[tuple[str, str, int]]:
    """Seeded ``search`` queries that walk, as ``(circuit text, map text, budget)``.

    Each circuit is searched for the map of one of its cut sets (its radial
    family at a random slot plus 0-2 gaps) read in a random direction, and
    for the map of another circuit's clockwise reading. Every third circuit
    has two wires joined by one gate alone, so that the slots on either
    side of it share a family. The budget is the target's qubit count, or
    the wire count when that is larger, or one more.
    """
    from circnot import Direction, linearize, oracle_map, spanning_gaps

    rng = random.Random(seed)
    cases = []
    other = None
    for k in range(60):
        wires = rng.randint(2, 4)
        pairs = _random_pairs(rng, wires, 7)
        if k % 3 == 0:  # two more wires with one gate between them
            pairs.insert(rng.randrange(len(pairs) + 1), (wires, wires + 1))
            wires += 2
        text = _circular_text(wires, pairs)
        c = parse_circuit(text)
        family = [(w, i) for w, i in enumerate(list(spanning_gaps(c))[rng.randrange(len(c.gates))])]
        rest = [(w, i) for w in range(wires) for i in range(c.symbol_count(w)) if (w, i) not in family]
        cuts = CutSet.of(family + rng.sample(rest, min(len(rest), rng.randint(0, 2))))
        targets = [oracle_map(linearize(c, cuts, rng.choice(list(Direction))))]
        if other is not None:
            targets.append(other)
        other = oracle_map(linearize(c, cuts, Direction.CW))
        for target in targets:
            cases.append((text, target.report(), max(target.n_qubits, wires) + rng.randint(0, 1)))
    return cases


def _identity_map_text(n: int) -> str:
    return "".join(f"{kind}{q} -> {kind}{{{q}}}\n" for kind in "XZ" for q in range(n))


def _search_refusals(seed: int) -> list[tuple[str, str, int]]:
    """Seeded ``search`` queries answered before any walk, as ``_search_cases`` gives them.

    Per random circuit: a budget below the wire count (``budget-too-small``),
    identity targets with fewer qubits than wires, with more qubits than
    the budget, and with more qubits than the circuit has gaps (``found
    0``), the smallest identity target whose candidate bound passes
    ``MAX_SEARCH_CANDIDATES`` (``search-too-large``), and a 2-qubit target
    whose Z is not the inverse transpose of its X (``found 0``). Then each
    of ``HOSTILE_MAPS`` against the SWAP.
    """
    from math import comb

    from circnot.model import MAX_SEARCH_CANDIDATES

    rng = random.Random(seed)
    not_symplectic = "X0 -> X{0}\nX1 -> X{1}\nZ0 -> Z{1}\nZ1 -> Z{0}\n"
    cases = []
    for _ in range(16):
        wires = rng.randint(2, 6)
        text = _circular_text(wires, _random_pairs(rng, wires, 24))
        c = parse_circuit(text)
        n_gaps = 2 * len(c.gates)
        cases += [
            (text, _identity_map_text(wires), wires - 1),
            (text, _identity_map_text(wires - 1), wires),
            (text, _identity_map_text(wires + 1), wires),
            (text, _identity_map_text(n_gaps + 1), n_gaps + 1),
            (text, not_symplectic, max(2, wires)),
        ]
        too_large = [
            need
            for need in range(wires, n_gaps + 1)
            if len(c.gates) * comb(n_gaps - wires, need - wires) > MAX_SEARCH_CANDIDATES
        ]
        if too_large:
            cases.append((text, _identity_map_text(too_large[0]), too_large[0] + rng.randint(0, 2)))
    cases += [(SWAP_CIRC, text, 2) for text, _ in HOSTILE_MAPS.values()]
    return cases


def _search_corpus(tmp_path: Path, cases: list[tuple[str, str, int]]) -> list[list[str]]:
    """Writes each case's circuit and map file under ``tmp_path``; per case, its ``search`` argv."""
    argvs = []
    for k, (circuit, target, max_cuts) in enumerate(cases):
        circ, path = tmp_path / f"q{k}.circ", tmp_path / f"q{k}.map"
        circ.write_text(circuit)
        path.write_text(target)
        argvs.append(["search", str(circ), "--target", str(path), "--max-cuts", str(max_cuts)])
    return argvs


@pytest.mark.parametrize("seed", [1, 2])
def test_search_stdout_matches_cut_set_formatting(tmp_path, seed):
    # ``search`` prints hits without building cut sets; its bytes must equal
    # the printing of ``search_cuts``' cut sets
    from circnot import StabiliserMap
    from circnot.model import _slot_families

    cases = _search_cases(seed)
    circuits = [parse_circuit(text) for text, _, _ in cases]
    outputs = [
        _cut_set_search_text(c, StabiliserMap.from_report(target), max_cuts)
        for c, (_, target, max_cuts) in zip(circuits, cases)
    ]
    for argv, expected in zip(_search_corpus(tmp_path, cases), outputs):
        assert run(argv) == (0, expected), argv
    # the corpus holds empty results, counter-clockwise-only hits and
    # circuits whose slots share a family
    assert "found 0\n" in outputs
    assert any(" ccw\n" in out and " cw\n" not in out for out in outputs)
    assert any(len(set(_slot_families(c))) < len(c.gates) for c, out in zip(circuits, outputs) if out != "found 0\n")


def test_search_command_builds_no_gap_or_cut_set(tmp_path, monkeypatch):
    # the command prints hits as (wire, gap) pairs, so neither a ``Gap``
    # nor a ``CutSet`` is constructed on its path
    argvs = _search_corpus(tmp_path, _search_cases(3))
    expected = [run(argv) for argv in argvs]
    assert sum(out != "found 0\n" for _, out in expected) > 20

    def refuse(*args, **kwargs):
        raise AssertionError("a Gap or a CutSet was built")

    monkeypatch.setattr(Gap, "__init__", refuse)
    monkeypatch.setattr(CutSet, "__init__", refuse)
    got = [run(argv) for argv in argvs]
    monkeypatch.undo()
    assert got == expected


def _search_transcript(tmp_path: Path) -> str:
    """Per query of seed 4's ``_search_cases`` and seed 5's ``_search_refusals``: its budget, exit code, stdout and stderr."""
    cases = _search_cases(4) + _search_refusals(5)
    parts = []
    for k, argv in enumerate(_search_corpus(tmp_path, cases)):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(argv)
        stderr = "".join(f"stderr: {line}\n" for line in err.getvalue().splitlines())
        parts.append(f"== query {k} --max-cuts {argv[-1]}: exit {code}\n{out}{stderr}")
    return "".join(parts)


# ``search`` exit codes, stdout and stderr on a seeded corpus, captured
# before the command printed hits without building cut sets; the last four
# queries, map rows that used to be read as sets of outputs, were appended
# when the map grammar refused them
SEARCH_CORPUS_GOLDEN = KV_GOLDEN / "search-corpus.out"


def test_search_corpus_golden(tmp_path):
    golden = SEARCH_CORPUS_GOLDEN.read_text()
    assert _search_transcript(tmp_path) == golden
    # the corpus holds hits, empty results, counter-clockwise-only hits,
    # both refusals of the budget and every kind of map file error
    queries = golden.split("== query ")[1:]
    assert any("direction cw\n" in q for q in queries)
    assert any("direction ccw\n" in q and "direction cw\n" not in q for q in queries)
    assert any(q.endswith("found 0\n") for q in queries)
    for code in ("budget-too-small", "search-too-large", "wire-out-of-range", "count-mismatch", "syntax-error"):
        assert f"stderr: error {code}:" in golden


def _cut_command_cases(seed: int) -> list[tuple[str, int, list[str]]]:
    """Seeded circular circuits with cut files, as ``(circuit text, gate count, cut file texts)``.

    Circuits have 2-5 wires and at most 14 gates. Per circuit, the cut
    files are: the wrap slot's family (every wire's last gap) plus 0-2
    other gaps; another slot's family plus 0-2 gaps, the wrap family left
    incomplete; 1 to wires + 1 random gaps, mostly without a radial slot;
    and one of those with a gap the circuit does not have. Families are
    read off the gate list alone (``spanning_gap_index``).
    """
    rng = random.Random(seed)
    cases = []
    for _ in range(10):
        wires = rng.randint(2, 5)
        pairs = _random_pairs(rng, wires, 14)[:14]
        counts = [sum(1 for p in pairs if w in p) for w in range(wires)]
        if 0 in counts:
            continue
        gaps = [(w, i) for w in range(wires) for i in range(counts[w])]
        wrap = [(w, counts[w] - 1) for w in range(wires)]

        def with_extras(family, avoid=()):
            rest = [g for g in gaps if g not in family and g not in avoid]
            return family + rng.sample(rest, min(len(rest), rng.randint(0, 2)))

        slot = rng.randrange(len(pairs))
        family = [(w, spanning_gap_index(pairs, w, slot)) for w in range(wires)]
        shy = [g for g in wrap if g not in family][:1]  # keeps the wrap family uncut
        random_cuts = rng.sample(gaps, rng.randint(1, min(len(gaps), wires + 1)))
        w = rng.randrange(wires + 1)
        unknown = (w, counts[w] if w < wires else 0)
        sets = [with_extras(wrap), with_extras(family, shy), random_cuts, random_cuts + [unknown]]
        cut_texts = ["".join(f"cut {w} {i}\n" for w, i in rng.sample(s, len(s))) for s in sets]
        cases.append((_circular_text(wires, pairs), len(pairs), cut_texts))
    return cases


def _cut_commands_transcript(tmp_path: Path) -> str:
    """Per command reading cuts, on seed 6's ``_cut_command_cases``: its argv, exit code, stdout and stderr.

    Per circuit, ``cuts``; per cut file, ``cuts --validate`` and in each
    direction ``linearize`` (text and kv), ``derive`` and ``fault`` on
    every gate; and on the second and fourth cut files, ``model --kind
    x|z --cuts --parity`` and ``export --cuts``, whose output is long.
    Paths are written relative to ``tmp_path``.
    """
    parts = []
    for k, (circuit, n_gates, cut_texts) in enumerate(_cut_command_cases(6)):
        circ = tmp_path / f"c{k}.circ"
        circ.write_text(circuit)
        parts.append(f"== circuit {k}\n{circuit}")
        argvs = [["cuts", str(circ)]]
        for j, text in enumerate(cut_texts):
            cut = tmp_path / f"c{k}-{j}.cuts"
            cut.write_text(text)
            parts.append(f"== cut file {cut.name}\n{text}")
            c, f = str(circ), str(cut)
            argvs.append(["cuts", c, "--validate", f])
            if j % 2:  # the other-slot family and the unknown gap
                argvs += [["model", c, "--kind", kind, "--cuts", f, "--parity"] for kind in "xz"]
                argvs.append(["export", c, "--cuts", f])
            for d in ("cw", "ccw"):
                argvs.append(["linearize", c, "--cuts", f, "--dir", d])
                argvs.append(["linearize", c, "--cuts", f, "--dir", d, "--format", "kv"])
                argvs.append(["derive", c, "--cuts", f, "--dir", d])
                argvs += [["fault", c, "--cuts", f, "--smgf", str(g), "--dir", d] for g in range(n_gates)]
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run(argv)
            stderr = "".join(f"stderr: {line}\n" for line in err.getvalue().splitlines())
            parts.append(f"== {' '.join(argv)}: exit {code}\n{out}{stderr}")
    return "".join(parts).replace(f"{tmp_path}/", "")


# exit codes, stdout and stderr of every command that reads a cut file, on
# a seeded corpus, captured before ``cut_table`` and its anchors were
# folded into ``validate_cut_set``
CUT_COMMANDS_GOLDEN = KV_GOLDEN / "cut-commands.out"


def test_cut_commands_golden(tmp_path):
    golden = CUT_COMMANDS_GOLDEN.read_text()
    assert _cut_commands_transcript(tmp_path) == golden
    # the corpus holds valid sets, both refusals of a cut set, and faults
    assert "valid (" in golden and "stderr: error no-radial-cut:" in golden
    assert "stderr: error unknown-gap:" in golden and "ancilla wire" in golden


# ``derive`` stdout, captured before the model solve and the elimination
# fallback were deleted: one file per case under tests/golden, by (circuit,
# cut set, direction); each SWAP cut set both ways, and the 3-wire search
# circuit over the cuts of its target
THREE_WIRE_CUTS = "cut 0 0\ncut 0 2\ncut 1 3\ncut 2 0\n"
DERIVE_CASES = {
    **{
        f"derive-{name}-{d}": (SWAP_CIRC, name, d)
        for name in ("swap", "single-cnot", "teleported-cnot", "sdt")
        for d in ("cw", "ccw")
    },
    **{f"derive-three-wire-{d}": (THREE_WIRE_CIRC, None, d) for d in ("cw", "ccw")},
}


@pytest.mark.parametrize("case", sorted(DERIVE_CASES))
def test_derive_golden(tmp_path, swap_cut_sets, capsys, case):
    circuit, cut_name, direction = DERIVE_CASES[case]
    path, cut_path = tmp_path / "in.circ", tmp_path / "in.cuts"
    path.write_text(circuit)
    cut_path.write_text(THREE_WIRE_CUTS if cut_name is None else format_cut_set(swap_cut_sets[cut_name]))
    code, out = run(["derive", str(path), "--cuts", str(cut_path), "--dir", direction])
    assert (code, out.encode()) == (0, (KV_GOLDEN / f"{case}.out").read_bytes())
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "cut_text,uncut",
    [("cut 0 0\ncut 1 1\n", "[]"), ("cut 0 0\ncut 0 1\ncut 0 2\n", "[1]")],
)
def test_validate_no_radial_golden(tmp_path, swap_file, capsys, cut_text, uncut):
    bad = tmp_path / "bad.cuts"
    bad.write_text(cut_text)
    code, out = run(["cuts", swap_file, "--validate", str(bad)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error no-radial-cut: no slot is cut across all wires"
        f" (wires never cut at any slot: {uncut})\n"
    )


def test_import_leaves_numpy_unloaded():
    import circnot

    src = str(Path(circnot.__file__).resolve().parent.parent)
    probe = "import sys, circnot, circnot.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert result.stdout == "False\n"
