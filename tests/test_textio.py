import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circnot import (
    CircularCircuit,
    CutSet,
    Direction,
    Gap,
    StabiliserMap,
    circularize,
    gadget,
    linearize,
)
from circnot import textio
from circnot.errors import CircnotError, CircuitSyntaxError, InvalidAncillaConfig, WireOutOfRange, quote_int
from circnot.icm import InitBasis, Role
from circnot.textio import (
    MAX_WIRES,
    circuit_to_kv,
    format_circuit,
    format_cut_set,
    format_icm,
    join_record_to_kv,
    kv_dumps,
    parse_circuit,
    parse_cut_file,
    parse_icm_file,
    parse_program,
)
from helpers import mklin


class TestCircuitFormat:
    def test_round_trip_linear(self):
        text = "linear\nwires 3\ncnot 0 1\ncnot 1 2\n"
        assert format_circuit(parse_circuit(text)) == text

    def test_round_trip_circular(self, swap):
        assert parse_circuit(format_circuit(swap)) == swap

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\nlinear\n\nwires 2  # two qubits\ncnot 0 1\n"
        lin = parse_circuit(text)
        assert lin.n_qubits == 2 and len(lin.gates) == 1

    def test_syntax_error_reports_line(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit("linear\nwires 2\nnope 1 2\n")
        assert err.value.line == 3

    def test_missing_header(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("wires 2\ncnot 0 1\n")

    def test_gates_before_wires(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("linear\ncnot 0 1\nwires 2\n")


@pytest.fixture
def no_circuit_built(monkeypatch):
    """Fail any test that gets as far as building a circuit."""

    def refuse(*args, **kwargs):
        raise AssertionError("a circuit was built")

    monkeypatch.setattr(textio, "CircularCircuit", refuse)
    monkeypatch.setattr(textio, "LinearCircuit", refuse)


class TestWireLimit:
    @pytest.mark.parametrize(
        "count", [MAX_WIRES + 1, 1_000_000_000, "9" * 5000, "0" * 5000 + str(MAX_WIRES + 1)]
    )
    @pytest.mark.parametrize("header", ["circular", "linear"])
    def test_parse_rejects_before_building(self, no_circuit_built, header, count):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(f"{header}\n# many wires\nwires {count}\ncnot 0 1\n")
        assert err.value.line == 3
        assert err.value.code == "syntax-error"

    def test_limit_itself_accepted(self):
        text = f"linear\nwires {MAX_WIRES}\ncnot 0 1\n"
        assert parse_circuit(text).n_qubits == MAX_WIRES
        assert parse_circuit("linear\nwires 0002\ncnot 0 1\n").n_qubits == 2

    def test_non_ascii_digits_rejected(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit("linear\nwires \u00b2\n")
        assert err.value.line == 2


class TestIntegerTokens:
    """Circuit and cut integers are ASCII digits with at most a leading ``-``."""

    @pytest.mark.parametrize("token", ["1_0", "+1", "-", "--1", "1-", "0x1", "\u0661", "\uff11"])
    def test_other_tokens_refused(self, token):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(f"circular\nwires 2\ncnot 0 {token}\n")
        assert str(err.value) == f"line 3: bad cnot line 'cnot 0 {token}'"
        with pytest.raises(CircuitSyntaxError) as err:
            parse_cut_file(f"cut 0 0\ncut {token} 0\n")
        assert str(err.value) == f"line 2: bad cut line 'cut {token} 0'"

    def test_minus_and_leading_zeros_read(self):
        # a negative number reads, for the range checks to refuse by name
        assert parse_cut_file("cut -1 007\n")[0] == CutSet.of([(-1, 7)])
        c = parse_circuit("linear\nwires 3\ncnot 02 -0\n")
        assert c.gate_pairs() == ((2, 0),)


class TestCutFormat:
    def test_round_trip(self):
        cuts = CutSet.of([(0, 2), (1, 2)])
        text = format_cut_set(cuts, Direction.CW)
        parsed, direction = parse_cut_file(text)
        assert parsed == cuts and direction == Direction.CW

    def test_direction_optional(self):
        parsed, direction = parse_cut_file("cut 0 1\n")
        assert direction is None and len(parsed) == 1

    def test_bad_line(self):
        with pytest.raises(CircuitSyntaxError):
            parse_cut_file("cut 0\n")

    def test_repeated_direction_rejected_on_its_line(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_cut_file("direction cw\ncut 0 1\n# ccw\ndirection cw\n")
        assert str(err.value) == "line 4: repeated direction line"

    @pytest.mark.parametrize("word", ["CW", "Ccw", "cW", "CCW"])
    def test_direction_spelled_exactly(self, word):
        # the grammar is ``direction cw|ccw``, as ``--dir`` reads it
        with pytest.raises(CircuitSyntaxError) as err:
            parse_cut_file(f"cut 0 1\ndirection {word}\n")
        assert str(err.value) == f"line 2: bad direction '{word}'"
        for text in (word, f" {word.lower()}", f"{word.lower()}\n"):
            with pytest.raises(ValueError):
                Direction.parse(text)
        assert Direction.parse(word.lower()) is Direction(word.lower())


class TestProgramFormat:
    def test_gates_and_qubit_count(self):
        text = "# a program\nqubits 3\n\ncnot 0 2  # entangle\nt 1\ntdg 02\n"
        assert parse_program(text) == ([("cnot", 0, 2), ("t", 1), ("tdg", 2)], 3)

    def test_qubits_may_follow_gates(self):
        assert parse_program("h 1\nqubits 2\n") == ([("h", 1)], 2)

    def test_repeated_qubits_rejected_on_its_line(self):
        # the second count is not read, so it cannot widen the first
        with pytest.raises(CircuitSyntaxError) as err:
            parse_program("qubits 2\nqubits 3\ncnot 0 2\n")
        assert str(err.value) == "line 2: repeated qubits line"


class TestIcmFormat:
    def test_gadget_round_trip(self):
        for name in ("t", "v", "bell", "remotecnot", "sdt"):
            icm = gadget(name)
            parsed, faults = parse_icm_file(format_icm(icm))
            assert parsed == icm
            assert faults == []

    def test_fault_lines(self):
        icm = gadget("t")
        text = format_icm(icm) + "smgf 0\n"
        _, faults = parse_icm_file(text)
        assert [f.gate for f in faults] == [0]

    def test_defaults_are_symbolic_inputs(self):
        icm, _ = parse_icm_file("linear\nwires 2\ncnot 0 1\n")
        assert all(cfg.init.is_symbolic for cfg in icm.configs)
        assert all(cfg.meas.kind == "none" for cfg in icm.configs)

    def test_rejects_circular(self):
        with pytest.raises(CircuitSyntaxError):
            parse_icm_file("circular\nwires 2\ncnot 0 1\ncnot 1 0\n")

    @pytest.mark.parametrize("name", ["", "a#b", "#", "a b", "a\tb", " a", "a\u2028b", "a\x1cb"])
    def test_input_names_that_cannot_round_trip_refused(self, name):
        # a file reads a name up to whitespace or a comment
        with pytest.raises(InvalidAncillaConfig):
            InitBasis.symbolic(name)

    @given(st.text(max_size=6))
    def test_accepted_input_names_round_trip(self, name):
        try:
            init = InitBasis.symbolic(name)
        except InvalidAncillaConfig:
            assert not name or "#" in name or any(ch.isspace() for ch in name)
            return
        icm = gadget("t")
        q = next(q for q, cfg in enumerate(icm.configs) if cfg.init.is_symbolic)
        configs = list(icm.configs)
        configs[q] = replace(configs[q], init=init)
        icm = replace(icm, configs=tuple(configs))
        assert parse_icm_file(format_icm(icm))[0].configs == icm.configs


# ICM file lines: well-formed and malformed directives, and pieces of them
# that a line may be assembled from, besides arbitrary text
_ICM_LINES = [
    "linear", "circular", "wires 2", "wires 3", "wires 0", "cnot 0 1", "cnot 1 2", "cnot 0 0",
    "cnot 0 9", "init 0 zero", "init 1 plus", "init 2 y", "init 0 a", "init 1 in:b", "init 0 in:",
    "init 0 bogus", "measure 0 x", "measure 1 none", "measure 2 cfg:x/z", "measure 0 cfg:x",
    "measure 0 cfg:x/q", "measure 1 cfg:/", "smgf 0", "smgf 7", "smgf -1", "# note",
]
_ICM_TOKENS = [
    "linear", "wires", "cnot", "init", "measure", "smgf", "zero", "plus", "a", "y", "x", "z",
    "none", "in:", "in:q", "cfg:x/z", "cfg:", "0", "1", "2", "-1", "+1", "\u0663", "9" * 30, "#",
]
_icm_line = (
    st.sampled_from(_ICM_LINES)
    | st.lists(st.sampled_from(_ICM_TOKENS), min_size=1, max_size=4).map(" ".join)
    | st.text(max_size=10)
)


@given(st.booleans(), st.lists(_icm_line, max_size=10))
def test_icm_junk_raises_only_domain_errors(header, lines):
    # junk parses, or raises an error with a stable code, never another
    # exception; a valid header lets the junk reach the per-qubit checks
    if header:
        lines = ["linear", "wires 3", *lines]
    try:
        parse_icm_file("\n".join(lines))
    except CircnotError:
        pass


class TestIcmTokens:
    """Every init/measure/smgf token ends in ``CircuitSyntaxError`` on its line."""

    @pytest.mark.parametrize(
        "line,message",
        [
            ("init x zero", "bad qubit 'x'"),
            ("smgf q", "bad gate 'q'"),
            ("init 7 zero", "qubit 7 out of range for 2 qubits"),
            ("measure 9 x", "qubit 9 out of range for 2 qubits"),
            ("init -1 zero", "bad qubit '-1'"),
            ("measure +1 x", "bad qubit '+1'"),
            ("init \u0667 zero", "bad qubit '\u0667'"),
            ("smgf " + "9" * 5000, "bad gate '999"),
        ],
    )
    def test_rejected_on_its_line(self, line, message):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_icm_file(f"linear\nwires 2\ncnot 0 1\n# note\n{line}\n")
        assert err.value.line == 5
        assert str(err.value).startswith(f"line 5: {message}")

    def test_circuit_line_keeps_file_line(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_icm_file("linear\nwires 2\ninit 0 zero\nsmgf 0\ncnot 0 x\n")
        assert str(err.value) == "line 5: bad cnot line 'cnot 0 x'"

    def test_last_qubit_accepted(self):
        icm, _ = parse_icm_file("linear\nwires 2\ncnot 0 1\ninit 1 zero\nmeasure 01 x\n")
        assert [cfg.role for cfg in icm.configs] == [Role.INPUT, Role.ANCILLA]

    @pytest.mark.parametrize(
        "first,second", [("init 0 zero", "init 0 plus"), ("measure 1 x", "measure 01 z")]
    )
    def test_repeated_line_rejected_on_its_line(self, first, second):
        keyword, q = second.split()[0], int(second.split()[1])
        with pytest.raises(CircuitSyntaxError) as err:
            parse_icm_file(f"linear\nwires 2\ncnot 0 1\n{first}\ninit 1 zero\n{second}\n")
        assert err.value.line == 6
        assert str(err.value) == f"line 6: repeated {keyword} line for qubit {q}"

    def test_long_token_quoted_as_prefix_and_length(self):
        token = "z" * 5000
        with pytest.raises(CircuitSyntaxError) as err:
            parse_icm_file(f"linear\nwires 2\ncnot 0 1\nmeasure 0 {token}\n")
        assert str(err.value) == f"line 4: unknown measurement basis {'z' * 64!r}... (5000 chars)"

    def test_long_qubit_number_shown_as_prefix_and_digits(self):
        q = "9" * 4000
        with pytest.raises(CircuitSyntaxError) as err:
            parse_icm_file(f"linear\nwires 2\ncnot 0 1\ninit {q} zero\n")
        assert str(err.value) == f"line 4: qubit {'9' * 64}... (4000 digits) out of range for 2 qubits"

    def test_quote_int_cap(self):
        # 64 digits are shown whole, a sign not counted; 65 are cut
        assert quote_int(10**63) == str(10**63)
        assert quote_int(-(10**63)) == str(-(10**63))
        assert quote_int(10**64) == "1" + "0" * 63 + "... (65 digits)"


    def test_quote_int_matches_str_below_its_limit(self):
        # the capped form is computed without ``str`` on the whole number
        def by_str(n):
            text = str(n)
            digits = len(text) - (n < 0)
            return text if digits <= 64 else f"{text[:64]}... ({digits} digits)"

        rng = random.Random(5)
        for k in range(1, 200):
            for n in (10**k, 10**k - 1, rng.randrange(10**k)):
                assert quote_int(n) == by_str(n)
                assert quote_int(-n) == by_str(-n)
        big = rng.randrange(10**4000, 10**4200)
        assert quote_int(big) == by_str(big)

    def test_quote_int_past_str_limit(self):
        assert quote_int(10**5000) == "1" + "0" * 63 + "... (5001 digits)"
        assert quote_int(-(10**5000) + 1) == "-" + "9" * 63 + "... (5000 digits)"

class TestMapReport:
    def test_last_output_accepted(self):
        text = "X0 -> X{0,1}\nX1 -> X{1}\nZ0 -> Z{0}\nZ1 -> Z{0,1}"
        assert StabiliserMap.from_report(text).report() == text

    @pytest.mark.parametrize("row", ["X0 -> X{0,2}", "Z1 -> Z{1,2}"])
    def test_output_out_of_range_rejected(self, row):
        rows = {"X0": "X0 -> X{0}", "X1": "X1 -> X{1}", "Z0": "Z0 -> Z{0}", "Z1": "Z1 -> Z{1}"}
        rows[row[:2]] = row
        with pytest.raises(WireOutOfRange) as err:
            StabiliserMap.from_report("\n".join(rows.values()))
        assert str(err.value) == f"map row {row[:2]} names an output outside 2 qubits"

    @pytest.mark.parametrize("row,name", [("X0 -> X{0}", "X0"), ("Z01 -> Z{}", "Z1")])
    def test_repeated_row_rejected_on_its_line(self, row, name):
        text = f"X0 -> X{{1}}\nX1 -> X{{0}}\nZ0 -> Z{{1}}\nZ1 -> Z{{0}}\n{row}\n"
        with pytest.raises(CircuitSyntaxError) as err:
            StabiliserMap.from_report(text)
        assert str(err.value) == f"line 5: repeated map row {name}"

    @pytest.mark.parametrize(
        "row,message",
        [
            ("X1 -> X{0,0}", "repeated output in map row X1"),
            ("X1 -> X{1,01}", "repeated output in map row X1"),
            ("X1 -> X{9999999999999,9999999999999}", "repeated output in map row X1"),
            ("X1 -> X{,1,}", "bad map line 'X1 -> X{,1,}'"),
            ("X1 -> X{1,}", "bad map line 'X1 -> X{1,}'"),
            ("X1 -> X{,}", "bad map line 'X1 -> X{,}'"),
            ("X1 -> X{0 1}", "bad map line 'X1 -> X{0 1}'"),
            ("X1 -> X{0,,1,1}", "bad map line 'X1 -> X{0,,1,1}'"),
            ("X1 -> X{1,\u0661}", "bad map line 'X1 -> X{1,\u0661}'"),
        ],
    )
    def test_malformed_outputs_refused_on_their_line(self, row, message):
        # an output is ASCII digits and outputs are comma-separated; over
        # GF(2) a repeated output would cancel, so it is refused, not read
        # as a set
        text = f"X0 -> X{{0}}\n{row}\nZ0 -> Z{{0}}\nZ1 -> Z{{1}}\n"
        with pytest.raises(CircuitSyntaxError) as err:
            StabiliserMap.from_report(text)
        assert str(err.value) == f"line 2: {message}"

    def test_spaced_and_empty_rows_accepted(self):
        m = StabiliserMap.from_report("X0 -> X{ 0 , 1 }\nX1 -> X{1}\nZ0 -> Z{ 0}\nZ1 -> Z{0 ,1 }")
        assert m.report() == "X0 -> X{0,1}\nX1 -> X{1}\nZ0 -> Z{0}\nZ1 -> Z{0,1}"
        assert StabiliserMap.from_report("X0 -> X{}\nZ0 -> Z{ }").report() == "X0 -> X{}\nZ0 -> Z{}"

    def test_number_too_long_for_int(self):
        with pytest.raises(CircuitSyntaxError) as err:
            StabiliserMap.from_report("X0 -> X{" + "1" * 5000 + "}\nZ0 -> Z{0}")
        assert err.value.line == 1
        assert str(err.value).endswith("... (5009 chars)")


@st.composite
def gate_pairs(draw):
    """2-8 wires and up to 30 (control, target) pairs touching every wire."""
    wires = draw(st.integers(2, 8))
    # a wire and another one, drawn without rejection
    pair = st.tuples(st.integers(0, wires - 1), st.integers(1, wires - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % wires)
    )
    pairs = draw(st.lists(pair, max_size=30 - wires))
    for w in range(wires):
        if not any(w in p for p in pairs):
            pairs.insert(draw(st.integers(0, len(pairs))), (w, (w + 1) % wires))
    return wires, pairs


circuits = gate_pairs().flatmap(
    lambda wp: st.sampled_from([mklin(*wp), circularize(mklin(*wp))[0]])
)
cut_sets = st.builds(
    CutSet.of,
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=12, unique=True),
)
directions = st.none() | st.sampled_from(Direction)


class TestRoundTripProperties:
    """Every writer's output reads back as what was written (fixed profile)."""

    @given(circuits)
    def test_circuit(self, c):
        assert parse_circuit(format_circuit(c)) == c

    @given(cut_sets, directions)
    def test_cut_set(self, cuts, direction):
        assert parse_cut_file(format_cut_set(cuts, direction)) == (cuts, direction)

    @given(gate_pairs())
    def test_circularize_join_record_and_seam(self, wires_pairs):
        lin = mklin(*wires_pairs)
        circ, record = circularize(lin)
        # the seam gives back the source gates, each qubit renamed to its wire
        redone = linearize(circ, record.seam, Direction.CW)
        assert redone.gate_pairs() == tuple(
            (record.wire_of[g.control], record.wire_of[g.target]) for g in lin.gates
        )


class TestKvTree:
    """The kv writers, checked as text goldens and tree properties (fixed profile)."""

    def test_scalar_and_nesting(self):
        tree = {"a": 1, "b": {"c": "text", "d": [1, 2], "e": {}}}
        assert kv_dumps(tree) == "a 1\nb {\n  c text\n  d 1\n  d 2\n  e {\n  }\n}\n"

    @given(circuits)
    def test_circuit_lists_every_gate_in_order(self, c):
        node = circuit_to_kv(c)["circuit"]
        if isinstance(c, CircularCircuit):
            assert (node["kind"], node["wires"]) == ("circular", c.wires)
            fields = [(g.id, g.control, g.target, i) for i, g in enumerate(c.gates)]
            keys = ("id", "control", "target", "position")
        else:
            assert (node["kind"], node["qubits"]) == ("linear", c.n_qubits)
            fields = [(g.control, g.target, t) for t, g in enumerate(c.gates)]
            keys = ("control", "target", "time")
        assert [tuple(gate) for gate in node["gate"]] == [keys] * len(c.gates)
        assert [tuple(gate.values()) for gate in node["gate"]] == fields
        # gates in list order, position (time) their index, one block per gate
        assert kv_dumps(circuit_to_kv(c)).count("\n  gate {\n") == len(c.gates)

    @given(gate_pairs())
    def test_join_record_lists_every_entry(self, wires_pairs):
        _, record = circularize(mklin(*wires_pairs))
        node = join_record_to_kv(record)["joins"]
        pairs = lambda key, a, b: [(item[a], item[b]) for item in node[key]]  # noqa: E731
        assert pairs("join", "consumer", "producer") == list(record.joins)
        assert pairs("loop", "consumer", "producer") == list(record.loops)
        assert pairs("wire", "qubit", "wire") == list(enumerate(record.wire_of))
        seam = pairs("seam", "wire", "gap")
        assert seam == sorted(seam) and {Gap(*g) for g in seam} == record.seam.gaps()
        text = kv_dumps(join_record_to_kv(record))
        for key in ("join", "loop", "wire", "seam"):
            assert text.count(f"\n  {key} {{\n") == len(node[key])
