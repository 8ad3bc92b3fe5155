"""Line-oriented circuit formats and the key/value tree output.

Circuit files: a header line ``linear`` or ``circular``, then ``wires N``,
then one ``cnot <control> <target>`` per line in temporal (or cyclic)
order; ``#`` starts a comment. Cut files hold ``cut <wire> <gap>`` lines
plus at most one ``direction cw|ccw``. ICM files extend circuit files with
``init <q> zero|plus|y|a|in:<name>`` and
``measure <q> x|y|z|a|cfg:<b1>/<b2>|none`` lines; fault specs are
``smgf <gateId>``. Program files hold one ``qubits N`` line and one
Clifford+T gate per line.

The kv tree is an output format only (``--format kv``): ``key value``
pairs and ``key {`` ... ``}`` blocks, where a list repeats its key. Nothing
reads it back. See the README for the schemas of the objects written here.
"""

from __future__ import annotations

from .circuits import (
    CircularCircuit,
    CNOTGate,
    CutSet,
    Direction,
    Gap,
    JoinRecord,
    LinearCircuit,
    LinearGate,
)
from .errors import CircuitSyntaxError, clean_lines, quote, quote_int
from .icm import FaultSpec, ICMCircuit, QubitConfig, init_error, meas_error

# Largest wire (or qubit) count a circuit source may declare. Circuits keep
# per-wire tables, so the count is checked before anything is built for it.
MAX_WIRES = 1 << 16


def _ascii_int(token: str) -> int:
    """The int of ASCII digits after at most a ``-``, else ``ValueError``; int() also reads ``+``, ``_`` and other scripts' digits."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(token)
    return int(token)


def parse_circuit(text: str) -> LinearCircuit | CircularCircuit:
    """Parse the circuit file format; the gate list is the listing order."""
    header = None
    wires = None
    pairs: list[tuple[int, int]] = []
    for ln, line in clean_lines(text):
        tokens = line.split()
        if header is None:
            if tokens[0] not in ("linear", "circular") or len(tokens) != 1:
                raise CircuitSyntaxError(f"expected header 'linear' or 'circular', got {quote(line)}", ln)
            header = tokens[0]
            continue
        if tokens[0] == "wires":
            if wires is not None or len(tokens) != 2 or not (tokens[1].isascii() and tokens[1].isdecimal()):
                raise CircuitSyntaxError(f"bad wires line {quote(line)}", ln)
            digits = tokens[1].lstrip("0") or "0"
            # the length test first: int() refuses the longest digit strings
            if len(digits) > len(str(MAX_WIRES)) or int(digits) > MAX_WIRES:
                raise CircuitSyntaxError(f"more than {MAX_WIRES} wires", ln)
            wires = int(digits)
            continue
        if tokens[0] == "cnot":
            if wires is None:
                raise CircuitSyntaxError("'wires N' must precede gates", ln)
            if len(tokens) != 3:
                raise CircuitSyntaxError(f"bad cnot line {quote(line)}", ln)
            try:
                pairs.append((_ascii_int(tokens[1]), _ascii_int(tokens[2])))
            except ValueError:
                raise CircuitSyntaxError(f"bad cnot line {quote(line)}", ln) from None
            continue
        raise CircuitSyntaxError(f"unknown directive {quote(tokens[0])}", ln)
    if header is None:
        raise CircuitSyntaxError("empty circuit source", 1)
    if wires is None:
        raise CircuitSyntaxError("missing 'wires N' line", 1)
    if header == "linear":
        return LinearCircuit(n_qubits=wires, gates=tuple(LinearGate(control=c, target=t) for c, t in pairs))
    return CircularCircuit(
        wires=wires,
        gates=tuple(CNOTGate(c, t) for c, t in pairs),
    )


def format_circuit(c: LinearCircuit | CircularCircuit) -> str:
    if isinstance(c, CircularCircuit):
        lines = ["circular", f"wires {c.wires}"]
        lines += [f"cnot {g.control} {g.target}" for g in c.gates]
    else:
        lines = ["linear", f"wires {c.n_qubits}"]
        lines += [f"cnot {g.control} {g.target}" for g in c.gates]
    return "\n".join(lines) + "\n"


def parse_cut_file(text: str) -> tuple[CutSet, Direction | None]:
    gaps: list[Gap] = []
    direction = None
    for ln, line in clean_lines(text):
        tokens = line.split()
        if tokens[0] == "cut" and len(tokens) == 3:
            try:
                gaps.append(Gap(_ascii_int(tokens[1]), _ascii_int(tokens[2])))
            except ValueError:
                raise CircuitSyntaxError(f"bad cut line {quote(line)}", ln) from None
        elif tokens[0] == "direction" and len(tokens) == 2:
            if direction is not None:
                raise CircuitSyntaxError("repeated direction line", ln)
            try:
                direction = Direction.parse(tokens[1])
            except ValueError:
                raise CircuitSyntaxError(f"bad direction {quote(tokens[1])}", ln) from None
        else:
            raise CircuitSyntaxError(f"bad cut-file line {quote(line)}", ln)
    return CutSet.of(gaps), direction


def format_cut_set(cuts: CutSet, direction: Direction | None = None) -> str:
    lines = [f"cut {g.wire} {g.index}" for g in cuts.sorted_gaps()]
    if direction is not None:
        lines.append(f"direction {direction.value}")
    return "\n".join(lines) + "\n"


def parse_index(token: str, what: str, ln: int) -> int:
    """An ASCII-decimal qubit or gate index, else ``CircuitSyntaxError``."""
    if token.isascii() and token.isdecimal():
        try:
            return int(token)
        except ValueError:  # more digits than int() reads
            pass
    raise CircuitSyntaxError(f"bad {what} {quote(token)}", ln)


def parse_icm_file(text: str) -> tuple[ICMCircuit, list[FaultSpec]]:
    """Parse a circuit file extended with init/measure/smgf lines.

    Qubits default to symbolic input ``q<i>`` with no measurement. An
    init/measure qubit must be below the circuit's qubit count and name
    each qubit at most once per keyword.
    """
    circuit_lines = text.splitlines()  # ICM lines blanked, line numbers kept
    init_map: dict[int, str] = {}
    meas_map: dict[int, str] = {}
    qubit_lines: list[tuple[int, int]] = []  # (qubit, line) per init/measure
    faults: list[FaultSpec] = []
    for ln, line in clean_lines(text):
        tokens = line.split()
        if tokens[0] in ("init", "measure") and len(tokens) == 3:
            q = parse_index(tokens[1], "qubit", ln)
            qubit_lines.append((q, ln))
            seen, refusal = (init_map, init_error) if tokens[0] == "init" else (meas_map, meas_error)
            why = refusal(tokens[2])
            if why:
                raise CircuitSyntaxError(why, ln)
            if q in seen:
                raise CircuitSyntaxError(f"repeated {tokens[0]} line for qubit {quote_int(q)}", ln)
            seen[q] = tokens[2]
        elif tokens[0] == "smgf" and len(tokens) == 2:
            faults.append(FaultSpec(gate=parse_index(tokens[1], "gate", ln)))
        else:
            continue  # a circuit line, read by parse_circuit
        circuit_lines[ln - 1] = ""
    circuit = parse_circuit("\n".join(circuit_lines))
    if isinstance(circuit, CircularCircuit):
        raise CircuitSyntaxError("ICM files describe linear circuits", 1)
    for q, ln in qubit_lines:
        if q >= circuit.n_qubits:
            raise CircuitSyntaxError(f"qubit {quote_int(q)} out of range for {circuit.n_qubits} qubits", ln)
    configs = tuple(QubitConfig(init_map.get(q, f"in:q{q}"), meas_map.get(q, "none")) for q in range(circuit.n_qubits))
    return ICMCircuit(circuit=circuit, configs=configs), faults


# program gates by their number of qubit operands
_OPERANDS = {"cnot": 2, "t": 1, "tdg": 1, "p": 1, "pdg": 1, "v": 1, "h": 1}


def parse_program(text: str) -> tuple[list[tuple], int]:
    """Parse a program file: one ``qubits N`` line and gate lines, as ``(name, *qubits)`` tuples and N."""
    qubits = None
    gates: list[tuple] = []
    operand_lines: list[tuple[int, int]] = []  # (qubit, line) per gate operand
    for ln, line in clean_lines(text):
        tokens = line.split()
        if tokens[0] == "qubits" and len(tokens) == 2:
            count = parse_index(tokens[1], "qubit count", ln)
            if count > MAX_WIRES:
                raise CircuitSyntaxError(f"more than {MAX_WIRES} qubits", ln)
            if qubits is not None:
                raise CircuitSyntaxError("repeated qubits line", ln)
            qubits = count
        elif len(tokens) - 1 == _OPERANDS.get(tokens[0]):
            operands = [parse_index(tok, "qubit", ln) for tok in tokens[1:]]
            operand_lines += [(q, ln) for q in operands]
            gates.append((tokens[0], *operands))
        else:
            raise CircuitSyntaxError(f"bad program line {quote(line)}", ln)
    if qubits is None:
        raise CircuitSyntaxError("missing 'qubits N' line", 1)
    for q, ln in operand_lines:
        if q >= qubits:
            raise CircuitSyntaxError(f"qubit {quote_int(q)} out of range for {qubits} qubits", ln)
    return gates, qubits


def format_icm(icm: ICMCircuit, faults=()) -> str:
    lines = [format_circuit(icm.circuit).rstrip("\n")]
    lines += [f"init {q} {cfg.init}" for q, cfg in enumerate(icm.configs)]
    lines += [f"measure {q} {cfg.meas}" for q, cfg in enumerate(icm.configs) if cfg.meas != "none"]
    for f in faults:
        lines.append(f"smgf {f.gate}")
    return "\n".join(lines) + "\n"


# --- key/value tree -------------------------------------------------------


def kv_dumps(tree: dict) -> str:
    """Serialize a nested dict of scalars/lists/dicts as an indented tree."""
    out: list[str] = []

    def emit(key: str, value, depth: int):
        pad = "  " * depth
        if isinstance(value, dict):
            out.append(f"{pad}{key} {{")
            for k, v in value.items():
                emit(k, v, depth + 1)
            out.append(f"{pad}}}")
        elif isinstance(value, (list, tuple)):
            for item in value:
                emit(key, item, depth)
        else:
            out.append(f"{pad}{key} {value}")

    for k, v in tree.items():
        emit(k, v, 0)
    return "\n".join(out) + "\n"


def circuit_to_kv(c: LinearCircuit | CircularCircuit) -> dict:
    if isinstance(c, CircularCircuit):
        return {
            "circuit": {
                "kind": "circular",
                "wires": c.wires,
                "gate": [
                    {"id": i, "control": g.control, "target": g.target, "position": i}
                    for i, g in enumerate(c.gates)
                ],
            }
        }
    return {
        "circuit": {
            "kind": "linear",
            "qubits": c.n_qubits,
            "gate": [
                {"control": g.control, "target": g.target, "time": t}
                for t, g in enumerate(c.gates)
            ],
        }
    }


def join_record_to_kv(record: JoinRecord) -> dict:
    return {
        "joins": {
            "join": [{"consumer": c, "producer": p} for c, p in record.joins],
            "loop": [{"consumer": c, "producer": p} for c, p in record.loops],
            "wire": [
                {"qubit": q, "wire": w} for q, w in enumerate(record.wire_of)
            ],
            "seam": [
                {"wire": g.wire, "gap": g.index} for g in record.seam.sorted_gaps()
            ],
        }
    }
