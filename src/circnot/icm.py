"""ICM circuits: configuration, teleportation gadgets, Clifford+T
translation, stripping back to circular form, and missing-gate faults.

An ICM circuit is a CNOT-only linear circuit plus one initialisation and
one measurement per qubit, held as the tokens an ICM file spells them
with. Rotations live entirely in the choice of ancilla states (|Y>, |A>)
and measurement bases, so every construction here emits CNOTs only. A
fault names its missing gate by its index in the circular gate list. A
single missing gate leaves a CNOT circuit, so its fault map is one
clockwise X substitution with that gate's XOR left out, Z read as the
inverse transpose; read counter-clockwise, its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .circuits import (
    CircularCircuit,
    CutSet,
    Direction,
    Gap,
    JoinRecord,
    LinearCircuit,
    LinearGate,
    circularize,
    validate_cut_set,
)
from .errors import CountMismatch, InvalidAncillaConfig, UnknownGate, quote
from .model import _cut_ends, _x_columns
from .stabmap import StabiliserMap


# the initialisation and measurement tokens of an ICM file, besides
# ``in:<name>`` and ``cfg:<b1>/<b2>`` (two of ``BASES``)
STATES = ("zero", "plus", "y", "a")
BASES = ("x", "y", "z", "a")


def init_error(token: str) -> str | None:
    """Why ``token`` is no initialisation, or ``None``: one of ``STATES``, or ``in:`` and an input name.

    A file reads a name up to whitespace or a ``#`` comment, so a name
    holding either is refused.
    """
    if token.startswith("in:"):
        name = token[3:]
        if not name:
            return "empty input name"
        if "#" in name or any(ch.isspace() for ch in name):
            return f"input name {quote(name)} holds whitespace or '#'"
        return None
    return None if token in STATES else f"unknown init basis {quote(token)}"


def meas_error(token: str) -> str | None:
    """Why ``token`` is no measurement, or ``None``: one of ``BASES``, ``none``, or ``cfg:<b1>/<b2>``."""
    if token.startswith("cfg:"):
        options = token[4:].split("/")
        if len(options) == 2 and all(o in BASES for o in options):
            return None
        return f"bad configurable basis {quote(token)}"
    return None if token in BASES or token == "none" else f"unknown measurement basis {quote(token)}"


@dataclass(frozen=True)
class QubitConfig:
    """An ICM qubit's initialisation and measurement, as the file tokens that spell them.

    ``in:<name>`` makes the qubit an input and ``none`` leaves it carrying
    an output; a configurable ``cfg:<b1>/<b2>`` defaults to ``b1``.
    """

    init: str
    meas: str

    def __post_init__(self):
        why = init_error(self.init) or meas_error(self.meas)
        if why:
            raise InvalidAncillaConfig(why)


@dataclass(frozen=True)
class ICMCircuit:
    circuit: LinearCircuit
    configs: tuple[QubitConfig, ...]

    def __post_init__(self):
        if len(self.configs) != self.circuit.n_qubits:
            raise CountMismatch(
                f"{self.circuit.n_qubits} qubits but {len(self.configs)} configs"
            )


def _chain(pairs) -> tuple[LinearGate, ...]:
    return tuple(LinearGate(control=c, target=t) for c, t in pairs)


# The teleported operations, by name: qubit count, CNOT (control, target)
# pairs and (init, meas) per qubit. Teleport, T and P share one skeleton
# (state injection from the control) and differ only in the ancilla state;
# V teleports through the target; the remote CNOT and the selective
# destination teleporter are the two four-qubit instances cut from the
# circular three-CNOT loop. ``circnot icm --gadget`` lists them in this order.
GADGETS = {
    "teleport": (2, ((1, 0),), (("in:phi", "z"), ("plus", "none"))),
    "t": (2, ((1, 0),), (("in:phi", "z"), ("a", "none"))),
    "p": (2, ((1, 0),), (("in:phi", "z"), ("y", "none"))),
    "v": (2, ((1, 0),), (("y", "none"), ("in:phi", "x"))),
    "bell": (2, ((1, 0),), (("zero", "none"), ("plus", "none"))),
    "measurez": (2, ((1, 0),), (("zero", "z"), ("in:phi", "none"))),
    "remotecnot": (4, ((1, 0), (2, 1), (1, 3)), (("in:c", "z"), ("plus", "x"), ("in:t", "none"), ("zero", "none"))),
    "sdt": (
        4,
        ((3, 1), (0, 1), (2, 0)),
        (("in:phi", "cfg:z/x"), ("zero", "cfg:x/z"), ("plus", "none"), ("plus", "none")),
    ),
}


def gadget(kind: str) -> ICMCircuit:
    """The ICM circuit of the ``GADGETS`` row named ``kind``, in any case and spacing."""
    try:
        qubits, pairs, configs = GADGETS[kind.strip().lower()]
    except KeyError:
        raise UnknownGate(f"no gadget named {kind!r}") from None
    circuit = LinearCircuit(n_qubits=qubits, gates=_chain(pairs))
    return ICMCircuit(circuit=circuit, configs=tuple(QubitConfig(i, m) for i, m in configs))


SINGLE_QUBIT_GATES = ("t", "tdg", "p", "pdg", "v", "h")


def translate_to_icm(gates, n_qubits: int) -> ICMCircuit:
    """Rewrite a {CNOT,T,Tdg,P,Pdg,V,H} program into CNOT-only ICM form.

    Every rotation consumes its logical wire into a measurement and hands
    the line to a fresh gadget qubit: T/P measure the old carrier in Z and
    continue on an |A>/|Y> control; V measures it in X and continues on a
    |Y> target; Pdg expands to three P steps (P cubed); H expands to P,V,P.
    Adjoint T records a configurable measurement so the correction that
    post-selection would otherwise fix stays visible.
    """
    inits = [f"in:q{i}" for i in range(n_qubits)]
    meas = ["none"] * n_qubits
    emitted: list[tuple[int, int]] = []
    cur = list(range(n_qubits))

    def fresh(state: str) -> int:
        inits.append(state)
        meas.append("none")
        return len(inits) - 1

    def inject(q: int, state: str, old_meas: str) -> None:
        new = fresh(state)
        emitted.append((new, cur[q]))
        meas[cur[q]] = old_meas
        cur[q] = new

    def v_step(q: int) -> None:
        new = fresh("y")
        emitted.append((cur[q], new))
        meas[cur[q]] = "x"
        cur[q] = new

    for op in gates:
        name = op[0].lower()
        if name == "cnot":
            _, cq, tq = op
            emitted.append((cur[cq], cur[tq]))
        elif name == "t":
            inject(op[1], "a", "z")
        elif name == "tdg":
            inject(op[1], "a", "cfg:z/x")
        elif name == "p":
            inject(op[1], "y", "z")
        elif name == "pdg":
            for _ in range(3):
                inject(op[1], "y", "z")
        elif name == "v":
            v_step(op[1])
        elif name == "h":
            inject(op[1], "y", "z")
            v_step(op[1])
            inject(op[1], "y", "z")
        else:
            raise UnknownGate(f"cannot translate gate {op[0]!r}")

    circuit = LinearCircuit(n_qubits=len(inits), gates=_chain(emitted))
    return ICMCircuit(circuit=circuit, configs=tuple(map(QubitConfig, inits, meas)))


def toffoli_decomposition() -> tuple[list[tuple], int]:
    """Doubly-controlled NOT over {CNOT, T, Tdg, P, H}, qubit 2 the target."""
    return (
        [
            ("h", 2),
            ("cnot", 1, 2),
            ("tdg", 2),
            ("cnot", 0, 2),
            ("t", 2),
            ("cnot", 1, 2),
            ("tdg", 2),
            ("cnot", 0, 2),
            ("tdg", 1),
            ("t", 2),
            ("cnot", 0, 1),
            ("h", 2),
            ("tdg", 1),
            ("cnot", 0, 1),
            ("t", 0),
            ("p", 1),
        ],
        3,
    )


def strip_and_circularize(icm: ICMCircuit) -> tuple[CircularCircuit, JoinRecord]:
    """Drop initialisations and measurements, then close the wires."""
    return circularize(icm.circuit)


@dataclass(frozen=True)
class FaultSpec:
    """A single missing gate fault (smgf) on the gate with index ``gate``."""

    gate: int


@dataclass(frozen=True)
class FaultPatch:
    """Ancilla produced by fault cuts: the control span pinned to |0>.

    |0> is stabilised by Z and never by X, so the faulty gate's target is
    never toggled; every patch shares that one ``init``.
    """

    wire: int
    before_gap: Gap
    after_gap: Gap
    init: ClassVar[str] = "zero"


def inject_smgf(c: CircularCircuit, base: CutSet, f: FaultSpec) -> tuple[CutSet, FaultPatch]:
    """Cut out the faulty gate's control span as a stuck-at-|0> ancilla.

    Adds the two gaps around the control symbol unless already cut; with
    both already present the returned cut set equals the base.
    """
    gi = c.gate_index(f.gate)
    w = c.gates[gi].control
    si = c.gap_spanning(w, gi).index  # the gap after the gate's control symbol
    k = c.symbol_count(w)
    before = Gap(w, (si - 1) % k)
    after = Gap(w, si)
    patch = FaultPatch(wire=w, before_gap=before, after_gap=after)
    return CutSet(base.gaps() | {before, after}), patch


@dataclass(frozen=True)
class FaultedDerivation:
    """Stabiliser map of a faulted instance, over the base linearization.

    Map rows of absorbed inputs are empty and output sets never mention
    absorbed outputs; ``live_inputs``/``live_outputs`` name the qubits the
    map still speaks for.
    """

    cuts: CutSet
    patch: FaultPatch
    map: StabiliserMap
    live_inputs: frozenset[int]
    live_outputs: frozenset[int]


def faulted_transformations(
    c: CircularCircuit,
    base: CutSet,
    d: Direction,
    f: FaultSpec,
) -> FaultedDerivation:
    """Derive the stabiliser map of the circuit with one gate missing.

    A missing gate is a CNOT circuit with one gate fewer, so this is a
    clockwise derivation over the base cuts (``model._x_columns``, as
    ``derive_transformations`` reads it) whose substitution along the
    traversal skips the faulty gate's XOR but still meets the gaps next to
    its symbols: one X walk, and Z read as the inverse transpose. The |0>
    ancilla on the gate's control span then absorbs the base qubit the
    traversal enters at the before gap and the one it leaves at the after
    gap, when those gaps are base cuts. Both are read off the per-gap table
    of entered and left qubits (``model._cut_ends``) that the walk reads
    too, so it is built once per fault. An absorbed input's X reaches no
    live output and its Z row is empty; an absorbed output's X column is
    empty and no Z reaches it. Counter-clockwise the gate list is reversed,
    so the map is the clockwise one's ``inverse()`` (exact on a restricted
    map) and the absorbed input and output trade places.
    """
    table = validate_cut_set(c, base)
    cuts, patch = inject_smgf(c, base, f)
    cut_ends = _cut_ends(c, table)
    cols = _x_columns(c, table, cut_ends, missing=f.gate)
    at = cut_ends[0][patch.wire]
    entered, left = at[patch.before_gap.index], at[patch.after_gap.index]
    absorbed_in = None if entered is None else entered[1]
    absorbed_out = None if left is None else left[0]
    every, full = frozenset(range(len(cols))), (1 << len(cols)) - 1
    in_mask = full if absorbed_in is None else full ^ 1 << absorbed_in
    out_mask = full if absorbed_out is None else full ^ 1 << absorbed_out
    m = StabiliserMap.from_x(cols).restricted(in_mask, out_mask)
    live_in, live_out = every - {absorbed_in}, every - {absorbed_out}
    if d is Direction.CCW:
        m, live_in, live_out = m.inverse(), live_out, live_in
    return FaultedDerivation(cuts=cuts, patch=patch, map=m, live_inputs=live_in, live_outputs=live_out)
