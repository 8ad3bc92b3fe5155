"""ICM circuits: configuration, teleportation gadgets, Clifford+T
translation, stripping back to circular form, and missing-gate faults.

An ICM circuit is a CNOT-only linear circuit plus one initialisation and
one measurement choice per qubit. Rotations live entirely in the choice of
ancilla states (|Y>, |A>) and measurement bases, so every construction here
emits CNOTs only. A fault names its missing gate by its index in the
circular gate list. A single missing gate leaves a CNOT circuit, so its
fault map is one clockwise X substitution with that gate's XOR left out,
Z read as the inverse transpose; read counter-clockwise, its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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
from .errors import CountMismatch, InvalidAncillaConfig, UnknownGate
from .model import _cut_ends, _x_columns
from .stabmap import StabiliserMap


class BasisState(Enum):
    ZERO = "zero"
    PLUS = "plus"
    Y = "y"
    A = "a"


@dataclass(frozen=True)
class InitBasis:
    """Concrete preparation state, or a named symbolic input."""

    state: BasisState | None
    input_name: str | None = None

    def __post_init__(self):
        if self.state is not None and not isinstance(self.state, BasisState):
            raise InvalidAncillaConfig(f"state {self.state!r} is not a BasisState")
        name = self.input_name  # an ICM file reads it up to whitespace or a comment
        if self.state is None and (not name or "#" in name or any(ch.isspace() for ch in name)):
            raise InvalidAncillaConfig(f"input name {name!r} is empty or holds whitespace or '#'")
        if self.state is not None and name is not None:
            raise InvalidAncillaConfig(f"a concrete state takes no input name, got {name!r}")

    @classmethod
    def zero(cls):
        return cls(BasisState.ZERO)

    @classmethod
    def plus(cls):
        return cls(BasisState.PLUS)

    @classmethod
    def y(cls):
        return cls(BasisState.Y)

    @classmethod
    def a(cls):
        return cls(BasisState.A)

    @classmethod
    def symbolic(cls, name: str):
        return cls(None, name)

    @property
    def is_symbolic(self) -> bool:
        return self.state is None

    @property
    def text(self) -> str:
        return f"in:{self.input_name}" if self.is_symbolic else self.state.value


@dataclass(frozen=True)
class MeasBasis:
    kind: str  # "x" | "y" | "z" | "a" | "cfg" | "none"
    options: tuple[str, str] | None = None

    def __post_init__(self):
        if self.kind not in ("x", "y", "z", "a", "cfg", "none"):
            raise ValueError(f"unknown measurement basis {self.kind!r}")
        if (self.kind == "cfg") != (self.options is not None):
            raise ValueError("cfg basis requires exactly two options")
        if self.options is not None and (
            len(self.options) != 2 or any(o not in ("x", "y", "z", "a") for o in self.options)
        ):
            raise ValueError(f"bad configurable options {self.options!r}")

    @classmethod
    def x(cls):
        return cls("x")

    @classmethod
    def y(cls):
        return cls("y")

    @classmethod
    def z(cls):
        return cls("z")

    @classmethod
    def a(cls):
        return cls("a")

    @classmethod
    def none(cls):
        return cls("none")

    @classmethod
    def cfg(cls, first: str, second: str):
        return cls("cfg", (first, second))

    @property
    def text(self) -> str:
        return f"cfg:{self.options[0]}/{self.options[1]}" if self.kind == "cfg" else self.kind


@dataclass(frozen=True)
class QubitConfig:
    init: InitBasis
    meas: MeasBasis


def _input(name: str, meas: MeasBasis) -> QubitConfig:
    return QubitConfig(InitBasis.symbolic(name), meas)


def _carrier(state: InitBasis) -> QubitConfig:
    return QubitConfig(state, MeasBasis.none())


@dataclass(frozen=True)
class ICMCircuit:
    circuit: LinearCircuit
    configs: tuple[QubitConfig, ...]

    def __post_init__(self):
        if len(self.configs) != self.circuit.n_qubits:
            raise CountMismatch(
                f"{self.circuit.n_qubits} qubits but {len(self.configs)} configs"
            )

    def measured_qubits(self) -> tuple[int, ...]:
        return tuple(q for q, cfg in enumerate(self.configs) if cfg.meas.kind != "none")


def _chain(pairs) -> tuple[LinearGate, ...]:
    return tuple(LinearGate(control=c, target=t) for c, t in pairs)


def gadget(kind: str) -> ICMCircuit:
    """Fixed ICM templates for the teleported operations.

    Teleport/T/P share one skeleton (state injection from the control) and
    differ only in the ancilla state; V teleports through the target; the
    remote CNOT and the selective destination teleporter are the two
    four-qubit instances cut from the circular three-CNOT loop.
    """
    k = kind.strip().lower()
    if k in ("teleport", "t", "p"):
        state = {"teleport": InitBasis.plus(), "t": InitBasis.a(), "p": InitBasis.y()}[k]
        return ICMCircuit(
            circuit=LinearCircuit(n_qubits=2, gates=_chain([(1, 0)])),
            configs=(_input("phi", MeasBasis.z()), _carrier(state)),
        )
    if k == "v":
        return ICMCircuit(
            circuit=LinearCircuit(n_qubits=2, gates=_chain([(1, 0)])),
            configs=(_carrier(InitBasis.y()), _input("phi", MeasBasis.x())),
        )
    if k == "bell":
        return ICMCircuit(
            circuit=LinearCircuit(n_qubits=2, gates=_chain([(1, 0)])),
            configs=(_carrier(InitBasis.zero()), _carrier(InitBasis.plus())),
        )
    if k == "measurez":
        return ICMCircuit(
            circuit=LinearCircuit(n_qubits=2, gates=_chain([(1, 0)])),
            configs=(
                QubitConfig(InitBasis.zero(), MeasBasis.z()),
                _input("phi", MeasBasis.none()),
            ),
        )
    if k == "remotecnot":
        return ICMCircuit(
            circuit=LinearCircuit(n_qubits=4, gates=_chain([(1, 0), (2, 1), (1, 3)])),
            configs=(
                _input("c", MeasBasis.z()),
                QubitConfig(InitBasis.plus(), MeasBasis.x()),
                _input("t", MeasBasis.none()),
                _carrier(InitBasis.zero()),
            ),
        )
    if k == "sdt":
        return ICMCircuit(
            circuit=LinearCircuit(n_qubits=4, gates=_chain([(3, 1), (0, 1), (2, 0)])),
            configs=(
                _input("phi", MeasBasis.cfg("z", "x")),
                QubitConfig(InitBasis.zero(), MeasBasis.cfg("x", "z")),
                _carrier(InitBasis.plus()),
                _carrier(InitBasis.plus()),
            ),
        )
    raise UnknownGate(f"no gadget named {kind!r}")


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
    inits: list[InitBasis] = [InitBasis.symbolic(f"q{i}") for i in range(n_qubits)]
    meas: list[MeasBasis] = [MeasBasis.none() for _ in range(n_qubits)]
    emitted: list[tuple[int, int]] = []
    cur = list(range(n_qubits))

    def fresh(state: InitBasis) -> int:
        inits.append(state)
        meas.append(MeasBasis.none())
        return len(inits) - 1

    def inject(q: int, state: InitBasis, old_meas: MeasBasis) -> None:
        new = fresh(state)
        emitted.append((new, cur[q]))
        meas[cur[q]] = old_meas
        cur[q] = new

    def v_step(q: int) -> None:
        new = fresh(InitBasis.y())
        emitted.append((cur[q], new))
        meas[cur[q]] = MeasBasis.x()
        cur[q] = new

    for op in gates:
        name = op[0].lower()
        if name == "cnot":
            _, cq, tq = op
            emitted.append((cur[cq], cur[tq]))
        elif name == "t":
            inject(op[1], InitBasis.a(), MeasBasis.z())
        elif name == "tdg":
            inject(op[1], InitBasis.a(), MeasBasis.cfg("z", "x"))
        elif name == "p":
            inject(op[1], InitBasis.y(), MeasBasis.z())
        elif name == "pdg":
            for _ in range(3):
                inject(op[1], InitBasis.y(), MeasBasis.z())
        elif name == "v":
            v_step(op[1])
        elif name == "h":
            inject(op[1], InitBasis.y(), MeasBasis.z())
            v_step(op[1])
            inject(op[1], InitBasis.y(), MeasBasis.z())
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
    init: ClassVar[InitBasis] = InitBasis.zero()


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
