"""DOT graph export for circuit diagrams.

Wires become node chains (cycles for circular circuits), gates become
control-to-target edges, and cuts become marked nodes spliced into the
wire. Output is deterministic for identical inputs.
"""

from __future__ import annotations

from .circuits import CircularCircuit, CutSet, Gap, LinearCircuit, gaps_by_wire
from .errors import WrongCircuitKind

def export_dot(c: CircularCircuit | LinearCircuit, cuts: CutSet | None = None) -> str:
    """The circuit's DOT graph, with the cuts drawn on a circular circuit.

    Raises ``WrongCircuitKind`` for cuts on a linear circuit, and
    ``UnknownGap`` naming the least gap the circuit does not have.
    """
    if isinstance(c, CircularCircuit):
        return _circular_dot(c, cuts)
    if cuts is not None:
        raise WrongCircuitKind("cuts need a circular circuit")
    return _linear_dot(c)


def _circular_dot(c: CircularCircuit, cuts: CutSet | None) -> str:
    cut_gaps = frozenset()
    if cuts is not None:
        gaps_by_wire([c.symbol_count(w) for w in range(c.wires)], cuts)
        cut_gaps = cuts.gaps()
    lines = ["digraph circuit {", "  rankdir=LR;"]
    sym_nodes: dict[tuple[int, int], str] = {}
    for w in range(c.wires):
        for si, gi in enumerate(c.symbols(w)):
            name = f"w{w}s{si}"
            sym_nodes[(w, gi)] = name
            g = c.gates[gi]
            label = "*" if g.control == w else "+"
            lines.append(f'  {name} [label="{label}g{gi}@{gi}" shape=circle];')
    for w in range(c.wires):
        k = c.symbol_count(w)
        for si in range(k):
            nxt = (si + 1) % k
            src = f"w{w}s{si}"
            dst = f"w{w}s{nxt}"
            gap_name = f"cut_w{w}g{si}"
            if Gap(w, si) in cut_gaps:
                lines.append(f'  {gap_name} [label="cut" shape=box];')
                lines.append(f"  {src} -> {gap_name} [style=bold];")
                lines.append(f"  {gap_name} -> {dst} [style=bold];")
            else:
                lines.append(f"  {src} -> {dst} [style=bold];")
    for gi, g in enumerate(c.gates):
        lines.append(
            f"  {sym_nodes[(g.control, gi)]} -> {sym_nodes[(g.target, gi)]}"
            f' [style=dashed label="g{gi}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _linear_dot(c: LinearCircuit) -> str:
    lines = ["digraph circuit {", "  rankdir=LR;"]
    chains: list[list[str]] = []
    for q in range(c.n_qubits):
        lines.append(f'  q{q}_in [label="q{q} in" shape=plaintext];')
        chains.append([f"q{q}_in"])
    node_of: dict[tuple[int, int], str] = {}
    for t, g in enumerate(c.gates):
        for q, label in ((g.control, "*"), (g.target, "+")):
            name = f"q{q}t{t}"
            node_of[(q, t)] = name
            lines.append(f'  {name} [label="{label}t{t}" shape=circle];')
            chains[q].append(name)
    for q in range(c.n_qubits):
        lines.append(f'  q{q}_out [label="q{q} out" shape=plaintext];')
        chains[q].append(f"q{q}_out")
        for src, dst in zip(chains[q], chains[q][1:]):
            lines.append(f"  {src} -> {dst} [style=bold];")
    for t, g in enumerate(c.gates):
        lines.append(
            f"  {node_of[(g.control, t)]} -> {node_of[(g.target, t)]}"
            f' [style=dashed label="t{t}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
