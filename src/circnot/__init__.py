"""Circular CNOT circuits: parity models, cuts, ICM construction, the Pauli oracle."""

from types import ModuleType as _ModuleType

from .circuits import (
    CircularCircuit,
    CNOTGate,
    CutPoint,
    CutSet,
    Direction,
    Gap,
    JoinRecord,
    LinearCircuit,
    LinearGate,
    circularize,
    enumerate_cut_points,
    linearize,
    spanning_gaps,
    validate_cut_set,
)
from .icm import (
    FaultPatch,
    FaultSpec,
    ICMCircuit,
    QubitConfig,
    faulted_transformations,
    gadget,
    inject_smgf,
    strip_and_circularize,
    toffoli_decomposition,
    translate_to_icm,
)
from .model import (
    BooleanModel,
    ModelKind,
    apply_cuts,
    build_model,
    check_commutation_invariance,
    derive_transformations,
    parity_rows,
    search_cuts,
)
from .dot import export_dot
from .pauli import oracle_map
from .stabmap import StabiliserMap
from .textio import (
    format_circuit,
    format_cut_set,
    format_icm,
    parse_circuit,
    parse_cut_file,
    parse_icm_file,
)

# the submodules the imports above bind are not part of the star import
__all__ = [
    name for name, value in sorted(globals().items()) if not (name.startswith("_") or isinstance(value, _ModuleType))
]
