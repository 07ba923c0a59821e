"""Multi-qubit entangled channels for two-way controlled teleportation.

Build channels from grid selections, count the admissible selections, verify
the controller's role, replay the published channel zoo, and recover specs
from raw amplitudes.
"""

from .bases import (
    BellKind,
    ControllerBasis,
    EntangledBasis,
    GhzLabel,
    bell,
    bell_basis,
    controller_basis,
    ghz,
    ghz_basis,
    product_axis_basis,
    validate_orthonormal,
)
from .catalog import CatalogEntry, catalog_entries, recognize, reconstruct
from .census import (
    census_report,
    enumerate_selections,
    formula_count,
    multiplicity_factor,
    oracle_count,
)
from .channel import (
    ChannelSpec,
    QubitLayout,
    RuleViolation,
    SelectionRuleError,
    bcst_spec,
    build_bcst_channel,
    qd_spec,
    validate_selection,
)
from .protocol import (
    BcstTranscript,
    ControlReport,
    PauliOp,
    Smo,
    bell_measure,
    charlie_disclose,
    correction,
    pauli_closure_check,
    qd_round,
    run_bcst,
    verify_control,
)
from .qstate import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    fidelity_up_to_phase,
    ket,
    measure_in_basis,
    partial_trace,
    purity,
    tensor,
    trace_distance,
)

__version__ = "0.1.0"
