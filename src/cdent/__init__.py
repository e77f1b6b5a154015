"""cdent: entanglement between a discrete level index and continuous
momentum wave functions.

Pure states sum_chi integral d^d p phi_chi(p) |p, chi> are represented by
parametric wave-function families with exact overlaps; the overlap matrix
h doubles as the reduced density matrix of the discrete factor, and its
spectrum carries every entanglement measure used here.
"""

from .density import (
    RANK_TOL,
    SchmidtData,
    Spectrum,
    schmidt_decomposition,
    spectrum,
    trace_function_check,
)
from .errors import (
    CDEntError,
    DegenerateStateError,
    DomainError,
    PreconditionError,
    StructureError,
    UnsupportedError,
)
from .galilean import (
    GalileanElement,
    InvarianceReport,
    PhysicalParams,
    SpinRotation,
    apply_galilean,
    compose,
    invariance_report,
    quaternion_from_axis_angle,
    quaternion_product,
    random_elements,
    rotation_matrix,
    su2_from_rotation,
)
from .measures import (
    ENTANGLED,
    MAXIMAL,
    SEPARABLE,
    EntanglementReport,
    entanglement_report,
    gaussian_pair_eigenvalues,
    purity,
    schmidt_rank,
    von_neumann_entropy,
)
from .overlaps import (
    OverlapMatrix,
    gaussian_term_overlap,
    overlap_matrix,
)
from .scenarios import SweepRow, beam_pair, shape_pair, sweep_q, sweep_width_ratio
from .states import (
    ComponentSum,
    GaussianSum,
    GaussianTerm,
    HermiteExpansion,
    HybridState,
    combine_components,
    evaluate,
    norm,
    normalize,
    spin_expectation,
)
from .stateio import (
    StateFileError,
    load_state,
    render_json,
    save_state,
    state_from_dict,
    state_to_dict,
)

__version__ = "0.1.0"
