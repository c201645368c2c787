"""SDP bounds on distillable entanglement of bipartite quantum states."""

from .errors import (
    CapacityError,
    ConsistencyError,
    DomainError,
    EntboundError,
    InvalidDimsError,
    InvalidStateError,
    NumericError,
    SolverError,
)
from .linalg import (
    BipartiteDims,
    BipartiteState,
    HermitianMatrix,
    make_state,
    partial_transpose,
    negative_projector,
)
from .measures import (
    MeasureResult,
    det_distill_one_copy,
    e_w,
    fidelity_ppt,
    log_negativity,
    multi_copy,
    npt_witness_bound,
    w0,
    w_dual,
)
from .sdp import (
    EqConstraint,
    LinTerm,
    PsdConstraint,
    SdpProblem,
    SdpSolution,
    SolverConfig,
    TraceTerm,
    check_certificate,
    solve,
)
from .states import (
    LocalKrausChannel,
    StateEnsemble,
    antisym_state,
    apply_local_channel,
    kron_power_state,
    max_entangled,
    random_local_channel,
    random_pure_state,
    random_separable,
    random_state,
    rho_alpha,
    sigma_r,
    tensor_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
