"""sepdisc: bounds on bipartite state discrimination.

A dense cone/SDP solver for global- and PPT-measurement discrimination
values, separable-measurement dual certificates with a see-saw falsifier,
and unextendable-product-set criteria.
"""

__version__ = "0.1.0"

from .certificates import (
    ConeSearchReport,
    block_positivity_search,
    breuer_hall_witness,
    certify,
    four_bell_resource_certificate,
    three_bell_resource_certificate,
    two_qubit_positive_map,
    ydy_certificate,
)
from .conesolve import (
    ConvergenceError,
    DualCertificate,
    IllPosedProblemError,
    LPFeasibilityResult,
    SDPProblem,
    SDPSolution,
    solve_lp_feasibility,
    solve_sdp,
)
from .discrimination import (
    DiscriminationResult,
    Measurement,
    four_bell_value,
    optimal_global,
    optimal_ppt,
    three_bell_value,
)
from .linalg import BipartiteSpace, kron, partial_trace, partial_transpose, vec
from .states import Ensemble, ProductVector, UPSet, bell, catalog, extend_ensemble, tau
from .ups import (
    ReplacementSet,
    is_unextendable,
    replacement_projections,
    separable_perfect_discrimination,
    ups_plus_state_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
