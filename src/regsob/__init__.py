"""Regional fractional Sobolev energies on the half-space.

Kernel reduction to (r, z) pair tables, seminorm and critical-norm
quadrature, decreasing rearrangement, a projected gradient solver for the
half-space extremizer, a curvature-coefficient estimator, and a verifier
for the small-curvature boundary expansion.
"""

__version__ = "0.1.0"

from .energy import (
    critical_p,
    lp_norm,
    rayleigh_quotient,
    seminorm,
    weighted_seminorm,
)
from .expansion import (
    BoundaryGraph,
    ExpansionVerdict,
    MCConfig,
    bounds_check,
    correction_terms,
    curvature_term,
    cw_cutoff_check,
    dilate_graph,
    verify_upper_bound,
)
from .field import (
    HalfSpaceGrid,
    RadialField,
    TailModel,
    attach_tail_model,
    dilate_exact,
    eval_u,
    eval_vt,
    load_field,
    make_grid,
    resample,
    save_field,
    synthesize_profile,
)
from .gamma0 import (
    Gamma0Report,
    estimate_gamma0,
    interior_weighted_growth,
    tail_bound,
)
from .kernel import (
    KernelParams,
    KernelTable,
    build_kernel_table,
    kernel_values,
    load_table,
    save_table,
)
from .minimize import (
    EnvelopeReport,
    MinimizerResult,
    SolverConfig,
    envelope_check,
    scale_field,
    solve_halfspace,
)
from .rearrange import (
    SliceProfile,
    rearrange_profile,
    rearrange_sharp,
    slice_interaction,
    slice_lp_norm,
)
