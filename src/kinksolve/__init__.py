"""Numerical kink solutions of a Gaussian-convolution cubic integral equation.

The equation convolves a bounded profile against a near-Gaussian kernel
family and equates the result with the profile's cube; odd solutions
interpolating between -1 and +1 are found as fixed points of the cube-root
map, and every constant entering the invariant-cone argument is computed
and re-verified numerically.
"""

from .cone import (
    ConeReport,
    ConstantsLedger,
    LedgerInvariantError,
    c5_bound,
    check_cone,
    check_preservation,
    compute_constants,
    is_cone_member,
    random_cone_members,
)
from .grid import (
    GridSpec,
    Profile,
    make_grid,
    profile_from_csv,
    profile_from_json,
    profile_to_csv,
    profile_to_json,
    sample,
    sup_distance,
    sup_norm,
)
from .kernels import (
    KernelFamily,
    fourier_symbol,
)
from .operators import (
    OperatorConfig,
    apply_pq,
    apply_tq,
    build_operator,
    psi,
    t0_psi_analytic,
)
from .qscan import ScanConfig, ScanReport, ScanSample, scan
from .solver import (
    SolveConfig,
    SolveReport,
    decay_ratio,
    initial_guess,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ConeReport", "ConstantsLedger", "LedgerInvariantError", "c5_bound",
    "check_cone", "check_preservation", "compute_constants", "is_cone_member",
    "random_cone_members",
    "GridSpec", "Profile", "make_grid", "profile_from_csv", "profile_from_json",
    "profile_to_csv", "profile_to_json", "sample", "sup_distance", "sup_norm",
    "KernelFamily", "fourier_symbol",
    "OperatorConfig", "apply_pq", "apply_tq", "build_operator", "psi",
    "t0_psi_analytic",
    "ScanConfig", "ScanReport", "ScanSample", "scan",
    "SolveConfig", "SolveReport", "decay_ratio",
    "initial_guess", "solve",
]
