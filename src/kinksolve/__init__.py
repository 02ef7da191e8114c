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
    random_cone_members,
)
from .grid import (
    GridSpec,
    Profile,
    make_grid,
    odd_defect,
    profile_from_csv,
    profile_from_json,
    profile_to_csv,
    profile_to_json,
    project_odd,
    sample,
    sup_distance,
    sup_norm,
)
from .kernels import (
    KernelFamily,
    KernelNorms,
    QuadratureAccuracyError,
    eval_k0,
    eval_k1,
    eval_kq,
    eval_kq_derivative,
    fourier_symbol,
    kernel_norms,
    tail_mass,
)
from .operators import (
    OperatorConfig,
    apply_pq,
    apply_t0,
    apply_t1,
    apply_tq,
    build_operator,
    psi,
    signed_cube_root,
    t0_psi_analytic,
)
from .qscan import ScanConfig, ScanReport, ScanSample, scan
from .solver import (
    DecayDiagnostic,
    SolveConfig,
    SolveReport,
    decay_diagnostic,
    initial_guess,
    iterate_once,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ConeReport", "ConstantsLedger", "LedgerInvariantError", "c5_bound",
    "check_cone", "check_preservation", "compute_constants", "random_cone_members",
    "GridSpec", "Profile", "make_grid", "odd_defect", "profile_from_csv",
    "profile_from_json", "profile_to_csv", "profile_to_json", "project_odd",
    "sample", "sup_distance", "sup_norm",
    "KernelFamily", "KernelNorms", "QuadratureAccuracyError", "eval_k0",
    "eval_k1", "eval_kq", "eval_kq_derivative", "fourier_symbol",
    "kernel_norms", "tail_mass",
    "OperatorConfig", "apply_pq", "apply_t0", "apply_t1", "apply_tq",
    "build_operator", "psi",
    "signed_cube_root", "t0_psi_analytic",
    "ScanConfig", "ScanReport", "ScanSample", "scan",
    "DecayDiagnostic", "SolveConfig", "SolveReport", "decay_diagnostic",
    "initial_guess", "iterate_once", "solve",
]
