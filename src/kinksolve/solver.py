"""Damped fixed-point iteration for the cube-root map, with diagnostics.

Fixed points of the map solve the integral equation.  The invariant-cone
argument lives entirely in odd functions, so the iteration does too: the
start is projected onto odd profiles once, and from then on the iterate is
the array u of its values on the positive nodes plus its right tail tau,
pushed through the half-line operator built once per solve.  Oddness is
exact by construction, and a Profile is built only at entry and exit.

Convergence is declared on the map residual sup |image - iterate|, never on
the damped step size, so damping cannot mask stagnation.  Non-convergence
is a reportable outcome, not an exception: the parameter scan relies on
failed runs to locate the critical deformation.  A non-finite iterate is an
exception, raised at the step that produced it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .cone import ConstantsLedger, check_cone
from .grid import (
    GridSpec,
    Profile,
    odd_half,
    odd_profile,
    profile_from_csv,
    profile_from_json,
    profile_to_json_dict,
    project_odd,
)
from .kernels import KernelFamily
from .operators import OperatorConfig, build_operator

#: Half-width of the linear ramp used by the piecewise-sign initial guess.
#: One grid cell is far too steep for the cone's modulus constant (a ramp of
#: half-width w has worst pair ratio 2^(2/3) w^(-1/3), and the constant is
#: barely above 2^(2/3)), so the step is smoothed over an O(1) width instead.
SIGN_RAMP_HALF_WIDTH = 1.2

#: Deltas below this are treated as exactly saturated by the decay fit.
_DECAY_FLOOR = 1e-15

#: Spacing of the decay fit's cutoffs, which are 2, 4, ... up to L/2.
_DECAY_STEP = 2.0


@dataclass
class SolveConfig:
    """Iteration parameters; damping is the mixing weight in (0, 1]."""

    q: float = 0.0
    damping: float = 1.0
    tol: float = 1e-12
    max_iter: int = 10000

    def __post_init__(self) -> None:
        if not self.q >= 0.0:
            raise ValueError("q must be >= 0")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class SolveReport:
    """Iteration trace and the state of the final iterate.

    stop_reason is "converged" or "budget" (max_iter spent); events lists
    what fired during the run, each as a dict with its iteration number,
    e.g. {"iteration": 12, "event": "damping_fallback", "omega": 0.5}.
    """

    converged: bool
    iterations: int
    final_residual: float
    residual_trace: list[float]
    cone_member_final: bool
    decay_estimate: float | None
    solution: Profile
    boundary_defect: float
    stop_reason: str
    events: list[dict]

    def to_json_dict(self, solution_csv: str | None = None) -> dict:
        """The fields, with the solution inline or named by solution_csv."""
        d = {k: v for k, v in vars(self).items() if k != "solution"}
        if solution_csv is None:
            d["solution"] = profile_to_json_dict(self.solution)
        else:
            d["solution_csv"] = solution_csv
        return d


def initial_guess(kind: str, grid: GridSpec, ledger: ConstantsLedger,
                  path: str | None = None) -> Profile:
    """Construct a starting profile; warns when it misses the cone.

    erf       -- samples of erf(x), tails -1/+1
    sign      -- +-1 with the step smoothed by a linear ramp at the origin
    from_file -- profile loaded from a CSV or JSON file
    """
    if kind == "from_file":
        if path is None:
            raise ValueError("from_file initial guess needs a path")
        # CSV carries nodes only; in the kink-iteration context the tails
        # are the boundary values -1/+1 (JSON files carry theirs explicitly)
        p = (profile_from_json(path) if str(path).endswith(".json")
             else profile_from_csv(path, tail_right=1.0, tail_left=-1.0))
        _check_grid(p, grid)
    elif kind == "erf":
        p = odd_profile(grid, erf(grid.x_half), 1.0)
    elif kind == "sign":
        p = odd_profile(grid, np.minimum(grid.x_half / SIGN_RAMP_HALF_WIDTH, 1.0), 1.0)
    else:
        raise ValueError(f"unknown initial guess {kind!r}")

    report = check_cone(p, ledger)
    if not report.member:
        warnings.warn(f"initial guess {kind!r} is not a cone member: {report}",
                      stacklevel=2)
    return p


def _check_grid(p: Profile, grid: GridSpec) -> None:
    if p.grid != grid:
        raise ValueError(
            f"profile grid (L={p.grid.half_width}, h={p.grid.spacing}) does not "
            f"match the requested grid (L={grid.half_width}, h={grid.spacing})")


def _step(op, u: np.ndarray, tau: float) -> tuple[np.ndarray, float, float]:
    """Image of the odd iterate (u, tau) under the cube-root map, and the
    residual sup |image - iterate|; raises on a non-finite result."""
    image = np.cbrt(op(u, tau))
    image_tau = float(np.cbrt(tau))
    residual = max(float(np.max(np.abs(image - u))), abs(image_tau - tau))
    if not math.isfinite(residual):
        raise ValueError("profile values must be finite")
    return image, image_tau, residual


def _mix(a, b, omega: float):
    return (1.0 - omega) * a + omega * b


def iterate_once(p: Profile, cfg_solve: SolveConfig) -> Profile:
    """One damped step on the odd projection of p: mix it with its image
    under the map at q = cfg_solve.q."""
    u, tau = odd_half(project_odd(p))
    op = build_operator(p.grid, KernelFamily(cfg_solve.q).weights)
    image, image_tau, _ = _step(op, u, tau)
    omega = cfg_solve.damping
    return odd_profile(p.grid, _mix(u, image, omega), _mix(tau, image_tau, omega))


def solve(cfg_solve: SolveConfig, grid: GridSpec, ledger: ConstantsLedger,
          cfg_op: OperatorConfig = OperatorConfig(),
          initial: Profile | None = None) -> SolveReport:
    """Iterate the map until the residual meets tol or max_iter is spent.

    The start (`initial`, or the erf guess when it is None) is projected
    onto odd profiles once; ValueError is raised when it lives on
    another grid than `grid` or when its tails are not opposite.  The
    default undamped iteration falls back to half damping when the residual
    has grown five steps in a row, and records that as an event.  The decay
    estimate needs a kink (converged, tail above 1/2) and L above 8.
    """
    if initial is None:
        initial = initial_guess("erf", grid, ledger)
    _check_grid(initial, grid)
    u, tau = odd_half(project_odd(initial))
    op = build_operator(grid, KernelFamily(cfg_solve.q).weights, cfg_op)

    omega = cfg_solve.damping
    trace: list[float] = []
    events: list[dict] = []
    residual = math.inf
    converged = False
    growth_streak = 0
    for _ in range(cfg_solve.max_iter):
        image, image_tau, residual = _step(op, u, tau)
        trace.append(residual)
        if residual <= cfg_solve.tol:
            converged = True
            break
        if len(trace) > 1 and residual > trace[-2]:
            growth_streak += 1
            if growth_streak >= 5 and omega > 0.5:
                omega = 0.5
                growth_streak = 0
                events.append({"iteration": len(trace), "event": "damping_fallback",
                               "omega": omega})
        else:
            growth_streak = 0
        u, tau = _mix(u, image, omega), _mix(tau, image_tau, omega)

    p = odd_profile(grid, u, tau)
    return SolveReport(
        converged=converged,
        iterations=len(trace),
        final_residual=residual,
        residual_trace=trace,
        cone_member_final=check_cone(p, ledger).member,
        decay_estimate=decay_ratio(p) if converged and tau > 0.5 else None,
        solution=p,
        boundary_defect=abs(u[-1] - tau),
        stop_reason="converged" if converged else "budget",
        events=events,
    )


def decay_ratio(p: Profile) -> float | None:
    """Geometric mean ratio of successive sup_{x > l} |tau - p(x)| over the
    cutoffs l = 2, 4, ..., L/2 of the odd profile p with right tail tau,
    which a solve may leave within tol of 1 (ValueError unless p is odd to
    the bit): below 1 for a kink, 0.0 when p is saturated at +-tau beyond
    x = 2, and None when L <= 8, where 2 is not below L/4."""
    g = p.grid
    if not _DECAY_STEP < g.half_width / 4.0:
        return None
    u, tau = odd_half(p)
    beyond = np.maximum.accumulate(np.abs(tau - u)[::-1])[::-1]
    cuts = _DECAY_STEP * np.arange(1, g.half_width // (2.0 * _DECAY_STEP) + 1)
    deltas = beyond[np.searchsorted(g.x_half, cuts, side="right")]
    # the deltas never increase, so those above the floor are a prefix
    live = deltas[deltas > _DECAY_FLOOR]
    if len(live) == 0:
        return 0.0
    if len(live) == 1:
        return float(_DECAY_FLOOR / live[0])
    return float(np.exp(np.mean(np.log(live[1:] / live[:-1]))))
