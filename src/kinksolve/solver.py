"""Damped fixed-point iteration for the cube-root map, with diagnostics.

Fixed points of the map solve the integral equation.  The invariant-cone
argument lives entirely in odd functions, and so does a Profile: the
iterate is a copy of the start's values u on the positive nodes plus its
right tail tau, pushed through the half-line operator built once per solve,
and a Profile is built again only at exit.  The iterate is updated in
place; the residual uses one scratch array per solve, and the operator's
FFT arrays are one workspace per solve.  Cone membership is judged at both
ends of a solve; the erf start's verdict depends only on the grid and the
ledger, so it is computed once per (grid, ledger) in a process.

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
from functools import lru_cache

import numpy as np

from .cone import ConstantsLedger, check_cone, is_cone_member
from .grid import (
    GridSpec,
    Profile,
    profile_from_csv,
    profile_from_json,
    profile_to_json_dict,
)
from .kernels import KernelFamily
from .operators import build_operator

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
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
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
    from_file -- the odd part of a profile loaded from a CSV or JSON file
    """
    if kind == "from_file":
        if path is None:
            raise ValueError("from_file initial guess needs a path")
        # CSV carries nodes only; in the kink-iteration context the tail is
        # the boundary value 1 (JSON files carry theirs explicitly)
        p = (profile_from_json(path) if str(path).endswith(".json")
             else profile_from_csv(path, tau=1.0))
        _check_grid(p, grid)
    elif kind == "erf":
        p = _erf_start(grid)
    elif kind == "sign":
        p = Profile(grid=grid, u=np.minimum(grid.x_half / SIGN_RAMP_HALF_WIDTH, 1.0),
                    tau=1.0)
    else:
        raise ValueError(f"unknown initial guess {kind!r}")

    member = (_erf_start_is_member(grid, ledger) if kind == "erf"
              else is_cone_member(p, ledger))
    if not member:
        warnings.warn(f"initial guess {kind!r} is not a cone member: "
                      f"{check_cone(p, ledger)}", stacklevel=2)
    return p


def _erf_start(grid: GridSpec) -> Profile:
    return Profile(grid=grid, u=2.0 * grid.ramp, tau=1.0)


@lru_cache(maxsize=8)
def _erf_start_is_member(grid: GridSpec, ledger: ConstantsLedger) -> bool:
    """is_cone_member of the erf start, memoised: both arguments are frozen."""
    return is_cone_member(_erf_start(grid), ledger)


def _check_grid(p: Profile, grid: GridSpec) -> None:
    if p.grid != grid:
        raise ValueError(
            f"profile grid (L={p.grid.half_width}, h={p.grid.spacing}) does not "
            f"match the requested grid (L={grid.half_width}, h={grid.spacing})")


def solve(cfg_solve: SolveConfig, grid: GridSpec, ledger: ConstantsLedger,
          initial: Profile | None = None) -> SolveReport:
    """Iterate the map until the residual meets tol or max_iter is spent.

    The start is `initial`, or the erf guess when it is None; ValueError
    is raised when it lives on another grid than `grid`.  The default
    undamped iteration falls back to half damping when the residual
    has grown five steps in a row, and records that as an event.  The decay
    estimate needs a kink (converged, tail above 1/2) and L above 8.
    """
    if initial is None:
        initial = initial_guess("erf", grid, ledger)
    _check_grid(initial, grid)
    u, tau = initial.u.copy(), initial.tau  # the loop updates u in place
    scratch = np.empty_like(u)
    op = build_operator(grid, KernelFamily(cfg_solve.q).weights)
    work = op.workspace()

    omega = cfg_solve.damping
    trace: list[float] = []
    events: list[dict] = []
    residual = math.inf
    converged = False
    growth_streak = 0
    for _ in range(cfg_solve.max_iter):
        image = op(u, tau, work)  # may view work: used up before the next call
        np.cbrt(image, out=image)
        image_tau = float(np.cbrt(tau))
        np.abs(np.subtract(image, u, out=scratch), out=scratch)
        residual = max(float(scratch.max()), abs(image_tau - tau))
        if not math.isfinite(residual):
            raise ValueError("profile values must be finite")
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
        u *= 1.0 - omega
        image *= omega
        u += image
        tau = (1.0 - omega) * tau + omega * image_tau

    p = Profile(grid=grid, u=u, tau=tau)
    return SolveReport(
        converged=converged,
        iterations=len(trace),
        final_residual=residual,
        residual_trace=trace,
        cone_member_final=is_cone_member(p, ledger),
        decay_estimate=decay_ratio(p) if converged and tau > 0.5 else None,
        solution=p,
        boundary_defect=abs(u[-1] - tau),
        stop_reason="converged" if converged else "budget",
        events=events,
    )


def decay_ratio(p: Profile) -> float | None:
    """Geometric mean ratio of successive sup_{x > l} |tau - p(x)| over the
    cutoffs l = 2, 4, ..., L/2 of the profile p with right tail tau, which
    a solve may leave within tol of 1: below 1 for a kink, 0.0 when p is
    saturated at +-tau beyond x = 2, and None when L <= 8, where 2 is not
    below L/4."""
    g = p.grid
    if not _DECAY_STEP < g.half_width / 4.0:
        return None
    beyond = np.maximum.accumulate(np.abs(p.tau - p.u)[::-1])[::-1]
    cuts = _DECAY_STEP * np.arange(1, g.half_width // (2.0 * _DECAY_STEP) + 1)
    deltas = beyond[np.searchsorted(g.x_half, cuts, side="right")]
    # the deltas never increase, so those above the floor are a prefix
    live = deltas[deltas > _DECAY_FLOOR]
    if len(live) == 0:
        return 0.0
    if len(live) == 1:
        return float(_DECAY_FLOOR / live[0])
    return float(np.exp(np.mean(np.log(live[1:] / live[:-1]))))
