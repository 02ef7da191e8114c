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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .cone import ConstantsLedger, c5_bound, check_cone
from .grid import (
    GridSpec,
    Profile,
    profile_from_csv,
    profile_from_json,
    profile_to_json_dict,
    project_odd,
)
from .kernels import KernelFamily
from .operators import OperatorConfig, build_operator, psi

#: Half-width of the linear ramp used by the piecewise-sign initial guess.
#: One grid cell is far too steep for the cone's modulus constant (a ramp of
#: half-width w has worst pair ratio 2^(2/3) w^(-1/3), and the constant is
#: barely above 2^(2/3)), so the step is smoothed over an O(1) width instead.
SIGN_RAMP_HALF_WIDTH = 1.2

#: Deltas below this are treated as exactly saturated by the decay fit.
_DECAY_FLOOR = 1e-15


@dataclass
class SolveConfig:
    """Iteration parameters; damping is the mixing weight in (0, 1]."""

    q: float = 0.0
    damping: float = 1.0
    tol: float = 1e-12
    max_iter: int = 10000
    init: str = "erf"
    init_path: str | None = None

    def __post_init__(self) -> None:
        if not self.q >= 0.0:
            raise ValueError("q must be >= 0")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")
        if self.init not in ("erf", "psi_scaled", "sign", "from_file"):
            raise ValueError(f"unknown initial guess {self.init!r}")


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

    def to_json_dict(self, inline_profile: bool = True,
                     profile_path: str | None = None) -> dict:
        d = {
            "converged": self.converged,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "residual_trace": self.residual_trace,
            "cone_member_final": self.cone_member_final,
            "decay_estimate": self.decay_estimate,
            "boundary_defect": self.boundary_defect,
            "stop_reason": self.stop_reason,
            "events": self.events,
        }
        if inline_profile:
            d["solution"] = profile_to_json_dict(self.solution)
        if profile_path is not None:
            d["solution_csv"] = str(profile_path)
        return d


@dataclass
class DecayDiagnostic:
    """Measured geometric decay of the boundary defect past growing cutoffs."""

    ratio: float
    degenerate: bool
    cutoffs: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    reference_bound: float = float("nan")


def initial_guess(kind: str, grid: GridSpec, ledger: ConstantsLedger,
                  path: str | None = None) -> Profile:
    """Construct a starting profile; warns when it misses the cone.

    erf        -- samples of erf(x), tails -1/+1
    psi_scaled -- alias of erf (twice the Gaussian ramp is erf)
    sign       -- +-1 with the step smoothed by a linear ramp at the origin
    from_file  -- profile loaded from a CSV or JSON file
    """
    if kind == "from_file":
        if path is None:
            raise ValueError("from_file initial guess needs a path")
        # CSV carries nodes only; in the kink-iteration context the tails
        # are the boundary values -1/+1 (JSON files carry theirs explicitly)
        p = (profile_from_json(path) if str(path).endswith(".json")
             else profile_from_csv(path, tail_right=1.0, tail_left=-1.0))
        if p.grid != grid:
            raise ValueError(
                f"profile grid (L={p.grid.half_width}, h={p.grid.spacing}) "
                f"does not match the requested grid")
    elif kind in ("erf", "psi_scaled"):
        p = _odd_profile(grid, erf(grid.x[grid.center_index + 1:]), 1.0)
    elif kind == "sign":
        xp = grid.x[grid.center_index + 1:]
        p = _odd_profile(grid, np.minimum(xp / SIGN_RAMP_HALF_WIDTH, 1.0), 1.0)
    else:
        raise ValueError(f"unknown initial guess {kind!r}")

    report = check_cone(p, ledger)
    if not report.member:
        warnings.warn(f"initial guess {kind!r} is not a cone member: {report}",
                      stacklevel=2)
    return p


def _odd_profile(grid: GridSpec, u: np.ndarray, tau: float) -> Profile:
    """The odd profile with values u on the positive nodes and tails +-tau."""
    return Profile(grid=grid, values=np.concatenate([-u[::-1], [0.0], u]),
                   tail_right=tau, tail_left=-tau)


def _odd_half(p: Profile) -> tuple[np.ndarray, float]:
    """Positive-node values and right tail of the odd projection of p."""
    odd = project_odd(p)
    return odd.values[p.grid.center_index + 1:], odd.tail_right


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


def iterate_once(p: Profile, cfg_solve: SolveConfig, family: KernelFamily,
                 cfg_op: OperatorConfig = OperatorConfig()) -> Profile:
    """One damped step on the odd projection of p: mix it with its image."""
    u, tau = _odd_half(p)
    image, image_tau, _ = _step(build_operator(p.grid, family, cfg_op), u, tau)
    omega = cfg_solve.damping
    return _odd_profile(p.grid, _mix(u, image, omega), _mix(tau, image_tau, omega))


def solve(cfg_solve: SolveConfig, grid: GridSpec, ledger: ConstantsLedger,
          cfg_op: OperatorConfig = OperatorConfig(),
          initial: Profile | None = None,
          assert_cone_each_iteration: bool = False) -> SolveReport:
    """Iterate the map until the residual meets tol or max_iter is spent.

    The start (`initial`, used for warm starts, or the configured guess) is
    projected onto odd profiles once; projection raises ValueError when its
    tails are not opposite.  The default undamped iteration falls back to
    half damping when the residual has grown five steps in a row, and
    records that as an event.  `assert_cone_each_iteration` raises if any
    iterate of a run started in the cone escapes it.
    """
    family = KernelFamily(cfg_solve.q)
    start = initial if initial is not None else initial_guess(
        cfg_solve.init, grid, ledger, cfg_solve.init_path)
    grid = start.grid
    u, tau = _odd_half(start)
    op = build_operator(grid, family, cfg_op)

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
        if assert_cone_each_iteration and not check_cone(
                _odd_profile(grid, u, tau), ledger).member:
            raise AssertionError(
                f"iterate {len(trace)} left the cone at q = {cfg_solve.q}")

    p = _odd_profile(grid, u, tau)
    decay = None
    if converged and tau == 1.0:
        decay = decay_diagnostic(p, family, ledger, l0=2.0).ratio
    return SolveReport(
        converged=converged,
        iterations=len(trace),
        final_residual=residual,
        residual_trace=trace,
        cone_member_final=check_cone(p, ledger).member,
        decay_estimate=decay,
        solution=p,
        boundary_defect=abs(u[-1] - tau),
        stop_reason="converged" if converged else "budget",
        events=events,
    )


def decay_diagnostic(p: Profile, family: KernelFamily, ledger: ConstantsLedger,
                     l0: float, delta: float = 2.0) -> DecayDiagnostic:
    """Geometric decay rate of sup_{x > l} |1 - p(x)| over growing cutoffs.

    Returns the fitted ratio of successive defects for cutoffs l0, l0+delta,
    ...; for a solution the ratio must fall below 1, and is compared against
    the square root of the cube-root contraction factor at
    D1 = (1/2) c2 psi(l0).  Degenerate (ratio 0, flag set) when the profile
    is already saturated at +-1 beyond l0.
    """
    g = p.grid
    if not l0 < g.half_width / 4.0:
        raise ValueError("l0 must stay below a quarter of the grid half-width")
    d1 = 0.5 * ledger.c2 * psi(l0)
    bound = math.sqrt(c5_bound(d1))

    cutoffs: list[float] = []
    deltas: list[float] = []
    cut = float(l0)
    while cut <= g.half_width / 2.0:
        sel = g.x > cut
        dval = float(np.max(np.abs(1.0 - p.values[sel]))) if np.any(sel) else 0.0
        dval = max(dval, abs(1.0 - p.tail_right))
        cutoffs.append(cut)
        deltas.append(dval)
        cut += delta

    live = [d for d in deltas if d > _DECAY_FLOOR]
    if not live or deltas[0] <= _DECAY_FLOOR:
        return DecayDiagnostic(ratio=0.0, degenerate=True, cutoffs=cutoffs,
                               deltas=deltas, reference_bound=bound)
    if len(live) == 1:
        ratio = _DECAY_FLOOR / live[0]
    else:
        ratios = [b / a for a, b in zip(live[:-1], live[1:])]
        ratio = float(np.exp(np.mean(np.log(ratios))))
    return DecayDiagnostic(ratio=ratio, degenerate=False, cutoffs=cutoffs,
                           deltas=deltas, reference_bound=bound)
