"""Proof constants and the invariant cone of odd kink candidates.

The cone consists of odd profiles that are uniformly bounded, satisfy a
one-third-power modulus of continuity, and dominate a scaled Gaussian ramp
on the positive half-line.  Every constant is computed in closed form, in
dependency order, and the mutual inequalities the construction relies on
are re-checked after the fact; a violation is a hard error, not a warning.

Constant roles:

    b      sup over q in [0, q_max] of integral |Kq|      (uniform bound)
    c0     sqrt(b), the sup-norm radius preserved by the cube-root map
    e      sup over q in [0, q_max] of integral |Kq'|     (derivative bound)
    c_hat  modulus constant of the cube root: |a^(1/3) - b^(1/3)|
           <= c_hat |a - b|^(1/3); equals 2^(2/3), attained at b = -a
    c1     c_hat (c0 e)^(1/3), the cone's continuity constant
    c3     half the infimum over x > 0 of the smoothed-ramp ratio
           erf(x/sqrt5)/erf(x); the infimum sits at x -> 0+ where the
           ratio tends to 1/sqrt(5) (the ratio is monotone increasing)
    c4     bound on the curvature image against the ramp: the larger of two
           crude bounds, 2.7486 at the default ledger, where 1.0649 suffices
    ell    lower bound for ramp^(1/3) / ramp, equal to 2^(2/3)
    c2     ramp scale of the cone's lower barrier
    q0     admissible deformation bound, c4 q0^2 < c3 c2 with margin, <= q_max
    c5     contraction factor of the cube root on [d, inf), c5_bound(d);
           the JSON ledger tabulates it over d = 0.05, 0.10, ..., 0.95

Both masses increase strictly in q (see the kernels module), so b and e are
the closed-form masses at q = q_max.  The scale-invariant ratio behind c_hat
reduces to one variable t = b/a in [-1, 1] and peaks at t = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import GridSpec, Profile, json_field, sup_norm
from .kernels import (
    K1_WEIGHTS,
    KernelFamily,
    abs_mass_above,
    kq_abs_mass,
    kq_derivative_abs_mass,
)
from .operators import apply_pq, psi

_SQRT_PI = math.sqrt(math.pi)

#: Tolerance credited to each inequality when judging cone membership, so
#: that exact boundary cases (e.g. the barrier profile itself) pass.
MEMBERSHIP_SLACK = 1e-10

#: Arguments d of the cube-root contraction factor tabulated in the JSON ledger.
_C5_GRID = np.round(np.arange(0.05, 0.951, 0.05), 10)

#: Strict upper gap applied when clipping the cube-root contraction factors
#: below one.
_C5_CLIP = 1.0 - 1e-9

#: Relative shave applied to the barrier scale so the closing inequality
#: holds under floating-point rounding (it is an equality in exact
#: arithmetic).
_C2_SHAVE = 1e-12


class LedgerInvariantError(RuntimeError):
    """A computed constant violates the inequalities the cone relies on."""


@dataclass(frozen=True)
class ConstantsLedger:
    """Numerically computed constants; c5 is the function c5_bound."""

    b: float
    c0: float
    e: float
    c_hat: float
    c1: float
    c3: float
    c4: float
    ell: float
    c2: float
    q0: float

    def to_json_dict(self) -> dict:
        d_grid = _C5_GRID.tolist()
        return {**vars(self),
                "c5": {"grid": d_grid, "values": [c5_bound(d) for d in d_grid]}}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConstantsLedger":
        """Inverse of to_json_dict; the c5 table is derived, so it is not read."""
        return cls(**{f.name: json_field(d, f.name) for f in fields(cls)})


@dataclass(frozen=True)
class ConeReport:
    """Outcome of the three membership conditions, with measured margins;
    the fourth, oddness, holds for every Profile by construction."""

    is_bounded: bool
    sup_value: float
    is_holder: bool
    holder_ratio: float
    is_above_psi: bool
    psi_margin: float

    @property
    def member(self) -> bool:
        return self.is_bounded and self.is_holder and self.is_above_psi


def c5_bound(d: float) -> float:
    """Derivative bound min((1/3) d^(-2/3), just below 1) for the cube root.

    For x >= d the mean-value estimate gives |x^(1/3) - 1| <= C |x - 1| with
    C = (1/3) d^(-2/3); where that exceeds one it is clipped just below one,
    which still dominates the true ratio sup 1/(d^(2/3) + d^(1/3) + 1) < 1.
    """
    if not 0.0 < d < 1.0:
        raise ValueError(f"contraction factor defined for 0 < d < 1, got {d}")
    return min((1.0 / 3.0) * d ** (-2.0 / 3.0), _C5_CLIP)


def compute_constants(grid: GridSpec, *, q_range_max: float = 1.0) -> ConstantsLedger:
    """Compute every cone constant in dependency order and validate them.

    Raises ValueError unless q_range_max > 0, and LedgerInvariantError when
    any of the mutual inequalities fails; the inequalities close the
    invariance argument, so a violation means a kernel-norm or operator bug
    rather than a tolerable inaccuracy.
    """
    if not q_range_max > 0.0:
        raise ValueError(f"q_range_max must be positive, got {q_range_max}")
    family = KernelFamily(q_range_max)
    b = kq_abs_mass(family)
    e = kq_derivative_abs_mass(family)
    c0 = math.sqrt(b)

    c_hat = 2.0 ** (2.0 / 3.0)
    c1 = c_hat * (c0 * e) ** (1.0 / 3.0)
    c3 = 0.5 / math.sqrt(5.0)

    # Curvature-image bound: the image of an odd bounded profile vanishes at
    # the origin with bounded slope, so it is dominated by the ramp once the
    # ramp's slope infimum on [0, 1] and level infimum on [1, inf) are paid.
    ramp_slope_inf = math.exp(-1.0) / _SQRT_PI      # attained at x = 1
    ramp_level_inf = psi(1.0)                        # attained at x = 1
    k1_abs = 2.0 * abs_mass_above(0.0, K1_WEIGHTS)
    k1_deriv_abs = 2.0 * abs_mass_above(0.0, K1_WEIGHTS, derivative=True)
    slope_bound = c0 * k1_deriv_abs
    level_bound = c0 * k1_abs
    c4 = max(slope_bound / ramp_slope_inf, level_bound / ramp_level_inf)

    ell = 2.0 ** (2.0 / 3.0)
    ramp = grid.ramp
    if float(np.min(np.cbrt(ramp) / ramp)) < ell - 1e-12:
        raise LedgerInvariantError("ramp cube-root lower bound fails on the grid")

    c2 = math.sqrt(c3 * ell**3) * (1.0 - _C2_SHAVE)
    q0 = min(0.99 * math.sqrt(c3 * c2 / c4), q_range_max)

    ledger = ConstantsLedger(b=b, c0=c0, e=e, c_hat=c_hat, c1=c1, c3=c3, c4=c4,
                             ell=ell, c2=c2, q0=q0)
    validate_ledger(ledger)
    return ledger


def validate_ledger(ledger: ConstantsLedger) -> None:
    """Check that every constant is finite and positive, then the cone's inequalities."""
    if bad := [k for k, v in vars(ledger).items() if not math.isfinite(v)]:
        raise LedgerInvariantError(f"non-finite constants: {', '.join(bad)}")
    if not ledger.q0 > 0.0:
        raise LedgerInvariantError("q0 must be strictly positive")
    if bad := [k for k, v in vars(ledger).items() if not v > 0.0]:
        raise LedgerInvariantError(f"non-positive constants: {', '.join(bad)}")
    if not math.isclose(ledger.c0, math.sqrt(ledger.b), rel_tol=1e-14):
        raise LedgerInvariantError("c0 != sqrt(b)")
    if not math.isclose(ledger.c1, ledger.c_hat * (ledger.c0 * ledger.e) ** (1 / 3),
                        rel_tol=1e-14):
        raise LedgerInvariantError("c1 != c_hat (c0 e)^(1/3)")
    if ledger.c3 ** (1.0 / 3.0) * ledger.ell * ledger.c2 ** (1.0 / 3.0) < ledger.c2:
        raise LedgerInvariantError("closing inequality fails: barrier not reproduced")
    if not ledger.c2 * 0.5 < 1.0:
        raise LedgerInvariantError("barrier exceeds the ramp's saturation bound")
    if not ledger.c4 * ledger.q0**2 < ledger.c3 * ledger.c2:
        raise LedgerInvariantError("admissible deformation bound q0 is too large")


def _holder_ratio(v: np.ndarray, h: float, floor: float = 0.0) -> float:
    """max(floor, max over node pairs i < j of |v_j - v_i| / ((j - i) h)^(1/3)).

    Lags go in dyadic blocks [w, 2w).  hi and lo, built by doubling, hold the
    max and min of v on each start's window v[i : i + 2w], which holds all its
    partners in the block, so only starts reaching beyond the cut worst
    (w h)^(1/3), taken a few ulps low so that no rounding prunes a pair that
    beats worst, are gathered, 2^14 elements (or one start) at a time to keep
    memory flat.  Once the range of v is within the cut, no longer lag can
    win.  worst starts at floor, so a floor at the cone's bound prunes every
    start that cannot break it: all that a yes/no membership answer needs.
    """
    n, worst, w = len(v), floor, 1
    hi, lo, span = v.copy(), v.copy(), float(np.ptp(v)) if n else 0.0
    while w < n and span > (cut := worst * (w * h) ** (1.0 / 3.0) * (1.0 - 1e-15)):
        hi[:-w], lo[:-w] = np.maximum(hi[:-w], hi[w:]), np.minimum(lo[:-w], lo[w:])
        reach = np.maximum(hi - v, v - lo)[:n - w]
        starts = np.flatnonzero(reach > cut)
        lags = np.arange(w, 2 * w)
        scale = (lags * h) ** (1.0 / 3.0)
        rows = max(1, (1 << 14) // w)
        for k in range(0, len(starts), rows):
            i = starts[k:k + rows, None]
            j = np.minimum(i + lags, n - 1)  # a clamped partner sits at a longer lag
            worst = max(worst, float(np.max(np.abs(v[j] - v[i]) / scale)))
        w *= 2
    return worst


def _cone_report(p: Profile, ledger: ConstantsLedger, floor: float) -> ConeReport:
    """The membership conditions, the modulus search floored at floor.

    The search runs on u, the positive nodes, floored also at the symmetric
    pairs' ratio r = max_a 2|u_a| / (2 a h)^(1/3), and returns the full
    line's max(floor, ratio) bit for bit.  A pair left of the origin mirrors
    one right of it, with the same lag and |difference| to the bit.  A pair
    (0, a) has 2^(-2/3) times the ratio of (-a, a).  And a crossing pair
    (-a, b) with a != b cannot beat r, by the cube root's concavity:
    |u_a + u_b| <= max(r_a, r_b) ((2a)^(1/3) + (2b)^(1/3)) h^(1/3) / 2
    <= max(r_a, r_b) ((a + b) h)^(1/3), with a relative margin of about
    d^2 / 9 at d = |a - b| / (a + b) >= 1 / (2M), far above rounding.
    """
    u, h = p.u, p.grid.spacing
    sup_value = sup_norm(p)
    pairs = float(np.max(2.0 * np.abs(u) / p.grid.pair_scale))
    worst = _holder_ratio(u, h, max(floor, pairs))
    margin = float(np.min(u - ledger.c2 * p.grid.ramp))
    margin = min(margin, p.tau - ledger.c2 * 0.5)
    return ConeReport(
        is_bounded=sup_value <= ledger.c0 + MEMBERSHIP_SLACK, sup_value=sup_value,
        is_holder=worst <= ledger.c1 + MEMBERSHIP_SLACK, holder_ratio=worst,
        is_above_psi=margin >= -MEMBERSHIP_SLACK, psi_margin=margin)


def check_cone(p: Profile, ledger: ConstantsLedger) -> ConeReport:
    """Evaluate the cone-membership conditions on the grid nodes.

    The modulus ratio is the exact maximum over all node pairs of the full
    line, found from the positive nodes (see _cone_report).  It need not
    peak at short range: the sign start's worst pair is (-1.2, 1.2), and a
    profile can break the bound only between far-apart nodes.
    """
    return _cone_report(p, ledger, 0.0)


def is_cone_member(p: Profile, ledger: ConstantsLedger) -> bool:
    """check_cone(p, ledger).member, with the modulus search floored at its
    bound: a ratio at or below c1 + MEMBERSHIP_SLACK passes either way, so
    only node pairs that could break the bound are searched."""
    return _cone_report(p, ledger, ledger.c1 + MEMBERSHIP_SLACK).member


def check_preservation(p: Profile, family: KernelFamily,
                       ledger: ConstantsLedger) -> ConeReport:
    """Membership report for the image of a cone member under the map.

    Requires a genuine member and a deformation within the admissible bound;
    under those hypotheses the image must remain in the cone, so a failing
    report indicates a constants or operator bug.
    """
    if not is_cone_member(p, ledger):
        raise ValueError("input profile is not a cone member")
    if family.q > ledger.q0:
        raise ValueError(f"deformation {family.q} exceeds admissible bound {ledger.q0}")
    return check_cone(apply_pq(p, family), ledger)


def random_cone_members(n: int, grid: GridSpec, ledger: ConstantsLedger,
                        seed: int = 42) -> list[Profile]:
    """Draw random cone members: band-limited odd ripples on the erf kink.

    Amplitudes and frequencies are kept small enough that the modulus bound
    holds even for worst-case phase alignment; the draw is then clipped to
    the sup bound and raised above the barrier on x > 0, operations that
    cannot increase the modulus constant.
    """
    rng = np.random.default_rng(seed)
    xp = grid.x_half
    members = []
    envelope = np.exp(-((xp / 5.0) ** 2))
    kink = 2.0 * grid.ramp
    barrier = ledger.c2 * grid.ramp
    for _ in range(n):
        ripple = np.zeros_like(xp)
        for _ in range(int(rng.integers(1, 4))):
            amp = rng.uniform(-0.03, 0.03)
            freq = rng.uniform(0.2, 2.0)
            ripple += amp * np.sin(freq * xp) * envelope
        u = np.clip(kink + ripple, -ledger.c0, ledger.c0)
        members.append(Profile(grid=grid, u=np.maximum(u, barrier), tau=1.0))
    return members
