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
    c4     smallest constant bounding the curvature image against the ramp
    ell    lower bound for ramp^(1/3) / ramp, equal to 2^(2/3)
    c2     ramp scale of the cone's lower barrier
    q0     admissible deformation bound, c4 q0^2 < c3 c2 with margin
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
from scipy.special import erf

from .grid import (
    GridSpec,
    Profile,
    json_field,
    odd_defect,
    odd_profile,
    project_odd,
    sup_norm,
)
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

#: Antisymmetry defect tolerated by the oddness check.
ODD_TOL = 1e-12

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
    """Outcome of the four membership conditions, with measured margins."""

    is_bounded: bool
    sup_value: float
    is_holder: bool
    holder_ratio: float
    is_odd: bool
    odd_defect: float
    is_above_psi: bool
    psi_margin: float

    @property
    def member(self) -> bool:
        return self.is_bounded and self.is_holder and self.is_odd and self.is_above_psi


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
    xp = grid.x_half
    ramp = psi(xp)
    if float(np.min(np.cbrt(ramp) / ramp)) < ell - 1e-12:
        raise LedgerInvariantError("ramp cube-root lower bound fails on the grid")

    c2 = math.sqrt(c3 * ell**3) * (1.0 - _C2_SHAVE)
    q0 = 0.99 * math.sqrt(c3 * c2 / c4)

    ledger = ConstantsLedger(b=b, c0=c0, e=e, c_hat=c_hat, c1=c1, c3=c3, c4=c4,
                             ell=ell, c2=c2, q0=q0)
    validate_ledger(ledger)
    return ledger


def validate_ledger(ledger: ConstantsLedger) -> None:
    """Re-check the inequalities the cone construction depends on."""
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
    if not ledger.q0 > 0.0:
        raise LedgerInvariantError("q0 must be strictly positive")


def _holder_ratio(v: np.ndarray, h: float) -> float:
    """max over node pairs i < j of |v_j - v_i| / ((j - i) h)^(1/3), exactly.

    Lags go in dyadic blocks [w, 2w).  hi and lo, built by doubling, hold the
    max and min of v on each start's window v[i : i + 2w], which holds all its
    partners in the block, so only starts reaching beyond worst (w h)^(1/3)
    are gathered, 2^14 elements (or one start) at a time to keep memory
    flat.  Once the range of v is within that bound, no longer lag can win.
    """
    n, worst, w = len(v), 0.0, 1
    hi, lo, span = v.copy(), v.copy(), float(v.max() - v.min())
    while w < n and span > worst * (w * h) ** (1.0 / 3.0):
        hi[:-w], lo[:-w] = np.maximum(hi[:-w], hi[w:]), np.minimum(lo[:-w], lo[w:])
        reach = np.maximum(hi - v, v - lo)[:n - w]
        starts = np.flatnonzero(reach > worst * (w * h) ** (1.0 / 3.0))
        lags = np.arange(w, 2 * w)
        scale = (lags * h) ** (1.0 / 3.0)
        rows = max(1, (1 << 14) // w)
        for k in range(0, len(starts), rows):
            i = starts[k:k + rows, None]
            j = np.minimum(i + lags, n - 1)  # a clamped partner sits at a longer lag
            worst = max(worst, float(np.max(np.abs(v[j] - v[i]) / scale)))
        w *= 2
    return worst


def check_cone(p: Profile, ledger: ConstantsLedger) -> ConeReport:
    """Evaluate the four cone-membership conditions on the grid nodes.

    The modulus ratio is the exact maximum over all node pairs.  It need not
    peak at short range: the sign start's worst pair is (-1.2, 1.2), and a
    profile can break the bound only between far-apart nodes.
    """
    g = p.grid
    v = p.values

    sup_value = sup_norm(p)
    is_bounded = sup_value <= ledger.c0 + MEMBERSHIP_SLACK

    worst = _holder_ratio(v, g.spacing)
    is_holder = worst <= ledger.c1 + MEMBERSHIP_SLACK

    defect = odd_defect(p)
    is_odd = defect <= ODD_TOL

    xp = g.x_half
    margin = float(np.min(v[g.center_index + 1:] - ledger.c2 * psi(xp)))
    margin = min(margin, p.tail_right - ledger.c2 * 0.5)
    is_above_psi = margin >= -MEMBERSHIP_SLACK

    return ConeReport(is_bounded=is_bounded, sup_value=sup_value,
                      is_holder=is_holder, holder_ratio=worst,
                      is_odd=is_odd, odd_defect=defect,
                      is_above_psi=is_above_psi, psi_margin=margin)


def check_preservation(p: Profile, family: KernelFamily,
                       ledger: ConstantsLedger) -> ConeReport:
    """Membership report for the image of a cone member under the map.

    Requires a genuine member and a deformation within the admissible bound;
    under those hypotheses the image must remain in the cone, so a failing
    report indicates a constants or operator bug.
    """
    if not check_cone(p, ledger).member:
        raise ValueError("input profile is not a cone member")
    if family.q > ledger.q0:
        raise ValueError(f"deformation {family.q} exceeds admissible bound {ledger.q0}")
    return check_cone(apply_pq(project_odd(p), family), ledger)


def random_cone_members(n: int, grid: GridSpec, ledger: ConstantsLedger,
                        seed: int = 42) -> list[Profile]:
    """Draw random cone members: band-limited odd ripples on the erf kink.

    Amplitudes and frequencies are kept small enough that the modulus bound
    holds even for worst-case phase alignment; the draw is then clipped to
    the sup bound, raised above the barrier on x > 0, and mirrored to exact
    oddness, all operations that cannot increase the modulus constant.
    """
    rng = np.random.default_rng(seed)
    xp = grid.x_half
    members = []
    envelope = np.exp(-((xp / 5.0) ** 2))
    for _ in range(n):
        ripple = np.zeros_like(xp)
        for _ in range(int(rng.integers(1, 4))):
            amp = rng.uniform(-0.03, 0.03)
            freq = rng.uniform(0.2, 2.0)
            ripple += amp * np.sin(freq * xp) * envelope
        u = np.clip(erf(xp) + ripple, -ledger.c0, ledger.c0)
        members.append(odd_profile(grid, np.maximum(u, ledger.c2 * psi(xp)), 1.0))
    return members
