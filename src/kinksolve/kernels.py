"""Closed-form Gaussian convolution kernels and their integral norms.

The kernel family is

    K0(u) = exp(-u^2/4) / (2 sqrt(pi))            (unit-mass Gaussian)
    K1(u) = (1/2 - u^2/4) K0(u) = -K0''(u)        (curvature correction)
    Kq(u) = K0(u) + q^2 K1(u)

for a deformation parameter q >= 0.  Under the Fourier transform
f_hat(k) = integral f(u) exp(-i k u) du the family acts as the multiplier
(1 + q^2 k^2) exp(-k^2).

Useful antiderivatives (documented here because the convolution operators,
the tail integrals and the absolute-mass norms rely on them):

    integral_{-inf}^{t} K0 = erfc(-t/2) / 2
    integral_{-inf}^{t} K1 = -K0'(t) = (t/2) K0(t)

The second identity follows from K1 = -K0''.  Kq changes sign exactly at
|u| = sqrt(4/q^2 + 2); its derivative vanishes at u = 0 and at
|u| = sqrt(4/q^2 + 6).

Both absolute masses increase strictly in q > 0.  With F_q the cumulative
integral of Kq and r its sign change,
integral |Kq| = 2 (2 F_q(r) - F_q(0) - 1).  F_q(0) = 1/2 for every q, and
the term from the moving root drops out because F_q'(r) = Kq(r) = 0 (an
envelope argument), so

    d/dq integral |Kq| = 4 (d/dq F_q)(r) = 4 q r K0(r) > 0.

Likewise integral |Kq'| = 2 (Kq(0) - 2 Kq(r')) at the derivative root r',
Kq'(r') = 0, and d/dq Kq = 2 q K1 with K1(0) = K0(0)/2 and
K1(r') = -(1 + 1/q^2) K0(r'), so

    d/dq integral |Kq'| = 2 q K0(0) + 8 q (1 + 1/q^2) K0(r') > 0.

A supremum of either mass over q in [0, q_max] is therefore its value at
q_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

_SQRT_PI = math.sqrt(math.pi)
_INV_TWO_SQRT_PI = 1.0 / (2.0 * _SQRT_PI)

@dataclass(frozen=True)
class KernelFamily:
    """Kernel family member selected by the deformation parameter q >= 0."""

    q: float = 0.0

    def __post_init__(self) -> None:
        q = float(self.q)
        if not q >= 0.0:
            raise ValueError(f"deformation parameter must be >= 0, got {self.q}")
        if not math.isfinite(q * q):
            raise ValueError(f"deformation parameter q = {self.q} has no finite square")
        object.__setattr__(self, "q", q)


def eval_k0(u):
    """Unit-mass Gaussian kernel K0(u) = exp(-u^2/4) / (2 sqrt(pi))."""
    u = np.asarray(u, dtype=float)
    out = _INV_TWO_SQRT_PI * np.exp(-0.25 * u * u)
    return float(out) if out.ndim == 0 else out


def eval_k1(u):
    """Curvature kernel K1(u) = (1/2 - u^2/4) K0(u); equals -K0''(u)."""
    u = np.asarray(u, dtype=float)
    out = (0.5 - 0.25 * u * u) * (_INV_TWO_SQRT_PI * np.exp(-0.25 * u * u))
    return float(out) if out.ndim == 0 else out


def eval_kq(u, family: KernelFamily):
    """Combined kernel Kq(u) = K0(u) + q^2 K1(u)."""
    u = np.asarray(u, dtype=float)
    q2 = family.q * family.q
    out = (1.0 + q2 * (0.5 - 0.25 * u * u)) * (_INV_TWO_SQRT_PI * np.exp(-0.25 * u * u))
    return float(out) if out.ndim == 0 else out


def eval_k0_derivative(u):
    """K0'(u) = -(u/2) K0(u)."""
    u = np.asarray(u, dtype=float)
    out = -0.5 * u * (_INV_TWO_SQRT_PI * np.exp(-0.25 * u * u))
    return float(out) if out.ndim == 0 else out


def eval_k1_derivative(u):
    """K1'(u) = -(u/2) (3/2 - u^2/4) K0(u)."""
    u = np.asarray(u, dtype=float)
    out = -0.5 * u * (1.5 - 0.25 * u * u) * (_INV_TWO_SQRT_PI * np.exp(-0.25 * u * u))
    return float(out) if out.ndim == 0 else out


def eval_kq_derivative(u, family: KernelFamily):
    """Hand-differentiated Kq'(u) = -(u/2) (1 + q^2 (3/2 - u^2/4)) K0(u)."""
    u = np.asarray(u, dtype=float)
    q2 = family.q * family.q
    k0 = _INV_TWO_SQRT_PI * np.exp(-0.25 * u * u)
    out = -0.5 * u * (1.0 + q2 * (1.5 - 0.25 * u * u)) * k0
    return float(out) if out.ndim == 0 else out


def fourier_symbol(k, family: KernelFamily):
    """Frequency-space multiplier (1 + q^2 k^2) exp(-k^2) of the family."""
    k = np.asarray(k, dtype=float)
    q2 = family.q * family.q
    out = (1.0 + q2 * k * k) * np.exp(-k * k)
    return float(out) if out.ndim == 0 else out


def k1_cumulative(t):
    """integral_{-inf}^{t} K1(u) du = (t/2) K0(t).

    Signed formula: K1 = -K0'' integrates to -K0'(t) = (t/2) K0(t), which
    vanishes at both infinities (K1 has zero total mass) and at t = 0.
    """
    t = np.asarray(t, dtype=float)
    out = 0.5 * t * (_INV_TWO_SQRT_PI * np.exp(-0.25 * t * t))
    return float(out) if out.ndim == 0 else out


def kq_cumulative(t, family: KernelFamily):
    """integral_{-inf}^{t} Kq(u) du."""
    q2 = family.q * family.q
    t_arr = np.asarray(t, dtype=float)
    out = 0.5 * erfc(-0.5 * t_arr) + q2 * 0.5 * t_arr * (
        _INV_TWO_SQRT_PI * np.exp(-0.25 * t_arr * t_arr)
    )
    return float(out) if out.ndim == 0 else out


def _visible_root(family: KernelFamily, shift: float) -> float | None:
    """sqrt(4/q^2 + shift), or None where the kernel underflows to 0 there.

    No sign change is seen when q^2 == 0 or when exp(-r^2/4) == 0 at the
    root r: the antiderivative at r then equals its limit at infinity to the
    last bit, so the piece past r adds an exact zero either way, and None
    keeps 0 * inf out of the kernel evaluations at huge r.
    """
    q2 = family.q * family.q
    if q2 == 0.0:
        return None
    r = math.sqrt(4.0 / q2 + shift)
    return r if math.exp(-0.25 * r * r) > 0.0 else None


def kq_sign_change(family: KernelFamily) -> float | None:
    """Positive root of Kq, i.e. sqrt(4/q^2 + 2); None as in _visible_root."""
    return _visible_root(family, 2.0)


def kq_derivative_sign_change(family: KernelFamily) -> float | None:
    """Positive root of Kq', i.e. sqrt(4/q^2 + 6); None as in _visible_root."""
    return _visible_root(family, 6.0)


def abs_mass_above(antiderivative, sign_change: float | None, t: float = 0.0,
                   at_infinity: float = 0.0) -> float:
    """integral_t^inf |f| for t >= 0, from an antiderivative F of f.

    f may change sign on (t, inf) only at `sign_change` (None: nowhere), and
    at_infinity is the limit of F at +inf.  Each single-signed piece then
    contributes |F(end) - F(start)|.  For an even f the absolute mass over
    the whole line is twice the value at t = 0.
    """
    F = antiderivative
    if sign_change is None or t >= sign_change:
        return abs(at_infinity - F(t))
    return abs(F(sign_change) - F(t)) + abs(at_infinity - F(sign_change))


def tail_mass(threshold: float, family: KernelFamily) -> tuple[float, float]:
    """Absolute kernel mass below -threshold and above +threshold.

    Returns (integral_{-inf}^{-threshold} |Kq|, integral_{threshold}^{inf} |Kq|).
    |Kq| is even, so the two components are equal.
    """
    t = float(threshold)
    if t > 0.0:
        right = _kq_abs_mass_above(t, family)
    else:
        # mass above t = total - mass above -t (evenness)
        right = 2.0 * _kq_abs_mass_above(0.0, family) - _kq_abs_mass_above(-t, family)
    return right, right


def _kq_abs_mass_above(t: float, family: KernelFamily) -> float:
    """integral_t^inf |Kq| for t >= 0, through the cumulative integral of Kq."""
    return abs_mass_above(lambda s: kq_cumulative(s, family), kq_sign_change(family),
                          t, at_infinity=1.0)


def kq_abs_mass(family: KernelFamily) -> float:
    """integral |Kq| du over the line."""
    return 2.0 * _kq_abs_mass_above(0.0, family)


def kq_derivative_abs_mass(family: KernelFamily) -> float:
    """integral |Kq'| du, telescoped through values of Kq itself."""
    return 2.0 * abs_mass_above(lambda s: eval_kq(s, family),
                                kq_derivative_sign_change(family))
