"""Closed-form Gaussian convolution kernels and their integral norms.

Every kernel in the package is a weighted sum a K0 + b K1 of

    K0(u) = exp(-u^2/4) / (2 sqrt(pi))            (unit-mass Gaussian)
    K1(u) = (1/2 - u^2/4) K0(u) = -K0''(u)        (curvature correction)

with weights (a, b): K0 = (1, 0), K1 = (0, 1), and the family member
Kq = K0 + q^2 K1 = (1, q^2) for a deformation parameter q >= 0.  Each
quantity is written once, over the weights:

    value            (a + b (1/2 - u^2/4)) K0(u)
    derivative       -(u/2) (a + b (3/2 - u^2/4)) K0(u)
    antiderivative   integral_{-inf}^{t} = a erfc(-t/2) / 2 + b (t/2) K0(t)
    sign change      |u| = sqrt(4a/b + 2); of the derivative, sqrt(4a/b + 6)
    symbol           (a + b k^2) exp(-k^2)

The antiderivative follows from K1 = -K0'', which integrates to
-K0'(t) = (t/2) K0(t), so the total mass is a.  The symbol is the Fourier
multiplier under f_hat(k) = integral f(u) exp(-i k u) du.  Where the
Gaussian factor underflows to 0 the polynomial factor may overflow, so each
product takes its exact limit 0 there.  The absolute masses telescope
through the antiderivative across the one positive sign change.

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

erf and erfc are the standard library's math.erf and math.erfc applied
elementwise: erf within an ulp of exact, erfc within 2.3e-16, NaN passed
through, and the exact limits at +-inf with no warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_INV_TWO_SQRT_PI = 1.0 / (2.0 * math.sqrt(math.pi))

#: Weights (a, b) of the Gaussian K0 and of the curvature kernel K1.
K0_WEIGHTS = (1.0, 0.0)
K1_WEIGHTS = (0.0, 1.0)


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

    @property
    def weights(self) -> tuple[float, float]:
        """(a, b) of Kq = a K0 + b K1, i.e. (1, q^2)."""
        return 1.0, self.q * self.q


def _k0(u):
    """The Gaussian factor K0(u) = exp(-u^2/4) / (2 sqrt(pi))."""
    return _INV_TWO_SQRT_PI * np.exp(-0.25 * u * u)


def _times_gaussian(poly, gaussian, u):
    """poly(u) * gaussian(u) for a scalar or array u, with the exact limit 0
    where the Gaussian has underflowed to 0 (poly(u) may be infinite there,
    and inf * 0 is nan)."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        g = gaussian(u)
        out = np.where(g == 0.0, 0.0, poly(u) * g)
    return float(out) if out.ndim == 0 else out


def eval_kernel(u, weights):
    """a K0(u) + b K1(u) = (a + b (1/2 - u^2/4)) K0(u)."""
    a, b = weights
    return _times_gaussian(lambda u: a + b * (0.5 - 0.25 * u * u), _k0, u)


def eval_kernel_derivative(u, weights):
    """Derivative -(u/2) (a + b (3/2 - u^2/4)) K0(u) of a K0 + b K1."""
    a, b = weights
    return _times_gaussian(lambda u: -0.5 * u * (a + b * (1.5 - 0.25 * u * u)), _k0, u)


def kernel_cumulative(t, weights):
    """integral_{-inf}^{t} (a K0 + b K1) = a erfc(-t/2) / 2 + b (t/2) K0(t)."""
    a, b = weights
    t = np.asarray(t, dtype=float)
    out = a * (0.5 * erfc(-0.5 * t)) + _times_gaussian(lambda t: b * 0.5 * t, _k0, t)
    return float(out) if out.ndim == 0 else out


def fourier_symbol(k, weights):
    """Frequency-space multiplier (a + b k^2) exp(-k^2) of a K0 + b K1."""
    a, b = weights
    return _times_gaussian(lambda k: a + b * k * k, lambda k: np.exp(-k * k), k)


def sign_change(weights, derivative: bool = False) -> float | None:
    """Positive root sqrt(4a/b + 2) of a K0 + b K1, or sqrt(4a/b + 6) of its
    derivative; None when b == 0 or when the kernel underflows to 0 there.

    Past an underflowed root the antiderivative equals its limit at infinity
    to the last bit, so the piece beyond it adds an exact zero either way,
    and None keeps 0 * inf out of the kernel evaluations at huge r.
    """
    a, b = weights
    if b == 0.0:
        return None
    r = math.sqrt(4.0 * a / b + (6.0 if derivative else 2.0))
    return r if _k0(r) > 0.0 else None


def abs_mass_above(t: float, weights, derivative: bool = False) -> float:
    """integral_t^inf |f| for t >= 0, with f = a K0 + b K1 or, if
    `derivative`, its derivative.

    The antiderivative F of f is the cumulative integral, with limit a at
    +inf; that of f' is f itself, with limit 0.  f changes sign on (0, inf)
    at most at sign_change(weights, derivative), and each single-signed piece
    contributes |F(end) - F(start)|.  |f| is even, so the mass over the whole
    line is twice the value at t = 0.
    """
    if derivative:
        F, at_infinity = (lambda s: eval_kernel(s, weights)), 0.0
    else:
        F, at_infinity = (lambda s: kernel_cumulative(s, weights)), weights[0]
    r = sign_change(weights, derivative)
    if r is None or t >= r:
        return abs(at_infinity - F(t))
    return abs(F(r) - F(t)) + abs(at_infinity - F(r))


def kq_abs_mass(family: KernelFamily) -> float:
    """integral |Kq| du over the line."""
    return 2.0 * abs_mass_above(0.0, family.weights)


def kq_derivative_abs_mass(family: KernelFamily) -> float:
    """integral |Kq'| du, telescoped through values of Kq itself."""
    return 2.0 * abs_mass_above(0.0, family.weights, derivative=True)


def erf(x):
    """Error function math.erf, elementwise; a numpy scalar for a scalar x."""
    return _elementwise(math.erf, x)


def erfc(x):
    """Complementary error function math.erfc = 1 - erf, elementwise; a numpy
    scalar for a scalar x."""
    return _elementwise(math.erfc, x)


def _elementwise(f, x):
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)[()]
