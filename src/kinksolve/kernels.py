"""Closed-form Gaussian convolution kernels and their integral norms.

The kernel family is

    K0(u) = exp(-u^2/4) / (2 sqrt(pi))            (unit-mass Gaussian)
    K1(u) = (1/2 - u^2/4) K0(u) = -K0''(u)        (curvature correction)
    Kq(u) = K0(u) + q^2 K1(u)

for a deformation parameter q >= 0.  Under the Fourier transform
f_hat(k) = integral f(u) exp(-i k u) du the family acts as the multiplier
(1 + q^2 k^2) exp(-k^2).

Useful antiderivatives (documented here because the convolution operators
and the tail integrals rely on them):

    integral_{-inf}^{t} K0 = erfc(-t/2) / 2
    integral_{-inf}^{t} K1 = -K0'(t) = (t/2) K0(t)

The second identity follows from K1 = -K0''.  Kq changes sign exactly at
|u| = sqrt(4/q^2 + 2); its derivative vanishes at u = 0 and at
|u| = sqrt(4/q^2 + 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

_SQRT_PI = math.sqrt(math.pi)
_INV_TWO_SQRT_PI = 1.0 / (2.0 * _SQRT_PI)

#: Integration window for absolute-value kernel integrals.  K0(12) < 1e-16,
#: so the remainder beyond the window is handled by the analytic tail terms.
NORM_WINDOW = 12.0

#: Absolute tolerance the adaptive quadrature must certify.
NORM_ABS_TOL = 1e-12


class QuadratureAccuracyError(RuntimeError):
    """Adaptive quadrature failed to certify the requested tolerance."""


@dataclass(frozen=True)
class KernelFamily:
    """Kernel family member selected by the deformation parameter q >= 0."""

    q: float = 0.0

    def __post_init__(self) -> None:
        q = float(self.q)
        if not q >= 0.0:
            raise ValueError(f"deformation parameter must be >= 0, got {self.q}")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class KernelNorms:
    """Absolute-mass norms of Kq and Kq' over a sampled q-range.

    a_values[i] = integral |Kq| du at q = q_values[i], e_values[i] the same
    for Kq'.  b_sup and e_sup are the suprema over the sampled range after
    golden-section refinement around the grid maximum.
    """

    q_values: np.ndarray
    a_values: np.ndarray
    e_values: np.ndarray
    b_sup: float
    e_sup: float


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


def kq_sign_change(family: KernelFamily) -> float | None:
    """Positive root of Kq, i.e. sqrt(4/q^2 + 2); None when q = 0."""
    if family.q == 0.0:
        return None
    return math.sqrt(4.0 / (family.q * family.q) + 2.0)


def _kq_derivative_root(family: KernelFamily) -> float | None:
    """Positive root of Kq', located by bisection to 1e-14; None when q = 0.

    The bracket [1, 2/q + 3] always straddles the root: the derivative is
    negative at u = 1 and positive once the bracket factor has flipped sign.
    """
    if family.q == 0.0:
        return None
    lo, hi = 1.0, 2.0 / family.q + 3.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if eval_kq_derivative(mid, family) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kq_derivative_sign_change(family: KernelFamily, window: float = NORM_WINDOW) -> float | None:
    """Positive root of Kq' inside (0, window); None when q = 0 or beyond it."""
    root = _kq_derivative_root(family)
    if root is None or root >= float(window):
        return None
    return root


def tail_mass(threshold: float, family: KernelFamily) -> tuple[float, float]:
    """Absolute kernel mass below -threshold and above +threshold.

    Returns (integral_{-inf}^{-threshold} |Kq|, integral_{threshold}^{inf} |Kq|).
    |Kq| is even, so the two components are equal.  Beyond the sign change
    the kernel is negative; the pieces are assembled from the closed-form
    cumulative integrals above.
    """
    t = float(threshold)
    if t <= 0.0:
        # |Kq| mass above t = total - mass above -t (evenness; the total is
        # twice the closed-form mass above zero).
        right = 2.0 * _abs_mass_above(0.0, family) - _abs_mass_above(-t, family)
    else:
        right = _abs_mass_above(t, family)
    return right, right


def _abs_mass_above(t: float, family: KernelFamily) -> float:
    """integral_{t}^{inf} |Kq| for t >= 0, from closed-form cumulatives."""
    root = kq_sign_change(family)
    above = lambda s: 1.0 - kq_cumulative(s, family)  # noqa: E731
    if root is None or t >= root:
        # single-signed on [t, inf): positive for q = 0, negative past root
        return abs(above(t))
    return (kq_cumulative(root, family) - kq_cumulative(t, family)) - above(root)


def kq_abs_mass(family: KernelFamily, window: float = NORM_WINDOW) -> float:
    """integral |Kq| du by adaptive quadrature split at the kernel root."""
    return _abs_integral(
        lambda u: eval_kq(u, family),
        _positive_roots([kq_sign_change(family)], window),
        window,
        tail=lambda w: _abs_mass_above(w, family),
    )


def kq_derivative_abs_mass(family: KernelFamily, window: float = NORM_WINDOW) -> float:
    """integral |Kq'| du by adaptive quadrature split at the derivative root."""

    def tail(w: float) -> float:
        # For u >= max(root, w) the derivative is single-signed, so the
        # absolute integral telescopes through values of Kq itself.
        root = _kq_derivative_root(family)
        kw = eval_kq(w, family)
        if root is None or root <= w:
            return abs(-kw)
        return kw - 2.0 * eval_kq(root, family)

    roots = _positive_roots([kq_derivative_sign_change(family, window)], window)
    return _abs_integral(lambda u: eval_kq_derivative(u, family), roots, window, tail=tail)


def _positive_roots(candidates, window: float) -> list[float]:
    return sorted(r for r in candidates if r is not None and 0.0 < r < window)


def _abs_integral(f, roots: list[float], window: float, tail) -> float:
    """2 * integral_0^window |f| split at roots, plus the analytic tail.

    The integrand is even; each piece between consecutive roots is smooth,
    so the adaptive rule converges at full order.  Raises
    QuadratureAccuracyError when the certified error exceeds NORM_ABS_TOL.
    """
    edges = [0.0, *roots, float(window)]
    total = 0.0
    err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, abserr = quad(lambda u: abs(f(u)), lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
        total += val
        err += abserr
    if err > NORM_ABS_TOL:
        raise QuadratureAccuracyError(
            f"kernel norm quadrature certified only {err:.3e} > {NORM_ABS_TOL:.1e}"
        )
    return 2.0 * (total + tail(float(window)))


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Locate the maximum of a unimodal f on [lo, hi]; returns (argmax, max)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def kernel_norms(family_range_max: float = 1.0, n_samples: int = 101) -> KernelNorms:
    """Sample integral |Kq| and integral |Kq'| over q in [0, family_range_max].

    The suprema are taken over the uniform q-grid and refined by a
    golden-section pass around the grid maximum (the integrands vary
    smoothly in q).
    """
    if not family_range_max > 0.0:
        raise ValueError("family_range_max must be positive")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    q_values = np.linspace(0.0, float(family_range_max), int(n_samples))
    a_values = np.array([kq_abs_mass(KernelFamily(q)) for q in q_values])
    e_values = np.array([kq_derivative_abs_mass(KernelFamily(q)) for q in q_values])

    def refine(values: np.ndarray, evaluate) -> float:
        i = int(np.argmax(values))
        lo = q_values[max(i - 1, 0)]
        hi = q_values[min(i + 1, len(q_values) - 1)]
        if hi > lo:
            _, peak = golden_section_max(evaluate, lo, hi, tol=1e-10)
        else:
            peak = values[i]
        return max(float(values[i]), float(peak))

    b_sup = refine(a_values, lambda q: kq_abs_mass(KernelFamily(q)))
    e_sup = refine(e_values, lambda q: kq_derivative_abs_mass(KernelFamily(q)))
    return KernelNorms(q_values=q_values, a_values=a_values, e_values=e_values,
                       b_sup=b_sup, e_sup=e_sup)
