"""Convolution operators on profiles and the cube-root fixed-point map.

The operators work on the positive half-line.  An odd profile is its values
u on the M positive nodes plus its right tail tau (centre value 0, left half
mirrored); `build_operator(grid, family, cfg)` precomputes everything that
depends on the grid, q and configuration once and returns a callable mapping
(u, tau) to T_q Phi on those nodes, so oddness holds by construction.  The
Profile-level `apply_*` functions split a profile exactly into odd and even
halves, push each through the same half-line code and mirror the images, so
the discretization commutes with x -> -x bitwise (the cube root amplifies
any stray asymmetry at the kink's zero crossing by |noise|^(-2/3)).

Two independent discretizations are provided:

* quadrature -- trapezoidal convolution against the closed-form kernel on
  the truncated grid, with the mass beyond the truncation accounted for
  exactly through the kernel's cumulative integral and the profile tails;
* spectral -- subtract a reference profile with the same tails whose image
  is known in closed form, push the rapidly decaying remainder through an
  FFT multiplier, and add the reference image back.

The nonlinear map composes the linear operator with the odd real branch of
the cube root, the branch forced by sign-changing solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf
from scipy.special import gamma as _sp_gamma
from scipy.special import zeta as _sp_zeta

from .grid import GridSpec, Profile
from .kernels import (
    KernelFamily,
    eval_k1,
    eval_k1_derivative,
    eval_kq,
    eval_kq_derivative,
    fourier_symbol,
    k1_cumulative,
    kq_cumulative,
)

_SQRT_PI = math.sqrt(math.pi)

#: Half-width of the reference step erf(x/2) used by the spectral path, and
#: the induced parameter of its closed-form image erf(b x): b = a/sqrt(1+4a^2)
#: for a Gaussian-smoothed step erf(a x).
_REF_A = 0.5
_REF_B = _REF_A / math.sqrt(1.0 + 4.0 * _REF_A * _REF_A)

#: zeta(-4/3), the fractional Euler-Maclaurin coefficient of the cube-root
#: cusp (computed once via the reflection formula; see _Quadrature).
_ZETA_M43 = float(2.0 ** (-4.0 / 3.0) * math.pi ** (-7.0 / 3.0)
                  * math.sin(-2.0 * math.pi / 3.0)
                  * _sp_gamma(7.0 / 3.0) * _sp_zeta(7.0 / 3.0))


@dataclass(frozen=True)
class OperatorConfig:
    """How to apply the linear operators.

    kernel_window is the convolution cutoff |x - y| <= window for the
    quadrature path; at the default 12 the neglected kernel mass is below
    1e-16 (it must stay >= 8 to keep that error under 1e-8).

    cusp_correction keeps the quadrature at full order on fixed points of
    the cube-root map, which cross zero like x^(1/3): the singular part of
    the odd component is fitted at the origin and its two adjacent cells are
    integrated exactly instead of by trapezoid.  On profiles smooth at the
    origin the fitted singular amplitude vanishes at high order, so the
    correction is inert there.
    """

    method: str = "quadrature"
    kernel_window: float = 12.0
    cusp_correction: bool = True

    def __post_init__(self) -> None:
        if self.method not in ("quadrature", "spectral"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.kernel_window >= 8.0:
            raise ValueError("kernel_window must be >= 8")


def psi(x):
    """Gaussian ramp (1/sqrt(pi)) integral_0^x exp(-y^2) dy = erf(x)/2."""
    out = 0.5 * erf(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def t0_psi_analytic(x):
    """Closed-form smoothing of the ramp: (1/2) erf(x/sqrt(5)).

    Its derivative at 0 is 1/sqrt(5 pi); this is the analytic oracle the
    quadrature operator is validated against.
    """
    out = 0.5 * erf(np.asarray(x, dtype=float) / math.sqrt(5.0))
    return float(out) if out.ndim == 0 else out


def signed_cube_root(y):
    """Odd real cube root sign(y) |y|^(1/3)."""
    out = np.cbrt(np.asarray(y, dtype=float))
    return float(out) if out.ndim == 0 else out


class _Quadrature:
    """Trapezoidal convolution over |x - y| <= window plus the exact remainder.

    The half-line samples are extended by reflection and, beyond the
    truncation, by the tail constants, so the integrand decays to kernel
    level (< 1e-16 at the default window) at both ends of every node's
    window and the trapezoid rule converges superalgebraically.  One direct
    convolution of that extension, started at node 1 - m (odd) or -m (even),
    yields exactly the wanted outputs.  The mass outside the window is added
    in closed form through the kernel's cumulative integral C and total mass:
    tail_right (mass - C(w)) + tail_left C(-w).

    Profiles are assumed continuous at the truncation; a mismatch between
    the edge samples and the tails contributes O(spacing * mismatch) error
    near the boundary nodes.

    Odd images carry the fractional Euler-Maclaurin correction for a
    cube-root zero crossing.  Folding the convolution onto y > 0 gives the
    half-line trapezoid sum of F(y) = s y^(1/3) G(y) with
    G(y) = K(x - y) - K(x + y).  For an integrand y^gamma g(y) the trapezoid
    error carries fractional terms g^(m)(0)/m! zeta(-gamma - m) h^(1+gamma+m)
    on top of the smooth expansion; here G(0) = 0 and G''(0) = 0, so the only
    relevant term is

        integral - trapezoid = -s G'(0) zeta(-4/3) h^(7/3)
                             = 2 s K'(x) zeta(-4/3) h^(7/3),

    with the next contribution of order h^(10/3) and a small coefficient.
    The amplitude s is that of the model s |y|^(1/3) + b y + c y^3 through
    the first three positive samples u1, u2, u3.  The weights (5, -4, 1)
    annihilate y and y^3 at y = h, 2h, 3h, so the first row of the fit's
    inverse is closed-form: s = (5 u1 - 4 u2 + u3) / (c h^(1/3)) with
    c = 5 - 4 2^(1/3) + 3^(1/3), and s h^(7/3) = (5 u1 - 4 u2 + u3) h^2 / c.
    For profiles smooth at the origin the exact cubic Taylor part is
    absorbed by b and c, leaving s of order spacing^(14/3), so the
    correction then does essentially nothing.
    """

    def __init__(self, grid: GridSpec, kernel, cumulative, mass: float,
                 derivative, cfg: OperatorConfig) -> None:
        h = grid.spacing
        m = int(round(cfg.kernel_window / h))
        self.h, self.m = h, m
        self.row = kernel(np.arange(-m, m + 1) * h)
        right, left = mass - cumulative(m * h), cumulative(-m * h)
        self.odd_remainder = right - left
        self.even_remainder = right + left
        self.cusp = None
        if cfg.cusp_correction:
            c = 5.0 - 4.0 * 2.0 ** (1.0 / 3.0) + 3.0 ** (1.0 / 3.0)
            self.cusp = (2.0 * _ZETA_M43 * h * h / c) * derivative(
                grid.x[grid.center_index + 1:])

    def __call__(self, u: np.ndarray, tau: float) -> np.ndarray:
        """Image on the positive nodes of the odd profile (u, tau)."""
        tail = np.full(self.m, tau)
        ext = np.concatenate([-tail, -u[::-1], [0.0], u, tail])[len(u) + 1:]
        out = self.h * np.convolve(ext, self.row, mode="valid")
        out += tau * self.odd_remainder
        if self.cusp is not None:
            out += (5.0 * u[0] - 4.0 * u[1] + u[2]) * self.cusp
        return out

    def even(self, e: np.ndarray, tail: float) -> np.ndarray:
        """Image on nodes 0..M of the even profile with values e there."""
        pad = np.full(self.m, tail)
        ext = np.concatenate([pad, e[:0:-1], e, pad])[len(e) - 1:]
        return self.h * np.convolve(ext, self.row, mode="valid") + tail * self.even_remainder


class _Spectral:
    """Fourier-multiplier application after removing a non-decaying reference.

    The kink does not decay, but its deviation from the tail-matched
    reference tail * erf(x/2) does, so the FFT sees a rapidly decaying
    remainder and periodization error stays negligible at the default
    truncation.  A Gaussian-smoothed step erf(a x) maps to erf(b x) with
    b = a / sqrt(1 + 4 a^2); the curvature part is minus its second
    derivative, (4 b^3 / sqrt(pi)) x exp(-b^2 x^2); constants are fixed.
    Each image is symmetrized on the periodic grid (x -> -x maps index i to
    (N - i) mod N).  The seam node x = -L of the odd extension is forced to
    zero (an odd periodic function must vanish there); the value it drops is
    already periodization noise of the same size.
    """

    def __init__(self, grid: GridSpec, family: KernelFamily) -> None:
        c = grid.center_index
        x = grid.x[c + 1:]
        k = 2.0 * math.pi * np.fft.rfftfreq(grid.n_points - 1, d=grid.spacing)
        self.c = c
        self.symbol = fourier_symbol(k, family)
        self.reference = erf(0.5 * x)
        b, q = _REF_B, family.q
        image = erf(b * x)
        if q != 0.0:
            image = image + (q * q) * (4.0 * b**3 / _SQRT_PI) * x * np.exp(-(b * x) ** 2)
        self.reference_image = image

    def _multiply(self, arr: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(arr) * self.symbol, n=len(arr))

    def __call__(self, u: np.ndarray, tau: float) -> np.ndarray:
        """Image on the positive nodes of the odd profile (u, tau)."""
        d = u - tau * self.reference
        img = self._multiply(np.concatenate([[0.0], -d[-2::-1], [0.0], d[:-1]]))
        c = self.c
        pos = np.append(0.5 * (img[c + 1:] - img[c - 1:0:-1]), 0.0)
        return pos + tau * self.reference_image

    def even(self, e: np.ndarray, tail: float) -> np.ndarray:
        """Image on nodes 0..M of the even profile with values e there."""
        img = self._multiply(np.concatenate([e[:0:-1], e[:-1]]) - tail)
        c = self.c
        return np.append(0.5 * (img[c:] + img[c:0:-1]), img[0]) + tail


def build_operator(grid: GridSpec, family: KernelFamily,
                   cfg: OperatorConfig = OperatorConfig()):
    """T_q on odd profiles, built once per (grid, q, cfg).

    Calling the result with the values u on the positive nodes and the
    right tail tau returns T_q Phi on those nodes.  The quadrature kernel
    row is the combined K_q = K0 + q^2 K1, so one convolution serves every q.
    """
    if cfg.method == "spectral":
        return _Spectral(grid, family)
    return _Quadrature(grid, lambda u: eval_kq(u, family),
                       lambda t: kq_cumulative(t, family), 1.0,
                       lambda u: eval_kq_derivative(u, family), cfg)


def _apply(p: Profile, op) -> np.ndarray:
    """Full-grid image of p: its odd and even halves through op, mirrored."""
    c = p.grid.center_index
    v = p.values
    odd = 0.5 * (v[c + 1:] - v[c - 1::-1])
    even = 0.5 * (v[c:] + v[c::-1])
    tail_odd = 0.5 * (p.tail_right - p.tail_left)
    tail_even = 0.5 * (p.tail_right + p.tail_left)
    e = np.zeros(c + 1)
    o = np.zeros(c)
    if tail_even != 0.0 or np.any(even):
        e = op.even(even, tail_even)
    if tail_odd != 0.0 or np.any(odd):
        o = op(odd, tail_odd)
    return np.concatenate([e[:0:-1] - o[::-1], e[:1], e[1:] + o])


def apply_t0(p: Profile, cfg: OperatorConfig = OperatorConfig()) -> Profile:
    """Smooth a profile with the unit-mass Gaussian kernel, by quadrature.

    Constants are fixed, so the output tails equal the input tails.
    """
    return apply_tq(p, KernelFamily(0.0), replace(cfg, method="quadrature"))


def apply_t1(p: Profile, cfg: OperatorConfig = OperatorConfig()) -> Profile:
    """Convolve a profile with the zero-mass curvature kernel, by quadrature.

    The kernel integrates to zero, so constants map to zero and the output
    tails vanish: at x -> +-inf the value tends to tail * (total mass) = 0,
    for equal-magnitude constant tails and for odd tail pairs alike.
    """
    op = _Quadrature(p.grid, eval_k1, k1_cumulative, 0.0, eval_k1_derivative, cfg)
    return Profile(grid=p.grid, values=_apply(p, op), tail_right=0.0, tail_left=0.0)


def apply_tq(p: Profile, family: KernelFamily,
             cfg: OperatorConfig = OperatorConfig()) -> Profile:
    """Apply the combined linear operator (Gaussian + q^2 curvature)."""
    return Profile(grid=p.grid, values=_apply(p, build_operator(p.grid, family, cfg)),
                   tail_right=p.tail_right, tail_left=p.tail_left)


def apply_pq(p: Profile, family: KernelFamily,
             cfg: OperatorConfig = OperatorConfig()) -> Profile:
    """Nonlinear map: odd cube root of the linear image.

    Constant tails +-c map to +-c^(1/3) because the Gaussian part preserves
    constants and the curvature part annihilates them at infinity.
    """
    tq = apply_tq(p, family, cfg)
    return Profile(grid=p.grid, values=np.cbrt(tq.values),
                   tail_right=signed_cube_root(tq.tail_right),
                   tail_left=signed_cube_root(tq.tail_left))
