"""Convolution operators on profiles and the cube-root fixed-point map.

The operators work on the positive half-line, on the pair (u, tau) that a
Profile holds: the values on the M positive nodes and the right tail.
`build_operator(grid, weights)` precomputes everything that depends on the
grid and the weights (a, b) of the kernel a K0 + b K1 once and returns a
callable mapping (u, tau) to the image on those nodes (see _Workspace).
The Profile-level `apply_tq` and `apply_pq` push a profile's (u, tau)
through it and return the image as a profile, so oddness holds by
construction and the discretization commutes with x -> -x bitwise (the cube
root would amplify any stray asymmetry at the kink's zero crossing by
|noise|^(-2/3)).

The linear operator has two independent discretizations:

* quadrature -- trapezoidal convolution against the closed-form kernel on
  the truncated grid, with the mass beyond the truncation accounted for
  exactly through the kernel's cumulative integral and the profile tails;
  the one `build_operator` builds and the nonlinear map iterates, composed
  with the odd real branch of the cube root that sign-changing solutions
  force;
* spectral -- subtract a reference profile with the same tails whose image
  is known in closed form, push the rapidly decaying remainder through an
  FFT multiplier, and add the reference image back.  `apply_tq` with
  OperatorConfig("spectral") applies it, as a cross-check of the linear
  operator only: it leaves the cube-root cusp's O(h^(7/3)) error uncorrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .grid import GridSpec, Profile
from .kernels import (
    KernelFamily,
    erf,
    eval_kernel,
    eval_kernel_derivative,
    fourier_symbol,
    kernel_cumulative,
)

_SQRT_PI = math.sqrt(math.pi)

#: Half-width of the reference step erf(x/2) used by the spectral path, and
#: the induced parameter of its closed-form image erf(b x): b = a/sqrt(1+4a^2)
#: for a Gaussian-smoothed step erf(a x).
_REF_A = 0.5
_REF_B = _REF_A / math.sqrt(1.0 + 4.0 * _REF_A * _REF_A)

#: zeta(-4/3), the fractional Euler-Maclaurin coefficient of the cube-root
#: cusp (see _Quadrature), as the reflection formula
#: 2^(-4/3) pi^(-7/3) sin(-2 pi/3) Gamma(7/3) zeta(7/3) gives it in doubles.
_ZETA_M43 = float.fromhex("-0x1.482eb2bfe2ac2p-5")


@dataclass(frozen=True)
class OperatorConfig:
    """Which discretization `apply_tq` applies: quadrature, or the spectral
    cross-check.  The benchmark's tracer also reads `method` and
    kernel_window, the quadrature's constant convolution cutoff |x - y| <= 12,
    whose neglected kernel mass is below 1e-16 (a window >= 8 keeps it
    under 1e-8).
    """

    method: str = "quadrature"
    kernel_window: ClassVar[float] = 12.0

    def __post_init__(self) -> None:
        if self.method not in ("quadrature", "spectral"):
            raise ValueError(f"unknown method {self.method!r}")


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


def _smooth_length(n: int) -> int:
    """Least 2^a 3^b 5^c >= n: the lengths at which the FFT is fast."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            length = odd
            while length < n:
                length *= 2
            best = min(best, length)
            odd *= 3
        five *= 5
    return best


class _Quadrature:
    """Trapezoidal convolution over |x - y| <= window plus the exact remainder.

    The half-line samples are extended by reflection and, beyond the
    truncation, by the tail constants, so the integrand decays to kernel
    level (< 1e-16 at the window of 12) at both ends of every node's
    window and the trapezoid rule converges superalgebraically.  The
    'valid' convolution of that extension with the kernel row, started at
    node 1 - m, yields exactly the wanted outputs.  It is taken as a
    product of spectra: the spectrum of h * row is computed once, at the
    least 5-smooth length N >= M + 2m, the extension's length.  An
    application costs one rfft/irfft pair of the extension (see _Workspace);
    the operator holds no mutable state, so a memoised build can be shared.
    The linear convolution of the extension with the row (length 2m + 1)
    ends at index M + 4m - 1, so the circular one of length N folds only its
    indices N and above back, onto indices below M + 4m - N <= 2m: the
    outputs 2m .. 2m + M - 1 it keeps have no wrap-around.  The kernel is
    a K0 + b K1 with weights (a, b); the mass outside the window is added in
    closed form through its cumulative integral C and total mass a:
    tau (a - C(w)) - tau C(-w).

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

    def __init__(self, grid: GridSpec, weights: tuple[float, float]) -> None:
        h = grid.spacing
        m = int(round(OperatorConfig.kernel_window / h))
        self.m, self.size = m, grid.center_index
        self.n_fft = _smooth_length(self.size + 2 * m)
        row = eval_kernel(np.arange(-m, m + 1) * h, weights)
        self.spectrum = np.fft.rfft(h * row, self.n_fft)
        self.odd_remainder = (weights[0] - kernel_cumulative(m * h, weights)
                              - kernel_cumulative(-m * h, weights))
        c = 5.0 - 4.0 * 2.0 ** (1.0 / 3.0) + 3.0 ** (1.0 / 3.0)
        self.cusp = (2.0 * _ZETA_M43 * h * h / c) * eval_kernel_derivative(
            grid.x_half, weights)

    def workspace(self) -> _Workspace:
        """Fresh arrays for one caller's applications."""
        return _Workspace(self.n_fft, self.m, self.size)

    def __call__(self, u: np.ndarray, tau: float,
                 work: _Workspace | None = None) -> np.ndarray:
        """Image on the positive nodes of the odd profile (u, tau); see _Workspace."""
        n, m, size = self.n_fft, self.m, self.size
        work = self.workspace() if work is None else work
        ext = work.ext  # from node 1 - m: -tau beyond -L, the mirror, 0, u, tau, zeros
        if u is not work.u:
            work.u[...] = u
        if tau != work.tau:
            ext[:max(m - 1 - size, 0)] = -tau
            ext[m - 1] = 0.0
            ext[m + size:2 * m + size] = tau
            ext[2 * m + size:] = 0.0
            work.tau = tau
        np.negative(work.mirrored, out=work.mirror)
        np.fft.rfft(ext, out=work.spectrum)
        work.spectrum *= self.spectrum
        np.fft.irfft(work.spectrum, n, out=work.out)
        u1, u2, u3 = work.u[:3].tolist()
        work.image += tau * self.odd_remainder
        work.image += np.multiply(self.cusp, 5.0 * u1 - 4.0 * u2 + u3, out=work.cusp_term)
        return work.image


class _Workspace:
    """One caller's arrays for a _Quadrature.  The FFT input `ext` persists
    between calls: `u` is its slot for the positive nodes and `tau` the tail
    its -tau and tau blocks hold.  A call copies u into the slot unless u is
    that view, rewrites the tail blocks, origin and padding only when its tau
    is not `tau`, and negates the slot into its mirror; the irfft writes
    `out`, whose kept outputs `image` are returned, valid until the next call."""

    def __init__(self, n: int, m: int, size: int) -> None:
        self.ext, self.out, self.cusp_term = np.empty(n), np.empty(n), np.empty(size)
        self.spectrum = np.empty(n // 2 + 1, dtype=complex)
        self.u, self.image = self.ext[m:m + size], self.out[2 * m:2 * m + size]
        self.mirrored = self.u[min(m - 1, size) - 1::-1]
        self.mirror, self.tau = self.ext[m - 1 - len(self.mirrored):m - 1], math.nan

    def __iter__(self):
        """The arrays; a caller that writes ext itself sets tau to NaN."""
        return iter((self.ext, self.spectrum, self.out, self.cusp_term))


class _Spectral:
    """Fourier-multiplier application after removing a non-decaying reference.

    The kink does not decay, but its deviation from the tail-matched
    reference tail * erf(x/2) does, so the FFT sees a rapidly decaying
    remainder and periodization error stays negligible at the default
    truncation.  A Gaussian-smoothed step erf(a x) maps to erf(b x) with
    b = a / sqrt(1 + 4 a^2); the curvature part is minus its second
    derivative, (4 b^3 / sqrt(pi)) x exp(-b^2 x^2); constants are fixed.
    The kernel's weights (w0, w1) weigh the two images.
    The seam node x = -L of the odd extension is forced to zero (an odd
    periodic function must vanish there); the value it drops is already
    periodization noise of the same size.
    """

    def __init__(self, grid: GridSpec, weights: tuple[float, float]) -> None:
        x = grid.x_half
        k = 2.0 * math.pi * np.fft.rfftfreq(grid.n_points - 1, d=grid.spacing)
        self.symbol = fourier_symbol(k, weights)
        self.reference = erf(0.5 * x)
        (w0, w1), b = weights, _REF_B
        curvature = w1 * (4.0 * b**3 / _SQRT_PI) * x * np.exp(-(b * x) ** 2)
        self.reference_image = w0 * erf(b * x) + curvature

    def __call__(self, u: np.ndarray, tau: float) -> np.ndarray:
        """Image on the positive nodes of the odd profile (u, tau)."""
        d = u - tau * self.reference
        arr = np.concatenate([[0.0], -d[-2::-1], [0.0], d[:-1]])
        img = np.fft.irfft(np.fft.rfft(arr) * self.symbol, n=len(arr))
        return np.append(img[len(u) + 1:], 0.0) + tau * self.reference_image


@lru_cache(maxsize=8)
def build_operator(grid: GridSpec, weights: tuple[float, float]) -> _Quadrature:
    """The quadrature a K0 + b K1 on odd profiles, built once per (grid, weights).

    Calling the result as op(u, tau, work=None) returns the image of the odd
    profile (u, tau) on the positive nodes (see _Workspace).
    The kernel row is the combined a K0 + b K1, so an application costs one
    spectrum product whatever the weights.  Recent builds are memoised and
    shared, so callers only read them.
    """
    return _Quadrature(grid, weights)


_spectral = lru_cache(maxsize=8)(_Spectral)


def apply_tq(p: Profile, family: KernelFamily,
             cfg: OperatorConfig = OperatorConfig()) -> Profile:
    """Apply the combined linear operator (Gaussian + q^2 curvature) to an
    odd profile, discretized as cfg selects.  The kernel's mass is 1, so the
    tail tau maps to tau; at q = 0 this is the Gaussian smoothing T0."""
    build = _spectral if cfg.method == "spectral" else build_operator
    image = build(p.grid, family.weights)(p.u, p.tau)
    return Profile(grid=p.grid, u=image, tau=p.tau)


def apply_pq(p: Profile, family: KernelFamily) -> Profile:
    """Nonlinear map: odd cube root of the quadrature image of the odd
    profile p, the map `solve` iterates.

    Constant tails +-c map to +-c^(1/3) because the Gaussian part preserves
    constants and the curvature part annihilates them at infinity.
    """
    image = build_operator(p.grid, family.weights)(p.u, p.tau)
    return Profile(grid=p.grid, u=np.cbrt(image), tau=float(np.cbrt(p.tau)))
