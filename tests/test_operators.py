import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from kinksolve.grid import Profile, make_grid, sample, sup_distance, sup_norm
from kinksolve.kernels import K0_WEIGHTS, K1_WEIGHTS, KernelFamily, eval_kernel
from kinksolve.operators import (
    _ZETA_M43,
    OperatorConfig,
    _Quadrature,
    _smooth_length,
    _Spectral,
    apply_pq,
    apply_tq,
    build_operator,
    psi,
    t0_psi_analytic,
)

CUBE_ROOT_HOLDER = 2.0 ** (2.0 / 3.0)

#: Nodes with |x| >= FAR_X see only the constant part of odd_ramp through the
#: kernel window of 12.
FAR_X = 14.0


def _quadrature_abs_k1():
    # 2 sqrt(2) K0(sqrt(2)), the closed-form |K1| mass
    return 2.0 * math.sqrt(2.0) * math.exp(-0.5) / (2.0 * math.sqrt(math.pi))


def odd_bandlimited(grid, seed, n_modes=3, amp=0.1, envelope_scale=4.0):
    rng = np.random.default_rng(seed)
    x = grid.x
    v = np.zeros_like(x)
    for _ in range(n_modes):
        v += rng.uniform(-amp, amp) * np.sin(rng.uniform(0.2, 2.0) * x)
    v *= np.exp(-((x / envelope_scale) ** 2))
    v = 0.5 * (v - v[::-1])
    return Profile(grid=grid, u=v[grid.center_index + 1:], tau=0.0)


def apply_k1(p):
    """The zero-mass curvature kernel K1 on a profile, by quadrature:
    constants map to zero, so the tail does."""
    return Profile(grid=p.grid, u=build_operator(p.grid, K1_WEIGHTS)(p.u, p.tau), tau=0.0)


def odd_ramp(grid):
    """Odd clipped ramp with tails +-1: equal to sign(x) for |x| >= 2."""
    return sample(lambda x: np.clip(x / 2.0, -1.0, 1.0), grid, 1.0)


def test_operator_config_validation():
    with pytest.raises(ValueError):
        OperatorConfig(method="bogus")


def test_t0_fixes_constants(default_grid):
    ramp = odd_ramp(default_grid)
    far = np.abs(default_grid.x) >= FAR_X
    out = apply_tq(ramp, KernelFamily(0.0))
    assert np.max(np.abs(out.values[far] - ramp.values[far])) < 1e-12
    assert out.tau == 1.0


def test_t0_matches_analytic_ramp_image(default_grid):
    ramp = sample(psi, default_grid, 0.5)
    out = apply_tq(ramp, KernelFamily(0.0))
    assert np.max(np.abs(out.values - t0_psi_analytic(default_grid.x))) <= 1e-8


def test_t0_preserves_oddness(default_grid):
    p = odd_bandlimited(default_grid, seed=3)
    out = apply_tq(p, KernelFamily(0.0)).values
    assert np.array_equal(out, -out[::-1])


def test_t1_kills_constants(default_grid):
    far = np.abs(default_grid.x) >= FAR_X
    out = apply_k1(odd_ramp(default_grid))
    assert np.max(np.abs(out.values[far])) < 1e-12
    assert out.tau == 0.0


def test_t1_of_odd_vanishes_at_origin(default_grid):
    ramp = sample(psi, default_grid, 0.5)
    out = apply_k1(ramp)
    assert out.values[default_grid.center_index] == 0.0


def test_t1_sup_bound(default_grid):
    bound = _quadrature_abs_k1()
    for seed in range(6):
        p = odd_bandlimited(default_grid, seed=seed)
        out = apply_k1(p)
        assert sup_norm(out) <= sup_norm(p) * bound + 1e-9


def test_tq_at_q0_equals_t0(default_grid):
    # verify's analytic oracle smooths with apply_tq at q = 0: the weights are
    # K0's, so the memoised T0 operator is the one that runs
    assert KernelFamily(0.0).weights == K0_WEIGHTS
    assert build_operator(default_grid, KernelFamily(0.0).weights) is build_operator(
        default_grid, K0_WEIGHTS)
    p = odd_bandlimited(default_grid, seed=9)
    image = apply_tq(p, KernelFamily(0.0)).values[default_grid.center_index + 1:]
    assert np.array_equal(image, build_operator(default_grid, K0_WEIGHTS)(p.u, p.tau))


def test_tq_unit_mass_for_all_q(default_grid):
    ramp = odd_ramp(default_grid)
    far = np.abs(default_grid.x) >= FAR_X
    for q in [0.25, 0.5, 1.0]:
        out = apply_tq(ramp, KernelFamily(q))
        assert np.max(np.abs(out.values[far] - ramp.values[far])) < 1e-12


def test_quadrature_vs_spectral_on_erf(default_grid):
    p = sample(lambda x: erf(x), default_grid, 1.0)
    fam = KernelFamily(0.3)
    a = apply_tq(p, fam, OperatorConfig("quadrature"))
    b = apply_tq(p, fam, OperatorConfig("spectral"))
    assert sup_distance(a, b) <= 1e-9


def test_t1_quadrature_vs_spectral(default_grid):
    # the curvature kernel alone, on half-line images
    grid = default_grid
    profiles = [
        sample(lambda x: erf(x), grid, 1.0),
        sample(np.tanh, grid, 1.0),
        sample(psi, grid, 0.5),
        sample(lambda x: np.tanh(x) + 0.1 * x * np.exp(-x * x), grid, 1.0),
        odd_ramp(grid),
    ]
    quadrature, spectral = build_operator(grid, K1_WEIGHTS), _Spectral(grid, K1_WEIGHTS)
    for p in profiles:
        assert np.max(np.abs(quadrature(p.u, p.tau) - spectral(p.u, p.tau))) <= 1e-8


def test_operator_memo_is_keyed_on_weights(default_grid):
    assert build_operator(default_grid, KernelFamily(0.0).weights) is build_operator(
        default_grid, K0_WEIGHTS)


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 1.0])
def test_quadrature_vs_spectral_suite(default_grid, q):
    fam = KernelFamily(q)
    profiles = [
        sample(lambda x: erf(x), default_grid, 1.0),
        sample(np.tanh, default_grid, 1.0),
        sample(psi, default_grid, 0.5),
        odd_bandlimited(default_grid, seed=17),
        odd_bandlimited(default_grid, seed=23),
    ]
    for p in profiles:
        a = apply_tq(p, fam, OperatorConfig("quadrature"))
        b = apply_tq(p, fam, OperatorConfig("spectral"))
        assert sup_distance(a, b) <= 1e-8


def test_tq_linearity(default_grid):
    fam = KernelFamily(0.4)
    rng = np.random.default_rng(5)
    for _ in range(4):
        p = odd_bandlimited(default_grid, seed=int(rng.integers(1000)))
        r = odd_bandlimited(default_grid, seed=int(rng.integers(1000)))
        alpha, beta = rng.uniform(-2, 2, size=2)
        combo = Profile(grid=default_grid, u=alpha * p.u + beta * r.u,
                        tau=alpha * p.tau + beta * r.tau)
        lhs = apply_tq(combo, fam)
        rhs = alpha * apply_tq(p, fam).values + beta * apply_tq(r, fam).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-12


def test_t0_monotone_comparison_on_positive_half(default_grid):
    # odd p >= odd r on x > 0 implies the same ordering of the images
    c = default_grid.center_index
    t0 = KernelFamily(0.0)
    for seed in range(5):
        r = odd_bandlimited(default_grid, seed=100 + seed)
        bump_pos = np.abs(odd_bandlimited(default_grid, seed=200 + seed).u)
        p = Profile(grid=default_grid, u=r.u + bump_pos, tau=0.0)
        assert np.all(p.values[c + 1:] >= r.values[c + 1:])
        image_diff = apply_tq(p, t0).values - apply_tq(r, t0).values
        assert np.min(image_diff[c + 1:]) >= -1e-12


def test_analytic_ramp_image_properties():
    assert psi(0.0) == 0.0
    assert t0_psi_analytic(0.0) == 0.0
    eps = 1e-6
    derivative = (t0_psi_analytic(eps) - t0_psi_analytic(-eps)) / (2.0 * eps)
    assert derivative == pytest.approx(1.0 / math.sqrt(5.0 * math.pi), abs=1e-12)
    assert 1.0 / math.sqrt(5.0 * math.pi) == pytest.approx(0.25231325, abs=1e-8)
    assert psi(10.0) == pytest.approx(0.5, abs=1e-15)


def test_signed_cube_root_values():
    assert np.cbrt(0.0) == 0.0
    assert np.cbrt(1.0) == 1.0
    assert np.cbrt(-8.0) == -2.0
    assert np.cbrt(0.027) == pytest.approx(0.3, rel=1e-15)


@given(st.floats(min_value=-100, max_value=100, allow_nan=False),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=500, deadline=None)
def test_signed_cube_root_holder_property(a, b):
    lhs = abs(np.cbrt(a) - np.cbrt(b))
    rhs = CUBE_ROOT_HOLDER * abs(a - b) ** (1.0 / 3.0)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-15


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_signed_cube_root_odd_and_monotone(y):
    assert np.cbrt(-y) == -np.cbrt(y)
    assert np.cbrt(y + 1.0) > np.cbrt(y)


def test_pq_fixes_unit_constant(default_grid):
    ramp = odd_ramp(default_grid)
    far = np.abs(default_grid.x) >= FAR_X
    for q in [0.0, 0.6]:
        out = apply_pq(ramp, KernelFamily(q))
        assert np.max(np.abs(out.values[far] - ramp.values[far])) < 1e-12
        assert out.tau == ramp.tau


def test_pq_fixes_zero(default_grid):
    zero = Profile(grid=default_grid, u=np.zeros(default_grid.center_index), tau=0.0)
    out = apply_pq(zero, KernelFamily(0.3))
    assert sup_norm(out) == 0.0


def test_pq_preserves_oddness_exactly(default_grid):
    p = sample(lambda x: erf(x), default_grid, 1.0)
    out = apply_pq(p, KernelFamily(0.4)).values
    assert np.array_equal(out, -out[::-1])
    assert out[default_grid.center_index] == 0.0


@pytest.mark.parametrize("method", ["quadrature", "spectral"])
def test_half_line_operator_is_positive_half_of_tq(default_grid, method):
    c = default_grid.center_index
    p = sample(lambda x: np.cbrt(np.tanh(x)), default_grid, 1.0)
    build = _Spectral if method == "spectral" else build_operator
    for q in (0.0, 0.5):
        half = build(default_grid, KernelFamily(q).weights)(p.values[c + 1:], p.tau)
        image = apply_tq(p, KernelFamily(q), OperatorConfig(method))
        assert np.array_equal(half, image.values[c + 1:])
    if method == "quadrature":
        half = build_operator(default_grid, K1_WEIGHTS)(p.values[c + 1:], p.tau)
        assert np.array_equal(half, apply_k1(p).values[c + 1:])


@pytest.mark.parametrize("method", ["quadrature", "spectral"])
def test_memoised_operator_images_match_fresh_build(default_grid, method):
    # apply_tq keeps recent operators of either method; the uncached build
    # is the oracle
    p = sample(lambda x: np.cbrt(np.tanh(x)) + 0.1 * x * np.exp(-x * x), default_grid,
               1.0)
    c = default_grid.center_index
    cfg = OperatorConfig(method)
    for q in (0.0, 0.2):
        family = KernelFamily(q)
        if method == "spectral":
            fresh = _Spectral(default_grid, family.weights)
        else:
            assert build_operator(default_grid, family.weights) is build_operator(
                default_grid, family.weights)
            fresh = build_operator.__wrapped__(default_grid, family.weights)
        for _ in range(2):
            assert np.array_equal(apply_tq(p, family, cfg).values[c + 1:],
                                  fresh(p.u, p.tau))


def _is_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_smooth_length_is_least_5_smooth_above():
    for n in range(1, 5001):
        least = n
        while not _is_smooth(least):
            least += 1
        assert _smooth_length(n) == least, n


# (5, 0.5): the window 2m + 1 = 49 is wider than the grid; (20, 0.025):
# M + 2m = 1760 = 2^5 * 5 * 11, so the FFT length is padded beyond it;
# (40, 0.0125): M + 2m = 5120 = 2^10 * 5 is itself the FFT length
@pytest.mark.parametrize("half_width, spacing",
                         [(5.0, 0.5), (20.0, 0.05), (20.0, 0.025), (40.0, 0.0125)])
@pytest.mark.parametrize("weights", [(1.0, 0.25), K1_WEIGHTS])
def test_quadrature_spectrum_matches_direct_convolution(half_width, spacing, weights):
    # oracle: the direct 'valid' convolution of the same extensions
    grid = make_grid(half_width, spacing)
    op = _Quadrature(grid, weights)
    h, m, c = spacing, op.m, grid.center_index
    assert op.n_fft >= c + 2 * m
    if (half_width, spacing) == (40.0, 0.0125):
        assert op.n_fft == c + 2 * m
    row = eval_kernel(np.arange(-m, m + 1) * h, weights)
    x = grid.x[c + 1:]
    u, tau = np.cbrt(np.tanh(x)) + 0.05 * np.sin(3.0 * x), 1.0
    tail = np.full(m, tau)
    ext = np.concatenate([-tail, -u[::-1], [0.0], u, tail])[len(u) + 1:]
    odd = (h * np.convolve(ext, row, "valid") + tau * op.odd_remainder
           + (5.0 * u[0] - 4.0 * u[1] + u[2]) * op.cusp)
    assert np.max(np.abs(op(u, tau) - odd)) <= 1e-13


# (5, 0.05): the window reaches past -L (m = 240 > M = 100), and both grids
# pad the FFT input beyond M + 2m (600 > 580, 900 > 880)
@pytest.mark.parametrize("half_width, spacing", [(5.0, 0.05), (20.0, 0.05)])
@pytest.mark.parametrize("method", ["quadrature"])  # the one with a workspace
@pytest.mark.parametrize("q", [0.0, 1.3])
def test_operator_with_a_workspace_equals_an_allocating_call(half_width, spacing, method, q):
    grid = make_grid(half_width, spacing)
    op = build_operator(grid, KernelFamily(q).weights)
    work = op.workspace()
    for array in (work.ext, work.spectrum, work.out, work.cusp_term):
        array.fill(np.nan)  # every entry a call reads must be written first
    rng = np.random.default_rng(19)
    x = grid.x_half
    starts = [(np.cbrt(np.tanh(x)), 1.0), (0.3 * rng.normal(size=x.size), -0.7),
              (np.zeros_like(x), 0.0), (np.tanh(2.0 * x) + 0.01 * np.sin(9.0 * x), 1.0)]
    for u, tau in starts + starts[::-1]:
        reused = op(u, tau, work).copy()  # valid until the next call with work
        assert np.array_equal(reused, op(u, tau))
    p = Profile(grid=grid, u=starts[0][0], tau=1.0)
    images = [apply_tq(p, KernelFamily(q), OperatorConfig(method)) for _ in range(2)]
    assert np.array_equal(images[0].u, images[1].u)
    assert not np.shares_memory(images[0].u, images[1].u)


def test_cusp_coefficient_is_the_reflection_formula_for_zeta():
    # zeta(-4/3) = 2^(-4/3) pi^(-7/3) sin(-2 pi/3) Gamma(7/3) zeta(7/3),
    # evaluated here as the package evaluated it before it held the constant
    reflected = float(2.0 ** (-4.0 / 3.0) * math.pi ** (-7.0 / 3.0)
                      * math.sin(-2.0 * math.pi / 3.0)
                      * scipy.special.gamma(7.0 / 3.0) * scipy.special.zeta(7.0 / 3.0))
    assert _ZETA_M43.hex() == reflected.hex()


def test_pq_tail_mapping(default_grid):
    p = sample(lambda x: 0.5 * erf(x), default_grid, 0.5)
    out = apply_pq(p, KernelFamily(0.0))
    assert out.tau == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-15)


def test_curvature_kernel_derivative_mass():
    # |K1'| integrates to 2 (K1(0) - 2 K1(sqrt(6))): the derivative is
    # single-signed between its roots 0 and sqrt(6), so the absolute
    # integral telescopes through K1 values; checked against a Riemann sum
    from kinksolve.kernels import eval_kernel_derivative

    closed = 2.0 * (eval_kernel(0.0, K1_WEIGHTS)
                    - 2.0 * eval_kernel(math.sqrt(6.0), K1_WEIGHTS))
    u = np.arange(-14.0, 14.0, 1e-5)
    riemann = float(np.sum(np.abs(eval_kernel_derivative(u, K1_WEIGHTS)))) * 1e-5
    assert closed == pytest.approx(riemann, abs=1e-7)
    assert closed == pytest.approx(0.5338702160360518, rel=1e-12)
