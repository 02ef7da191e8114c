import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from kinksolve.grid import Profile, odd_defect, sample, sup_distance, sup_norm
from kinksolve.kernels import KernelFamily
from kinksolve.operators import (
    OperatorConfig,
    apply_pq,
    apply_t0,
    apply_t1,
    apply_tq,
    build_operator,
    psi,
    signed_cube_root,
    t0_psi_analytic,
)

CUBE_ROOT_HOLDER = 2.0 ** (2.0 / 3.0)


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
    return Profile(grid=grid, values=v, tail_right=0.0, tail_left=0.0)


def test_operator_config_validation():
    with pytest.raises(ValueError):
        OperatorConfig(method="bogus")
    with pytest.raises(ValueError):
        OperatorConfig(kernel_window=4.0)


def test_t0_fixes_constants(default_grid):
    one = sample(lambda x: np.ones_like(np.asarray(x, float)), default_grid, 1.0, 1.0)
    out = apply_t0(one)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12
    assert (out.tail_right, out.tail_left) == (1.0, 1.0)


def test_t0_matches_analytic_ramp_image(default_grid):
    ramp = sample(psi, default_grid, 0.5, -0.5)
    out = apply_t0(ramp)
    assert np.max(np.abs(out.values - t0_psi_analytic(default_grid.x))) <= 1e-8


def test_t0_preserves_oddness(default_grid):
    p = odd_bandlimited(default_grid, seed=3)
    out = apply_t0(p)
    assert odd_defect(out) <= 1e-14


def test_t1_kills_constants(default_grid):
    one = sample(lambda x: np.ones_like(np.asarray(x, float)), default_grid, 1.0, 1.0)
    out = apply_t1(one)
    assert np.max(np.abs(out.values)) < 1e-12
    assert (out.tail_right, out.tail_left) == (0.0, 0.0)


def test_t1_of_odd_vanishes_at_origin(default_grid):
    ramp = sample(psi, default_grid, 0.5, -0.5)
    out = apply_t1(ramp)
    assert out.values[default_grid.center_index] == 0.0


def test_t1_sup_bound(default_grid):
    bound = _quadrature_abs_k1()
    for seed in range(6):
        p = odd_bandlimited(default_grid, seed=seed)
        out = apply_t1(p)
        assert sup_norm(out) <= sup_norm(p) * bound + 1e-9


def test_tq_at_q0_equals_t0(default_grid):
    p = odd_bandlimited(default_grid, seed=9)
    a = apply_tq(p, KernelFamily(0.0))
    b = apply_t0(p)
    assert np.all(a.values == b.values)


def test_tq_unit_mass_for_all_q(default_grid):
    one = sample(lambda x: np.ones_like(np.asarray(x, float)), default_grid, 1.0, 1.0)
    for q in [0.25, 0.5, 1.0]:
        out = apply_tq(one, KernelFamily(q))
        assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_quadrature_vs_spectral_on_erf(default_grid):
    p = sample(lambda x: erf(x), default_grid, 1.0, -1.0)
    fam = KernelFamily(0.3)
    a = apply_tq(p, fam, OperatorConfig("quadrature"))
    b = apply_tq(p, fam, OperatorConfig("spectral"))
    assert sup_distance(a, b) <= 1e-9


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 1.0])
def test_quadrature_vs_spectral_suite(default_grid, q):
    fam = KernelFamily(q)
    profiles = [
        sample(lambda x: erf(x), default_grid, 1.0, -1.0),
        sample(np.tanh, default_grid, 1.0, -1.0),
        sample(psi, default_grid, 0.5, -0.5),
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
        combo = Profile(grid=default_grid,
                        values=alpha * p.values + beta * r.values,
                        tail_right=alpha * p.tail_right + beta * r.tail_right,
                        tail_left=alpha * p.tail_left + beta * r.tail_left)
        lhs = apply_tq(combo, fam)
        rhs = alpha * apply_tq(p, fam).values + beta * apply_tq(r, fam).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-12


def test_t0_monotone_comparison_on_positive_half(default_grid):
    # odd p >= odd r on x > 0 implies the same ordering of the images
    c = default_grid.center_index
    for seed in range(5):
        r = odd_bandlimited(default_grid, seed=100 + seed)
        bump_pos = np.abs(odd_bandlimited(default_grid, seed=200 + seed).values[c + 1:])
        values = r.values.copy()
        values[c + 1:] += bump_pos
        values[:c] -= bump_pos[::-1]
        p = Profile(grid=default_grid, values=values, tail_right=0.0, tail_left=0.0)
        assert np.all(p.values[c + 1:] >= r.values[c + 1:])
        image_diff = apply_t0(p).values - apply_t0(r).values
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
    assert signed_cube_root(0.0) == 0.0
    assert signed_cube_root(1.0) == 1.0
    assert signed_cube_root(-8.0) == -2.0
    assert signed_cube_root(0.027) == pytest.approx(0.3, rel=1e-15)


@given(st.floats(min_value=-100, max_value=100, allow_nan=False),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=500, deadline=None)
def test_signed_cube_root_holder_property(a, b):
    lhs = abs(signed_cube_root(a) - signed_cube_root(b))
    rhs = CUBE_ROOT_HOLDER * abs(a - b) ** (1.0 / 3.0)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-15


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_signed_cube_root_odd_and_monotone(y):
    assert signed_cube_root(-y) == -signed_cube_root(y)
    assert signed_cube_root(y + 1.0) > signed_cube_root(y)


def test_pq_fixes_unit_constant(default_grid):
    one = sample(lambda x: np.ones_like(np.asarray(x, float)), default_grid, 1.0, 1.0)
    for q in [0.0, 0.6]:
        out = apply_pq(one, KernelFamily(q))
        assert sup_distance(out, one) < 1e-12


def test_pq_fixes_zero(default_grid):
    zero = Profile(grid=default_grid, values=np.zeros(default_grid.n_points),
                   tail_right=0.0, tail_left=0.0)
    out = apply_pq(zero, KernelFamily(0.3))
    assert sup_norm(out) == 0.0


def test_pq_preserves_oddness_exactly(default_grid):
    p = sample(lambda x: erf(x), default_grid, 1.0, -1.0)
    for method in ("quadrature", "spectral"):
        out = apply_pq(p, KernelFamily(0.4), OperatorConfig(method))
        assert odd_defect(out) <= 1e-13
        assert out.values[default_grid.center_index] == 0.0


@pytest.mark.parametrize("method", ["quadrature", "spectral"])
def test_half_line_operator_is_positive_half_of_tq(default_grid, method):
    c = default_grid.center_index
    p = sample(lambda x: np.cbrt(np.tanh(x)), default_grid, 1.0, -1.0)
    for q in (0.0, 0.5):
        cfg = OperatorConfig(method)
        op = build_operator(default_grid, KernelFamily(q), cfg)
        half = op(p.values[c + 1:], p.tail_right)
        assert np.array_equal(half, apply_tq(p, KernelFamily(q), cfg).values[c + 1:])


def test_pq_tail_mapping(default_grid):
    p = sample(lambda x: 0.5 * erf(x), default_grid, 0.5, -0.5)
    out = apply_pq(p, KernelFamily(0.0))
    assert out.tail_right == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-15)
    assert out.tail_left == pytest.approx(-(0.5 ** (1.0 / 3.0)), rel=1e-15)


def test_curvature_kernel_derivative_mass():
    # |K1'| integrates to 2 (K1(0) - 2 K1(sqrt(6))): the derivative is
    # single-signed between its roots 0 and sqrt(6), so the absolute
    # integral telescopes through K1 values; checked against a Riemann sum
    from kinksolve.kernels import eval_k1, eval_k1_derivative

    closed = 2.0 * (eval_k1(0.0) - 2.0 * eval_k1(math.sqrt(6.0)))
    u = np.arange(-14.0, 14.0, 1e-5)
    riemann = float(np.sum(np.abs(eval_k1_derivative(u)))) * 1e-5
    assert closed == pytest.approx(riemann, abs=1e-7)
    assert closed == pytest.approx(0.5338702160360518, rel=1e-12)
