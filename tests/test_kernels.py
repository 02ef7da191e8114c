import ast
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf, erfc

import kinksolve
from kinksolve import kernels
from kinksolve.kernels import (
    K0_WEIGHTS,
    K1_WEIGHTS,
    KernelFamily,
    abs_mass_above,
    eval_kernel,
    eval_kernel_derivative,
    fourier_symbol,
    kernel_cumulative,
    kq_abs_mass,
    kq_derivative_abs_mass,
    sign_change,
)

SQRT_PI = math.sqrt(math.pi)

#: The oracle integrates up to here; every integrand is below 1e-160 beyond it.
ORACLE_CUTOFF = 40.0


def quad_abs_mass(f, roots):
    """Oracle: integral |f| over the line for an even f, by adaptive
    quadrature on the positive half-line split at f's positive roots."""
    edges = [0.0, *sorted(r for r in roots if r is not None and r < ORACLE_CUTOFF),
             ORACLE_CUTOFF]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = quad(lambda u: abs(f(u)), lo, hi, epsabs=1e-13, epsrel=1e-13,
                        limit=200)
        assert err <= 1e-12
        total += val
    return 2.0 * total


def riemann(f, lo=-14.0, hi=14.0, n=2_800_000):
    u = np.linspace(lo, hi, n)
    return float(np.trapezoid(f(u), u))


def test_family_rejects_negative_q():
    with pytest.raises(ValueError):
        KernelFamily(-0.1)
    with pytest.raises(ValueError):
        KernelFamily(float("nan"))
    assert KernelFamily(0.0).q == 0.0


def test_k0_peak_value():
    assert eval_kernel(0.0, K0_WEIGHTS) == pytest.approx(1.0 / (2.0 * SQRT_PI), abs=1e-15)
    assert eval_kernel(0.0, K0_WEIGHTS) == pytest.approx(0.28209479177, abs=1e-11)


def test_k0_at_two():
    # direct evaluation: (1/(2 sqrt(pi))) e^{-1}
    assert eval_kernel(2.0, K0_WEIGHTS) == pytest.approx(
        math.exp(-1.0) / (2.0 * SQRT_PI), rel=1e-15)
    assert eval_kernel(2.0, K0_WEIGHTS) == pytest.approx(0.10377687, abs=1e-8)


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_k0_even_and_positive(u):
    assert eval_kernel(u, K0_WEIGHTS) == eval_kernel(-u, K0_WEIGHTS)
    assert eval_kernel(u, K0_WEIGHTS) > 0.0


def test_k1_peak_value():
    assert eval_kernel(0.0, K1_WEIGHTS) == pytest.approx(1.0 / (4.0 * SQRT_PI), abs=1e-15)
    assert eval_kernel(0.0, K1_WEIGHTS) == pytest.approx(0.14104739589, abs=1e-11)


def test_k1_sign_change_at_sqrt2():
    # the factor (1/2 - u^2/4) vanishes at u^2 = 2, up to the rounding of
    # fl(sqrt(2))^2
    assert abs(eval_kernel(math.sqrt(2.0), K1_WEIGHTS)) < 5e-17
    assert eval_kernel(1.4, K1_WEIGHTS) > 0.0
    assert eval_kernel(1.5, K1_WEIGHTS) < 0.0


def test_k1_zero_total_mass():
    assert riemann(lambda u: eval_kernel(u, K1_WEIGHTS)) == pytest.approx(0.0, abs=1e-12)


def test_k1_is_negative_second_derivative_of_k0():
    # analytic identity checked against a second central difference; the
    # step balances truncation against roundoff in the double subtraction
    eps = 1e-4
    for u in [0.0, 0.3, 1.0, math.sqrt(2.0), 2.5, 4.0]:
        second = (eval_kernel(u + eps, K0_WEIGHTS) - 2.0 * eval_kernel(u, K0_WEIGHTS)
                  + eval_kernel(u - eps, K0_WEIGHTS)) / eps**2
        assert eval_kernel(u, K1_WEIGHTS) == pytest.approx(-second, abs=1e-6)
        assert eval_kernel(u, K1_WEIGHTS) == pytest.approx(
            (0.5 - u * u / 4.0) * eval_kernel(u, K0_WEIGHTS), abs=1e-12)


def test_kq_reduces_to_k0_at_q0():
    fam = KernelFamily(0.0)
    assert eval_kernel(0.0, fam.weights) == eval_kernel(0.0, K0_WEIGHTS)


def test_kq_peak_at_q1():
    fam = KernelFamily(1.0)
    assert eval_kernel(0.0, fam.weights) == pytest.approx(3.0 / (4.0 * SQRT_PI),
                                                          rel=1e-15)
    assert eval_kernel(0.0, fam.weights) == pytest.approx(0.42314218766, abs=1e-11)


def test_kq_negative_beyond_sign_change():
    for q in [0.3, 0.7, 1.0]:
        fam = KernelFamily(q)
        root = sign_change(fam.weights)
        assert root == pytest.approx(math.sqrt(4.0 / q**2 + 2.0), rel=1e-14)
        assert eval_kernel(root * 1.1, fam.weights) < 0.0
        assert eval_kernel(root * 0.9, fam.weights) > 0.0
        droot = sign_change(fam.weights, derivative=True)
        assert droot == pytest.approx(math.sqrt(4.0 / q**2 + 6.0), rel=1e-14)
        assert eval_kernel_derivative(droot * 1.1, fam.weights) > 0.0
        assert eval_kernel_derivative(droot * 0.9, fam.weights) < 0.0


def test_kq_derivative_vanishes_at_origin():
    for q in [0.0, 0.5, 1.0]:
        assert eval_kernel_derivative(0.0, KernelFamily(q).weights) == 0.0


def test_kq_derivative_matches_finite_difference():
    # central difference with step 1e-5, tolerance 1e-8
    eps = 1e-5
    for q in [0.0, 0.4, 1.0]:
        fam = KernelFamily(q)
        for u in [-3.1, -1.0, 0.2, 0.9, 2.7, 4.4]:
            fd = (eval_kernel(u + eps, fam.weights)
                  - eval_kernel(u - eps, fam.weights)) / (2.0 * eps)
            assert eval_kernel_derivative(u, fam.weights) == pytest.approx(fd, abs=1e-8)


def test_k0_derivative_formula():
    for u in [0.4, 1.7, -2.2]:
        assert eval_kernel_derivative(u, KernelFamily(0.0).weights) == pytest.approx(
            -0.5 * u * eval_kernel(u, K0_WEIGHTS), rel=1e-15)
        assert eval_kernel_derivative(u, K0_WEIGHTS) == eval_kernel_derivative(
            u, KernelFamily(0.0).weights)


def test_k0_derivative_abs_mass():
    # |K0'| integrates to twice the peak: 1/sqrt(pi)
    val = kq_derivative_abs_mass(KernelFamily(0.0))
    assert val == pytest.approx(1.0 / SQRT_PI, abs=1e-12)
    assert val == pytest.approx(
        riemann(lambda u: np.abs(eval_kernel_derivative(u, K0_WEIGHTS))), abs=1e-9)


@given(st.floats(min_value=-8, max_value=8), st.floats(min_value=0, max_value=1.5))
@settings(max_examples=300, deadline=None)
def test_kq_derivative_is_odd(u, q):
    fam = KernelFamily(q)
    assert (eval_kernel_derivative(u, fam.weights)
            == -eval_kernel_derivative(-u, fam.weights))


def test_fourier_symbol_at_zero_is_unit_mass():
    for q in [0.0, 0.25, 0.5, 1.0]:
        assert fourier_symbol(0.0, KernelFamily(q).weights) == 1.0


def test_fourier_symbol_q0_heat_kernel():
    for k in [0.3, 1.0, 2.5]:
        assert fourier_symbol(k, KernelFamily(0.0).weights) == pytest.approx(
            math.exp(-k * k), rel=1e-15)


def test_fourier_symbol_value_and_quadrature():
    fam = KernelFamily(1.0)
    assert fourier_symbol(1.0, fam.weights) == pytest.approx(2.0 / math.e, rel=1e-13)
    # cross-check: the cosine transform of the kernel matches the symbol
    for k, q in [(1.0, 1.0), (0.7, 0.4), (2.0, 0.0)]:
        famq = KernelFamily(q)
        val = riemann(lambda u: eval_kernel(u, famq.weights) * np.cos(k * u))
        assert val == pytest.approx(fourier_symbol(k, famq.weights), abs=1e-10)


@given(st.floats(min_value=-26, max_value=26), st.floats(min_value=0, max_value=2))
@settings(max_examples=300, deadline=None)
def test_fourier_symbol_positive(k, q):
    # strictly positive wherever exp(-k^2) has not underflowed (|k| < 27)
    assert fourier_symbol(k, KernelFamily(q).weights) > 0.0


def test_tail_mass_symmetric_halves():
    fam = KernelFamily(0.0)
    right = abs_mass_above(0.0, fam.weights)
    left = kq_abs_mass(fam) - right
    assert left == pytest.approx(0.5, abs=1e-14)
    assert right == pytest.approx(0.5, abs=1e-14)


def test_tail_mass_gaussian_closed_form():
    right = abs_mass_above(2.0, KernelFamily(0.0).weights)
    left = kernel_cumulative(-2.0, K0_WEIGHTS)  # K0 > 0: its mass below -2
    expected = 0.5 * erfc(1.0)
    assert left == pytest.approx(expected, rel=1e-13)
    assert right == pytest.approx(expected, rel=1e-13)
    assert right == pytest.approx(0.078649, abs=1e-6)
    # quadrature verification
    u = np.linspace(2.0, 16.0, 1_400_001)
    assert right == pytest.approx(float(np.trapezoid(eval_kernel(u, K0_WEIGHTS), u)),
                                  abs=1e-10)


def test_tail_mass_quadrature_at_positive_q():
    fam = KernelFamily(1.0)
    right = abs_mass_above(1.5, fam.weights)
    u = np.linspace(1.5, 16.0, 1_450_001)
    assert right == pytest.approx(
        float(np.trapezoid(np.abs(eval_kernel(u, fam.weights)), u)), abs=1e-9)


def test_tail_mass_monotone_in_threshold():
    for q in [0.0, 0.5, 1.0]:
        fam = KernelFamily(q)
        values = [abs_mass_above(t, fam.weights) for t in np.linspace(0.0, 8.0, 33)]
        assert all(a >= b - 1e-15 for a, b in zip(values[:-1], values[1:]))


def test_kernel_norms_base_values():
    fam = KernelFamily(0.0)
    assert kq_abs_mass(fam) == pytest.approx(1.0, abs=1e-12)
    assert kq_derivative_abs_mass(fam) == pytest.approx(1.0 / SQRT_PI, abs=1e-12)


@pytest.mark.parametrize("q", [1e-158, 1e-200])
def test_masses_finite_when_q_squared_underflows(q):
    # q^2 is subnormal (1e-158) or exactly 0 (1e-200): the sign changes lie
    # where the kernel has underflowed, so they are reported as absent
    fam = KernelFamily(q)
    assert sign_change(fam.weights) is None
    assert sign_change(fam.weights, derivative=True) is None
    assert kq_abs_mass(fam) == 1.0
    assert kq_derivative_abs_mass(fam) == 1.0 / SQRT_PI


def test_kernel_norms_closed_form_at_q1():
    # a_1 = 1 - 2 erfc(u*/2) + 2 u* K0(u*) with u* = sqrt(6); e_1 telescopes
    # through values of Kq at 0 and at the derivative root sqrt(10)
    us = math.sqrt(6.0)
    a1 = 1.0 - 2.0 * erfc(us / 2.0) + 2.0 * us * eval_kernel(us, K0_WEIGHTS)
    fam = KernelFamily(1.0)
    assert kq_abs_mass(fam) == pytest.approx(a1, abs=1e-12)
    vs = math.sqrt(10.0)
    e1 = 2.0 * (eval_kernel(0.0, fam.weights) - 2.0 * eval_kernel(vs, fam.weights))
    assert kq_derivative_abs_mass(fam) == pytest.approx(e1, abs=1e-12)


@pytest.mark.parametrize("q", [*np.linspace(0.0, 1.0, 101), 2.0, 5.0])
def test_abs_masses_match_quadrature_oracle(q):
    fam = KernelFamily(q)
    a = quad_abs_mass(lambda u: eval_kernel(u, fam.weights), [sign_change(fam.weights)])
    e = quad_abs_mass(lambda u: eval_kernel_derivative(u, fam.weights),
                      [sign_change(fam.weights, derivative=True)])
    assert abs(kq_abs_mass(fam) - a) <= 1e-13
    assert abs(kq_derivative_abs_mass(fam) - e) <= 1e-13


def test_k1_abs_masses_match_quadrature_oracle(ledger):
    # the two K1 masses behind c4, as the ledger computes them
    k1_mass = quad_abs_mass(lambda u: eval_kernel(u, K1_WEIGHTS), [math.sqrt(2.0)])
    k1_deriv_mass = quad_abs_mass(lambda u: eval_kernel_derivative(u, K1_WEIGHTS),
                                  [math.sqrt(6.0)])
    assert abs(2.0 * abs_mass_above(0.0, K1_WEIGHTS) - k1_mass) <= 1e-13
    assert abs(2.0 * abs_mass_above(0.0, K1_WEIGHTS, derivative=True)
               - k1_deriv_mass) <= 1e-13
    slope_inf = math.exp(-1.0) / SQRT_PI
    level_inf = float(erf(1.0)) / 2.0
    c4 = max(ledger.c0 * k1_deriv_mass / slope_inf, ledger.c0 * k1_mass / level_inf)
    assert ledger.c4 == pytest.approx(c4, rel=1e-13)


def test_src_modules_read_every_import():
    # a module of the package reads every name it imports; __init__.py
    # imports in order to re-export
    package = Path(kinksolve.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= read, (path.name, sorted(imported - read))


def test_package_exports_exactly_what_its_init_imports():
    # a name deleted from a module cannot linger in the export list
    tree = ast.parse(Path(kinksolve.__file__).read_text())
    imported = [a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(kinksolve.__all__) == sorted(imported)


def _src_imports():
    """(path, module names) of every import statement in the package."""
    package = Path(kinksolve.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield path, [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield path, [node.module, *(f"{node.module}.{a.name}" for a in node.names)]


def test_src_does_not_import_scipy_integrate():
    # adaptive quadrature is a test oracle only; the package uses closed forms
    for path, names in _src_imports():
        assert not any(n == "scipy.integrate" or n.startswith("scipy.integrate.")
                       for n in names), path


def test_src_does_not_import_scipy():
    # erf and erfc are the package's own; scipy serves the tests as an oracle
    for path, names in _src_imports():
        assert not any(n == "scipy" or n.startswith("scipy.") for n in names), path


def _erf_test_points():
    edges = [v for e in (1.0, 8.0) for v in (e, np.nextafter(e, 0.0), np.nextafter(e, 9.0))]
    return np.concatenate([np.linspace(-30.0, 30.0, 600_001), edges, np.negative(edges)])


def test_erf_matches_scipy_within_one_ulp():
    x = _erf_test_points()
    got, want = kernels.erf(x), scipy.special.erf(x)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_erfc_matches_scipy_within_absolute_rounding():
    x = _erf_test_points()
    assert np.max(np.abs(kernels.erfc(x) - scipy.special.erfc(x))) <= 2.3e-16


def test_erf_and_erfc_take_their_limits_without_warning():
    x = np.array([1e200, -1e200, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.erf(x).tolist() == [1.0, -1.0, 1.0, -1.0]
        assert kernels.erfc(x).tolist() == [0.0, 2.0, 0.0, 2.0]
        assert kernels.erfc(27.0) == 0.0


def test_erf_and_erfc_pass_nan_and_keep_scalars_scalar():
    for f in (kernels.erf, kernels.erfc):
        assert np.isnan(f(np.nan))
        assert np.isnan(f(np.array([0.5, np.nan, 3.0]))).tolist() == [False, True, False]
        assert isinstance(f(0.5), np.float64)
        assert f(np.zeros((2, 3))).shape == (2, 3)


def test_kernel_norms_suprema_frozen():
    # both masses increase in q, so their suprema over [0, 1] are the values
    # at q = 1; regression values, independent oracle = dense Riemann sum
    fam = KernelFamily(1.0)
    b, e = kq_abs_mass(fam), kq_derivative_abs_mass(fam)
    assert b == pytest.approx(1.1418316262804378, rel=1e-12)
    assert e == pytest.approx(0.9389073776999057, rel=1e-12)
    u = np.arange(-14.0, 14.0, 1e-4)
    assert b == pytest.approx(float(np.sum(np.abs(eval_kernel(u, fam.weights)))) * 1e-4,
                              abs=1e-7)
    assert b >= 1.0


def test_kernel_norms_monotone_in_q():
    # the masses are flat to rounding at small q, hence the 2e-15 slack
    qs = [*np.linspace(0.0, 5.0, 2001), 10.0, 1e3]
    a = np.array([kq_abs_mass(KernelFamily(q)) for q in qs])
    e = np.array([kq_derivative_abs_mass(KernelFamily(q)) for q in qs])
    assert np.all(np.diff(a) >= -2e-15)
    assert np.all(np.diff(e) >= -2e-15)
    # a_q -> 1 as q -> 0
    assert a[1] - 1.0 < 1e-3


def test_kernel_norms_validation():
    # the masses exist only for q whose square is finite
    for q in [float("inf"), 1e200]:
        with pytest.raises(ValueError, match="q = "):
            KernelFamily(q)
    fam = KernelFamily(1e150)
    assert math.isfinite(kq_abs_mass(fam))
    assert math.isfinite(kq_derivative_abs_mass(fam))


@pytest.mark.parametrize("q", [0.0, 0.3, 1.0, 2.0, 1e3])
def test_weighted_evaluators_match_separate_formulas(q):
    # the formulas as they were written out per kernel before they were
    # written once over the weights (a, b): with weights 0 and 1 every sum
    # and product rounds alike, so the values agree to the bit, roots included
    q2 = q * q
    fam = KernelFamily(q)
    roots = [math.sqrt(2.0), math.sqrt(6.0)]
    if q2:
        roots += [math.sqrt(4.0 / q2 + 2.0), math.sqrt(4.0 / q2 + 6.0)]
    u = np.concatenate([np.linspace(-30.0, 30.0, 6001), roots, np.negative(roots)])
    g = (1.0 / (2.0 * SQRT_PI)) * np.exp(-0.25 * u * u)
    pairs = [
        (eval_kernel(u, K0_WEIGHTS), g),
        (eval_kernel(u, K1_WEIGHTS), (0.5 - 0.25 * u * u) * g),
        (eval_kernel(u, fam.weights), (1.0 + q2 * (0.5 - 0.25 * u * u)) * g),
        (eval_kernel_derivative(u, K0_WEIGHTS), -0.5 * u * g),
        (eval_kernel_derivative(u, K1_WEIGHTS), -0.5 * u * (1.5 - 0.25 * u * u) * g),
        (eval_kernel_derivative(u, fam.weights),
         -0.5 * u * (1.0 + q2 * (1.5 - 0.25 * u * u)) * g),
        (kernel_cumulative(u, K1_WEIGHTS), 0.5 * u * g),
        (kernel_cumulative(u, fam.weights),
         0.5 * kernels.erfc(-0.5 * u) + q2 * 0.5 * u * g),
        (fourier_symbol(u, fam.weights), (1.0 + q2 * u * u) * np.exp(-u * u)),
    ]
    for got, want in pairs:
        assert np.array_equal(got, want)
    assert sign_change(K1_WEIGHTS) == math.sqrt(2.0)
    assert sign_change(K1_WEIGHTS, derivative=True) == math.sqrt(6.0)
    assert sign_change(K0_WEIGHTS) is None
    if q2:
        assert sign_change(fam.weights) == math.sqrt(4.0 / q2 + 2.0)
        assert sign_change(fam.weights, derivative=True) == math.sqrt(4.0 / q2 + 6.0)


#: Each quantity far from the origin, with the limit it must return there.
FAR_LIMITS = {
    "value": (lambda u, fam: eval_kernel(u, fam.weights), lambda u, a: 0.0),
    "derivative": (lambda u, fam: eval_kernel_derivative(u, fam.weights),
                   lambda u, a: 0.0),
    "antiderivative": (lambda u, fam: kernel_cumulative(u, fam.weights),
                       lambda u, a: a if u > 0.0 else 0.0),
    "symbol": (lambda u, fam: fourier_symbol(u, fam.weights), lambda u, a: 0.0),
    "k1": (lambda u, fam: eval_kernel(u, K1_WEIGHTS), lambda u, a: 0.0),
    "k1_antiderivative": (lambda u, fam: kernel_cumulative(u, K1_WEIGHTS),
                          lambda u, a: 0.0),
}


@pytest.mark.parametrize("quantity", sorted(FAR_LIMITS))
@pytest.mark.parametrize("q", [0.0, 1.0])
@pytest.mark.parametrize("u", [1e200, -1e200, math.inf, -math.inf])
def test_kernel_quantities_take_exact_limits_far_out(u, q, quantity):
    # the polynomial factor overflows where the Gaussian underflows to 0:
    # the exact limit comes back, with no warning, for scalars and arrays
    evaluate, limit = FAR_LIMITS[quantity]
    fam = KernelFamily(q)
    want = limit(u, fam.weights[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(u, fam) == want
        got = evaluate(np.array([u, 1.5]), fam)
    assert np.array_equal(got, [want, evaluate(1.5, fam)])


def test_unit_mass_for_all_q():
    for q in [0.0, 0.25, 0.5, 1.0]:
        fam = KernelFamily(q)
        assert riemann(lambda u: eval_kernel(u, fam.weights)) == pytest.approx(
            1.0, abs=1e-10)


def test_k1_cumulative_signed_formula():
    # antiderivative of K1 is -(K0)'(t) = (t/2) K0(t); check by quadrature
    for t in [-1.0, 0.0, 0.8, 2.5]:
        u = np.linspace(-16.0, t, 1_600_001)
        assert kernel_cumulative(t, K1_WEIGHTS) == pytest.approx(
            float(np.trapezoid(eval_kernel(u, K1_WEIGHTS), u)), abs=1e-10)


def test_erf_against_maclaurin_series():
    """The platform's, scipy's and the package's error functions against the
    exact-rational series.

    erf(x) = (2/sqrt(pi)) sum (-1)^n x^(2n+1) / (n! (2n+1)); partial sums are
    accumulated in exact rational arithmetic, so the only rounding is the
    final multiplication.
    """
    for x_rat in [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2),
                  Fraction(1, 1), Fraction(2, 1)]:
        total = Fraction(0)
        term_base = Fraction(1)
        fact = Fraction(1)
        for n in range(0, 80):
            if n > 0:
                fact *= n
            total += (-1) ** n * x_rat ** (2 * n + 1) / (fact * (2 * n + 1))
        series = 2.0 / SQRT_PI * float(total)
        assert math.erf(float(x_rat)) == pytest.approx(series, rel=5e-15)
        assert float(erf(float(x_rat))) == pytest.approx(series, rel=5e-15)
        assert float(kernels.erf(float(x_rat))) == pytest.approx(series, rel=5e-15)
