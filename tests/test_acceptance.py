"""Acceptance suite: the eight exit criteria at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with the measured values and elapsed time.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from kinksolve.cone import (
    c5_bound,
    check_cone,
    check_preservation,
    compute_constants,
    random_cone_members,
)
from kinksolve.grid import Profile, make_grid, sample, sup_distance
from kinksolve.kernels import (
    K1_WEIGHTS,
    KernelFamily,
    eval_kernel,
    fourier_symbol,
    sign_change,
)
from kinksolve.operators import (
    OperatorConfig,
    apply_tq,
    psi,
    t0_psi_analytic,
)
from kinksolve.qscan import ScanConfig, scan
from kinksolve.solver import SolveConfig, decay_ratio, solve


@pytest.fixture(scope="module")
def grid():
    return make_grid(20.0, 0.05)


@pytest.fixture(scope="module")
def ledger(grid):
    return compute_constants(grid)


@pytest.fixture(scope="module")
def solve_q0(grid, ledger):
    return solve(SolveConfig(q=0.0), grid, ledger)


def _report(n, elapsed, budget, detail):
    print(f"\nACCEPTANCE {n} PASS ({elapsed:.2f}s < {budget:.0f}s): {detail}")


def test_criterion_1_analytic_oracle(grid):
    started = time.perf_counter()
    ramp = sample(psi, grid, 0.5)
    smoothed = apply_tq(ramp, KernelFamily(0.0))
    sup_err = float(np.max(np.abs(smoothed.values - t0_psi_analytic(grid.x))))
    assert sup_err <= 1e-8

    eps = 1e-6
    derivative = (t0_psi_analytic(eps) - t0_psi_analytic(-eps)) / (2.0 * eps)
    target = 1.0 / math.sqrt(5.0 * math.pi)
    assert abs(derivative - target) <= 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, elapsed, 1,
            f"oracle sup err {sup_err:.3e} <= 1e-8, derivative at 0 within "
            f"{abs(derivative - target):.1e} of 1/sqrt(5 pi)")


def test_criterion_2_kernel_mass():
    started = time.perf_counter()
    worst = 0.0
    for q in (0.0, 0.25, 0.5, 1.0):
        fam = KernelFamily(q)
        root = sign_change(fam.weights)
        pts = [root] if root is not None and root < 14.0 else None
        mass, _ = quad(lambda u: eval_kernel(u, fam.weights), -14.0, 14.0,
                       points=pts, epsabs=1e-13, limit=200)
        worst = max(worst, abs(mass - 1.0))
        assert abs(mass - 1.0) <= 1e-10
        assert fourier_symbol(0.0, fam.weights) == 1.0
    k1_mass, _ = quad(lambda u: eval_kernel(u, K1_WEIGHTS), -14.0, 14.0,
                      points=[math.sqrt(2.0)], epsabs=1e-13, limit=200)
    assert abs(k1_mass) <= 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, elapsed, 1,
            f"unit mass within {worst:.2e}, curvature mass {abs(k1_mass):.2e}, "
            f"symbol(0) exact")


def test_criterion_3_constants_ledger(grid):
    started = time.perf_counter()
    fresh = compute_constants(grid)
    assert fresh.c3 ** (1 / 3) * fresh.ell * fresh.c2 ** (1 / 3) >= fresh.c2
    assert fresh.c2 * 0.5 < 1.0
    assert fresh.c4 * fresh.q0**2 < fresh.c3 * fresh.c2
    assert all(0.0 < v < 1.0 for v in fresh.to_json_dict()["c5"]["values"])
    assert fresh.q0 > 0.0

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(3, elapsed, 10,
            f"all ledger invariants hold, q0 = {fresh.q0:.6f} > 0")


def test_criterion_4_cone_preservation(grid, ledger):
    started = time.perf_counter()
    members = random_cone_members(100, grid, ledger, seed=42)
    assert all(check_cone(m, ledger).member for m in members)
    passed = 0
    for q in (0.0, ledger.q0 / 2.0, ledger.q0):
        fam = KernelFamily(q)
        passed += sum(check_preservation(m, fam, ledger) is True for m in members)
    assert passed == 300

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, elapsed, 60, f"{passed}/300 memberships preserved")


def test_criterion_5_existence_reproduction(grid, ledger):
    started = time.perf_counter()
    iteration_counts = {}
    for q in (0.0, ledger.q0 / 2.0):
        t0 = time.perf_counter()
        rep = solve(SolveConfig(q=q), grid, ledger)
        per_solve = time.perf_counter() - t0
        assert per_solve < 30.0
        assert rep.converged
        assert rep.final_residual <= 1e-12
        v = rep.solution.values
        assert np.array_equal(v, -v[::-1])
        assert abs(rep.solution.values[-1] - 1.0) <= 1e-6
        cubed = apply_tq(rep.solution, KernelFamily(q))
        cubed_residual = float(np.max(np.abs(cubed.values - rep.solution.values**3)))
        assert cubed_residual <= 1e-10
        iteration_counts[q] = rep.iterations
    # iteration counts frozen as regression values on the first run
    assert iteration_counts[0.0] == 22
    assert iteration_counts[ledger.q0 / 2.0] == 22

    elapsed = time.perf_counter() - started
    _report(5, elapsed, 60,
            f"q=0 and q=q0/2 converge (22 iterations each), residual <= 1e-12, "
            f"odd to the bit, boundary within 1e-6, cubed-form residual <= 1e-10")


def test_criterion_6_boundary_decay(solve_q0, ledger):
    started = time.perf_counter()
    ratio = decay_ratio(solve_q0.solution)
    d1 = 0.5 * ledger.c2 * psi(2.0)
    bound = math.sqrt(c5_bound(d1)) + 0.1
    assert ratio != 0.0
    assert ratio < 1.0
    assert ratio <= bound

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(6, elapsed, 5,
            f"decay ratio {ratio:.4f} < 1 and <= {bound:.4f}")


def test_criterion_7_discretization_consistency(grid, solve_q0):
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    profiles = [
        sample(lambda x: erf(x), grid, 1.0),
        sample(np.tanh, grid, 1.0),
        sample(psi, grid, 0.5),
    ]
    for _ in range(3):
        v = np.zeros(grid.n_points)
        for _ in range(3):
            v += rng.uniform(-0.1, 0.1) * np.sin(rng.uniform(0.2, 2.0) * grid.x)
        v *= np.exp(-((grid.x / 4.0) ** 2))
        v = 0.5 * (v - v[::-1])
        profiles.append(Profile(grid=grid, u=v[grid.center_index + 1:], tau=0.0))
    worst = 0.0
    for q in (0.0, 0.25, 0.5, 1.0):
        fam = KernelFamily(q)
        for p in profiles:
            a = apply_tq(p, fam, OperatorConfig("quadrature"))
            b = apply_tq(p, fam, OperatorConfig("spectral"))
            worst = max(worst, sup_distance(a, b))
    assert worst <= 1e-8

    fine_grid = make_grid(20.0, 0.025)
    fine_ledger = compute_constants(fine_grid)
    fine = solve(SolveConfig(q=0.0), fine_grid, fine_ledger)
    assert fine.converged
    refinement = float(np.max(np.abs(fine.solution.values[::2]
                                     - solve_q0.solution.values)))
    assert refinement <= 1e-6

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(7, elapsed, 60,
            f"quadrature/spectral agree to {worst:.2e}, halving h moves the "
            f"solution by {refinement:.2e}")


def test_criterion_8_critical_q_scan(grid, ledger):
    started = time.perf_counter()
    cfg = ScanConfig(q_min=0.0, q_max=3.0, coarse_steps=4, bisect_tol=1e-4,
                     per_solve=SolveConfig(max_iter=5000), cold_check=True)
    report = scan(cfg, grid, ledger)
    assert report.q_star_bracket is not None
    lo, hi = report.q_star_bracket
    assert hi - lo <= 1e-4
    assert lo >= ledger.q0
    assert report.warm_cold_agree is True
    # archived as this run's regression value (no numeric target exists)
    assert lo == pytest.approx(2.6765, abs=0.02)

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(8, elapsed, 600,
            f"critical deformation bracket [{lo:.6f}, {hi:.6f}], width "
            f"{hi - lo:.2e}, warm/cold classifications agree")
