import numpy as np
import pytest

import kinksolve.solver as solver_module
from kinksolve.cone import check_cone
from kinksolve.grid import (
    Profile,
    make_grid,
    odd_defect,
    profile_to_csv,
    profile_to_json,
    project_odd,
    sup_distance,
)
from kinksolve.kernels import KernelFamily
from kinksolve.operators import OperatorConfig, apply_pq, apply_tq
from kinksolve.solver import (
    SolveConfig,
    decay_diagnostic,
    initial_guess,
    iterate_once,
    solve,
)


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(q=-1.0)
    with pytest.raises(ValueError):
        SolveConfig(damping=0.0)
    with pytest.raises(ValueError):
        SolveConfig(damping=1.5)
    with pytest.raises(ValueError):
        SolveConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(init="bogus")


def test_initial_guesses_are_cone_members(default_grid, ledger):
    for kind in ("erf", "psi_scaled", "sign"):
        p = initial_guess(kind, default_grid, ledger)
        assert check_cone(p, ledger).member, kind
        assert odd_defect(p) == 0.0
        assert (p.tail_right, p.tail_left) == (1.0, -1.0)


def test_psi_scaled_guess_is_erf_alias(default_grid, ledger):
    a = initial_guess("erf", default_grid, ledger)
    b = initial_guess("psi_scaled", default_grid, ledger)
    assert np.all(a.values == b.values)


def test_initial_guess_from_file(default_grid, ledger, tmp_path):
    p = initial_guess("erf", default_grid, ledger)
    csv_path = tmp_path / "guess.csv"
    profile_to_csv(p, csv_path)
    q = initial_guess("from_file", default_grid, ledger, path=str(csv_path))
    assert np.all(q.values == p.values)
    json_path = tmp_path / "guess.json"
    profile_to_json(p, json_path)
    r = initial_guess("from_file", default_grid, ledger, path=str(json_path))
    assert np.all(r.values == p.values)
    assert (r.tail_right, r.tail_left) == (1.0, -1.0)


def test_initial_guess_from_file_grid_mismatch(ledger, tmp_path):
    small = make_grid(10.0, 0.05)
    p = initial_guess("erf", small, ledger)
    path = tmp_path / "guess.csv"
    profile_to_csv(p, path)
    with pytest.raises(ValueError):
        initial_guess("from_file", make_grid(20.0, 0.05), ledger, path=str(path))


def test_initial_guess_warns_outside_cone(default_grid, ledger, tmp_path):
    bad = Profile(grid=default_grid,
                  values=np.full(default_grid.n_points, 2.0 * ledger.c0),
                  tail_right=2.0 * ledger.c0, tail_left=-2.0 * ledger.c0)
    path = tmp_path / "bad.json"
    profile_to_json(bad, path)
    with pytest.warns(UserWarning):
        initial_guess("from_file", default_grid, ledger, path=str(path))


def test_iterate_once_fixes_exact_fixed_point(default_grid):
    zero = Profile(grid=default_grid, values=np.zeros(default_grid.n_points),
                   tail_right=0.0, tail_left=0.0)
    out = iterate_once(zero, SolveConfig(q=0.3), KernelFamily(0.3))
    assert sup_distance(out, zero) <= 1e-15


def test_iterate_once_projection_kills_even_drift(default_grid):
    rng = np.random.default_rng(3)
    even = rng.normal(scale=0.01, size=default_grid.n_points)
    even = 0.5 * (even + even[::-1])
    p = Profile(grid=default_grid, values=even, tail_right=0.0, tail_left=0.0)
    out = iterate_once(p, SolveConfig(q=0.0, damping=1.0), KernelFamily(0.0))
    assert odd_defect(out) == 0.0


def test_one_step_from_erf_reduces_residual(default_grid, ledger):
    fam = KernelFamily(0.0)
    p = initial_guess("erf", default_grid, ledger)
    r0 = sup_distance(apply_pq(p, fam), p)
    stepped = iterate_once(p, SolveConfig(q=0.0), fam)
    r1 = sup_distance(apply_pq(stepped, fam), stepped)
    # frozen on first implementation run with the default grid and config
    assert r0 == pytest.approx(0.2569909382178036, rel=1e-9)
    assert r1 == pytest.approx(0.011705443075597732, rel=1e-6)
    assert r1 < r0


def test_solve_q0_converges(kink_q0, default_grid):
    rep = kink_q0
    assert rep.converged
    assert rep.final_residual <= 1e-12
    assert rep.iterations == 22  # regression value, default grid and config
    assert len(rep.residual_trace) == rep.iterations
    assert rep.stop_reason == "converged"
    assert rep.events == []
    assert odd_defect(rep.solution) <= 1e-13
    assert abs(rep.solution.values[-1] - 1.0) <= 1e-6
    assert rep.boundary_defect <= 1e-6
    assert rep.cone_member_final
    # observed (not proven) monotonicity, kept as an empirical regression
    assert np.all(np.diff(rep.solution.values) >= -1e-12)


def test_solve_q0_cubed_form_residual(kink_q0):
    sol = kink_q0.solution
    tq = apply_tq(sol, KernelFamily(0.0))
    assert np.max(np.abs(tq.values - sol.values**3)) <= 3e-12


def test_solve_restart_converges_immediately(default_grid, ledger, kink_q0):
    rep = solve(SolveConfig(q=0.0), default_grid, ledger, initial=kink_q0.solution)
    assert rep.converged
    assert rep.iterations <= 2


def test_solve_midrange_q(default_grid, ledger):
    rep = solve(SolveConfig(q=ledger.q0 / 2.0), default_grid, ledger)
    assert rep.converged
    assert rep.final_residual <= 1e-12
    assert rep.iterations == 22  # regression value
    assert rep.cone_member_final


def test_solve_iterates_stay_in_cone(default_grid, ledger):
    rep = solve(SolveConfig(q=ledger.q0), default_grid, ledger,
                assert_cone_each_iteration=True)
    assert rep.converged


def test_solve_trace_tail_roughly_decreasing(kink_q0):
    trace = kink_q0.residual_trace
    tail = trace[-10:]
    assert all(b <= a * 1.1 for a, b in zip(tail[:-1], tail[1:]))


def test_solve_nonconvergence_is_reported_not_raised(default_grid, ledger):
    rep = solve(SolveConfig(q=0.0, max_iter=3), default_grid, ledger)
    assert not rep.converged
    assert rep.stop_reason == "budget"
    assert rep.iterations == 3
    assert len(rep.residual_trace) == 3


def test_solve_report_json_shapes(kink_q0, default_grid):
    inline = kink_q0.to_json_dict(inline_profile=True)
    assert inline["converged"] is True
    assert inline["stop_reason"] == "converged"
    assert inline["events"] == []
    assert len(inline["solution"]["values"]) == default_grid.n_points
    sidecar = kink_q0.to_json_dict(inline_profile=False, profile_path="sol.csv")
    assert "solution" not in sidecar
    assert sidecar["solution_csv"] == "sol.csv"


def test_decay_diagnostic_on_solution(kink_q0, ledger):
    diag = decay_diagnostic(kink_q0.solution, KernelFamily(0.0), ledger, l0=2.0)
    assert not diag.degenerate
    assert 0.0 < diag.ratio < 1.0
    assert diag.ratio <= diag.reference_bound + 0.1
    assert diag.deltas[0] > diag.deltas[1] > diag.deltas[2]


def test_decay_diagnostic_degenerate_on_saturated_profile(default_grid, ledger):
    values = np.sign(default_grid.x)
    values[default_grid.center_index] = 0.0
    p = Profile(grid=default_grid, values=values, tail_right=1.0, tail_left=-1.0)
    diag = decay_diagnostic(p, KernelFamily(0.0), ledger, l0=2.0)
    assert diag.degenerate
    assert diag.ratio == 0.0


def test_decay_diagnostic_l0_validation(kink_q0, ledger):
    with pytest.raises(ValueError):
        decay_diagnostic(kink_q0.solution, KernelFamily(0.0), ledger, l0=10.0)


def test_grid_refinement_consistency(kink_q0):
    fine_grid = make_grid(20.0, 0.025)
    from kinksolve.cone import compute_constants

    fine_ledger = compute_constants(fine_grid, OperatorConfig())
    fine = solve(SolveConfig(q=0.0), fine_grid, fine_ledger)
    assert fine.converged
    diff = np.max(np.abs(fine.solution.values[::2] - kink_q0.solution.values))
    assert diff <= 1e-6


def test_damping_fallback_on_oscillation(default_grid, ledger):
    # far beyond the kink threshold the undamped iteration oscillates; the
    # fallback halves the mixing weight instead of diverging
    rep = solve(SolveConfig(q=5.0, max_iter=400), default_grid, ledger)
    assert rep.iterations <= 400
    assert np.all(np.isfinite(rep.solution.values))
    fallbacks = [e for e in rep.events if e["event"] == "damping_fallback"]
    assert len(fallbacks) == 1
    assert 6 <= fallbacks[0]["iteration"] <= rep.iterations
    assert fallbacks[0]["omega"] == 0.5
    assert rep.to_json_dict(inline_profile=False)["events"] == rep.events


@pytest.mark.parametrize("method", ["quadrature", "spectral"])
@pytest.mark.parametrize("amplitude", [1e308, 1e307])
def test_solve_raises_on_non_finite_iterate(default_grid, ledger, method, amplitude,
                                           monkeypatch):
    # 1e308 overflows already in the odd projection of the start, 1e307 in
    # the first operator application; either way the solve stops there
    applications = []
    build = solver_module.build_operator

    def counting_build(*args):
        op = build(*args)

        def counted(u, tau):
            applications.append(tau)
            return op(u, tau)

        return counted

    monkeypatch.setattr(solver_module, "build_operator", counting_build)
    values = np.sign(default_grid.x) * amplitude
    start = Profile(grid=default_grid, values=values,
                    tail_right=amplitude, tail_left=-amplitude)
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="profile values must be finite"):
        solve(SolveConfig(q=0.1), default_grid, ledger, OperatorConfig(method),
              initial=start)
    assert len(applications) <= 1


def _full_line_picard(cfg, grid, ledger, cfg_op):
    """Reference loop: full-line map, odd projection and damping fallback."""
    family = KernelFamily(cfg.q)
    p = initial_guess(cfg.init, grid, ledger)
    omega, trace, growth_streak = cfg.damping, [], 0
    for _ in range(cfg.max_iter):
        image = apply_pq(p, family, cfg_op)
        trace.append(sup_distance(image, p))
        if trace[-1] <= cfg.tol:
            break
        if len(trace) > 1 and trace[-1] > trace[-2]:
            growth_streak += 1
            if growth_streak >= 5 and omega > 0.5:
                omega, growth_streak = 0.5, 0
        else:
            growth_streak = 0
        p = project_odd(Profile(
            grid=grid, values=(1.0 - omega) * p.values + omega * image.values,
            tail_right=(1.0 - omega) * p.tail_right + omega * image.tail_right,
            tail_left=(1.0 - omega) * p.tail_left + omega * image.tail_left))
    return p, len(trace)


@pytest.mark.parametrize("method", ["quadrature", "spectral"])
@pytest.mark.parametrize("q_of", [lambda q0: 0.0, lambda q0: q0 / 2.0, lambda q0: 2.0],
                         ids=["0", "q0/2", "2.0"])
def test_solve_matches_full_line_picard(default_grid, ledger, method, q_of):
    cfg = SolveConfig(q=q_of(ledger.q0))
    cfg_op = OperatorConfig(method)
    expected, iterations = _full_line_picard(cfg, default_grid, ledger, cfg_op)
    rep = solve(cfg, default_grid, ledger, cfg_op)
    assert rep.converged
    assert rep.iterations == iterations
    assert sup_distance(rep.solution, expected) <= 1e-13
    v = rep.solution.values
    assert np.array_equal(v, -v[::-1])
    assert v[default_grid.center_index] == 0.0
    assert rep.solution.tail_left == -rep.solution.tail_right
