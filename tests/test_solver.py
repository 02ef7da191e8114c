import math

import numpy as np
import pytest
from scipy.special import erf

import kinksolve.solver as solver_module
from kinksolve.cone import c5_bound, check_cone
from kinksolve.grid import (
    Profile,
    make_grid,
    odd_defect,
    odd_profile,
    profile_to_csv,
    profile_to_json,
    project_odd,
    sup_distance,
)
from kinksolve.kernels import KernelFamily
from kinksolve.operators import OperatorConfig, apply_pq, apply_tq, psi
from kinksolve.solver import (
    SolveConfig,
    decay_ratio,
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


def test_solve_config_rejects_zero_max_iter():
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        SolveConfig(max_iter=0)


def test_initial_guess_from_file_needs_a_path(default_grid, ledger):
    with pytest.raises(ValueError, match="needs a path"):
        initial_guess("from_file", default_grid, ledger)


def test_initial_guess_rejects_unknown_kind(default_grid, ledger):
    with pytest.raises(ValueError, match="unknown initial guess"):
        initial_guess("bogus", default_grid, ledger)


def test_initial_guesses_are_cone_members(default_grid, ledger):
    for kind in ("erf", "sign"):
        p = initial_guess(kind, default_grid, ledger)
        assert check_cone(p, ledger).member, kind
        assert odd_defect(p) == 0.0
        assert (p.tail_right, p.tail_left) == (1.0, -1.0)


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


def test_solve_rejects_initial_on_other_grid(ledger):
    # the warm start must live on the grid the solve (and its ledger) is for
    small = initial_guess("erf", make_grid(10.0, 0.05), ledger)
    with pytest.raises(ValueError, match="does not match the requested grid"):
        solve(SolveConfig(q=0.0), make_grid(20.0, 0.05), ledger, initial=small)


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
    out = iterate_once(zero, SolveConfig(q=0.3))
    assert sup_distance(out, zero) <= 1e-15


def test_iterate_once_projection_kills_even_drift(default_grid):
    rng = np.random.default_rng(3)
    even = rng.normal(scale=0.01, size=default_grid.n_points)
    even = 0.5 * (even + even[::-1])
    p = Profile(grid=default_grid, values=even, tail_right=0.0, tail_left=0.0)
    out = iterate_once(p, SolveConfig(q=0.0, damping=1.0))
    assert odd_defect(out) == 0.0


def test_one_step_from_erf_reduces_residual(default_grid, ledger):
    fam = KernelFamily(0.0)
    p = initial_guess("erf", default_grid, ledger)
    r0 = sup_distance(apply_pq(p, fam), p)
    stepped = iterate_once(p, SolveConfig(q=0.0))
    r1 = sup_distance(apply_pq(stepped, fam), stepped)
    # frozen on first implementation run with the default grid and config
    assert r0 == pytest.approx(0.2569909382178036, rel=1e-9)
    assert r1 == pytest.approx(0.011705443075597732, rel=1e-6)
    assert r1 < r0


def test_iterate_once_steps_at_config_q(default_grid, ledger):
    # the undamped step is the image under the map at cfg_solve.q
    p = initial_guess("erf", default_grid, ledger)
    stepped = iterate_once(p, SolveConfig(q=2.0))
    assert np.array_equal(stepped.values, apply_pq(p, KernelFamily(2.0)).values)


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
    # no damping fallback fired, so stepping iterate_once from the same erf
    # start retraces the solve's own iterates
    cfg = SolveConfig(q=ledger.q0)
    rep = solve(cfg, default_grid, ledger)
    assert rep.converged
    assert rep.events == []
    iterates = [initial_guess("erf", default_grid, ledger)]
    for _ in range(rep.iterations):
        iterates.append(iterate_once(iterates[-1], cfg))
    assert np.array_equal(iterates[-2].values, rep.solution.values)
    assert all(check_cone(p, ledger).member for p in iterates)


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
    inline = kink_q0.to_json_dict()
    assert inline["converged"] is True
    assert inline["stop_reason"] == "converged"
    assert inline["events"] == []
    assert len(inline["solution"]["values"]) == default_grid.n_points
    sidecar = kink_q0.to_json_dict(solution_csv="sol.csv")
    assert "solution" not in sidecar
    assert sidecar["solution_csv"] == "sol.csv"


def test_decay_ratio_on_solution(kink_q0, ledger):
    ratio = decay_ratio(kink_q0.solution)
    reference_bound = math.sqrt(c5_bound(0.5 * ledger.c2 * psi(2.0)))
    assert ratio != 0.0
    assert 0.0 < ratio < 1.0
    assert ratio <= reference_bound + 0.1
    v = kink_q0.solution.values
    x = kink_q0.solution.grid.x
    deltas = [np.max(np.abs(1.0 - v[x > cut])) for cut in (2.0, 4.0, 6.0)]
    assert deltas[0] > deltas[1] > deltas[2]


def _decay_ratio_by_cutoff_loop(p):
    # reference: one mask per cutoff 2, 4, ..., L/2
    deltas, cut = [], 2.0
    while cut <= p.grid.half_width / 2.0:
        beyond = float(np.max(np.abs(1.0 - p.values[p.grid.x > cut])))
        deltas.append(max(beyond, abs(1.0 - p.tail_right)))
        cut += 2.0
    live = [d for d in deltas if d > solver_module._DECAY_FLOOR]
    return float(np.exp(np.mean(np.log([b / a for a, b in zip(live[:-1], live[1:])]))))


@pytest.mark.parametrize("half_width, spacing, q", [
    (9.0, 0.05, 0.0), (13.0, 0.1, 1.0), (21.0, 0.07, 2.0), (40.0, 0.05, 2.3)])
def test_decay_ratio_matches_the_cutoff_loop(ledger, half_width, spacing, q):
    rep = solve(SolveConfig(q=q), make_grid(half_width, spacing), ledger)
    assert rep.converged
    assert rep.decay_estimate == decay_ratio(rep.solution)
    assert decay_ratio(rep.solution) == _decay_ratio_by_cutoff_loop(rep.solution)


def test_decay_ratio_zero_on_saturated_profile(default_grid):
    values = np.sign(default_grid.x)
    values[default_grid.center_index] = 0.0
    p = Profile(grid=default_grid, values=values, tail_right=1.0, tail_left=-1.0)
    assert decay_ratio(p) == 0.0


@pytest.mark.parametrize("rate", [0.5, math.sqrt(math.log(3.0))])
def test_decay_ratio_of_exponential_tail(default_grid, rate):
    # 1 - p = e^(-rate x) beyond every cutoff, so each ratio is e^(-2 rate)
    p = odd_profile(default_grid, 1.0 - np.exp(-rate * default_grid.x_half), 1.0)
    assert decay_ratio(p) == pytest.approx(math.exp(-2.0 * rate), rel=1e-12)


def test_decay_ratio_with_one_delta_above_the_floor(default_grid):
    # at rate 9 only the defect beyond x = 2 exceeds the floor
    xp = default_grid.x_half
    u = 1.0 - np.exp(-9.0 * xp)
    first = float(np.max(np.abs(1.0 - u[xp > 2.0])))
    p = odd_profile(default_grid, u, 1.0)
    assert decay_ratio(p) == solver_module._DECAY_FLOOR / first


def test_decay_ratio_none_on_converged_l8_solution(ledger):
    rep = solve(SolveConfig(q=0.0), make_grid(8.0, 0.05), ledger)
    assert rep.converged
    assert decay_ratio(rep.solution) is None


@pytest.mark.parametrize("half_width", [20.0, 80.0])
@pytest.mark.parametrize("tail", [0.5, 0.9, 1.2])
def test_decay_estimate_does_not_depend_on_the_start_tail(ledger, half_width, tail):
    # the tail iterates tau <- tau^(1/3) and stops within tol of 1, not at 1;
    # at L = 80 the far deltas measured from 1 would be that gap, not the decay
    grid = make_grid(half_width, 0.05)
    erf_start = solve(SolveConfig(q=0.0), grid, ledger).decay_estimate
    start = odd_profile(grid, tail * erf(grid.x_half), tail)
    rep = solve(SolveConfig(q=0.0), grid, ledger, initial=start)
    assert rep.converged
    assert rep.solution.tail_right != 1.0
    assert rep.decay_estimate == pytest.approx(erf_start, rel=1e-6)


@pytest.mark.parametrize("tail", [0.0, -1.0])
def test_decay_estimate_none_off_the_kink_branch(default_grid, ledger, tail):
    start = odd_profile(default_grid, tail * erf(default_grid.x_half), tail)
    rep = solve(SolveConfig(q=0.0), default_grid, ledger, initial=start)
    assert rep.converged
    assert rep.decay_estimate is None


@pytest.mark.parametrize("half_width", [5.0, 8.0])
def test_solve_on_grid_too_short_for_decay_fit(ledger, half_width):
    # the fit's first cutoff, 2, must stay below a quarter of L
    rep = solve(SolveConfig(q=0.0), make_grid(half_width, 0.05), ledger)
    assert rep.converged
    assert rep.decay_estimate is None


def test_grid_refinement_consistency(kink_q0):
    fine_grid = make_grid(20.0, 0.025)
    from kinksolve.cone import compute_constants

    fine_ledger = compute_constants(fine_grid)
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
    assert rep.to_json_dict()["events"] == rep.events


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
    p = initial_guess("erf", grid, ledger)
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
