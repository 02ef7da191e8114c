import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import erf

import kinksolve.cone as cone_module
import kinksolve.solver as solver_module
from kinksolve.cone import c5_bound, check_cone, random_cone_members
from kinksolve.grid import (
    Profile,
    make_grid,
    profile_to_csv,
    profile_to_json,
    profile_to_json_dict,
    sup_distance,
)
from kinksolve import kernels
from kinksolve.kernels import KernelFamily
from kinksolve.operators import (
    OperatorConfig,
    _spectral,
    apply_pq,
    apply_tq,
    build_operator,
    psi,
)
from kinksolve.solver import (
    SolveConfig,
    decay_ratio,
    initial_guess,
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
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be finite"):
            SolveConfig(tol=tol)


def test_solve_config_rejects_zero_max_iter():
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        SolveConfig(max_iter=0)


def test_initial_guess_rejects_unknown_kind(default_grid, ledger):
    with pytest.raises(ValueError, match="unknown --init value 'bogus'"):
        initial_guess("bogus", default_grid, ledger)


def test_initial_guesses_are_cone_members(default_grid, ledger):
    for kind in ("erf", "sign"):
        p = initial_guess(kind, default_grid, ledger)
        assert check_cone(p, ledger).member, kind
        assert np.array_equal(p.values, -p.values[::-1])
        assert p.tau == 1.0


def test_erf_initial_guess_is_erf_on_the_positive_nodes(default_grid, ledger):
    p = initial_guess("erf", default_grid, ledger)
    assert np.array_equal(p.u, kernels.erf(default_grid.x_half))


def test_initial_guess_from_file(default_grid, ledger, tmp_path):
    p = initial_guess("erf", default_grid, ledger)
    csv_path = tmp_path / "guess.csv"
    profile_to_csv(p, csv_path)
    q = initial_guess(f"file:{csv_path}", default_grid, ledger)
    assert np.all(q.values == p.values)
    json_path = tmp_path / "guess.json"
    profile_to_json(p, json_path)
    r = initial_guess(f"file:{json_path}", default_grid, ledger)
    assert np.all(r.values == p.values)
    assert r.tau == 1.0


def test_initial_guess_from_file_grid_mismatch(ledger, tmp_path):
    small = make_grid(10.0, 0.05)
    p = initial_guess("erf", small, ledger)
    path = tmp_path / "guess.csv"
    profile_to_csv(p, path)
    with pytest.raises(ValueError):
        initial_guess(f"file:{path}", make_grid(20.0, 0.05), ledger)


def test_solve_rejects_initial_on_other_grid(ledger):
    # the warm start must live on the grid the solve (and its ledger) is for
    small = initial_guess("erf", make_grid(10.0, 0.05), ledger)
    with pytest.raises(ValueError, match="does not match the requested grid"):
        solve(SolveConfig(q=0.0), make_grid(20.0, 0.05), ledger, initial=small)


def test_initial_guess_warns_outside_cone(default_grid, ledger, tmp_path):
    big = 2.0 * ledger.c0
    bad = Profile(grid=default_grid, u=np.full(default_grid.center_index, big), tau=big)
    path = tmp_path / "bad.json"
    profile_to_json(bad, path)
    # the warning carries check_cone's full report, not only the verdict
    with pytest.warns(UserWarning, match=r"is_bounded=False, sup_value="):
        initial_guess(f"file:{path}", default_grid, ledger)


def test_initial_guess_judges_the_odd_part_of_a_file(default_grid, ledger, tmp_path):
    # an even part of 2 c0 alone would break the sup bound; the loader keeps
    # the odd part, erf up to rounding, which is a cone member
    x = default_grid.x
    path = tmp_path / "even.json"
    path.write_text(json.dumps({"half_width": 20.0, "spacing": 0.05, "tail_right": 1.0,
                                "tail_left": -1.0,
                                "values": (erf(x) + 2.0 * ledger.c0).tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = initial_guess(f"file:{path}", default_grid, ledger)
    assert np.max(np.abs(p.u - erf(default_grid.x_half))) <= 1e-15


def _one_step(p, cfg, ledger):
    """The solve of cfg stopped after one step from p: the damped step, or p
    itself when its residual already meets tol."""
    return solve(dataclasses.replace(cfg, max_iter=1), p.grid, ledger, initial=p)


def test_one_step_fixes_exact_fixed_point(default_grid, ledger):
    zero = Profile(grid=default_grid, u=np.zeros(default_grid.center_index), tau=0.0)
    rep = _one_step(zero, SolveConfig(q=0.3), ledger)
    # the residual is the distance from zero to its image
    assert rep.final_residual <= 1e-15
    assert sup_distance(rep.solution, zero) <= 1e-15


def test_one_step_from_erf_reduces_residual(default_grid, ledger):
    fam = KernelFamily(0.0)
    p = initial_guess("erf", default_grid, ledger)
    r0 = sup_distance(apply_pq(p, fam), p)
    stepped = _one_step(p, SolveConfig(q=0.0), ledger).solution
    r1 = sup_distance(apply_pq(stepped, fam), stepped)
    # frozen on first implementation run with the default grid and config
    assert r0 == pytest.approx(0.2569909382178036, rel=1e-9)
    assert r1 == pytest.approx(0.011705443075597732, rel=1e-6)
    assert r1 < r0


def test_one_step_is_the_map_at_config_q(default_grid, ledger):
    # the undamped step is the image under the map at cfg.q
    p = initial_guess("erf", default_grid, ledger)
    stepped = _one_step(p, SolveConfig(q=2.0), ledger).solution
    assert np.array_equal(stepped.values, apply_pq(p, KernelFamily(2.0)).values)


def test_solve_q0_converges(kink_q0, default_grid):
    rep = kink_q0
    assert rep.converged
    assert rep.final_residual <= 1e-12
    assert rep.iterations == 22  # regression value, default grid and config
    assert len(rep.residual_trace) == rep.iterations
    assert rep.stop_reason == "converged"
    assert rep.events == []
    assert np.array_equal(rep.solution.values, -rep.solution.values[::-1])
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
    # no damping fallback fired, so one-step solves chained from the same erf
    # start retrace the solve's own iterates; the last step maps the solution
    # to its image under the undamped map
    cfg = SolveConfig(q=ledger.q0)
    rep = solve(cfg, default_grid, ledger)
    assert rep.converged
    assert rep.events == []
    iterates = [initial_guess("erf", default_grid, ledger)]
    for _ in range(rep.iterations - 1):
        iterates.append(_one_step(iterates[-1], cfg, ledger).solution)
    iterates.append(apply_pq(iterates[-1], KernelFamily(cfg.q)))
    assert len(iterates) == rep.iterations + 1
    assert np.array_equal(iterates[-2].values, rep.solution.values)
    assert all(check_cone(p, ledger).member for p in iterates)


@pytest.mark.parametrize("spec", [(20.0, 0.05), (40.0, 0.0125)])
@pytest.mark.parametrize("q_of", [lambda q0: 0.0, lambda q0: q0 / 2.0], ids=["0", "q0/2"])
def test_cone_member_final_is_check_cone_verdict_on_kinks(ledger, spec, q_of):
    rep = solve(SolveConfig(q=q_of(ledger.q0)), make_grid(*spec), ledger)
    assert rep.converged
    assert rep.cone_member_final is check_cone(rep.solution, ledger).member is True


def test_cone_member_final_is_check_cone_verdict_off_the_cone(default_grid, ledger):
    # five undamped steps at q = 5 leave the cone's modulus and sup bounds
    rep = solve(SolveConfig(q=5.0, max_iter=5), default_grid, ledger)
    assert rep.stop_reason == "budget"
    report = check_cone(rep.solution, ledger)
    assert not report.is_holder
    assert rep.cone_member_final is report.member is False


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
    # reference: one mask per cutoff 2, 4, ..., min(L/2, 10)
    deltas, cut = [], 2.0
    while cut <= min(p.grid.half_width / 2.0, 10.0):
        beyond = float(np.max(np.abs(1.0 - p.values[p.grid.x > cut])))
        deltas.append(max(beyond, abs(1.0 - p.tau)))
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
    p = Profile(grid=default_grid, u=np.ones(default_grid.center_index), tau=1.0)
    assert np.array_equal(p.values, np.sign(default_grid.x))
    assert decay_ratio(p) == 0.0


@pytest.mark.parametrize("rate", [0.5, math.sqrt(math.log(3.0))])
def test_decay_ratio_of_exponential_tail(default_grid, rate):
    # 1 - p = e^(-rate x) beyond every cutoff, so each ratio is e^(-2 rate)
    p = Profile(grid=default_grid, u=1.0 - np.exp(-rate * default_grid.x_half), tau=1.0)
    assert decay_ratio(p) == pytest.approx(math.exp(-2.0 * rate), rel=1e-12)


def test_decay_ratio_with_one_delta_above_the_floor(default_grid):
    # at rate 9 only the defect beyond x = 2 exceeds the floor
    xp = default_grid.x_half
    u = 1.0 - np.exp(-9.0 * xp)
    first = float(np.max(np.abs(1.0 - u[xp > 2.0])))
    p = Profile(grid=default_grid, u=u, tau=1.0)
    assert decay_ratio(p) == solver_module._DECAY_FLOOR / first


def test_decay_ratio_none_on_converged_l8_solution(ledger):
    rep = solve(SolveConfig(q=0.0), make_grid(8.0, 0.05), ledger)
    assert rep.converged
    assert decay_ratio(rep.solution) is None


@pytest.mark.parametrize("half_width", [20.0, 40.0, 80.0])
@pytest.mark.parametrize("tail", [0.5, 0.9, 1.2])
def test_decay_estimate_does_not_depend_on_the_start_tail(ledger, half_width, tail):
    # the tail iterates tau <- tau^(1/3) and stops within tol of 1, not at 1;
    # at L = 80 the far deltas measured from 1 would be that gap, not the decay
    grid = make_grid(half_width, 0.05)
    erf_start = solve(SolveConfig(q=0.0), grid, ledger).decay_estimate
    start = Profile(grid=grid, u=tail * erf(grid.x_half), tau=tail)
    rep = solve(SolveConfig(q=0.0), grid, ledger, initial=start)
    assert rep.converged
    assert rep.solution.tau != 1.0
    assert rep.decay_estimate == pytest.approx(erf_start, rel=1e-6)


def test_decay_estimate_does_not_depend_on_the_half_width(ledger):
    # the fit's window is 2 <= x <= 10 on every grid with L >= 20
    for q in (0.0, ledger.q0 / 2.0, 1.0):
        estimates = [solve(SolveConfig(q=q), make_grid(half_width, 0.05), ledger)
                     .decay_estimate for half_width in (20.0, 40.0, 80.0)]
        assert None not in estimates
        assert estimates == pytest.approx([estimates[0]] * 3, rel=1e-9)


@pytest.mark.parametrize("tail", [0.0, -1.0])
def test_decay_estimate_none_off_the_kink_branch(default_grid, ledger, tail):
    start = Profile(grid=default_grid, u=tail * erf(default_grid.x_half), tau=tail)
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


def test_erf_start_verdict_is_judged_once_per_grid_and_ledger(ledger, monkeypatch):
    # two solves judge three profiles: the erf start once, each solution once
    grid = make_grid(10.0, 0.05)
    searches = []
    search = cone_module._holder_ratio

    def counting_search(*args):
        searches.append(len(args[0]))
        return search(*args)

    monkeypatch.setattr(cone_module, "_holder_ratio", counting_search)
    solver_module._erf_start_is_member.cache_clear()
    first, second = (solve(SolveConfig(), grid, ledger) for _ in range(2))
    assert len(searches) == 3
    assert first.cone_member_final and second.cone_member_final
    assert np.array_equal(first.solution.u, second.solution.u)
    assert first.residual_trace == second.residual_trace


def test_erf_start_outside_the_cone_warns_on_every_call(default_grid, ledger):
    narrow = dataclasses.replace(ledger, c0=0.9)  # below the erf start's sup 1
    for _ in range(2):
        with pytest.warns(UserWarning, match="'erf' is not a cone member: "
                                             "ConeReport\\(is_bounded=False"):
            initial_guess("erf", default_grid, narrow)
        with pytest.warns(UserWarning, match="'erf' is not a cone member"):
            solve(SolveConfig(max_iter=1), default_grid, narrow)


def test_erf_start_is_fresh_on_every_call(default_grid, ledger):
    first = initial_guess("erf", default_grid, ledger)
    first.u[:] = 0.0
    second = initial_guess("erf", default_grid, ledger)
    assert np.array_equal(second.u, kernels.erf(default_grid.x_half))
    assert not np.shares_memory(first.u, second.u)


# quadrature is the one discretization solve iterates; the parameter keeps
# the test ids that named it next to the spectral one
@pytest.mark.parametrize("method", ["quadrature"])
@pytest.mark.parametrize("amplitude", [1e308, 1e307])
def test_solve_raises_on_non_finite_iterate(default_grid, ledger, method, amplitude,
                                           monkeypatch):
    # both overflow in the first operator application, whose residual is
    # then not finite; the solve stops there
    applications = []
    build = solver_module.build_operator

    def counting_build(*args):
        op = build(*args)

        def counted(u, tau, work=None):
            applications.append(tau)
            return op(u, tau, work)

        counted.workspace = op.workspace
        return counted

    monkeypatch.setattr(solver_module, "build_operator", counting_build)
    start = Profile(grid=default_grid, u=np.full(default_grid.center_index, amplitude),
                    tau=amplitude)
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="profile values must be finite"):
        solve(SolveConfig(q=0.1), default_grid, ledger, initial=start)
    assert len(applications) <= 1


def _full_line_picard(cfg, grid, ledger):
    """Reference loop: full-line mix with its odd part taken inline, and the
    damping fallback."""
    family = KernelFamily(cfg.q)
    p = initial_guess("erf", grid, ledger)
    omega, trace, growth_streak = cfg.damping, [], 0
    for _ in range(cfg.max_iter):
        image = apply_pq(p, family)
        trace.append(sup_distance(image, p))
        if trace[-1] <= cfg.tol:
            break
        if len(trace) > 1 and trace[-1] > trace[-2]:
            growth_streak += 1
            if growth_streak >= 5 and omega > 0.5:
                omega, growth_streak = 0.5, 0
        else:
            growth_streak = 0
        v = (1.0 - omega) * p.values + omega * image.values
        c = grid.center_index
        p = Profile(grid=grid, u=0.5 * (v[c + 1:] - v[c - 1::-1]),
                    tau=(1.0 - omega) * p.tau + omega * image.tau)
    return p, len(trace)


@pytest.mark.parametrize("method", ["quadrature"])  # as above, for the test ids
@pytest.mark.parametrize("q_of", [lambda q0: 0.0, lambda q0: q0 / 2.0, lambda q0: 2.0],
                         ids=["0", "q0/2", "2.0"])
def test_solve_matches_full_line_picard(default_grid, ledger, method, q_of):
    cfg = SolveConfig(q=q_of(ledger.q0))
    expected, iterations = _full_line_picard(cfg, default_grid, ledger)
    rep = solve(cfg, default_grid, ledger)
    assert rep.converged
    assert rep.iterations == iterations
    assert sup_distance(rep.solution, expected) <= 1e-13
    v = rep.solution.values
    assert np.array_equal(v, -v[::-1])
    assert v[default_grid.center_index] == 0.0
    tails = profile_to_json_dict(rep.solution)
    assert tails["tail_left"] == -tails["tail_right"]


def test_solve_apply_tq_and_apply_pq_share_one_operator_build(default_grid, ledger):
    # one quadrature build per (grid, weights) whoever asks for it, and the
    # spectral cross-check memoised on its own
    family = KernelFamily(0.3)
    p = initial_guess("erf", default_grid, ledger)
    build_operator.cache_clear()
    _spectral.cache_clear()
    solve(SolveConfig(q=family.q), default_grid, ledger)
    apply_tq(p, family)
    apply_pq(p, family)
    build_operator(default_grid, family.weights)
    for _ in range(2):
        apply_tq(p, family, OperatorConfig("spectral"))
    assert build_operator.cache_info().misses == 1
    assert _spectral.cache_info().misses == 1


def _half_line_picard(cfg, grid, ledger, initial):
    """Reference loop on the positive half: the odd extension built by
    concatenation and zero-padded by rfft, and an out-of-place mix, from the
    odd part of the start's values taken inline."""
    op = build_operator(grid, KernelFamily(cfg.q).weights)
    n, m, c = op.n_fft, op.m, grid.center_index
    v = initial.values
    u, tau = 0.5 * (v[c + 1:] - v[c - 1::-1]), initial.tau
    omega, trace, growth_streak = cfg.damping, [], 0
    for _ in range(cfg.max_iter):
        tail = np.full(m, tau)
        ext = np.concatenate([-tail, -u[::-1], [0.0], u, tail])[len(u) + 1:]
        linear = np.fft.irfft(np.fft.rfft(ext, n) * op.spectrum, n)[2 * m:2 * m + len(u)]
        linear += tau * op.odd_remainder
        linear += (5.0 * u[0] - 4.0 * u[1] + u[2]) * op.cusp
        image, image_tau = np.cbrt(linear), float(np.cbrt(tau))
        trace.append(max(float(np.max(np.abs(image - u))), abs(image_tau - tau)))
        if trace[-1] <= cfg.tol:
            break
        if len(trace) > 1 and trace[-1] > trace[-2]:
            growth_streak += 1
            if growth_streak >= 5 and omega > 0.5:
                omega, growth_streak = 0.5, 0
        else:
            growth_streak = 0
        u = (1.0 - omega) * u + omega * image
        tau = (1.0 - omega) * tau + omega * image_tau
    return Profile(grid=grid, u=u, tau=tau), trace


@pytest.mark.parametrize("spec, q, omega", [
    *[((20.0, 0.05), q, omega) for q in (0.0, 2.3, 2.6765) for omega in (1.0, 0.5, 0.3)],
    ((5.0, 0.05), 0.0, 1.0)])
def test_solve_matches_half_line_picard_bitwise(ledger, spec, q, omega):
    # on (5, 0.05) the window reaches beyond -L, so the extension starts
    # with a block of -tau; at q = 2.6765 the budget runs out, and at
    # omega = 1 the damping fallback fires
    grid = make_grid(*spec)
    cfg = SolveConfig(q=q, damping=omega, max_iter=600)
    start = initial_guess("erf", grid, ledger)
    expected, trace = _half_line_picard(cfg, grid, ledger, start)
    rep = solve(cfg, grid, ledger, initial=start)
    assert rep.residual_trace == trace
    assert rep.solution.values.tobytes() == expected.values.tobytes()
    assert rep.solution.tau == expected.tau


# from tau erf, cbrt and the mix move tau towards +-1 at every step, so each
# application rewrites the workspace's tau blocks and each step takes the
# cube root of a new tau; on (5, 0.05) the window reaches beyond -L, so the
# extension has a -tau block
@pytest.mark.parametrize("spec", [(20.0, 0.05), (5.0, 0.05)])
@pytest.mark.parametrize("tau, omega", [(0.6, 1.0), (0.6, 0.5), (-0.8, 1.0), (1.7, 0.3)])
def test_solve_with_a_moving_tail_matches_half_line_picard_bitwise(ledger, spec, tau,
                                                                   omega):
    grid = make_grid(*spec)
    cfg = SolveConfig(q=0.0, damping=omega, max_iter=600)
    start = Profile(grid=grid, u=tau * (2.0 * grid.ramp), tau=tau)
    expected, trace = _half_line_picard(cfg, grid, ledger, start)
    rep = solve(cfg, grid, ledger, initial=start)
    assert rep.solution.tau != tau
    assert rep.residual_trace == trace
    assert rep.solution.values.tobytes() == expected.values.tobytes()
    assert rep.solution.tau == expected.tau
    assert rep.solution.u.flags.owndata  # a copy out of the solve's workspace


def _thompson(p, r):
    """Thompson's part metric between odd profiles positive on x > 0:
    max(sup |log u - log v| over the positive nodes, |log tau_u - log tau_v|)."""
    return max(float(np.max(np.abs(np.log(p.u) - np.log(r.u)))),
               abs(math.log(p.tau) - math.log(r.tau)))


# while q < 0.168 the half-line kernel is positive on the window, so the
# map is order-preserving and homogeneous of degree 1/3 on profiles
# positive on x > 0, hence 1/3-Lipschitz in Thompson's metric; the sampled
# maxima are 0.3197 (q = 0) and 0.3198 (q0/2)
@pytest.mark.parametrize("q_of", [lambda q0: 0.0, lambda q0: q0 / 2.0], ids=["0", "q0/2"])
def test_map_contracts_at_one_third_in_thompsons_metric(default_grid, ledger, q_of):
    family = KernelFamily(q_of(ledger.q0))
    members = random_cone_members(40, default_grid, ledger, seed=3)
    kink = solve(SolveConfig(q=family.q), default_grid, ledger).solution
    pairs = [*zip(members[::2], members[1::2]), (members[0], kink)]
    ratios = [_thompson(apply_pq(u, family), apply_pq(v, family)) / _thompson(u, v)
              for u, v in pairs]
    assert max(ratios) <= 1.0 / 3.0 + 1e-12


# at rate 1/3, d_T(u_k, u*) <= d_T(u_k, u_(k+1)) / (1 - 1/3)
# <= (1/3) d_T(u_(k-1), u_k) / (2/3): half the last step bounds the error
@pytest.mark.parametrize("q_of", [lambda q0: 0.0, lambda q0: q0 / 2.0], ids=["0", "q0/2"])
def test_half_the_last_step_bounds_the_distance_to_the_fixed_point(default_grid, ledger,
                                                                   q_of):
    q = q_of(ledger.q0)
    cold = solve(SolveConfig(q=q), default_grid, ledger)
    fixed = solve(SolveConfig(q=q, tol=1e-300, max_iter=80), default_grid, ledger).solution
    # the iterate after k steps: a cold solve's first k mixes
    iterates = [initial_guess("erf", default_grid, ledger)] + [
        solve(SolveConfig(q=q, max_iter=k), default_grid, ledger).solution
        for k in range(1, cold.iterations)]
    assert iterates[-1].values.tobytes() == cold.solution.values.tobytes()
    for previous, current in zip(iterates, iterates[1:]):
        assert 0.5 * _thompson(current, previous) >= _thompson(current, fixed)


def test_solve_leaves_its_start_unchanged(default_grid, ledger):
    # a cold odd start and a warm start from an earlier solution, as qscan
    # passes it
    cold = initial_guess("erf", default_grid, ledger)
    cold_bytes = cold.values.tobytes()
    warm = solve(SolveConfig(q=0.0), default_grid, ledger, initial=cold).solution
    assert cold.values.tobytes() == cold_bytes
    warm_bytes = warm.values.tobytes()
    solve(SolveConfig(q=0.5), default_grid, ledger, initial=warm)
    assert warm.values.tobytes() == warm_bytes
