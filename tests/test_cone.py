import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from kinksolve.cone import (
    MEMBERSHIP_SLACK,
    ConstantsLedger,
    LedgerInvariantError,
    _cone_report,
    _holder_ratio,
    c5_bound,
    check_cone,
    check_preservation,
    compute_constants,
    is_cone_member,
    random_cone_members,
    validate_ledger,
)
from kinksolve.grid import GridSpec, Profile, sample
from kinksolve.kernels import KernelFamily, kq_abs_mass, kq_derivative_abs_mass
from kinksolve.operators import apply_pq, psi, t0_psi_analytic
from kinksolve.solver import initial_guess


def test_cube_root_holder_constant_closed_form(ledger):
    # |a^(1/3) - b^(1/3)| / |a - b|^(1/3) is scale-invariant; with |b| <= |a|
    # it depends on t = b/a in [-1, 1] only.  Dense samples of both sign
    # branches stay below 2^(2/3), which t = -1 attains.
    def ratio(t):
        return np.abs(1.0 - np.cbrt(t)) / np.cbrt(np.abs(1.0 - t))

    c_hat = 2.0 ** (2.0 / 3.0)
    assert ledger.c_hat == c_hat
    same_sign = np.linspace(0.0, 1.0, 200001)[:-1]
    opposite_sign = -np.linspace(0.0, 1.0, 200001)
    for t in (same_sign, opposite_sign):
        assert float(np.max(ratio(t))) <= c_hat * (1.0 + 1e-15)
    assert float(ratio(-1.0)) == pytest.approx(c_hat, rel=1e-15)


def test_smoothed_ramp_ratio_monotone_and_infimum(default_grid, ledger):
    # the ratio of the smoothed ramp to the ramp increases in x, so its
    # infimum over x > 0 is the origin limit 1/sqrt(5) = 2 c3
    xp = default_grid.x[default_grid.center_index + 1:]
    ratio = t0_psi_analytic(xp) / psi(xp)
    assert np.all(np.diff(ratio) > -1e-15)
    assert ledger.c3 == 0.5 / math.sqrt(5.0)
    assert float(np.min(ratio)) >= 2.0 * ledger.c3
    assert ratio[0] == pytest.approx(2.0 * ledger.c3, rel=1e-3)


def test_constants_frozen_values(ledger):
    assert ledger.b == pytest.approx(1.1418316262804378, rel=1e-12)
    assert ledger.e == pytest.approx(0.9389073776999057, rel=1e-12)
    assert ledger.c0 == math.sqrt(ledger.b)
    assert ledger.c_hat == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-9)
    assert ledger.c1 == pytest.approx(1.5891367053840757, rel=1e-9)
    assert ledger.c3 == pytest.approx(0.5 / math.sqrt(5.0), rel=1e-12)
    assert ledger.c4 == pytest.approx(2.748565841942807, rel=1e-9)
    assert ledger.ell == 2.0 ** (2.0 / 3.0)
    assert ledger.c2 == pytest.approx(0.94574160900223, rel=1e-9)
    assert ledger.q0 == pytest.approx(0.27460653711753674, rel=1e-9)
    assert ledger.q0 > 0.0


def test_constants_ledger_invariants(ledger):
    assert ledger.c3 ** (1 / 3) * ledger.ell * ledger.c2 ** (1 / 3) >= ledger.c2
    assert ledger.c2 * 0.5 < 1.0
    assert ledger.c4 * ledger.q0**2 < ledger.c3 * ledger.c2
    assert all(0.0 < v < 1.0 for v in ledger.to_json_dict()["c5"]["values"])
    validate_ledger(ledger)


def test_default_ledger_pinned_bits(ledger):
    # make_grid(20, 0.05) at q_max = 1, every field to the last bit
    pinned = {
        "b": "0x1.244f13d469b8cp+0", "c0": "0x1.118d7d7b49558p+0",
        "e": "0x1.e0b877c263702p-1", "c_hat": "0x1.965fea53d6e3cp+0",
        "c1": "0x1.96d1a9c27f6f5p+0", "c3": "0x1.c9f25c5bfedd9p-3",
        "c4": "0x1.5fd1016906098p+1", "ell": "0x1.965fea53d6e3cp+0",
        "c2": "0x1.e4383e8243121p-1", "q0": "0x1.193274c0c020dp-2",
    }
    assert {k: float(getattr(ledger, k)).hex() for k in pinned} == pinned


def test_c4_bound_components(ledger):
    # slope route: c0 int|K1'| / inf ramp slope on [0,1]; level route:
    # c0 int|K1| / ramp level at 1; c4 is the larger of the two
    slope_inf = math.exp(-1.0) / math.sqrt(math.pi)
    level_inf = float(erf(1.0)) / 2.0
    k1_deriv_mass = 0.5338702160360518
    k1_mass = 2.0 * math.sqrt(2.0) * math.exp(-0.5) / (2.0 * math.sqrt(math.pi))
    expected = max(ledger.c0 * k1_deriv_mass / slope_inf,
                   ledger.c0 * k1_mass / level_inf)
    assert ledger.c4 == pytest.approx(expected, rel=1e-9)


def test_ramp_cube_root_bound(default_grid, ledger):
    xp = default_grid.x[default_grid.center_index + 1:]
    ramp = psi(xp)
    assert float(np.min(np.cbrt(ramp) / ramp)) >= ledger.ell - 1e-12


def test_c5_tabulation(ledger):
    table = ledger.to_json_dict()["c5"]
    assert len(table["grid"]) == 19
    assert table["grid"][0] == pytest.approx(0.05)
    assert table["grid"][-1] == pytest.approx(0.95)
    assert table["values"] == [c5_bound(d) for d in table["grid"]]
    assert c5_bound(0.25) == pytest.approx(0.8399473665965821, rel=1e-12)
    assert c5_bound(0.25) == pytest.approx(min(1.0, (1.0 / 3.0) * 0.25 ** (-2 / 3)),
                                           abs=1e-9)


@pytest.mark.parametrize("d", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_c5_dominates_dense_ratio(d):
    # dense sampling of |x^(1/3) - 1| / |x - 1| over x >= d
    x = np.linspace(d, 60.0, 400001)
    x = x[np.abs(x - 1.0) > 1e-9]
    ratio = np.abs(np.cbrt(x) - 1.0) / np.abs(x - 1.0)
    assert float(np.max(ratio)) <= c5_bound(d) + 1e-9
    assert 0.0 < c5_bound(d) < 1.0


def test_c5_rejects_out_of_range():
    with pytest.raises(ValueError):
        c5_bound(0.0)
    with pytest.raises(ValueError):
        c5_bound(1.0)


def test_validate_ledger_rejects_doctored_values(ledger):
    bad = ConstantsLedger(b=ledger.b, c0=ledger.c0, e=ledger.e,
                          c_hat=ledger.c_hat, c1=ledger.c1, c3=ledger.c3,
                          c4=ledger.c4, ell=ledger.ell, c2=ledger.c2,
                          q0=10.0)  # far beyond the admissible bound
    with pytest.raises(LedgerInvariantError):
        validate_ledger(bad)


def test_ledger_json_round_trip(ledger, tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledger.to_json_dict()))
    back = ConstantsLedger.from_json_dict(json.loads(path.read_text()))
    assert back.b == ledger.b
    assert back.q0 == ledger.q0
    assert back.to_json_dict() == ledger.to_json_dict()
    validate_ledger(back)


def test_barrier_profile_is_member(default_grid, ledger):
    p = sample(lambda x: ledger.c2 * psi(x), default_grid, ledger.c2 * 0.5)
    report = check_cone(p, ledger)
    assert report.member
    assert report.psi_margin == pytest.approx(0.0, abs=1e-12)


def test_erf_is_member(default_grid, ledger):
    report = check_cone(sample(lambda x: erf(x), default_grid, 1.0), ledger)
    assert report.member
    assert report.holder_ratio < ledger.c1
    assert report.sup_value == 1.0


def test_oversized_constant_is_not_member(default_grid, ledger):
    big = 2.0 * ledger.c0
    p = Profile(grid=default_grid, u=np.full(default_grid.center_index, big), tau=big)
    report = check_cone(p, ledger)
    assert not report.member
    assert not report.is_bounded


def test_preservation_of_erf_at_q0(default_grid, ledger):
    p = sample(lambda x: erf(x), default_grid, 1.0)
    assert check_preservation(p, KernelFamily(0.0), ledger).member


def test_preservation_of_barrier_at_half_q0(default_grid, ledger):
    p = sample(lambda x: ledger.c2 * psi(x), default_grid, ledger.c2 * 0.5)
    assert check_preservation(p, KernelFamily(ledger.q0 / 2.0), ledger).member


def test_preservation_rejects_nonmember_input(default_grid, ledger):
    big = 2.0 * ledger.c0
    p = Profile(grid=default_grid, u=np.full(default_grid.center_index, big), tau=big)
    with pytest.raises(ValueError):
        check_preservation(p, KernelFamily(0.0), ledger)


def test_preservation_rejects_excessive_q(default_grid, ledger):
    p = sample(lambda x: erf(x), default_grid, 1.0)
    with pytest.raises(ValueError):
        check_preservation(p, KernelFamily(2.0 * ledger.q0), ledger)


def test_random_members_are_members(default_grid, ledger):
    members = random_cone_members(25, default_grid, ledger, seed=42)
    assert all(check_cone(m, ledger).member for m in members)


def test_random_members_preserved_across_q(default_grid, ledger):
    members = random_cone_members(25, default_grid, ledger, seed=1234)
    for q in [0.0, ledger.q0 / 2.0, ledger.q0]:
        fam = KernelFamily(q)
        assert all(check_preservation(m, fam, ledger).member for m in members)


def test_sup_bound_chain(default_grid, ledger):
    # sup of the mapped profile stays within (b sup)^(1/3) <= c0
    from kinksolve.grid import sup_norm
    from kinksolve.operators import apply_pq

    members = random_cone_members(10, default_grid, ledger, seed=7)
    for m in members:
        for q in [0.0, ledger.q0]:
            img = apply_pq(m, KernelFamily(q))
            bound = (ledger.b * sup_norm(m)) ** (1.0 / 3.0)
            assert sup_norm(img) <= bound + 1e-10
            assert bound <= ledger.c0 + 1e-10


def test_constants_respects_custom_q_range(default_grid):
    wider = compute_constants(default_grid, q_range_max=0.5)
    # narrower q-range gives smaller suprema and therefore smaller c0
    assert wider.b < 1.1418316262804378
    validate_ledger(wider)


def test_q0_stays_within_the_q_range_of_the_masses(default_grid):
    # b and e bound the kernels only for q <= q_max, so q0 is capped there
    narrow = compute_constants(default_grid, q_range_max=0.1)
    assert narrow.q0 == 0.1
    p = sample(lambda x: narrow.c2 * psi(x), default_grid, narrow.c2 * 0.5)
    assert is_cone_member(p, narrow)
    with pytest.raises(ValueError, match="exceeds admissible bound 0.1$"):
        check_preservation(p, KernelFamily(0.2), narrow)


@pytest.mark.parametrize("q_max", [0.3, 0.5, 1.0, 3.7])
def test_constants_take_suprema_at_q_max(default_grid, q_max):
    # b and e are the closed-form masses at q_max; a q-sweep of the masses
    # is the oracle that nothing in [0, q_max] exceeds them
    led = compute_constants(default_grid, q_range_max=q_max)
    fam = KernelFamily(q_max)
    assert led.b == kq_abs_mass(fam)
    assert led.e == kq_derivative_abs_mass(fam)
    sweep = [KernelFamily(q) for q in np.linspace(0.0, q_max, 101)]
    assert max(kq_abs_mass(f) for f in sweep) <= led.b
    assert max(kq_derivative_abs_mass(f) for f in sweep) <= led.e


@pytest.mark.parametrize("q_max", [0.0, -1.0, float("nan")])
def test_constants_rejects_nonpositive_q_range(default_grid, q_max):
    with pytest.raises(ValueError, match="q_range_max"):
        compute_constants(default_grid, q_range_max=q_max)


def test_constants_reject_a_non_finite_c1(default_grid):
    # every field is finite at q_max = 1e102; at 1e103 c0 e overflows in c1
    compute_constants(default_grid, q_range_max=1e102)
    with pytest.raises(LedgerInvariantError, match="non-finite constants: c1$"):
        compute_constants(default_grid, q_range_max=1e103)


def _all_pairs_ratio(v, h):
    # O(n^2) oracle: the largest |v_j - v_i| at each lag over its distance^(1/3)
    best = 0.0
    for lag in range(1, len(v)):
        best = max(best, np.max(np.abs(v[lag:] - v[:-lag])) / (lag * h) ** (1.0 / 3.0))
    return best


def _assert_exact(ratio, v, h):
    # the numpy and scalar cube roots of a distance may differ by one ulp
    assert ratio == pytest.approx(_all_pairs_ratio(v, h), rel=4e-16, abs=0.0)


@pytest.mark.parametrize("seed, kind", enumerate(["random", "cusp", "walk", "tanh"]))
@pytest.mark.parametrize("h", [0.01, 0.05, 0.37])
def test_holder_ratio_is_exact_over_all_pairs(ledger, seed, kind, h):
    # arrays that are not odd go to _holder_ratio directly, and their
    # positive halves to check_cone as profiles
    rng = np.random.default_rng([seed, int(100 * h)])
    for _ in range(10):
        m = int(rng.integers(1, 150))
        grid = GridSpec(half_width=m * h, spacing=h, n_points=2 * m + 1)
        x = grid.x
        v = {"random": lambda: rng.normal(size=x.size),
             "cusp": lambda: np.cbrt(x - x[rng.integers(x.size)]),
             "walk": lambda: np.cumsum(rng.normal(size=x.size)),
             "tanh": lambda: np.tanh(rng.uniform(0.1, 5.0) * x)}[kind]()
        _assert_exact(_holder_ratio(v, h), v, h)
        _assert_exact(_holder_ratio(v[1:], h), v[1:], h)  # an even node count
        p = Profile(grid=grid, u=v[m + 1:], tau=v[-1])
        _assert_exact(check_cone(p, ledger).holder_ratio, p.values, h)


def test_holder_ratio_of_starts_and_kink_is_exact(default_grid, ledger, kink_q0):
    profiles = [initial_guess("erf", default_grid, ledger),
                initial_guess("sign", default_grid, ledger), kink_q0.solution]
    for p in profiles:
        _assert_exact(check_cone(p, ledger).holder_ratio, p.values, default_grid.spacing)


def test_holder_ratio_of_flat_and_tiny_grids(default_grid, ledger):
    flat = Profile(grid=default_grid, u=np.zeros(default_grid.center_index), tau=0.0)
    assert check_cone(flat, ledger).holder_ratio == 0.0
    two = np.array([0.25, -0.5])
    _assert_exact(_holder_ratio(two, 0.2), two, 0.2)
    assert _holder_ratio(np.array([0.3]), 0.2) == 0.0


def test_sign_start_ratio_peaks_at_far_pair(default_grid, ledger):
    # the ramp's ends (-1.2, 1.2) are 2.4 apart: 2 / 2.4^(1/3) = 1.4938
    report = check_cone(initial_guess("sign", default_grid, ledger), ledger)
    assert report.holder_ratio == pytest.approx(2.0 / 2.4 ** (1.0 / 3.0), rel=1e-15)
    assert report.holder_ratio == pytest.approx(1.4938, abs=1e-4)


def _far_pair(grid, top):
    # odd: 0.999 |x|^(1/3) up to |x| = 1, linear up to P at |x| = 1.2, then
    # P; only the far pair (-1.2, 1.2) can break the bound: 2P / 2.4^(1/3)
    x = grid.x_half
    mag = np.where(x <= 1.0, 0.999 * np.cbrt(x),
                   np.minimum(0.999 + (top - 0.999) * (x - 1.0) / 0.2, top))
    return Profile(grid=grid, u=mag, tau=top)


def test_far_pair_modulus_violation_is_not_member(default_grid, ledger):
    top = 1.0650
    report = check_cone(_far_pair(default_grid, top), ledger)
    assert report.holder_ratio == pytest.approx(2.0 * top / 2.4 ** (1.0 / 3.0), rel=1e-12)
    assert report.holder_ratio == pytest.approx(1.59090, abs=1e-5)
    assert ledger.c1 == pytest.approx(1.58914, abs=1e-5)
    assert not report.is_holder and not report.member
    assert report.is_bounded and report.is_above_psi


@given(st.lists(st.floats(-10.0, 10.0), max_size=300), st.booleans(),
       st.floats(1e-3, 1.0), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0)),
       st.integers(-2, 2))
@example([], False, 0.05, 1.0, 0)
@example([], False, 0.05, 0.0, 1)
@example([0.3], False, 0.2, 1.0, 1)
@example([0.25, -0.5], False, 0.2, 1.0, 0)
@example([0.25, -0.5], False, 0.2, 1.0, -1)
@example([0.25, -0.5], False, 0.2, 1.0, 1)
@settings(max_examples=300, deadline=None)
def test_floored_holder_ratio_is_max_of_floor_and_ratio(values, walk, h, fraction, ulps):
    # floors below, at and above the exact ratio, down to an ulp either side;
    # a walk reaches its worst pair at long lags, white noise at short ones
    v = np.cumsum(values) if walk else np.array(values, dtype=float)
    ratio = _holder_ratio(v, h)
    floor = ratio * fraction if ratio > 0.0 else fraction
    for _ in range(abs(ulps)):
        floor = float(np.nextafter(floor, math.copysign(math.inf, ulps)))
    floor = max(floor, 0.0)
    assert _holder_ratio(v, h, floor) == max(floor, ratio)


def _single_condition_failures(grid, ledger):
    member = random_cone_members(1, grid, ledger, seed=3)[0]
    # 0.999 x^(1/3), whose ratio is 2^(2/3) 0.999 < c1 across the origin,
    # capped just above c0
    top = 1.01 * ledger.c0
    oversized = Profile(grid=grid, u=np.minimum(0.999 * np.cbrt(grid.x_half), top),
                        tau=top)
    sag = member.u.copy()
    sag[4] = 0.0
    return {"is_bounded": oversized,
            "is_above_psi": Profile(grid=grid, u=sag, tau=member.tau),
            "is_holder": _far_pair(grid, 1.0650)}


def test_single_condition_failures_fail_only_their_condition(default_grid, ledger):
    conditions = {"is_bounded", "is_holder", "is_above_psi"}
    for failed, p in _single_condition_failures(default_grid, ledger).items():
        report = check_cone(p, ledger)
        held = conditions - {failed}
        assert not getattr(report, failed)
        assert all(getattr(report, c) for c in held), (failed, report)


def test_is_cone_member_agrees_with_check_cone(default_grid, ledger, kink_q0):
    profiles = [initial_guess("erf", default_grid, ledger),
                initial_guess("sign", default_grid, ledger), kink_q0.solution,
                *_single_condition_failures(default_grid, ledger).values()]
    # the far pair's ratio 2P / 2.4^(1/3) crosses c1 near P = 1.0638
    profiles += [_far_pair(default_grid, top) for top in np.linspace(1.062, 1.066, 41)]
    for seed in range(6):
        draws = random_cone_members(40, default_grid, ledger, seed=seed)
        profiles += draws
        for q in (0.0, ledger.q0 / 2.0, ledger.q0):
            profiles += [apply_pq(m, KernelFamily(q)) for m in draws]
    verdicts = [(is_cone_member(p, ledger), check_cone(p, ledger).member) for p in profiles]
    assert all(floored == exact for floored, exact in verdicts)
    members = sum(exact for _, exact in verdicts)
    assert 0 < len(verdicts) - members and members > 900


def _symmetric_pairs_ratio(p):
    # the pairs (-a h, a h) across the origin: 2 |u_a| / (2 a h)^(1/3)
    lags = 2 * np.arange(1, p.grid.center_index + 1)
    return float(np.max(2.0 * np.abs(p.u) / (lags * p.grid.spacing) ** (1.0 / 3.0)))


@pytest.mark.parametrize("half_width, spacing",
                         [(20.0, 0.05), (40.0, 0.0125), (5.0, 0.05), (10.0, 0.1),
                          (5.0, 0.5), (80.0, 0.01)])
def test_half_line_search_equals_the_full_line_search(ledger, half_width, spacing):
    # the cone searches the half line floored at the symmetric pairs' ratio;
    # at every floor that must be the full line's search bit for bit, both
    # where the worst pair is symmetric (the sign start's (-1.2, 1.2)) and
    # where it lies on one side of the origin
    grid = GridSpec(half_width=half_width, spacing=spacing,
                    n_points=2 * round(half_width / spacing) + 1)
    m, bound = grid.center_index, ledger.c1 + MEMBERSHIP_SLACK
    rng = np.random.default_rng([23, m])
    draws = random_cone_members(50, grid, ledger, seed=11)
    profiles = draws + [apply_pq(d, KernelFamily(0.137)) for d in draws]
    for scale in (1e-3, 1e-2, 0.1, 1.0):
        profiles.append(Profile(grid=grid, u=scale * rng.normal(size=m), tau=scale))
        walk = scale * np.cumsum(rng.normal(size=m)) * spacing ** 0.5
        profiles.append(Profile(grid=grid, u=walk, tau=walk[-1]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the sign start misses the cone
        profiles.append(initial_guess("sign", grid, ledger))
    # u = s x^(1/3): every symmetric pair ties at 2^(2/3) s up to rounding,
    # and a crossing pair (-a, b), a != b, falls short only by the cube
    # root's concavity margin
    for s in bound / 2.0 ** (2.0 / 3.0) * np.array([1.0 - 1e-9, 1.0 + 1e-9]):
        profiles.append(Profile(grid=grid, u=s * np.cbrt(grid.x_half),
                                tau=s * np.cbrt(half_width)))
    symmetric = one_sided = 0
    for p in profiles:
        pairs = _symmetric_pairs_ratio(p)
        for floor in (0.0, 0.5 * bound, bound, 2.0 * bound):
            full = _holder_ratio(p.values, spacing, floor)
            report = _cone_report(p, ledger, floor)
            assert report.holder_ratio == full, (floor, report.holder_ratio, full)
            assert report.is_holder == (full <= bound)
            if full > floor:
                symmetric += full == pairs
                one_sided += full > pairs
    assert symmetric > 0 and one_sided > 0
