import json
import math

import numpy as np
import pytest
from scipy.special import erf

from kinksolve.grid import (
    Profile,
    make_grid,
    odd_defect,
    odd_half,
    odd_profile,
    profile_from_csv,
    profile_from_json,
    profile_to_csv,
    profile_to_json,
    project_odd,
    sample,
    sup_distance,
    sup_norm,
)
from kinksolve.operators import psi


def test_make_grid_default_node_count():
    g = make_grid(20.0, 0.05)
    assert g.n_points == 801
    assert g.x[g.center_index] == 0.0
    assert g.x[-1] == pytest.approx(20.0, abs=1e-12)


def test_make_grid_rejects_incommensurate():
    with pytest.raises(ValueError):
        make_grid(20.0, 0.03)


def test_make_grid_coarse_layout():
    g = make_grid(5.0, 0.5)
    assert g.n_points == 21
    assert g.x[g.center_index + 10] == pytest.approx(5.0)


def test_make_grid_range_validation():
    with pytest.raises(ValueError):
        make_grid(4.0, 0.05)  # half_width below 5
    with pytest.raises(ValueError):
        make_grid(20.0, 0.6)  # spacing above 0.5
    with pytest.raises(ValueError):
        make_grid(math.inf, 0.05)


def test_sample_erf_is_odd():
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 1.0, -1.0)
    assert p.values[g.center_index] == 0.0
    assert odd_defect(p) < 1e-15


def test_sample_ramp_stays_below_half():
    # strictly below 1/2 wherever that is representable (the ramp saturates
    # to 0.5 in double precision beyond |x| ~ 5.9)
    g = make_grid(20.0, 0.05)
    p = sample(psi, g, 0.5, -0.5)
    assert np.max(np.abs(p.values)) <= 0.5
    inner = np.abs(g.x) <= 5.0
    assert np.max(np.abs(p.values[inner])) < 0.5


def test_sample_constant():
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: np.ones_like(np.asarray(x, dtype=float)), g, 1.0, 1.0)
    assert np.all(p.values == 1.0)


def test_sample_rejects_nonfinite():
    g = make_grid(20.0, 0.05)
    with pytest.raises(ValueError):
        sample(lambda x: np.where(np.asarray(x) == 0.0, np.inf, 1.0), g, 1.0, 1.0)


def test_profile_validates_shape_and_tails():
    g = make_grid(20.0, 0.05)
    with pytest.raises(ValueError):
        Profile(grid=g, values=np.zeros(5), tail_right=1.0, tail_left=-1.0)
    with pytest.raises(ValueError):
        Profile(grid=g, values=np.zeros(g.n_points), tail_right=math.inf,
                tail_left=-1.0)


def test_project_odd_extracts_odd_part():
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: x**2 + x, g, 1.0, -1.0)
    q = project_odd(p)
    assert np.allclose(q.values, g.x, atol=1e-12)


def test_project_odd_fixes_odd_input_bitwise():
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 1.0, -1.0)
    q = project_odd(p)
    assert np.all(q.values == p.values)


def test_project_odd_idempotent():
    g = make_grid(20.0, 0.05)
    rng = np.random.default_rng(7)
    p = Profile(grid=g, values=rng.normal(size=g.n_points), tail_right=1.0,
                tail_left=-1.0)
    once = project_odd(p)
    twice = project_odd(once)
    assert np.all(once.values == twice.values)


def test_project_odd_rejects_mismatched_tails():
    g = make_grid(20.0, 0.05)
    p = Profile(grid=g, values=np.zeros(g.n_points), tail_right=1.0, tail_left=0.5)
    with pytest.raises(ValueError):
        project_odd(p)


def test_odd_codec_round_trip_is_exact():
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 1.0, -1.0)
    u, tau = odd_half(p)
    assert np.array_equal(u, erf(g.x[g.center_index + 1:])) and tau == 1.0
    q = odd_profile(g, u, tau)
    assert np.array_equal(q.values, p.values)
    assert (q.tail_right, q.tail_left) == (1.0, -1.0)


def test_sup_norm_includes_tails():
    g = make_grid(20.0, 0.05)
    p = Profile(grid=g, values=np.zeros(g.n_points), tail_right=2.0, tail_left=-2.0)
    assert sup_norm(p) == 2.0
    one = sample(lambda x: np.ones_like(np.asarray(x, float)), g, 1.0, 1.0)
    assert sup_norm(one) == 1.0


def test_sup_distance_zero_on_identical():
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 1.0, -1.0)
    r = sample(lambda x: erf(x), g, 1.0, -1.0)
    assert sup_distance(p, r) == 0.0


def test_sup_distance_grid_mismatch():
    p = sample(lambda x: erf(x), make_grid(20.0, 0.05), 1.0, -1.0)
    r = sample(lambda x: erf(x), make_grid(20.0, 0.1), 1.0, -1.0)
    with pytest.raises(ValueError):
        sup_distance(p, r)


def test_sup_distance_erf_vs_tanh():
    # dense oracle (step 1e-4) puts the max near x = 0.975 at 0.0811682...;
    # the grid value sits within one grid cell's curvature of that
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 1.0, -1.0)
    r = sample(np.tanh, g, 1.0, -1.0)
    xx = np.arange(0.0, 20.00005, 1e-4)
    dense = float(np.max(np.abs(erf(xx) - np.tanh(xx))))
    assert dense == pytest.approx(0.08116824976265036, rel=1e-12)
    assert sup_distance(p, r) == pytest.approx(dense, abs=1e-4)
    assert sup_distance(p, r) == pytest.approx(0.08110775599927356, rel=1e-12)


def test_sup_distance_is_a_metric_on_random_triples():
    g = make_grid(20.0, 0.05)
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, c = (Profile(grid=g, values=rng.normal(size=g.n_points),
                           tail_right=rng.normal(), tail_left=rng.normal())
                   for _ in range(3))
        assert sup_distance(a, b) == sup_distance(b, a)
        assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c) + 1e-15
        assert sup_distance(a, a) == 0.0


def test_csv_round_trip_exact(tmp_path):
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 1.0, -1.0)
    path = tmp_path / "profile.csv"
    profile_to_csv(p, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,phi"
    q = profile_from_csv(path, tail_right=1.0, tail_left=-1.0)
    assert q.grid == p.grid
    assert np.all(q.values == p.values)
    assert (q.tail_right, q.tail_left) == (1.0, -1.0)


def test_csv_round_trip_keeps_a_rounded_grid(tmp_path):
    # the last node 100 * 0.07 = 7.000000000000001 is the half-width read back
    g = make_grid(7.0, 0.07)
    path = tmp_path / "profile.csv"
    profile_to_csv(sample(lambda x: erf(x), g, 1.0, -1.0), path)
    q = profile_from_csv(path)
    assert q.grid.half_width != g.half_width
    assert q.grid == g


def test_csv_default_tails_from_endpoints(tmp_path):
    g = make_grid(20.0, 0.05)
    p = sample(np.tanh, g, 1.0, -1.0)
    path = tmp_path / "profile.csv"
    profile_to_csv(p, path)
    q = profile_from_csv(path)
    assert q.tail_right == p.values[-1]
    assert q.tail_left == p.values[0]


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n")
    with pytest.raises(ValueError):
        profile_from_csv(path)


def test_json_round_trip_exact(tmp_path):
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 0.25, -0.25)
    path = tmp_path / "profile.json"
    profile_to_json(p, path)
    d = json.loads(path.read_text())
    assert set(d) == {"half_width", "spacing", "tail_right", "tail_left", "values"}
    q = profile_from_json(path)
    assert q.grid == p.grid
    assert np.all(q.values == p.values)
    assert q.tail_right == 0.25 and q.tail_left == -0.25
