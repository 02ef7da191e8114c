import json
import math
import re

import numpy as np
import pytest
from scipy.special import erf

from kinksolve.grid import (
    Profile,
    make_grid,
    profile_from_csv,
    profile_from_json,
    profile_from_json_dict,
    profile_to_csv,
    profile_to_json,
    profile_to_json_dict,
    sample,
    sup_distance,
    sup_norm,
)
from kinksolve.kernels import erf as ks_erf
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


@pytest.mark.parametrize("half_width, spacing", [(20.0, 1e-320), (20.0, 5e-324),
                                                  (1e300, 1e-10)])
def test_make_grid_rejects_an_overflowing_node_count(half_width, spacing):
    # L/h is inf, which round() cannot take
    with pytest.raises(ValueError, match="overflows"):
        make_grid(half_width, spacing)


def test_sample_erf_is_odd():
    # sampled on the positive nodes only, yet equal to erf on every node
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 1.0)
    assert p.values[g.center_index] == 0.0
    assert np.array_equal(p.values, -p.values[::-1])
    assert np.array_equal(p.values, erf(g.x))


def test_grid_ramp_is_cached_read_only_half_erf():
    g = make_grid(20.0, 0.05)
    ramp = g.ramp
    assert np.array_equal(ramp, 0.5 * ks_erf(g.x_half))
    assert g.ramp is ramp
    assert not ramp.flags.writeable
    with pytest.raises(ValueError):
        ramp[0] = 1.0


@pytest.mark.parametrize("half_width, spacing", [(20.0, 0.05), (40.0, 0.0125), (5.201, 0.007)])
def test_grid_pair_scale_is_cached_read_only_inline_formula(half_width, spacing):
    # bit for bit the scale the cone's symmetric-pair ratio once computed inline
    g = make_grid(half_width, spacing)
    scale = g.pair_scale
    lags = 2 * np.arange(1, g.center_index + 1)
    assert scale.tobytes() == ((lags * g.spacing) ** (1.0 / 3.0)).tobytes()
    assert g.pair_scale is scale
    assert not scale.flags.writeable
    with pytest.raises(ValueError):
        scale[0] = 1.0


def test_sample_ramp_stays_below_half():
    # strictly below 1/2 wherever that is representable (the ramp saturates
    # to 0.5 in double precision beyond |x| ~ 5.9)
    g = make_grid(20.0, 0.05)
    p = sample(psi, g, 0.5)
    assert np.max(np.abs(p.values)) <= 0.5
    inner = np.abs(g.x) <= 5.0
    assert np.max(np.abs(p.values[inner])) < 0.5


def test_sample_constant():
    # a constant on the positive nodes is the sign function on the line
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: np.ones_like(np.asarray(x, dtype=float)), g, 1.0)
    assert np.all(p.u == 1.0)
    assert np.array_equal(p.values, np.sign(g.x))


def test_sample_rejects_nonfinite():
    g = make_grid(20.0, 0.05)
    with pytest.raises(ValueError):
        sample(lambda x: np.where(np.asarray(x) == 10.0, np.inf, 1.0), g, 1.0)


def test_sample_rejects_a_scalar_result():
    # f is called once on the positive nodes; a scalar is not one value per node
    g = make_grid(20.0, 0.05)
    with pytest.raises(ValueError, match=r"expected 400 values on the positive nodes, "
                                         r"got shape \(\)"):
        sample(lambda x: 1.0, g, 1.0)


def test_profile_validates_shape_and_tails():
    g = make_grid(20.0, 0.05)
    with pytest.raises(ValueError):
        Profile(grid=g, u=np.zeros(5), tau=1.0)
    with pytest.raises(ValueError):
        Profile(grid=g, u=np.zeros(g.n_points), tau=1.0)  # the full line
    with pytest.raises(ValueError, match="tail must be finite"):
        Profile(grid=g, u=np.zeros(400), tau=math.inf)
    with pytest.raises(ValueError, match="values must be finite"):
        Profile(grid=g, u=np.full(400, math.nan), tau=1.0)


def _full_line_dict(g, values):
    return {"half_width": g.half_width, "spacing": g.spacing, "tail_right": 1.0,
            "tail_left": -1.0, "values": values.tolist()}


def _full_line_csv(path, g, values):
    rows = "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(g.x, values))
    path.write_text("x,phi\n" + rows)
    return path


def test_project_odd_extracts_odd_part(tmp_path):
    # the odd projection now lives in the loaders: both read x^2 + x on
    # every node back as its odd part x
    g = make_grid(20.0, 0.05)
    values = g.x**2 + g.x
    c = g.center_index
    odd = 0.5 * (values[c + 1:] - values[c - 1::-1])
    path = _full_line_csv(tmp_path / "even.csv", g, values)
    for p in (profile_from_json_dict(_full_line_dict(g, values)),
              profile_from_csv(path, tau=1.0)):
        assert np.allclose(p.u, g.x_half, rtol=0, atol=1e-12)
        assert np.array_equal(p.u, odd) and p.tau == 1.0


def test_project_odd_idempotent(tmp_path):
    # the loaders' odd part of random full-line values reloads bitwise
    g = make_grid(20.0, 0.05)
    values = np.random.default_rng(7).normal(size=g.n_points)
    path = _full_line_csv(tmp_path / "random.csv", g, values)
    for once in (profile_from_json_dict(_full_line_dict(g, values)),
                 profile_from_csv(path, tau=1.0)):
        twice = profile_from_json_dict(profile_to_json_dict(once))
        assert np.array_equal(twice.u, once.u) and twice.tau == once.tau
        profile_to_csv(once, tmp_path / "once.csv")
        twice = profile_from_csv(tmp_path / "once.csv", tau=once.tau)
        assert np.array_equal(twice.u, once.u) and twice.tau == once.tau


def test_json_loader_rejects_tails_that_are_not_opposite():
    d = profile_to_json_dict(sample(lambda x: erf(x), make_grid(20.0, 0.05), 1.0))
    for right, left in [(1.0, 1.0), (1.0, -0.5), (0.0, 1e-300)]:
        d["tail_right"], d["tail_left"] = right, left
        with pytest.raises(ValueError, match=re.escape(f"tail_left={left!r} and "
                                                       f"tail_right={right!r}")):
            profile_from_json_dict(d)


@pytest.mark.parametrize("edit, message", [
    (lambda v: v[:-1], "expected 801 values, got shape (800,)"),
    (lambda v: v[:7] + [math.nan] + v[8:], "profile values must be finite"),
])
def test_json_loader_rejects_short_or_nonfinite_values(edit, message):
    d = profile_to_json_dict(sample(lambda x: erf(x), make_grid(20.0, 0.05), 1.0))
    d["values"] = edit(d["values"])
    with pytest.raises(ValueError, match=re.escape(message)):
        profile_from_json_dict(d)


def test_odd_codec_round_trip_is_exact():
    # u -> values mirrors u; the loaders' odd part of those values is u again
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 1.0)
    u = erf(g.x_half)
    assert np.array_equal(p.u, u) and p.tau == 1.0
    assert np.array_equal(p.values, np.concatenate([-u[::-1], [0.0], u]))
    assert p.values is p.values and not p.values.flags.writeable
    q = profile_from_json_dict(profile_to_json_dict(p))
    assert np.array_equal(q.u, u) and q.tau == 1.0


def test_sup_norm_includes_tails():
    g = make_grid(20.0, 0.05)
    p = Profile(grid=g, u=np.zeros(400), tau=2.0)
    assert sup_norm(p) == 2.0
    one = sample(lambda x: np.ones_like(np.asarray(x, float)), g, 1.0)
    assert sup_norm(one) == 1.0


def test_sup_distance_zero_on_identical():
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 1.0)
    r = sample(lambda x: erf(x), g, 1.0)
    assert sup_distance(p, r) == 0.0


def test_sup_distance_grid_mismatch():
    p = sample(lambda x: erf(x), make_grid(20.0, 0.05), 1.0)
    r = sample(lambda x: erf(x), make_grid(20.0, 0.1), 1.0)
    with pytest.raises(ValueError):
        sup_distance(p, r)


def test_sup_distance_erf_vs_tanh():
    # dense oracle (step 1e-4) puts the max near x = 0.975 at 0.0811682...;
    # the grid value sits within one grid cell's curvature of that
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 1.0)
    r = sample(np.tanh, g, 1.0)
    xx = np.arange(0.0, 20.00005, 1e-4)
    dense = float(np.max(np.abs(erf(xx) - np.tanh(xx))))
    assert dense == pytest.approx(0.08116824976265036, rel=1e-12)
    assert sup_distance(p, r) == pytest.approx(dense, abs=1e-4)
    assert sup_distance(p, r) == pytest.approx(0.08110775599927356, rel=1e-12)


def test_sup_distance_is_a_metric_on_random_triples():
    g = make_grid(20.0, 0.05)
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, c = (Profile(grid=g, u=rng.normal(size=400), tau=rng.normal())
                   for _ in range(3))
        assert sup_distance(a, b) == sup_distance(b, a)
        assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c) + 1e-15
        assert sup_distance(a, a) == 0.0


def test_csv_round_trip_exact(tmp_path):
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 1.0)
    path = tmp_path / "profile.csv"
    profile_to_csv(p, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,phi"
    q = profile_from_csv(path, tau=1.0)
    assert q.grid == p.grid
    assert np.all(q.values == p.values)
    assert q.tau == 1.0


def test_csv_round_trip_keeps_a_rounded_grid(tmp_path):
    # the last node 100 * 0.07 = 7.000000000000001 is the half-width read back
    g = make_grid(7.0, 0.07)
    path = tmp_path / "profile.csv"
    profile_to_csv(sample(lambda x: erf(x), g, 1.0), path)
    q = profile_from_csv(path)
    assert q.grid.half_width != g.half_width
    assert q.grid == g


def test_csv_default_tails_from_endpoints(tmp_path):
    g = make_grid(20.0, 0.05)
    p = sample(np.tanh, g, 1.0)
    path = tmp_path / "profile.csv"
    profile_to_csv(p, path)
    q = profile_from_csv(path)
    assert q.tau == p.values[-1]
    assert -q.tau == p.values[0]


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n")
    with pytest.raises(ValueError):
        profile_from_csv(path)


@pytest.mark.parametrize("row", [1, 200, 401, 800, 801])
def test_csv_rejects_a_nan_node(tmp_path, row):
    # NaN compares false against every tolerance, so both checks must be
    # written to pass only when the node is within tolerance
    path = tmp_path / "profile.csv"
    profile_to_csv(sample(lambda x: erf(x), make_grid(20.0, 0.05), 1.0), path)
    lines = path.read_text().splitlines()
    lines[row] = "nan," + lines[row].split(",")[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="not uniformly spaced|not symmetric"):
        profile_from_csv(path)


def test_json_round_trip_exact(tmp_path):
    g = make_grid(20.0, 0.05)
    p = sample(lambda x: erf(x), g, 0.25)
    path = tmp_path / "profile.json"
    profile_to_json(p, path)
    d = json.loads(path.read_text())
    assert set(d) == {"half_width", "spacing", "tail_right", "tail_left", "values"}
    assert (d["tail_right"], d["tail_left"]) == (0.25, -0.25)
    q = profile_from_json(path)
    assert q.grid == p.grid
    assert np.all(q.values == p.values)
    assert q.tau == 0.25
