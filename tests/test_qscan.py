import csv
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from kinksolve import qscan
from kinksolve.qscan import ScanConfig, ScanSample, scan
from kinksolve.solver import SolveConfig


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(q_min=-0.1)
    with pytest.raises(ValueError):
        ScanConfig(q_min=1.0, q_max=0.5)
    with pytest.raises(ValueError):
        ScanConfig(bisect_tol=0.0)
    # non-finite bounds and tolerances, each named in the message
    for field, value in [("q_min", math.inf), ("q_max", math.inf), ("q_max", math.nan),
                         ("bisect_tol", math.inf), ("bisect_tol", math.nan)]:
        with pytest.raises(ValueError, match=field):
            ScanConfig(**{field: value})


def test_scan_config_rejects_zero_coarse_steps():
    with pytest.raises(ValueError, match="coarse_steps must be >= 1"):
        ScanConfig(coarse_steps=0)


def test_sample_classification_rule():
    kink = ScanSample(q=0.1, converged=True, final_residual=1e-13,
                      kink_amplitude=0.999)
    assert kink.is_kink
    unconverged = ScanSample(q=0.1, converged=False, final_residual=0.5,
                             kink_amplitude=0.999)
    assert not unconverged.is_kink
    flat = ScanSample(q=0.1, converged=True, final_residual=1e-13,
                      kink_amplitude=0.2)
    assert not flat.is_kink


def test_scan_within_admissible_range_all_kink(default_grid, ledger):
    cfg = ScanConfig(q_min=0.0, q_max=ledger.q0, coarse_steps=3,
                     per_solve=SolveConfig(max_iter=2000))
    report = scan(cfg, default_grid, ledger)
    assert all(s.is_kink for s in report.samples)
    assert report.q_star_bracket is None
    assert abs(report.samples[0].kink_amplitude - 1.0) <= 1e-6


def test_scan_brackets_threshold_with_cold_agreement(default_grid, ledger):
    cfg = ScanConfig(q_min=0.0, q_max=3.0, coarse_steps=4, bisect_tol=5e-3,
                     per_solve=SolveConfig(max_iter=5000), cold_check=True)
    report = scan(cfg, default_grid, ledger)
    assert report.q_star_bracket is not None
    lo, hi = report.q_star_bracket
    assert hi - lo <= 5e-3
    assert lo >= ledger.q0
    assert report.warm_cold_agree is True
    # regression band for the critical value
    assert lo == pytest.approx(2.6765, abs=0.02)


def test_scan_serialization(tmp_path, default_grid, ledger):
    cfg = ScanConfig(q_min=0.0, q_max=ledger.q0, coarse_steps=2,
                     per_solve=SolveConfig(max_iter=2000))
    report = scan(cfg, default_grid, ledger)
    json_path = tmp_path / "scan.json"
    json_path.write_text(json.dumps(report.to_json_dict()))
    d = json.loads(json_path.read_text())
    assert len(d["samples"]) == 3
    assert d["q_star_bracket"] is None

    csv_path = tmp_path / "scan.csv"
    report.to_csv(csv_path)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["q", "converged", "residual", "amplitude"]
    assert len(rows) == 4
    assert float(rows[1][3]) == pytest.approx(1.0, abs=1e-6)


def test_scan_warm_start_reduces_iterations(default_grid, ledger):
    # the second coarse sample starts from the first solution and should
    # converge in many fewer steps than a cold start would
    cfg = ScanConfig(q_min=0.0, q_max=0.05, coarse_steps=1,
                     per_solve=SolveConfig(max_iter=2000))
    report = scan(cfg, default_grid, ledger)
    assert all(s.is_kink for s in report.samples)
    assert np.all([s.final_residual <= 1e-12 for s in report.samples])


def test_bisection_stops_at_adjacent_floats(monkeypatch, default_grid, ledger):
    # a tolerance below the float spacing at the threshold: the midpoint of
    # two adjacent floats is one of them, and the loop must still return
    calls = []

    def fake(cfg, grid, ledger, initial=None):
        calls.append(cfg.q)
        amplitude = 1.0 if cfg.q < 2.6765 else 0.0
        return SimpleNamespace(converged=True, final_residual=0.0,
                               solution=SimpleNamespace(u=np.array([amplitude])))

    monkeypatch.setattr(qscan, "solve", fake)
    cfg = ScanConfig(2.25, 3.0, coarse_steps=1, bisect_tol=1e-300)
    lo, hi = scan(cfg, default_grid, ledger).q_star_bracket
    assert hi == np.nextafter(lo, np.inf)
    assert lo < 2.6765 <= hi
    assert len(calls) < 64
