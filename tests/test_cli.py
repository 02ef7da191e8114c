import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from kinksolve.cli import main
from kinksolve.grid import (
    Profile,
    profile_from_csv,
    profile_from_json,
    profile_to_csv,
    profile_to_json,
)
from kinksolve.qscan import ScanReport, ScanSample
from kinksolve.solver import SolveConfig, initial_guess, solve


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def ledger_file(tmp_path_factory):
    """Constants JSON computed once and reused to keep CLI runs fast."""
    path = tmp_path_factory.mktemp("ledger") / "constants.json"
    code = main(["constants", "--out", str(path)])
    assert code == 0
    return path


def test_solve_default_writes_csv_and_manifest(workdir, ledger_file):
    code = main(["solve", "--q", "0", "--out", "sol.csv",
                 "--ledger", str(ledger_file)])
    assert code == 0
    lines = (workdir / "sol.csv").read_text().splitlines()
    assert lines[0] == "x,phi"
    assert len(lines) == 802  # header + 801 nodes
    p = profile_from_csv(workdir / "sol.csv", tau=1.0)
    assert abs(p.values[-1] - 1.0) <= 1e-6

    manifest = json.loads((workdir / "sol.csv.manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["parameters"]["q"] == 0.0
    assert manifest["parameters"]["ledger"] == str(ledger_file)
    assert "sol.csv" in manifest["outputs"][0]
    env = manifest["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert "scipy" not in env
    assert env["platform"] == platform.platform()

    report = json.loads((workdir / "sol.csv.report.json").read_text())
    assert report["converged"] is True
    assert report["iterations"] == 22
    assert report["solution_csv"] == "sol.csv"


def test_solve_json_format_inlines_profile(workdir, ledger_file):
    code = main(["solve", "--q", "0", "--out", "sol.json", "--format", "json",
                 "--ledger", str(ledger_file)])
    assert code == 0
    report = json.loads((workdir / "sol.json.report.json").read_text())
    assert len(report["solution"]["values"]) == 801


def test_solve_on_short_grid_writes_outputs(workdir):
    # L = 5 is too short for the decay fit, which is then left out
    code = main(["solve", "--L", "5", "--out", "short.csv"])
    assert code == 0
    assert len((workdir / "short.csv").read_text().splitlines()) == 202
    report = json.loads((workdir / "short.csv.report.json").read_text())
    assert report["converged"] is True and report["decay_estimate"] is None
    assert (workdir / "short.csv.manifest.json").exists()


def test_solve_incommensurate_grid_exits_1(workdir):
    assert main(["solve", "--q", "0", "--h", "0.03"]) == 1


def test_solve_infinite_half_width_exits_1(workdir, capsys):
    assert main(["solve", "--L", "inf"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_overflowing_node_count_exits_1(workdir, capsys):
    assert main(["solve", "--h", "1e-320"]) == 1
    assert capsys.readouterr().err == "error: half_width/spacing = 20.0/1e-320 overflows\n"
    assert list(workdir.iterdir()) == []


def test_solve_bad_flag_exits_1(workdir):
    assert main(["solve", "--q", "zero"]) == 1
    assert main(["bogus-command"]) == 1


def test_solve_far_beyond_threshold_exits_2(workdir, ledger_file):
    # no kink this deep into the no-kink regime; budget kept small
    code = main(["solve", "--q", "5", "--max-iter", "40", "--out", "far.csv",
                 "--ledger", str(ledger_file)])
    assert code == 2
    report = json.loads((workdir / "far.csv.report.json").read_text())
    assert report["converged"] is False


def test_solve_from_file_restart(workdir, ledger_file):
    assert main(["solve", "--q", "0", "--out", "first.csv",
                 "--ledger", str(ledger_file)]) == 0
    code = main(["solve", "--q", "0", "--init", "file:first.csv",
                 "--out", "second.csv", "--ledger", str(ledger_file)])
    assert code == 0
    report = json.loads((workdir / "second.csv.report.json").read_text())
    assert report["iterations"] <= 2


def test_solve_restarts_from_its_own_json_in_one_iteration(workdir, ledger_file):
    # the restart's first residual meets tol, so the start is the solution
    common = ["--ledger", str(ledger_file), "--format", "json"]
    assert main(["solve", *common, "--out", "sol.json"]) == 0
    assert main(["solve", *common, "--init", "file:sol.json", "--out", "again.json"]) == 0
    report = json.loads((workdir / "again.json.report.json").read_text())
    assert report["converged"] is True and report["iterations"] == 1
    assert (workdir / "again.json").read_bytes() == (workdir / "sol.json").read_bytes()


def test_solve_restarts_from_a_json_with_an_even_part_as_from_its_odd_part(
        workdir, ledger_file):
    # even.json adds 0.3 exp(-x^2) to the erf start; odd.json holds the odd
    # part the loader keeps, and both restarts write the same bytes
    x = np.arange(-400, 401) * 0.05
    d = {"half_width": 20.0, "spacing": 0.05, "tail_right": 1.0, "tail_left": -1.0,
         "values": (erf(x) + 0.3 * np.exp(-x * x)).tolist()}
    (workdir / "even.json").write_text(json.dumps(d))
    odd = profile_from_json(workdir / "even.json")
    assert 0.0 < np.max(np.abs(odd.u - erf(x[401:]))) <= 1e-15
    profile_to_json(odd, workdir / "odd.json")
    for name in ("even", "odd"):
        assert main(["solve", "--ledger", str(ledger_file), "--format", "json",
                     "--init", f"file:{name}.json", "--out", f"from_{name}.json"]) == 0
    for suffix in ("", ".report.json"):
        assert ((workdir / f"from_even.json{suffix}").read_bytes()
                == (workdir / f"from_odd.json{suffix}").read_bytes())


def test_solve_restart_json_with_tails_not_opposite_exits_1(workdir, capsys):
    d = {"half_width": 5.0, "spacing": 0.05, "tail_right": 1.0, "tail_left": 1.0,
         "values": np.tanh(np.arange(-100, 101) * 0.05).tolist()}
    (workdir / "bad.json").write_text(json.dumps(d))
    assert main(["solve", "--L", "5", "--init", "file:bad.json", "--out", "sol.csv"]) == 1
    assert capsys.readouterr().err == ("error: profile tails must be opposite, "
                                       "got tail_left=1.0 and tail_right=1.0\n")
    assert not (workdir / "sol.csv").exists()


def test_solve_restarts_from_its_own_csv_on_a_rounded_grid(workdir):
    # the CSV's last node is 100 * 0.07 = 7.000000000000001, not 7
    assert main(["solve", "--L", "7", "--h", "0.07", "--out", "s7.csv"]) == 0
    assert main(["solve", "--L", "7", "--h", "0.07", "--init", "file:s7.csv",
                 "--out", "r7.csv"]) == 0


# 17 digits read the first positive node back as h exactly, while the
# full-range ratio (x[-1] - x[0]) / (n - 1) lands an ulp off h on these grids
@pytest.mark.parametrize("half_width, spacing",
                         [("5.201", "0.007"), ("11.2", "0.007"), ("5.148", "0.003")])
def test_solve_restarts_from_its_own_csv_on_a_grid_with_inexact_range(
        workdir, ledger_file, half_width, spacing):
    grid = ["--L", half_width, "--h", spacing, "--ledger", str(ledger_file)]
    assert main(["solve", *grid, "--out", "s.csv"]) == 0
    assert main(["solve", *grid, "--init", "file:s.csv", "--out", "r.csv"]) == 0


def test_init_sign_matches_library_start(workdir, ledger_file, default_grid, ledger):
    assert main(["solve", "--q", "0.1", "--init", "sign", "--out", "sign.csv",
                 "--ledger", str(ledger_file)]) == 0
    expected = solve(SolveConfig(q=0.1), default_grid, ledger,
                     initial=initial_guess("sign", default_grid, ledger)).solution
    profile_to_csv(expected, workdir / "expected.csv")
    assert (workdir / "sign.csv").read_bytes() == (workdir / "expected.csv").read_bytes()


def _valid_json_input(flag, ledger_file, grid):
    """A --ledger or --init file's content that solve accepts."""
    if flag == "--ledger":
        return json.loads(ledger_file.read_text())
    return {"half_width": grid.half_width, "spacing": grid.spacing, "tail_right": 1.0,
            "tail_left": -1.0, "values": erf(grid.x).tolist()}


@pytest.mark.parametrize("flag, content, field", [
    ("--ledger", "{}", "b"),
    ("--ledger", '{"b": 1.0, "c0": null}', "c0"),
    ("--init", "{}", "half_width"),
    ("--init", '{"half_width": 20, "spacing": 0.05, "tail_right": 1, "tail_left": -1, '
               '"values": {"a": 1}}', "values"),
    # a JSON string, boolean or null is no number, though float() or numpy
    # would read it as one (null as nan)
    pytest.param("--ledger", lambda d: {**d, "b": str(d["b"])}, "b", id="b-string"),
    pytest.param("--ledger", lambda d: {**d, "q0": True}, "q0", id="q0-true"),
    pytest.param("--init", lambda d: {**d, "spacing": "0.05"}, "spacing",
                 id="spacing-string"),
    pytest.param("--init", lambda d: {**d, "values": [str(v) for v in d["values"]]},
                 "values", id="values-strings"),
    pytest.param("--init", lambda d: {**d, "values": [True, *d["values"][1:]]},
                 "values", id="values-true"),
    pytest.param("--init", lambda d: {**d, "values": [None, *d["values"][1:]]},
                 "values", id="values-null"),
])
def test_solve_malformed_json_input_exits_1(workdir, capsys, ledger_file, default_grid,
                                            flag, content, field):
    if callable(content):  # a change to a valid input
        content = json.dumps(content(_valid_json_input(flag, ledger_file, default_grid)))
    (workdir / "bad.json").write_text(content)
    value = "bad.json" if flag == "--ledger" else "file:bad.json"
    assert main(["solve", flag, value, "--out", "sol.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(field) in err
    assert not (workdir / "sol.csv").exists()


@pytest.mark.parametrize("row", ["-1,0,5", "-1,a", "-1"])
def test_solve_malformed_csv_row_exits_1(workdir, capsys, row):
    (workdir / "bad.csv").write_text(f"x,phi\n{row}\n0,0\n1,1\n")
    assert main(["solve", "--init", "file:bad.csv", "--out", "sol.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad.csv: line 2: expected two numbers x,phi")
    assert not (workdir / "sol.csv").exists()


def test_solve_unknown_init_exits_1(workdir, capsys):
    assert main(["solve", "--init", "bogus"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown --init value 'bogus'")


def _restart_rows(x):
    return "x,phi\n" + "".join(f"{xi:.17g},{np.tanh(xi):.17g}\n" for xi in x)


@pytest.mark.parametrize("nodes, message", [
    (np.array([-5.0, 5.0]), "too few rows for a profile"),
    (np.linspace(-5.0, 5.0, 21) + 0.01 * (np.arange(21) == 7),
     "nodes are not uniformly spaced"),
    (np.linspace(-4.5, 5.5, 21), "grid is not symmetric about 0"),
    # NaN fails every comparison, so the checks pass only nodes within tolerance
    (np.where(np.arange(21) == 7, np.nan, np.linspace(-5.0, 5.0, 21)),
     "nodes are not uniformly spaced"),
])
def test_solve_restart_csv_off_grid_exits_1(workdir, capsys, nodes, message):
    (workdir / "bad.csv").write_text(_restart_rows(nodes))
    assert main(["solve", "--L", "5", "--init", "file:bad.csv", "--out", "sol.csv"]) == 1
    assert capsys.readouterr().err.startswith(f"error: bad.csv: {message}")
    assert not (workdir / "sol.csv").exists()


def test_solve_restart_csv_with_a_nan_value_exits_1(workdir, capsys):
    # the nodes are a valid grid; the phi column is what fails
    rows = _restart_rows(np.linspace(-5.0, 5.0, 201)).splitlines()
    rows[150] = rows[150].split(",")[0] + ",nan"
    (workdir / "nanphi.csv").write_text("\n".join(rows) + "\n")
    assert main(["solve", "--L", "5", "--init", "file:nanphi.csv", "--out", "sol.csv"]) == 1
    assert capsys.readouterr().err == "error: profile values must be finite\n"
    assert not (workdir / "sol.csv").exists()


@pytest.mark.parametrize("edit, message", [
    ({"c0": lambda d: d["c0"] * 1.01}, "c0 != sqrt(b)"),
    ({"c1": lambda d: d["c1"] * 1.01}, "c1 != c_hat (c0 e)^(1/3)"),
    ({"c2": lambda d: 1.5}, "closing inequality fails: barrier not reproduced"),
    ({"c3": lambda d: 10.0, "ell": lambda d: 1.0, "c2": lambda d: 3.0},
     "barrier exceeds the ramp's saturation bound"),
    ({"q0": lambda d: 1.0}, "admissible deformation bound q0 is too large"),
    ({"q0": lambda d: -0.1}, "q0 must be strictly positive"),
    # inf is close to inf, and the closing inequality holds at c3 = inf
    ({k: lambda d: math.inf for k in ("b", "c0", "c1")}, "non-finite constants: b, c0, c1"),
    ({"c3": lambda d: math.inf, "q0": lambda d: 100.0}, "non-finite constants: c3"),
    # every constant is positive by construction; a negative one is caught
    # before a square or cube root is taken of it
    *(({k: lambda d, k=k: -d[k]}, f"non-positive constants: {k}")
      for k in ("b", "e", "c3", "c2", "c4")),
])
def test_solve_with_a_loaded_ledger_that_breaks_an_invariant_exits_3(
        workdir, capsys, ledger_file, edit, message):
    d = json.loads(ledger_file.read_text())
    d.update({k: f(d) for k, f in edit.items()})
    (workdir / "bad.json").write_text(json.dumps(d))
    assert main(["solve", "--L", "5", "--ledger", "bad.json", "--out", "sol.csv"]) == 3
    assert capsys.readouterr().err == f"ledger invariant violated: {message}\n"
    assert not (workdir / "sol.csv").exists()


def test_init_psi_aliases_exit_1(workdir, capsys):
    # erf is the one name of the Gaussian-ramp start, and quadrature the
    # one discretization of the map
    for flag, message in [(["--init", "psi"], "unknown --init value 'psi'"),
                          (["--init", "psi_scaled"], "unknown --init value 'psi_scaled'"),
                          (["--method", "spectral"],
                           "unrecognized arguments: --method spectral")]:
        assert main(["solve", *flag, "--out", "sol.csv"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
    assert list(workdir.iterdir()) == []


def test_constants_command(workdir):
    code = main(["constants", "--out", "const.json"])
    assert code == 0
    d = json.loads((workdir / "const.json").read_text())
    assert d["c0"] == pytest.approx(np.sqrt(d["b"]), rel=1e-14)
    assert d["c4"] * d["q0"] ** 2 < d["c3"] * d["c2"]
    assert (workdir / "const.json.manifest.json").exists()


def test_constants_rejects_negative_range(workdir):
    assert main(["constants", "--q-max", "-1"]) == 1


def test_constants_huge_q_max_returns(workdir):
    # the ledger takes b and e at q_max in closed form, so a q-range far
    # beyond the kink regime returns promptly with a valid ledger
    started = time.perf_counter()
    assert main(["constants", "--q-max", "1e6", "--out", "const.json"]) == 0
    assert time.perf_counter() - started < 2.0
    d = json.loads((workdir / "const.json").read_text())
    assert d["b"] == pytest.approx(4.84e11, rel=1e-3)


@pytest.mark.parametrize("q_max", ["1e-158", "1e-200"])
def test_constants_q_max_with_underflowing_square(workdir, q_max):
    # q^2 is subnormal or 0.0 although q > 0: the kernel is K0 to the last bit
    assert main(["constants", "--q-max", q_max, "--out", "const.json"]) == 0
    d = json.loads((workdir / "const.json").read_text())
    assert d["b"] == 1.0
    assert d["e"] == 1.0 / np.sqrt(np.pi)


@pytest.mark.parametrize("q_max", ["inf", "1e200"])
def test_constants_q_max_with_overflowing_square_exits_1(workdir, capsys, q_max):
    assert main(["constants", "--q-max", q_max]) == 1
    assert "q = " in capsys.readouterr().err


def test_constants_with_an_overflowing_c1_exits_3_and_writes_nothing(workdir, capsys):
    # c0 e overflows inside c1 = c_hat (c0 e)^(1/3) at q_max = 1e103
    assert main(["constants", "--q-max", "1e103", "--out", "const.json"]) == 3
    assert capsys.readouterr().err == "ledger invariant violated: non-finite constants: c1\n"
    assert list(workdir.iterdir()) == []


def test_constants_invariant_failure_exits_3(workdir, monkeypatch):
    from kinksolve import cli
    from kinksolve.cone import LedgerInvariantError

    def explode(*args, **kwargs):
        raise LedgerInvariantError("doctored")

    monkeypatch.setattr(cli, "compute_constants", explode)
    assert main(["constants", "--out", "const.json"]) == 3


def test_constants_invariant_failure_writes_no_manifest(workdir, monkeypatch):
    from kinksolve import cli
    from kinksolve.cone import LedgerInvariantError

    def explode(*args, **kwargs):
        raise LedgerInvariantError("doctored")

    monkeypatch.setattr(cli, "compute_constants", explode)
    assert main(["constants", "--out", "const.json"]) == 3
    assert list(workdir.iterdir()) == []


def test_verify_command_passes(workdir, capsys):
    code = main(["verify", "--q", "0", "--seed", "42", "--trials", "10",
                 "--out", "verify.json"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    rows = json.loads((workdir / "verify.json").read_text())
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_trials_below_one(workdir, trials):
    code = main(["verify", "--trials", trials, "--out", "verify.json"])
    assert code == 1
    assert not (workdir / "verify.json").exists()


def test_verify_across_admissible_range(workdir):
    # the admissible bound on the default grid; all three runs must pass
    q0 = 0.27460653711753674
    for q in (0.0, q0 / 2.0, q0):
        code = main(["verify", "--q", str(q), "--seed", "42", "--trials", "5",
                     "--out", f"verify_{q:.4f}.json"])
        assert code == 0


def test_verify_reports_nonmember_draw(workdir, capsys, monkeypatch):
    # a non-member draw is one FAIL row and exit 3, not a usage error;
    # the members still go through the map and the JSON is written
    from kinksolve import cli

    draw = cli.random_cone_members

    def with_nonmember(n, grid, ledger, seed=42):
        members = draw(n, grid, ledger, seed=seed)
        big = 2.0 * ledger.c0
        members[0] = Profile(grid=grid, u=np.full(grid.center_index, big), tau=big)
        return members

    monkeypatch.setattr(cli, "random_cone_members", with_nonmember)
    code = main(["verify", "--q", "0", "--seed", "42", "--trials", "5",
                 "--out", "verify.json"])
    assert code == 3
    assert capsys.readouterr().out.count("FAIL") == 1
    rows = {r["check"]: r for r in json.loads((workdir / "verify.json").read_text())}
    membership = rows["cone membership of 5 draws"]
    assert (membership["measured"], membership["pass"]) == (4.0, False)
    preservation = rows["cone preservation at q=0.0000"]
    assert (preservation["measured"], preservation["threshold"]) == (4.0, 4.0)
    assert preservation["pass"]
    assert (workdir / "verify.json.manifest.json").exists()


def test_scan_command(workdir):
    code = main(["scan", "--q-min", "0", "--q-max", "0.27", "--steps", "2",
                 "--max-iter", "2000", "--out", "scan.json"])
    assert code == 0
    d = json.loads((workdir / "scan.json").read_text())
    assert len(d["samples"]) == 3
    assert (workdir / "scan.csv").exists()
    assert (workdir / "scan.json.manifest.json").exists()


def test_scan_cold_check_writes_cold_samples(workdir):
    assert main(["scan", "--q-max", "0.27", "--steps", "1", "--max-iter", "2000",
                 "--cold-check", "--out", "scan.json"]) == 0
    d = json.loads((workdir / "scan.json").read_text())
    assert [s["q"] for s in d["cold_samples"]] == [s["q"] for s in d["samples"]]
    assert len(d["cold_samples"]) == 2
    assert d["warm_cold_agree"] is True


def test_scan_default_prints_the_bracket(workdir, capsys):
    assert main(["scan", "--out", "scan.json"]) == 0
    assert "critical deformation bracket: [2.676544, 2.676636]" in capsys.readouterr().out
    d = json.loads((workdir / "scan.json").read_text())
    assert d["q_star_bracket"] == [2.676544189453125, 2.6766357421875]


def test_scan_warns_when_warm_and_cold_disagree(workdir, capsys, monkeypatch):
    from kinksolve import cli

    sample = ScanSample(q=0.0, converged=True, final_residual=0.0, kink_amplitude=1.0)
    monkeypatch.setattr(cli, "scan", lambda *args: ScanReport(
        samples=[sample], q_star_bracket=None, cold_samples=[sample],
        warm_cold_agree=False))
    assert main(["scan", "--cold-check", "--out", "scan.json"]) == 0
    out, err = capsys.readouterr()
    assert "no kink/no-kink boundary in the scanned range" in out
    assert err.startswith("WARNING: warm- and cold-started classifications disagree")


def test_manifest_lists_outputs(workdir):
    assert main(["scan", "--q-max", "0.27", "--steps", "1", "--max-iter", "2000",
                 "--out", "scan.json"]) == 0
    assert main(["constants", "--out", "const.json"]) == 0
    scan_manifest = json.loads((workdir / "scan.json.manifest.json").read_text())
    assert scan_manifest["outputs"] == ["scan.json", "scan.csv"]
    const_manifest = json.loads((workdir / "const.json.manifest.json").read_text())
    assert const_manifest["outputs"] == ["const.json"]


def test_scan_out_with_csv_suffix_exits_1_before_solving(workdir, capsys, monkeypatch):
    # the CSV table is written to --out with a .csv suffix, so a .csv --out
    # would be overwritten by it
    from kinksolve import cli

    def explode(*args, **kwargs):
        raise AssertionError("no work may start")

    monkeypatch.setattr(cli, "compute_constants", explode)
    monkeypatch.setattr(cli, "scan", explode)
    assert main(["scan", "--out", "res.csv"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("argv, field", [(["scan", "--q-max", "inf"], "q_max"),
                                         (["solve", "--tol", "inf"], "tol")])
def test_infinite_scan_bound_or_tolerance_exits_1(workdir, capsys, argv, field):
    # an infinite q_max would put NaN into the coarse grid, and an infinite
    # tol would pass any residual as converged
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be finite" in err


def test_reproducible_outputs(workdir, ledger_file):
    assert main(["solve", "--q", "0.1", "--out", "a.csv",
                 "--ledger", str(ledger_file)]) == 0
    assert main(["solve", "--q", "0.1", "--out", "b.csv",
                 "--ledger", str(ledger_file)]) == 0
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import kinksolve, kinksolve.cli
for argv in (["constants"], ["verify", "--trials", "5"], ["solve", "--L", "9"],
             ["scan", "--q-max", "0.27", "--steps", "1"]):
    code = kinksolve.cli.main(argv)
    if code:
        sys.exit(f"{argv}: exit {code}")
"""


def test_commands_run_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "scan.json").is_file()
