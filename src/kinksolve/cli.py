"""Command-line interface: solve, constants, verify, scan.

Exit codes are a stable scripting contract:

    0  success
    1  usage error (malformed flags, bad grid, unreadable input)
    2  solver failed to converge
    3  a constants-ledger invariant failed

Every command writes a run manifest next to its primary output, with the
Python and numpy versions and the platform; re-running with its
parameters reproduces the outputs bit for bit in that environment.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cone import (
    ConstantsLedger,
    LedgerInvariantError,
    compute_constants,
    is_cone_member,
    random_cone_members,
    validate_ledger,
)
from .grid import make_grid, profile_to_csv, profile_to_json, sample, sup_distance
from .kernels import KernelFamily, erf
from .operators import OperatorConfig, apply_pq, apply_tq, psi, t0_psi_analytic
from .qscan import ScanConfig, scan
from .solver import SolveConfig, initial_guess, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INVARIANT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _write_json(path, obj, sort_keys: bool = False) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _write_manifest(args: argparse.Namespace, outputs: list[str],
                    started: float) -> None:
    """Write the manifest of a run with every parsed argument as a parameter."""
    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "platform": platform.platform()}
    manifest = {"command": args.command,
                "parameters": {k: v for k, v in vars(args).items() if k != "command"},
                "version": __version__, "wall_time_seconds": time.time() - started,
                "outputs": outputs, "environment": environment}
    _write_json(outputs[0] + ".manifest.json", manifest, sort_keys=True)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kinksolve",
                     description="Kink solutions of the Gaussian-convolution "
                                 "cubic integral equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="iterate the fixed-point map")
    p_solve.add_argument("--q", type=float, default=0.0)
    p_solve.add_argument("--L", type=float, default=20.0)
    p_solve.add_argument("--h", type=float, default=0.05)
    p_solve.add_argument("--tol", type=float, default=1e-12)
    p_solve.add_argument("--max-iter", type=int, default=10000)
    p_solve.add_argument("--omega", type=float, default=1.0)
    p_solve.add_argument("--init", default="erf",
                         help="erf | sign | file:PATH")
    p_solve.add_argument("--out", default="solution.csv")
    p_solve.add_argument("--format", choices=["csv", "json"], default="csv")
    p_solve.add_argument("--ledger", default=None,
                         help="reuse a constants JSON instead of recomputing")

    p_const = sub.add_parser("constants", help="compute the constants ledger")
    p_const.add_argument("--q-max", type=float, default=1.0)
    p_const.add_argument("--out", default="constants.json")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--q", type=float, default=0.0)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--out", default="verify.json")

    p_scan = sub.add_parser("scan", help="bracket the critical deformation")
    p_scan.add_argument("--q-min", type=float, default=0.0)
    p_scan.add_argument("--q-max", type=float, default=3.0)
    p_scan.add_argument("--steps", type=int, default=4)
    p_scan.add_argument("--bisect-tol", type=float, default=1e-4)
    p_scan.add_argument("--cold-check", action="store_true")
    p_scan.add_argument("--max-iter", type=int, default=5000)
    p_scan.add_argument("--out", default="scan.json")
    return parser


def _parse_init(raw: str) -> tuple[str, str | None]:
    if raw.startswith("file:"):
        return "from_file", raw[5:]
    if raw not in ("erf", "sign"):
        raise _UsageError(f"unknown --init value {raw!r}")
    return raw, None


def _load_or_compute_ledger(grid, ledger_path):
    if ledger_path is not None:
        ledger = ConstantsLedger.from_json_dict(json.loads(Path(ledger_path).read_text()))
        validate_ledger(ledger)
        return ledger
    return compute_constants(grid)


def _cmd_solve(args) -> tuple[int, list[str]]:
    init, init_path = _parse_init(args.init)
    grid = make_grid(args.L, args.h)
    ledger = _load_or_compute_ledger(grid, args.ledger)
    cfg = SolveConfig(q=args.q, damping=args.omega, tol=args.tol, max_iter=args.max_iter)
    report = solve(cfg, grid, ledger,
                   initial=initial_guess(init, grid, ledger, init_path))

    out = Path(args.out)
    report_path = out.with_name(out.name + ".report.json")
    if args.format == "csv":
        profile_to_csv(report.solution, out)
        report_dict = report.to_json_dict(solution_csv=out.name)
    else:
        profile_to_json(report.solution, out)
        report_dict = report.to_json_dict()
    _write_json(report_path, report_dict)

    print(f"q={args.q}: converged={report.converged} "
          f"iterations={report.iterations} residual={report.final_residual:.3e}")
    return (EXIT_OK if report.converged else EXIT_NO_CONVERGENCE,
            [str(out), str(report_path)])


def _cmd_constants(args) -> tuple[int, list[str]]:
    # a LedgerInvariantError reaches main, which exits 3 with no manifest
    ledger = compute_constants(make_grid(20.0, 0.05), q_range_max=args.q_max)
    out = Path(args.out)
    _write_json(out, ledger.to_json_dict())
    print(f"constants written to {out} (q0 = {ledger.q0:.6f})")
    return EXIT_OK, [str(out)]


def _cmd_verify(args) -> tuple[int, list[str]]:
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    grid = make_grid(20.0, 0.05)
    ledger = compute_constants(grid)
    checks: list[tuple[str, float, float, bool]] = []

    ramp = sample(psi, grid, 0.5)
    smoothed = apply_tq(ramp, KernelFamily(0.0)).u
    oracle_err = float(np.max(np.abs(smoothed - t0_psi_analytic(grid.x_half))))
    checks.append(("analytic smoothing oracle", oracle_err, 1e-8, oracle_err <= 1e-8))

    family = KernelFamily(args.q)
    worst = 0.0
    for f, tr in [(erf, 1.0), (np.tanh, 1.0), (psi, 0.5)]:
        p = sample(f, grid, tr)
        worst = max(worst, sup_distance(apply_tq(p, family),
                                        apply_tq(p, family, OperatorConfig("spectral"))))
    checks.append(("quadrature vs spectral", worst, 1e-8, worst <= 1e-8))

    # each draw is checked once, and only members go through the map: with
    # q_run <= q0 they meet check_preservation's hypotheses, so a draw that
    # is not a member is a failed row instead of that function's ValueError
    q_run = min(args.q, ledger.q0)
    draws = random_cone_members(args.trials, grid, ledger, seed=args.seed)
    members = [m for m in draws if is_cone_member(m, ledger)]
    n_in = len(members)
    n_preserved = sum(
        is_cone_member(apply_pq(m, KernelFamily(q_run)), ledger)
        for m in members)
    checks.append((f"cone membership of {args.trials} draws", float(n_in),
                   float(args.trials), n_in == args.trials))
    checks.append((f"cone preservation at q={q_run:.4f}", float(n_preserved),
                   float(n_in), n_preserved == n_in))

    width = max(len(name) for name, *_ in checks)
    all_ok = True
    for name, measured, threshold, ok in checks:
        all_ok &= ok
        print(f"{name:<{width}}  measured={measured:.6g}  "
              f"threshold={threshold:.6g}  {'PASS' if ok else 'FAIL'}")
    out = Path(args.out)
    _write_json(out, [{"check": n, "measured": m, "threshold": t, "pass": ok}
                      for n, m, t, ok in checks])
    return EXIT_OK if all_ok else EXIT_INVARIANT, [str(out)]


def _cmd_scan(args) -> tuple[int, list[str]]:
    out = Path(args.out)
    if out.suffix == ".csv":
        raise _UsageError(f"--out {args.out} is where the CSV table goes; "
                          "give the JSON report another suffix")
    grid = make_grid(20.0, 0.05)
    ledger = compute_constants(grid)
    cfg = ScanConfig(q_min=args.q_min, q_max=args.q_max, coarse_steps=args.steps,
                     bisect_tol=args.bisect_tol,
                     per_solve=SolveConfig(max_iter=args.max_iter),
                     cold_check=args.cold_check)
    report = scan(cfg, grid, ledger)
    _write_json(out, report.to_json_dict())
    csv_path = out.with_suffix(".csv")
    report.to_csv(csv_path)
    if report.q_star_bracket:
        lo, hi = report.q_star_bracket
        print(f"critical deformation bracket: [{lo:.6f}, {hi:.6f}]")
    else:
        print("no kink/no-kink boundary in the scanned range")
    if report.warm_cold_agree is False:
        print("WARNING: warm- and cold-started classifications disagree "
              "(hysteresis); inspect the per-sample tables", file=sys.stderr)
    return EXIT_OK, [str(out), str(csv_path)]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"solve": _cmd_solve, "constants": _cmd_constants,
                   "verify": _cmd_verify, "scan": _cmd_scan}[args.command]
        started = time.time()
        code, outputs = handler(args)
        _write_manifest(args, outputs, started)
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LedgerInvariantError as exc:
        print(f"ledger invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
