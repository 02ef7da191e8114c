"""kinksolve benchmark: set-up, a converged kink, a threshold scan, `verify`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; kinksolve is imported from the
checkout's src/.  Load is a closed loop from one client in one process:
each op starts when the previous one has finished, after one warm-up op.
BLAS and OpenMP pools are pinned to one thread.  Every op is checked by the
workload's correctness gates; a gate failure counts as a failed op.

With --trace 0 the run times ops untraced and reports the end-to-end
metrics.  Op and set-up times are reported at the reference machine speed:
each op is bracketed by a machine-speed probe (fixed numpy work that runs no
kinksolve code, matched to the kind of work the op does), and its wall time
is scaled by the probe's reference time over the probe's time around it.
The kink and scan ops also sample the probe between their solves, and their
time at reference speed integrates the probe's speed over the op.  The raw
wall times and the speed factors are in the run record.

With --trace 1 it times ops untraced for the first half of the window,
then installs perfbench/spans.py's span tracer, traces one set-up and the
ops of the second half, and reports the per-layer metrics (raw wall times);
the difference between the two halves' median op times at reference speed
is the tracing overhead.

The last line of standard output is the result object; the line before it
is the run record (environment, inputs, gate outputs, tail percentile).
"""

import os

PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference"

#: Grids the workloads set up, keyed as in reference/ledger.json.
GRIDS = {"L40_h0.0125": (40.0, 0.0125), "L20_h0.05": (20.0, 0.05)}
KINK_GRID = "L40_h0.0125"
KINK_METHOD = "quadrature"

#: Sup-norm tolerance against the pinned kink, per operator method: the
#: quadrature and spectral solutions differ by ~4.6e-6 at n = 801, so each
#: method is compared only with its own reference.
REF_TOL = {"quadrature": 1e-9}

LEDGER_REL_TOL = 1e-12
KINK_ITERATIONS = 22
KINK_RESIDUAL = 1e-12
VERIFY_Q = "0.137"
VERIFY_TRIALS = "100"

#: Fresh-process set-ups per timed run; setup_s is their median.
SETUP_SAMPLES = 5
#: Probe parts around each set-up process: import and quadrature are
#: interpreter-bound.
SETUP_PROBE = (("interpreter", 1.0, 8000),)
#: Ops per timing window at least, whatever the window length.
MIN_OPS = {0: 3, 1: 2}
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


@dataclass
class Context:
    ks: object
    seed: int
    grid: object
    ledger: object
    scratch: Path
    solve_log: list = field(default_factory=list)
    kink_reference: dict = field(default_factory=dict)
    #: The probe sampled inside untraced timed ops, and the (start, end,
    #: speed) of each sample taken during the current op.
    probe: object = None
    samples: list = field(default_factory=list)

    def sample(self) -> None:
        """Sample the probe inside an op, between two of its steps."""
        if self.probe is not None:
            t0 = time.perf_counter()
            speed = self.probe.speed()
            self.samples.append((t0, time.perf_counter(), speed))


@dataclass
class Outcome:
    """Gate verdict for one op, the counts that must repeat, and its outputs."""

    problems: list
    counts: dict
    outputs: dict


# -- machine-speed probes ---------------------------------------------------

class Probe:
    """Fixed work that runs no kinksolve code, timed around and inside ops.

    The host this benchmark runs on shifts between speed states every few
    seconds, by up to 1.4x for wide-vector work and 1.65x for
    interpreter-bound work, so wall times drift between runs by more than
    any change worth measuring.  A probe made of the same kinds of work as
    the op, in the same proportions, timed just before and just after it
    and between its steps, measures the state the op ran in.  Each part's speed is its reference
    time over its measured time; the probe's speed is the parts' speeds
    weighted by the op's share of each kind of work.  An op's time at
    reference speed is its wall time weighted by the speed the probes
    measured around and inside it (see at_reference).  The probe depends
    only on numpy and the interpreter, so no change to kinksolve can move
    it.
    """

    #: Seconds per rep of each kind on the reference machine (2 vCPU Intel
    #: Xeon, Python 3.11, numpy 2.4, one BLAS thread): the median of a 20 s
    #: calibration run over both of its speed states.  Fixed scale factors;
    #: changing them rescales every reported time.
    REFERENCE_S = {"convolve": 1.6e-3, "interpreter": 1.2e-5}

    def __init__(self, parts: tuple):
        """parts: (kind, weight, reps) triples; the weights sum to 1."""
        import numpy as np

        rng = np.random.default_rng(0)
        self.parts = parts
        # The kink op's convolution: 6401 outputs of a 1921-tap row.
        self.signal = rng.standard_normal(6401 + 1920)
        self.taps = rng.standard_normal(1921)
        # The threshold scan's arrays: n = 801.
        self.small = rng.standard_normal(801)

    def convolve(self, reps: int) -> None:
        import numpy as np

        for _ in range(reps):
            np.convolve(self.signal, self.taps, mode="valid")

    def interpreter(self, reps: int) -> None:
        import numpy as np

        x, small, total = self.small, self.small, 0.0
        for i in range(reps):
            x = np.clip(x * 0.9 + small * 0.1, -1.0, 1.0)
            total += float(x[i % 801])
            for j in range(8):
                total += j * 0.5

    def speed(self) -> float:
        """Weighted reference-over-measured time: above 1 on a fast host."""
        speed = 0.0
        for kind, weight, reps in self.parts:
            t0 = time.perf_counter()
            getattr(self, kind)(reps)
            speed += weight * self.REFERENCE_S[kind] * reps / (time.perf_counter() - t0)
        return speed


# -- workloads --------------------------------------------------------------

def kink_qs(ctx: Context) -> list:
    return [0.0, ctx.ledger.q0 / 2.0]


def kink_op(ctx: Context):
    solver = ctx.ks.solver
    reports = []
    for q in kink_qs(ctx):
        if reports:
            ctx.sample()
        reports.append(solver.solve(solver.SolveConfig(q=q), ctx.grid, ctx.ledger))
    return reports


def load_kink_reference(ctx: Context) -> None:
    import numpy as np

    with np.load(REFERENCE / "kink_n6401.npz") as data:
        ctx.kink_reference = {k: data[k] for k in data.files}
    if str(ctx.kink_reference["method"]) != KINK_METHOD:
        raise SystemExit(f"pinned kink is for method {ctx.kink_reference['method']}, "
                         f"not {KINK_METHOD}")
    if not np.allclose(ctx.kink_reference["q"], kink_qs(ctx), rtol=LEDGER_REL_TOL, atol=0):
        raise SystemExit(f"kink q values {kink_qs(ctx)} differ from the pinned "
                         f"{ctx.kink_reference['q']}")


def kink_gate(ctx: Context, reports) -> Outcome:
    import numpy as np

    problems, errors = [], []
    centre = ctx.grid.center_index
    for q, ref, r in zip(kink_qs(ctx), ctx.kink_reference["values"], reports):
        v = r.solution.values
        if not (r.converged and r.final_residual <= KINK_RESIDUAL):
            problems.append(f"q={q}: not converged to {KINK_RESIDUAL} "
                            f"(residual {r.final_residual:.3e})")
        if r.iterations != KINK_ITERATIONS:
            problems.append(f"q={q}: {r.iterations} iterations, not {KINK_ITERATIONS}")
        if not (np.array_equal(v, -v[::-1]) and v[centre] == 0.0):
            problems.append(f"q={q}: solution not bitwise odd")
        err = float(np.max(np.abs(v - ref)))
        errors.append(err)
        if not err <= REF_TOL[KINK_METHOD]:
            problems.append(f"q={q}: {err:.3e} from the pinned {KINK_METHOD} kink")
    return Outcome(problems, {"iterations": sum(r.iterations for r in reports)},
                   {"iterations": [r.iterations for r in reports],
                    "ref_sup_err": errors})


def scan_config(ctx: Context):
    ks = ctx.ks
    return ks.qscan.ScanConfig(0.0, 3.0, coarse_steps=4, bisect_tol=1e-4,
                               per_solve=ks.solver.SolveConfig(max_iter=5000))


def scan_op(ctx: Context):
    ctx.solve_log.clear()
    return ctx.ks.qscan.scan(scan_config(ctx), ctx.grid, ctx.ledger)


def scan_gate(ctx: Context, report) -> Outcome:
    cfg = scan_config(ctx)
    solves = list(ctx.solve_log)
    problems = []
    for s in report.samples:
        if s.q <= ctx.ledger.q0 and not s.is_kink:
            problems.append(f"q={s.q}: no kink at or below q0")
    for q, r in solves:
        if r.converged and not r.final_residual <= cfg.per_solve.tol:
            problems.append(f"q={q}: converged with residual {r.final_residual:.3e}")
    q_star = None
    if report.q_star_bracket is not None:
        lo, hi = report.q_star_bracket
        q_star = 0.5 * (lo + hi)
        if not hi - lo <= cfg.bisect_tol:
            problems.append(f"bracket width {hi - lo} exceeds {cfg.bisect_tol}")
        if not any(q == lo and r.converged
                   and r.solution.values[-1] > ctx.ks.qscan.KINK_AMPLITUDE_THRESHOLD
                   for q, r in solves):
            problems.append(f"no kink solved at the bracket's lower end {lo}")
    counts = {"solves": len(solves), "iterations": sum(r.iterations for _, r in solves)}
    return Outcome(problems, counts, {"q_star": q_star,
                                      "bracket": report.q_star_bracket, **counts})


def log_scan_solves(ctx: Context) -> None:
    """Record every (q, report) that qscan's solve returns, for the gates,
    and sample the probe between solves.

    Rebinds the name qscan looks solve up by; a scan makes 18 solve calls,
    so the cost is negligible next to the seconds a scan takes.
    """
    qscan = ctx.ks.qscan
    solve = qscan.solve

    @functools.wraps(solve)
    def logged(cfg, *args, **kwargs):
        if ctx.solve_log:
            ctx.sample()
        report = solve(cfg, *args, **kwargs)
        ctx.solve_log.append((cfg.q, report))
        return report

    qscan.solve = logged


def verify_out(ctx: Context) -> Path:
    return ctx.scratch / "verify.json"


def verify_argv(ctx: Context) -> list:
    return ["verify", "--q", VERIFY_Q, "--seed", str(ctx.seed), "--trials", VERIFY_TRIALS,
            "--out", str(verify_out(ctx))]


def verify_op(ctx: Context):
    with contextlib.redirect_stdout(io.StringIO()):
        return ctx.ks.cli.main(verify_argv(ctx))


def verify_gate(ctx: Context, code) -> Outcome:
    out = verify_out(ctx)
    manifest = out.with_name(out.name + ".manifest.json")
    problems = [] if code == 0 else [f"exit code {code}"]
    rows = json.loads(out.read_text())
    problems += [f"check failed: {row['check']}" for row in rows if not row["pass"]]
    written = out.stat().st_size + manifest.stat().st_size
    out.unlink()
    manifest.unlink()
    return Outcome(problems, {"rows": len(rows)},
                   {"rows": {row["check"]: row["measured"] for row in rows},
                    "bytes_written": written})


@dataclass(frozen=True)
class Workload:
    grid: str
    op: Callable
    gate: Callable
    probe: tuple  # Probe parts: the op's work mix, about a tenth of its time
    prepare: Callable = lambda ctx: None
    inputs: Callable = lambda ctx: {}


WORKLOADS = {
    "kink-n6401": Workload(
        KINK_GRID, kink_op, kink_gate, (("convolve", 0.8, 6), ("interpreter", 0.2, 800)),
        prepare=load_kink_reference,
        inputs=lambda ctx: {"q": kink_qs(ctx), "method": KINK_METHOD}),
    "threshold-scan": Workload(
        "L20_h0.05", scan_op, scan_gate, (("interpreter", 1.0, 2000),),
        prepare=log_scan_solves,
        inputs=lambda ctx: {**asdict(scan_config(ctx)), "method": "quadrature"}),
    "verify-ledger": Workload(
        "L20_h0.05", verify_op, verify_gate, (("interpreter", 1.0, 6000),),
        inputs=lambda ctx: {"argv": verify_argv(ctx)[:-2]}),
}


# -- reference data ---------------------------------------------------------

def check_ledger(ledger: dict, reference: dict) -> None:
    """Fail the run unless a ledger JSON dict is within LEDGER_REL_TOL of the
    pinned seed ledger, field by field."""

    def flat(d, prefix=""):
        for k, v in d.items():
            if isinstance(v, dict):
                yield from flat(v, f"{prefix}{k}.")
            else:
                yield f"{prefix}{k}", v

    got, want = dict(flat(ledger)), dict(flat(reference))
    if got.keys() != want.keys():
        raise SystemExit(f"ledger fields differ: {sorted(got.keys() ^ want.keys())}")
    for key, ref in want.items():
        now, pinned = (got[key], ref) if isinstance(ref, list) else ([got[key]], [ref])
        if len(now) != len(pinned) or not all(
                abs(x - y) <= LEDGER_REL_TOL * abs(y) for x, y in zip(now, pinned)):
            raise SystemExit(f"ledger {key} = {got[key]!r} differs from the pinned {ref!r}")


# -- timing -----------------------------------------------------------------

def at_reference(start: float, end: float, before: float, samples: list,
                 after: float) -> float:
    """An op's time at reference speed: the probe speed integrated over the
    op's working time, linear between consecutive samples, from the probe
    just before the op through the (start, end, speed) samples inside it to
    the probe just after.  The samples' own time is left out."""
    total, t, speed = 0.0, start, before
    for t0, t1, sample in samples:
        total += (t0 - t) * 0.5 * (speed + sample)
        t, speed = t1, sample
    return total + (end - t) * 0.5 * (speed + after)


def timed_ops(ctx: Context, wl: Workload, probe: Probe, seconds: float, min_ops: int,
              expected_counts: dict, tracer=None):
    """Closed loop: run ops until the window would be exceeded, gate each.

    A probe runs before the first op and after every op, outside the op's
    time; ops that call ctx.sample() between their steps also sample it
    inside (untraced runs only, so that no span holds probe time).  Returns
    per-op wall times without the samples, per-op times at reference speed,
    and the probe speeds.  An op starts only if the median op and probe so
    far still fit in the window, so a run ends close to its window.  An op
    whose counts differ from the warm-up op's is failed as nondeterministic.
    """
    wall, reference, speeds, failures, outputs = [], [], [], [], []
    ctx.probe = probe if tracer is None else None
    started = time.perf_counter()
    speeds.append(probe.speed())
    probe_s = time.perf_counter() - started
    while True:
        elapsed = time.perf_counter() - started
        if len(wall) >= min_ops and elapsed + statistics.median(wall) + probe_s > seconds:
            break
        if tracer is not None:
            tracer.op = f"op{len(wall)}"
        ctx.samples.clear()
        t0 = time.perf_counter()
        result = wl.op(ctx)
        t1 = time.perf_counter()
        speeds.append(probe.speed())
        wall.append(t1 - t0 - sum(end - start for start, end, _ in ctx.samples))
        reference.append(at_reference(t0, t1, speeds[-2], ctx.samples, speeds[-1]))
        outcome = wl.gate(ctx, result)
        problems = list(outcome.problems)
        if outcome.counts != expected_counts:
            problems.append(f"nondeterministic counts {outcome.counts} "
                            f"vs warm-up {expected_counts}")
        failures.extend(problems[:1])
        outputs.append(outcome.outputs)
    ctx.probe = None
    return wall, reference, speeds, failures, outputs


def tail(durations: list) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  Where that percentile would
    lie below the median (fewer than 2 * TAIL_BEYOND + 1 ops, as in a
    threshold-scan run) the maximum is reported instead, as percentile 100,
    so the tail never jumps from the maximum to the minimum as the op count
    of a run crosses TAIL_BEYOND.
    """
    ranked = sorted(durations)
    n = len(ranked)
    if n < 2 * TAIL_BEYOND + 1:
        return ranked[-1], 100.0, 0
    return ranked[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def fresh_setups(wl: Workload, reference: dict) -> list:
    """SETUP_SAMPLES set-ups in fresh processes, each bracketed by probes of
    the set-up's kind of work (import and quadrature: interpreter-bound)."""
    probe = Probe(SETUP_PROBE)
    samples, speed = [], probe.speed()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"),
             *(repr(v) for v in GRIDS[wl.grid])],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"set-up process failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        check_ledger(child.pop("ledger"), reference)
        after = probe.speed()
        child["speed"] = 0.5 * (speed + after)
        child["setup_s_at_reference"] = child["setup_s"] * child["speed"]
        samples.append(child)
        speed = after
    return samples


def run_record(args, wl: Workload, ctx: Context) -> dict:
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "kinksolve").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False) \
        if (ROOT / ".git").exists() and shutil.which("git") else None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git.stdout.strip() if git and git.returncode == 0 else None,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "grid": {"half_width": ctx.grid.half_width, "spacing": ctx.grid.spacing,
                 "n": ctx.grid.n_points},
        "inputs": wl.inputs(ctx),
        "q0": ctx.ledger.q0,
    }


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0 (numpy rejects negative seeds)")
    return seed


def declared_metrics() -> dict:
    """Metric units by trace mode, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {mode: {m["name"]: m["unit"] for m in spec[key]}
            for mode, key in ((0, "end_to_end"), (1, "per_layer"))}


def count_drift(workload: str, mode: str, counts: dict) -> dict:
    """Counts that differ from those pinned at the baseline commit.

    Reported, not gated: a later change may move a count on purpose (fewer
    iterations, fewer profiles); only counts that differ between ops of one
    run are failed, as nondeterminism.
    """
    pinned = json.loads((REFERENCE / "counts.json").read_text())[workload][mode]
    return {k: {"now": v, "baseline": pinned.get(k)}
            for k, v in counts.items() if pinned.get(k) != v}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kinksolve" / "__init__.py").is_file():
        raise SystemExit(f"kinksolve sources not found under {SRC}")
    wl = WORKLOADS[args.workload]
    reference = json.loads((REFERENCE / "ledger.json").read_text())[wl.grid]

    setups = fresh_setups(wl, reference) if args.trace == 0 else []

    sys.path.insert(0, str(SRC))
    import kinksolve
    import kinksolve.cli  # noqa: F401  (binds the cli submodule on the package)

    if Path(kinksolve.__file__).resolve().parent != SRC / "kinksolve":
        raise SystemExit(f"kinksolve imported from {kinksolve.__file__}, not {SRC}")

    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        grid = kinksolve.grid.make_grid(*GRIDS[wl.grid])
        ledger = kinksolve.cone.compute_constants(grid)
        check_ledger(ledger.to_json_dict(), reference)
        ctx = Context(kinksolve, args.seed, grid, ledger, scratch)
        wl.prepare(ctx)
        record = run_record(args, wl, ctx)
        if args.trace == 0:
            result = run_timed(args, wl, ctx, setups, record)
        else:
            result = run_traced(args, wl, ctx, record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    declared = declared_metrics()[args.trace]
    if set(result["metrics"]) != set(declared):
        raise SystemExit(f"metrics {sorted(result['metrics'])} differ from "
                         f"BENCHMARK.json's {sorted(declared)}")
    result["metrics"] = {name: {"value": float(result["metrics"][name]), "unit": unit}
                         for name, unit in declared.items()}
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0


def warm_up(ctx: Context, wl: Workload) -> Outcome:
    outcome = wl.gate(ctx, wl.op(ctx))
    if outcome.problems:
        raise SystemExit(f"warm-up op failed its gates: {outcome.problems}")
    return outcome


def run_timed(args, wl: Workload, ctx: Context, setups: list, record: dict) -> dict:
    warm = warm_up(ctx, wl)
    wall, durations, speeds, failures, outputs = timed_ops(
        ctx, wl, Probe(wl.probe), args.seconds, MIN_OPS[0], warm.counts)
    value, percentile, beyond = tail(durations)
    record.update({
        "setup_samples": setups, "ops": len(durations),
        "probe": {"parts": wl.probe, "speed_p50": statistics.median(speeds),
                  "speed_min": min(speeds), "speed_max": max(speeds)},
        "wall_op_p50_s": statistics.median(wall),
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_tail": {"percentile": percentile, "samples_beyond": beyond,
                    "samples": len(durations)},
        "fail_frac": len(failures) / len(durations), "failures": failures[:5],
        "counts": warm.counts,
        "count_drift_vs_baseline": count_drift(args.workload, "untraced", warm.counts),
        "outputs": outputs[-1],
    })
    return {
        "correct": not failures, "attempted": len(durations), "failed": len(failures),
        "metrics": {
            "setup_s": statistics.median(s["setup_s_at_reference"] for s in setups),
            "ops_per_s": len(durations) / sum(durations),
            "op_p50_s": statistics.median(durations),
            "op_tail_s": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def probe_apply_us(ctx: Context, calls: int = 31) -> dict:
    """Median microseconds of one untraced apply_pq on each workload grid,
    at q = q0/2 (two convolutions) on the erf starting profile."""
    ks = ctx.ks
    out = {}
    for spec in GRIDS.values():
        grid = ks.grid.make_grid(*spec)
        p = ks.solver.initial_guess("erf", grid, ctx.ledger)
        family = ks.kernels.KernelFamily(ctx.ledger.q0 / 2.0)
        times = []
        for _ in range(calls + 1):
            t0 = time.perf_counter()
            ks.operators.apply_pq(p, family)
            times.append(time.perf_counter() - t0)
        out[f"n{grid.n_points}"] = 1e6 * statistics.median(times[1:])
    return out


def run_traced(args, wl: Workload, ctx: Context, record: dict) -> dict:
    import spans

    warm = warm_up(ctx, wl)
    half = args.seconds / 2.0
    probe = Probe(wl.probe)
    _, plain, _, failures, _ = timed_ops(ctx, wl, probe, half, MIN_OPS[1], warm.counts)
    probes = probe_apply_us(ctx)

    tracer = spans.Tracer(ctx.ks)
    tracer.install()
    try:
        ctx.ks.cone.compute_constants(ctx.ks.grid.make_grid(*GRIDS[wl.grid]))
        _, traced, _, traced_failures, outputs = timed_ops(
            ctx, wl, probe, half, MIN_OPS[1], warm.counts, tracer=tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures
    tracer.write(OUT / f"trace-{args.workload}.npz")

    per_op = tracer.per_op()
    ops = [f"op{i}" for i in range(len(traced))]
    counts = [spans.op_counts(per_op, op) for op in ops]
    if any(c != counts[0] for c in counts):
        failures.append(f"span counts differ between traced ops: {counts}")
    layers = spans.layer_metrics(per_op, ops)
    layers["operators.apply_pq_us.n801"] = probes["n801"]
    layers["operators.apply_pq_us.n6401"] = probes["n6401"]
    layers["cli.bytes_written"] = statistics.mean(o.get("bytes_written", 0) for o in outputs)

    plain_p50 = statistics.median(plain)
    traced_p50 = statistics.median(traced)
    overhead = traced_p50 - plain_p50
    record.update({
        "untraced_ops": len(plain), "traced_ops": len(traced),
        "untraced_op_p50_s": plain_p50, "traced_op_p50_s": traced_p50,
        "trace_overhead_s_per_op": overhead,
        "trace_overhead_frac": overhead / plain_p50,
        "counts": warm.counts, "span_counts_per_op": counts[0],
        "count_drift_vs_baseline": count_drift(
            args.workload, "traced", {**warm.counts, **counts[0]}),
        "spans": len(tracer.spans),
        "self_s_per_op": {m: layers[m + ".self_s"] for m in spans.MODULES},
        "failures": failures[:5],
    })
    return {"correct": not failures, "attempted": len(plain) + len(traced),
            "failed": len(failures), "metrics": layers}


if __name__ == "__main__":
    sys.exit(main())
