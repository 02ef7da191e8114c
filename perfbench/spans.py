"""In-memory span tracer that attributes benchmark time to kinksolve's modules.

The tracer lives entirely in the benchmark: it rebinds kinksolve's public
functions, under every module-global name callers look them up by, to
wrappers that record a span (name, start, end, parent, op).  Names imported
from another module (``solver.apply_pq``, ``qscan.solve``,
``cli.compute_constants``, ``cone.kernel_norms``, ...) are always wrapped;
calls inside a function's own module are wrapped only for the names in
SAME_MODULE, because wrapping every intra-module helper (the scalar kernel
evaluations inside adaptive quadrature run ~10^5 times per ledger) would
cost more than the work it measures and would not change any module's self
time.  ``Profile.__init__`` is wrapped on the class, so every profile
construction counts as a grid span.

A span's self time is its duration minus the durations of its direct
children; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("kernels", "grid", "operators", "cone", "solver", "qscan", "cli")

#: Names also wrapped inside their defining module: the benchmark's entry
#: points, the functions kernel_norms calls through its module globals, the
#: check_cone calls made by check_preservation, and the bisection, so that
#: its solves can be told apart from the coarse sweep's.
SAME_MODULE = {
    "kernels": ("kernel_norms", "kq_abs_mass", "kq_derivative_abs_mass",
                "golden_section_max"),
    "grid": ("make_grid",),
    "cone": ("compute_constants", "check_cone"),
    "solver": ("solve",),
    "qscan": ("scan", "_bisect"),
    "cli": ("main",),
}

ABS_MASS = ("kernels.kq_abs_mass", "kernels.kq_derivative_abs_mass")

_BYTES_PER_FLOAT = 8


def conv_cost(n: int, spacing: float, window: float, q: float) -> tuple[float, float]:
    """Computed flops and bytes of the quadrature convolutions of one apply_pq.

    An odd input runs one convolution per kernel (the even branch is empty):
    K0 alone at q = 0, K0 and K1 otherwise.  Each is np.convolve in 'valid'
    mode of the tail-padded input (n + 2m) with a kernel row of 2m + 1 taps,
    m = round(window / spacing): n (2m + 1) multiply-adds, and one pass over
    the padded input, the row and the n outputs.
    """
    m = int(round(window / spacing))
    convolutions = 1 if q == 0.0 else 2
    flops = 2.0 * n * (2 * m + 1)
    moved = _BYTES_PER_FLOAT * ((n + 2 * m) + (2 * m + 1) + n)
    return convolutions * flops, convolutions * moved


class Tracer:
    """Records spans while installed.

    `op` labels the spans of one operation; spans recorded before the caller
    first sets it belong to "setup".
    """

    def __init__(self, package) -> None:
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self.stack = [-1]
        self.op = "setup"
        self.solves: dict[int, tuple[int, bool]] = {}
        self.applies: dict[int, tuple[float, float]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod_name, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                home = _home_module(obj)
                if home is None or getattr(obj, "_traced", False):
                    continue
                if home == mod_name and attr not in SAME_MODULE.get(home, ()):
                    continue
                if home != mod_name and attr.startswith("_"):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{home}.{obj.__name__}")
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        profile = self.modules["grid"].Profile
        init = profile.__init__
        self._undo.append((profile, "__init__", init))
        profile.__init__ = self._wrap(init, "grid.Profile")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn, name: str):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = {"solver.solve": self._on_solve,
                "operators.apply_pq": self._on_apply}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if hook is not None:
                hook(index, args, kwargs, out)
            return out

        traced._traced = True
        return traced

    def _on_solve(self, index, args, kwargs, report) -> None:
        self.solves[index] = (report.iterations, report.converged)

    def _on_apply(self, index, args, kwargs, image) -> None:
        family = args[1] if len(args) > 1 else kwargs["family"]
        cfg = args[2] if len(args) > 2 else kwargs.get(
            "cfg", self.modules["operators"].OperatorConfig())
        grid = image.grid
        self.applies[index] = (
            conv_cost(grid.n_points, grid.spacing, cfg.kernel_window, family.q)
            if cfg.method == "quadrature" else (0.0, 0.0))

    # -- analysis -----------------------------------------------------------

    def per_op(self) -> dict[str, dict[str, float]]:
        """Per-op (and 'setup') totals: self time per module, counts, sums."""
        spans = self.spans
        child = np.zeros(len(spans))
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        under_scan = self._descendants_of("qscan.scan")
        under_bisect = self._descendants_of("qscan._bisect")
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name_id, start, end, parent, op) in enumerate(spans):
            name = self.names[name_id]
            dur = end - start
            acc = out[op]
            acc[name.split(".", 1)[0] + ".self_s"] += dur - child[index]
            acc["calls:" + name] += 1
            acc["incl_s:" + name] += dur
            if index in self.solves:
                iterations, converged = self.solves[index]
                acc["solver.iterations"] += iterations
                if not converged:
                    acc["solver.wasted_iterations"] += iterations
                if index in under_scan:
                    acc["qscan.solves"] += 1
                if index in under_bisect:
                    acc["qscan.bisect_solves"] += 1
            if index in self.applies:
                flops, moved = self.applies[index]
                acc["conv_flops"] += flops
                acc["conv_bytes"] += moved
        return {op: dict(v) for op, v in out.items()}

    def _descendants_of(self, name: str) -> set[int]:
        roots = {i for i, s in enumerate(self.spans) if self.names[s[0]] == name}
        found: set[int] = set()
        for index, span in enumerate(self.spans):
            parent = span[3]
            if parent in roots or parent in found:
                found.add(index)
        return found

    def write(self, path) -> None:
        """Write every span as columns: name id, start, end, parent, op label."""
        cols = list(zip(*self.spans)) if self.spans else [[]] * 5
        np.savez(path, names=np.array(self.names), name_id=np.array(cols[0], np.int32),
                 start=np.array(cols[1]), end=np.array(cols[2]),
                 parent=np.array(cols[3], np.int32), op=np.array([str(o) for o in cols[4]]))


def _home_module(obj) -> str | None:
    """The kinksolve module that defines a plain function, else None."""
    if not inspect.isfunction(obj):
        return None
    module = getattr(obj, "__module__", "") or ""
    package, _, leaf = module.rpartition(".")
    return leaf if package == "kinksolve" and leaf in MODULES else None


def layer_metrics(per_op: dict, ops: list) -> dict[str, float]:
    """Per-layer metrics: set-up figures from the traced set-up, the rest as
    means over the traced ops."""

    def mean(key: str) -> float:
        return float(np.mean([per_op[op].get(key, 0.0) for op in ops]))

    s = per_op.get("setup", {})
    iterations = mean("solver.iterations")
    profiles = mean("calls:grid.Profile")
    applies = mean("calls:operators.apply_pq")
    solve_s = mean("incl_s:solver.solve")
    metrics = {
        "kernels.norms_s": s.get("incl_s:kernels.kernel_norms", 0.0),
        "kernels.abs_mass_calls": sum(s.get("calls:" + n, 0.0) for n in ABS_MASS),
        "cone.compute_constants_s": s.get("incl_s:cone.compute_constants", 0.0),
        "grid.profiles_per_iteration": profiles / iterations if iterations else 0.0,
        "operators.apply_pq_calls": applies,
        "operators.conv_flops_per_apply": mean("conv_flops") / applies if applies else 0.0,
        "operators.conv_bytes_per_apply": mean("conv_bytes") / applies if applies else 0.0,
        "cone.check_cone_calls": mean("calls:cone.check_cone"),
        "cone.check_cone_s": mean("incl_s:cone.check_cone"),
        "cone.check_preservation_s": mean("incl_s:cone.check_preservation"),
        "solver.iterations": iterations,
        "solver.s_per_iteration": solve_s / iterations if iterations else 0.0,
        "solver.wasted_iter_frac": (mean("solver.wasted_iterations") / iterations
                                    if iterations else 0.0),
        "qscan.solves": mean("qscan.solves"),
        "qscan.bisect_solves": mean("qscan.bisect_solves"),
    }
    for module in MODULES:
        metrics[module + ".self_s"] = mean(module + ".self_s")
    return metrics


def op_counts(per_op: dict, op) -> dict[str, float]:
    """The counts of one op that must repeat exactly from op to op."""
    acc = per_op.get(op, {})
    keys = ("calls:operators.apply_pq", "calls:grid.Profile", "calls:solver.solve",
            "calls:cone.check_cone", "solver.iterations", *("calls:" + n for n in ABS_MASS))
    return {k: acc.get(k, 0.0) for k in keys}
