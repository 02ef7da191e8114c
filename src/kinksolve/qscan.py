"""Sweep and bisect the deformation parameter to bracket the kink threshold.

A sample is classified as a kink when the iteration converged and the
right-boundary value exceeds 0.5, which separates the kink branch from both
the zero solution and the sign-flipped attractors; non-convergence within
the iteration budget counts as no-kink.  The coarse sweep warm-starts each
solve from the previous converged solution; the bisection re-solves from
the cold erf initial guess at every midpoint, because warm continuation
can track a metastable oscillatory-tail branch well past the point where
cold starts stop finding it, which would make the bracket depend on the
coarse-grid layout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cone import ConstantsLedger
from .grid import GridSpec, Profile
from .solver import SolveConfig, SolveReport, solve

#: Right-boundary value separating the kink branch from the others.
KINK_AMPLITUDE_THRESHOLD = 0.5


@dataclass
class ScanConfig:
    q_min: float = 0.0
    q_max: float = 3.0
    coarse_steps: int = 4
    bisect_tol: float = 1e-4
    per_solve: SolveConfig = field(default_factory=SolveConfig)
    cold_check: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.q_min < math.inf:
            raise ValueError("q_min must be finite and >= 0")
        if not self.q_min < self.q_max < math.inf:
            raise ValueError("q_max must be finite and exceed q_min")
        if not self.coarse_steps >= 1:
            raise ValueError("coarse_steps must be >= 1")
        if not 0.0 < self.bisect_tol < math.inf:
            raise ValueError("bisect_tol must be finite and positive")


@dataclass(frozen=True)
class ScanSample:
    q: float
    converged: bool
    final_residual: float
    kink_amplitude: float

    @property
    def is_kink(self) -> bool:
        return self.converged and self.kink_amplitude > KINK_AMPLITUDE_THRESHOLD


@dataclass
class ScanReport:
    samples: list[ScanSample]
    q_star_bracket: tuple[float, float] | None
    cold_samples: list[ScanSample] | None = None
    warm_cold_agree: bool | None = None

    def to_json_dict(self) -> dict:
        d = {
            "samples": [vars(s) for s in self.samples],
            "q_star_bracket": list(self.q_star_bracket) if self.q_star_bracket else None,
        }
        if self.cold_samples is not None:
            d["cold_samples"] = [vars(s) for s in self.cold_samples]
            d["warm_cold_agree"] = self.warm_cold_agree
        return d

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["q", "converged", "residual", "amplitude"])
            for s in self.samples:
                writer.writerow([f"{s.q:.17g}", int(s.converged),
                                 f"{s.final_residual:.17g}",
                                 f"{s.kink_amplitude:.17g}"])


def _sample(q: float, cfg: ScanConfig, grid: GridSpec, ledger: ConstantsLedger,
            initial: Profile | None = None) -> tuple[ScanSample, SolveReport]:
    report = solve(replace(cfg.per_solve, q=float(q)), grid, ledger, initial=initial)
    return ScanSample(q=float(q), converged=report.converged,
                      final_residual=report.final_residual,
                      kink_amplitude=float(report.solution.u[-1])), report


def scan(cfg: ScanConfig, grid: GridSpec, ledger: ConstantsLedger) -> ScanReport:
    """Coarse warm-started sweep, optional cold cross-check, and bisection.

    Reports (never raises) when no kink/no-kink boundary lies in the range;
    a warm/cold classification mismatch is likewise reported, not raised.
    """
    qs = np.linspace(cfg.q_min, cfg.q_max, cfg.coarse_steps + 1)
    samples: list[ScanSample] = []
    warm: Profile | None = None
    for q in qs:
        sample, report = _sample(q, cfg, grid, ledger, warm)
        samples.append(sample)
        if report.converged:
            warm = report.solution

    cold_samples = None
    agree = None
    if cfg.cold_check:
        cold_samples = [_sample(q, cfg, grid, ledger)[0] for q in qs]
        agree = all(w.is_kink == c.is_kink for w, c in zip(samples, cold_samples))

    bracket = None
    for lo_sample, hi_sample in zip(samples[:-1], samples[1:]):
        if lo_sample.is_kink and not hi_sample.is_kink:
            bracket = _bisect(lo_sample.q, hi_sample.q, cfg, grid, ledger)
            break

    return ScanReport(samples=samples, q_star_bracket=bracket,
                      cold_samples=cold_samples, warm_cold_agree=agree)


def _bisect(lo: float, hi: float, cfg: ScanConfig, grid: GridSpec,
            ledger: ConstantsLedger) -> tuple[float, float]:
    while hi - lo > cfg.bisect_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats
            break
        if _sample(mid, cfg, grid, ledger)[0].is_kink:
            lo = mid
        else:
            hi = mid
    return lo, hi
