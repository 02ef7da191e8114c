"""Symmetric truncated uniform grids and odd sampled profiles with a tail.

A profile represents a bounded continuous odd function on the whole line by
its samples u on the positive nodes of [-L, L] plus the constant tau used
analytically beyond x = L (and -tau beyond -L).  Odd kinks carry tau = 1;
zero-padding would destroy the boundary behaviour, so the tail is explicit
data, not an assumption.  Full-line samples enter only through the file
loaders, which keep their odd part.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .kernels import erf


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid: nodes j*spacing for j = -M..M, M*spacing = L.

    Grids compare on spacing and n_points, the fields the nodes and the
    operators read; half_width may carry the rounding of M*spacing.
    """

    half_width: float = field(compare=False)
    spacing: float
    n_points: int

    @cached_property
    def x(self) -> np.ndarray:
        m = (self.n_points - 1) // 2
        return np.arange(-m, m + 1) * self.spacing

    @property
    def center_index(self) -> int:
        return (self.n_points - 1) // 2

    @property
    def x_half(self) -> np.ndarray:
        """The positive nodes, a view of x."""
        return self.x[self.center_index + 1:]

    @cached_property
    def ramp(self) -> np.ndarray:
        """The Gaussian ramp erf(x)/2 on the positive nodes, read-only."""
        ramp = 0.5 * erf(self.x_half)
        ramp.flags.writeable = False
        return ramp

    @cached_property
    def pair_scale(self) -> np.ndarray:
        """(2 a h)^(1/3), the symmetric pairs' lag scale, for a = 1..M, read-only."""
        scale = (2 * np.arange(1, self.center_index + 1) * self.spacing) ** (1.0 / 3.0)
        scale.flags.writeable = False
        return scale


def make_grid(half_width: float, spacing: float) -> GridSpec:
    """Build a GridSpec, rejecting non-commensurate or out-of-range parameters.

    half_width/spacing must be within 1e-9 of an integer; the grid spans
    [-half_width, half_width] with a node exactly at 0.
    """
    half_width = float(half_width)
    spacing = float(spacing)
    if not 5.0 <= half_width < math.inf:
        raise ValueError(f"half_width must be finite and >= 5, got {half_width}")
    if not 0.0 < spacing <= 0.5:
        raise ValueError(f"spacing must be in (0, 0.5], got {spacing}")
    ratio = half_width / spacing
    if not math.isfinite(ratio):
        raise ValueError(f"half_width/spacing = {half_width!r}/{spacing!r} overflows")
    m = round(ratio)
    if abs(ratio - m) > 1e-9:
        raise ValueError(
            f"half_width/spacing = {ratio!r} is not an integer (tolerance 1e-9)"
        )
    return GridSpec(half_width=half_width, spacing=spacing, n_points=2 * m + 1)


@dataclass(frozen=True, eq=False)
class Profile:
    """An odd profile on a GridSpec: its values u on the M positive nodes and
    its right tail tau.  The centre value is 0, the left half mirrors u and
    the left tail is -tau, so oddness holds by construction."""

    grid: GridSpec
    u: np.ndarray
    tau: float

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        m = self.grid.center_index
        if u.shape != (m,):
            raise ValueError(f"expected {m} values on the positive nodes, "
                             f"got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValueError("profile values must be finite")
        if not math.isfinite(self.tau):
            raise ValueError("profile tail must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "tau", float(self.tau))

    @cached_property
    def values(self) -> np.ndarray:
        """The values on every node, [-u[::-1], 0, u], read-only."""
        values = np.concatenate([-self.u[::-1], [0.0], self.u])
        values.flags.writeable = False
        return values


def sample(f: Callable, grid: GridSpec, tau: float) -> Profile:
    """The odd profile with values f(x) on the positive nodes and right tail
    tau; rejects results of f that are non-finite or not one value per node."""
    return Profile(grid=grid, u=f(grid.x_half), tau=tau)


def sup_norm(p: Profile) -> float:
    """Maximum of |values| over nodes and tails."""
    return max(float(np.max(np.abs(p.u))), abs(p.tau))


def sup_distance(p: Profile, r: Profile) -> float:
    """Sup-norm distance between two profiles sharing a grid."""
    if p.grid != r.grid:
        raise ValueError("profiles live on different grids")
    return max(float(np.max(np.abs(p.u - r.u))), abs(p.tau - r.tau))


def _odd_part(grid: GridSpec, values) -> np.ndarray:
    """u of the odd part of samples on every node of grid:
    (values[c + 1:] - values[c - 1::-1]) / 2, exact on odd samples."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_points,):
        raise ValueError(f"expected {grid.n_points} values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("profile values must be finite")
    c = grid.center_index
    return 0.5 * (values[c + 1:] - values[c - 1::-1])


# -- serialization ------------------------------------------------------------
#
# CSV: header "x,phi", one node per row, 17 significant digits, LF endings.
# The CSV format carries nodes only; the tail defaults to the last node of
# the odd part on load unless the caller supplies it.  JSON carries both
# tails, tail_left written as -tau and checked on read.  Both loaders return
# the odd part of the values they read.


def profile_to_csv(p: Profile, path) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "phi"])
        for xi, vi in zip(p.grid.x, p.values):
            writer.writerow([f"{xi:.17g}", f"{vi:.17g}"])


def profile_from_csv(path, tau: float | None = None) -> Profile:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "phi"]:
            raise ValueError(f"{path}: expected CSV header 'x,phi'")
        try:
            rows = [(float(a), float(b)) for a, b in reader]
        except ValueError:
            raise ValueError(f"{path}: line {reader.line_num}: "
                             "expected two numbers x,phi") from None
    if len(rows) < 3:
        raise ValueError(f"{path}: too few rows for a profile")
    x = np.array([r[0] for r in rows])
    values = np.array([r[1] for r in rows])
    spacing = (x[-1] - x[0]) / (len(x) - 1)
    # written as "within tolerance" so that a NaN node fails both checks
    if not np.all(np.abs(np.diff(x) - spacing) <= 1e-9 * spacing):
        raise ValueError(f"{path}: nodes are not uniformly spaced")
    if not abs(x[0] + x[-1]) <= 1e-9 * spacing:
        raise ValueError(f"{path}: grid is not symmetric about 0")
    # the step off the centre node 0 is h written to 17 digits, which reads
    # back exactly, where the full-range ratio can land an ulp off h; with
    # an even row count it is still a step, and make_grid rejects L / step
    c = len(x) // 2
    grid = make_grid(float(x[-1]), float(x[c + 1] - x[c]))
    u = _odd_part(grid, values)
    return Profile(grid=grid, u=u, tau=u[-1] if tau is None else tau)


def profile_to_json_dict(p: Profile) -> dict:
    return {
        "half_width": p.grid.half_width,
        "spacing": p.grid.spacing,
        "tail_right": p.tau,
        "tail_left": -p.tau,
        "values": p.values.tolist(),
    }


def json_field(d: dict, key: str, convert: Callable = float):
    """convert(d[key]); ValueError naming key when it is missing or not numeric."""
    try:
        return convert(d[key])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"JSON field {key!r} is missing or not numeric") from None


def profile_from_json_dict(d: dict) -> Profile:
    """The odd part of the profile d; ValueError unless tail_left == -tail_right."""
    grid = make_grid(json_field(d, "half_width"), json_field(d, "spacing"))
    values = json_field(d, "values", lambda v: np.asarray(v, dtype=float))
    tau, left = json_field(d, "tail_right"), json_field(d, "tail_left")
    if left != -tau:
        raise ValueError(f"profile tails must be opposite, got tail_left={left!r} "
                         f"and tail_right={tau!r}")
    return Profile(grid=grid, u=_odd_part(grid, values), tau=tau)


def profile_to_json(p: Profile, path) -> None:
    Path(path).write_text(json.dumps(profile_to_json_dict(p)) + "\n")


def profile_from_json(path) -> Profile:
    return profile_from_json_dict(json.loads(Path(path).read_text()))
