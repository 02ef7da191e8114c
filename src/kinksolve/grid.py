"""Symmetric truncated uniform grids and sampled profiles with tail values.

A profile represents a bounded continuous function on the whole line by its
samples on [-L, L] plus two constants used analytically beyond the
truncation.  Odd kinks carry tails -1 / +1; zero-padding would destroy the
boundary behaviour, so the tails are explicit data, not an assumption.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np


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
    m = round(ratio)
    if abs(ratio - m) > 1e-9:
        raise ValueError(
            f"half_width/spacing = {ratio!r} is not an integer (tolerance 1e-9)"
        )
    return GridSpec(half_width=half_width, spacing=spacing, n_points=2 * m + 1)


@dataclass(frozen=True, eq=False)
class Profile:
    """Samples of a function on a GridSpec plus its constant tail values."""

    grid: GridSpec
    values: np.ndarray
    tail_right: float
    tail_left: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"expected {self.grid.n_points} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        if not (math.isfinite(self.tail_right) and math.isfinite(self.tail_left)):
            raise ValueError("profile tails must be finite")
        object.__setattr__(self, "values", values)


def sample(f: Callable, grid: GridSpec, tail_right: float, tail_left: float) -> Profile:
    """Sample the vectorised f at the grid nodes; rejects results that are
    non-finite or not one value per node."""
    return Profile(grid=grid, values=f(grid.x), tail_right=float(tail_right),
                   tail_left=float(tail_left))


def project_odd(p: Profile) -> Profile:
    """Odd part of a profile: values[j] <- (values[j] - values[-j]) / 2.

    Requires tail_left == -tail_right.  Idempotent, and exact (bitwise) on
    profiles that are already odd.
    """
    if p.tail_left != -p.tail_right:
        raise ValueError(
            f"odd projection needs opposite tails, got ({p.tail_left}, {p.tail_right})"
        )
    return replace(p, values=0.5 * (p.values - p.values[::-1]))


def odd_half(p: Profile) -> tuple[np.ndarray, float]:
    """The values u on the positive nodes and the right tail tau of an odd
    profile; ValueError unless p is odd to the bit."""
    if p.tail_left != -p.tail_right or not np.array_equal(p.values, -p.values[::-1]):
        raise ValueError("profile is not odd (values[-j] == -values[j], tails opposite)")
    return p.values[p.grid.center_index + 1:], p.tail_right


def odd_profile(grid: GridSpec, u: np.ndarray, tau: float) -> Profile:
    """The odd profile with values u on the positive nodes and tails +-tau."""
    return Profile(grid=grid, values=np.concatenate([-u[::-1], [0.0], u]),
                   tail_right=tau, tail_left=-tau)


def odd_defect(p: Profile) -> float:
    """Largest violation of values[-j] = -values[j], including the tails."""
    v = float(np.max(np.abs(p.values + p.values[::-1])))
    return max(v, abs(p.tail_left + p.tail_right))


def sup_norm(p: Profile) -> float:
    """Maximum of |values| over nodes and tails."""
    return max(float(np.max(np.abs(p.values))), abs(p.tail_right), abs(p.tail_left))


def sup_distance(p: Profile, r: Profile) -> float:
    """Sup-norm distance between two profiles sharing a grid."""
    if p.grid != r.grid:
        raise ValueError("profiles live on different grids")
    d = float(np.max(np.abs(p.values - r.values)))
    return max(d, abs(p.tail_right - r.tail_right), abs(p.tail_left - r.tail_left))


# -- serialization ------------------------------------------------------------
#
# CSV: header "x,phi", one node per row, 17 significant digits, LF endings.
# The CSV format carries nodes only; tails default to the endpoint samples on
# load unless the caller supplies them.  JSON carries the full data model.


def profile_to_csv(p: Profile, path) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "phi"])
        for xi, vi in zip(p.grid.x, p.values):
            writer.writerow([f"{xi:.17g}", f"{vi:.17g}"])


def profile_from_csv(path, tail_right: float | None = None,
                     tail_left: float | None = None) -> Profile:
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
    if np.max(np.abs(np.diff(x) - spacing)) > 1e-9 * spacing:
        raise ValueError(f"{path}: nodes are not uniformly spaced")
    if abs(x[0] + x[-1]) > 1e-9 * spacing:
        raise ValueError(f"{path}: grid is not symmetric about 0")
    # the step off the centre node 0 is h written to 17 digits, which reads
    # back exactly, where the full-range ratio can land an ulp off h; with
    # an even row count it is still a step, and make_grid rejects L / step
    c = len(x) // 2
    grid = make_grid(float(x[-1]), float(x[c + 1] - x[c]))
    tr = float(values[-1]) if tail_right is None else float(tail_right)
    tl = float(values[0]) if tail_left is None else float(tail_left)
    return Profile(grid=grid, values=values, tail_right=tr, tail_left=tl)


def profile_to_json_dict(p: Profile) -> dict:
    return {
        "half_width": p.grid.half_width,
        "spacing": p.grid.spacing,
        "tail_right": p.tail_right,
        "tail_left": p.tail_left,
        "values": p.values.tolist(),
    }


def json_field(d: dict, key: str, convert: Callable = float):
    """convert(d[key]); ValueError naming key when it is missing or not numeric."""
    try:
        return convert(d[key])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"JSON field {key!r} is missing or not numeric") from None


def profile_from_json_dict(d: dict) -> Profile:
    grid = make_grid(json_field(d, "half_width"), json_field(d, "spacing"))
    values = json_field(d, "values", lambda v: np.asarray(v, dtype=float))
    return Profile(grid=grid, values=values, tail_right=json_field(d, "tail_right"),
                   tail_left=json_field(d, "tail_left"))


def profile_to_json(p: Profile, path) -> None:
    Path(path).write_text(json.dumps(profile_to_json_dict(p)) + "\n")


def profile_from_json(path) -> Profile:
    return profile_from_json_dict(json.loads(Path(path).read_text()))
