"""Interpolatory polygonal fits to arbitrary target densities.

The fit takes the target's values on a grid as the vertex heights and then
rescales so the result integrates to one, using the vertex-sum factor

    k = 2 / sum_{i=1..n} H'_i (c_{i+1} - c_{i-1})

which equals the trapezoid-mass factor when the outer heights vanish.  This
is deliberately not an L2 projection: the fitted curve passes through the
(rescaled) samples, so closed-form checks against the target stay simple.
Targets with tails must be truncated by the caller; the outer heights are
clamped to zero by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density import Grid, PolygonalDensity, promote
from .errors import (
    NegativeValueError,
    NotIncreasingError,
    ZeroMassError,
)
from .evaluate import pdf


@dataclass(frozen=True)
class FitRequest:
    """Grid values of the target, plus the endpoint-clamping switch."""

    xs: np.ndarray
    ys: np.ndarray
    clamp_ends: bool = True

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=float))
        object.__setattr__(self, "ys", np.asarray(self.ys, dtype=float))

    @classmethod
    def from_points(cls, xs, ys, clamp_ends: bool = True) -> "FitRequest":
        return cls(xs, ys, clamp_ends)

    @classmethod
    def from_function(
        cls,
        target: Callable[[np.ndarray], np.ndarray],
        lo: float,
        hi: float,
        pieces: int,
        clamp_ends: bool = True,
    ) -> "FitRequest":
        """Sample ``target`` at ``pieces + 1`` equispaced points on [lo, hi]."""
        if not pieces >= 2:
            raise NotIncreasingError("need at least 2 pieces (3 grid points)")
        if not lo < hi:
            raise NotIncreasingError("need lo < hi")
        xs = np.linspace(float(lo), float(hi), int(pieces) + 1)
        ys = np.asarray([float(target(x)) for x in xs], dtype=float)
        return cls(xs=xs, ys=ys, clamp_ends=clamp_ends)


def fit(req: FitRequest) -> PolygonalDensity:
    """Normalized polygonal density through the request's sample points."""
    xs, ys = req.xs, req.ys
    if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
        raise NotIncreasingError("xs and ys must be 1-D arrays of equal length")
    if xs.size < 3:
        raise NotIncreasingError("need at least 3 sample points")
    if not np.all(np.isfinite(xs)):
        raise NotIncreasingError("xs must be finite")
    if np.any(np.diff(xs) <= 0.0):
        raise NotIncreasingError("xs must be strictly increasing")
    if not np.all(np.isfinite(ys)) or np.any(ys < 0.0):
        raise NegativeValueError("ys must be finite and >= 0")
    heights = ys.copy()
    if req.clamp_ends:
        heights[0] = 0.0
        heights[-1] = 0.0
    vertex_sum = float(np.sum(heights[1:-1] * (xs[2:] - xs[:-2])))
    if vertex_sum <= 0.0:
        raise ZeroMassError("sampled target carries no mass on this grid")
    k = 2.0 / vertex_sum
    return PolygonalDensity(Grid(xs), k * heights)


def fit_error(
    p: PolygonalDensity,
    target: Callable[[float], float],
    resolution: int = 10,
) -> float:
    """Sup-norm distance between the fit and the target on a dense grid.

    The grid carries ``max(resolution, 10)`` points per piece plus one, so
    it always refines the fit's own breakpoints.
    """
    per_piece = max(int(resolution), 10)
    pieces = p.breakpoints.size - 1
    grid = np.linspace(p.grid.a, p.grid.b, per_piece * pieces + 1)
    fitted = pdf(promote(p), grid)
    sampled = np.asarray([float(target(x)) for x in grid], dtype=float)
    return float(np.max(np.abs(fitted - sampled)))
