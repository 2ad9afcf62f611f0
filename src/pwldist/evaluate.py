"""Point evaluation: piece lookup, density, and cumulative distribution.

Piece lookup follows the half-open convention: ``piece_index(g, x)`` is the
largest ``j`` with ``c_j <= x``, capped at ``n`` so the closed support maps
to valid pieces.  The CDF on piece ``j`` is the breakpoint prefix mass plus
the trapezoid area from ``c_j`` to ``x``; at a breakpoint it reproduces the
table entry exactly because both take the same summation path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import Grid, PiecewiseLinearDensity
from .errors import OutOfSupportError

POINT_RULES = ("given", "max", "mean")


@dataclass(frozen=True, eq=False)
class CdfTable:
    """CDF values at the breakpoints: ``cumulative[i] = F(c_i)``.

    ``cumulative[0] = 0`` and ``cumulative[n+1]`` equals the raw mass (1 for
    a normalized density, up to rounding).
    """

    cumulative: np.ndarray


def piece_index(g: Grid, x):
    """Index ``j`` of the piece containing ``x``: ``c_j <= x < c_{j+1}``.

    ``x = c_{n+1}`` is clamped to the last piece ``n``.  Ties on coincident
    breakpoints resolve to the maximal index.  Accepts a scalar or an
    array; raises OutOfSupport if any value lies outside ``[c_0, c_{n+1}]``.
    """
    c = g.breakpoints
    xs = np.asarray(x, dtype=float)
    if (xs < c[0]).any() or (xs > c[-1]).any() or not np.isfinite(xs).all():
        raise OutOfSupportError(
            f"x outside support [{g.a}, {g.b}]"
        )
    # Counting c_1 ... c_n at or below x gives j, capped at n, directly.
    j = c[1:-1].searchsorted(xs, side="right")
    return int(j) if xs.ndim == 0 else j


def breakpoint_values(
    d: PiecewiseLinearDensity, point_rule: str = "given"
) -> np.ndarray:
    """Density values assigned at the breakpoints ``c_0 ... c_{n+1}``.

    ``given`` uses stored point values, falling back to ``max`` when none
    were provided; ``max`` takes ``max{L_i, R_i}``; ``mean`` takes
    ``(L_i + R_i) / 2``.  The implicit outer limits are 0.
    """
    return _values_at_breakpoints(d, point_rule, np.arange(d.breakpoints.size))


def _values_at_breakpoints(
    d: PiecewiseLinearDensity, point_rule: str, i: np.ndarray
) -> np.ndarray:
    """``breakpoint_values(d, point_rule)[i]``, computed at ``i`` only."""
    if point_rule not in POINT_RULES:
        raise ValueError(f"point_rule must be one of {POINT_RULES}")
    if point_rule == "given" and d.point_values is not None:
        return d.point_values[i]
    last = d.right_limits.size  # index of c_{n+1}, where R_{n+1} = 0
    left = np.where(i > 0, d.left_limits[i - 1], 0.0)
    right = np.where(i < last, d.right_limits[np.minimum(i, last - 1)], 0.0)
    if point_rule == "mean":
        return (left + right) / 2.0
    return np.maximum(left, right)


def _interp(d: PiecewiseLinearDensity, xs: np.ndarray, j: np.ndarray):
    """The offset ``h = x - c_j`` into piece ``j``, ``R_j``, and the density
    interpolated linearly between ``R_j`` and ``L_{j+1}``."""
    c = d.breakpoints
    lo = c[j]
    h = xs - lo
    t = h / (c[j + 1] - lo)
    right = d.right_limits[j]
    return h, right, right * (1.0 - t) + d.left_limits[j] * t


def _locate(c: np.ndarray, x):
    """``x`` as a 1-d array clamped to the support, so that no infinity
    reaches the interpolation, whether it was a scalar, the index ``i`` of
    the last breakpoint at or below it, its piece ``j`` (``i`` capped at
    ``n``), and the masks of exact breakpoint hits (clamped values among
    them) and of values outside the support.  Raises OutOfSupport for NaN.
    Breakpoints are strictly increasing, so a hit is ``x == c_i``.
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    if scalar:
        xs = xs.reshape(1)
    if np.isnan(xs).any():
        raise OutOfSupportError("x is NaN, which lies in no support")
    inside = xs.clip(c[0], c[-1])
    # Counting c_1 ... c_{n+1} at or below x gives i, in 0 ... n+1, directly.
    i = c[1:].searchsorted(inside, side="right")
    j = np.minimum(i, c.size - 2)
    return inside, scalar, i, j, c[i] == inside, inside != xs


def pdf(d: PiecewiseLinearDensity, x, point_rule: str = "given"):
    """Density at ``x``: 0 outside the support, linear interpolation of
    ``(R_j, L_{j+1})`` strictly inside piece ``j``, and the point-value
    convention exactly at breakpoints.  Accepts a scalar or an array;
    raises OutOfSupport for NaN.
    """
    xs, scalar, i, j, at_breakpoint, outside = _locate(d.breakpoints, x)
    _, _, vals = _interp(d, xs, j)
    vals[at_breakpoint] = _values_at_breakpoints(d, point_rule, i[at_breakpoint])
    vals[outside] = 0.0
    return float(vals[0]) if scalar else vals


def cdf_table(d: PiecewiseLinearDensity) -> CdfTable:
    """Prefix sums of the per-piece trapezoid masses.

    Computed once per density; every call returns the same read-only array.
    """
    return CdfTable(d._cumulative)


def cdf(d: PiecewiseLinearDensity, x):
    """Cumulative distribution ``F(x) = P(X <= x)``.

    0 for ``x <= c_0``, the total mass for ``x >= c_{n+1}``, and prefix
    mass plus the partial-piece trapezoid term in between; continuous and
    nondecreasing.  Accepts a scalar or an array; raises OutOfSupport for
    NaN.
    """
    table = cdf_table(d).cumulative
    xs, scalar, i, j, at_breakpoint, _ = _locate(d.breakpoints, x)
    h, right, f = _interp(d, xs, j)
    vals = table[j] + h * (right + f) / 2.0
    # On a breakpoint return the table entry itself; a value outside the
    # support sits on c_0 or c_{n+1}, whose entry is 0 or the total mass.
    vals = np.where(at_breakpoint, table[i], vals)
    return float(vals[0]) if scalar else vals
