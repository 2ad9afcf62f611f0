"""Point evaluation: piece lookup, density, and cumulative distribution.

Piece lookup follows the half-open convention: ``piece_index(g, x)`` is the
largest ``j`` with ``c_j <= x``, capped at ``n`` so the closed support maps
to valid pieces.  The CDF on piece ``j`` is the breakpoint prefix mass plus
the trapezoid area from ``c_j`` to ``x``; at a breakpoint it reproduces the
table entry exactly because both take the same summation path.

``pdf`` and ``cdf`` have two routes, chosen by the shape of ``x``.  An
array goes through numpy kernels, whose fixed cost of a few dozen numpy
calls is shared by all its points.  A 0-d ``x`` goes through Python
floats: one ``searchsorted`` on the stored breakpoints, then a handful of
float operations, so a single value costs O(log n) and no per-call array
work.  Both routes do the same IEEE operations in the same order, so a
scalar call returns the same float as that value inside an array call;
the tests pin the two together bit for bit.
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


def _check_point_rule(point_rule: str) -> None:
    if point_rule not in POINT_RULES:
        raise ValueError(f"point_rule must be one of {POINT_RULES}")


def _values_at_breakpoints(
    d: PiecewiseLinearDensity, point_rule: str, i: np.ndarray
) -> np.ndarray:
    """``breakpoint_values(d, point_rule)[i]``, computed at ``i`` only."""
    _check_point_rule(point_rule)
    if point_rule == "given" and d.point_values is not None:
        return d.point_values[i]
    last = d.right_limits.size  # index of c_{n+1}, where R_{n+1} = 0
    left = np.where(i > 0, d.left_limits[i - 1], 0.0)
    right = np.where(i < last, d.right_limits[np.minimum(i, last - 1)], 0.0)
    if point_rule == "mean":
        return (left + right) / 2.0
    return np.maximum(left, right)


def _value_at_breakpoint(
    d: PiecewiseLinearDensity, point_rule: str, i: int
) -> float:
    """``_values_at_breakpoints`` at one index, in Python floats."""
    if point_rule == "given" and d.point_values is not None:
        return d.point_values.item(i)
    left = d.left_limits.item(i - 1) if i > 0 else 0.0
    right = d.right_limits.item(i) if i < d.right_limits.size else 0.0
    if point_rule == "mean":
        return (left + right) / 2.0
    # np.maximum keeps the second of two equal values, a signed zero too.
    return left if left > right else right


def _interp(d: PiecewiseLinearDensity, xs: np.ndarray, j: np.ndarray):
    """The offset ``h = x - c_j`` into piece ``j``, ``R_j``, and the density
    interpolated linearly between ``R_j`` and ``L_{j+1}``."""
    c = d.breakpoints
    lo = c[j]
    h = xs - lo
    t = h / (c[j + 1] - lo)
    right = d.right_limits[j]
    return h, right, right * (1.0 - t) + d.left_limits[j] * t


def _interp_at(d: PiecewiseLinearDensity, x: float, j: int):
    """``_interp`` at one point, in Python floats."""
    c = d.breakpoints
    lo = c.item(j)
    h = x - lo
    t = h / (c.item(j + 1) - lo)
    right = d.right_limits.item(j)
    return h, right, right * (1.0 - t) + d.left_limits.item(j) * t


def _scalar(x):
    """``x`` as a Python float when it is 0-d, else None (an array)."""
    if isinstance(x, float):  # np.float64 too, without a numpy call
        return float(x)
    xs = np.asarray(x, dtype=float)
    return xs.item() if xs.ndim == 0 else None


def _locate(c: np.ndarray, x):
    """``x`` as a 1-d array clamped to the support, so that no infinity
    reaches the interpolation, the index ``i`` of the last breakpoint at or
    below it, its piece ``j`` (``i`` capped at ``n``), and the masks of
    exact breakpoint hits (clamped values among them) and of values outside
    the support.  Raises OutOfSupport for NaN.  Breakpoints are strictly
    increasing, so a hit is ``x == c_i``.
    """
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise OutOfSupportError("x is NaN, which lies in no support")
    inside = xs.clip(c[0], c[-1])
    # Counting c_1 ... c_{n+1} at or below x gives i, in 0 ... n+1, directly.
    i = c[1:].searchsorted(inside, side="right")
    j = np.minimum(i, c.size - 2)
    return inside, i, j, c[i] == inside, inside != xs


def _locate_at(c: np.ndarray, x: float):
    """``_locate`` at one point: ``x`` clamped to the support, ``i`` and
    ``j``, in Python numbers.  A hit is ``c.item(i) == inside``."""
    if x != x:
        raise OutOfSupportError("x is NaN, which lies in no support")
    inside = min(max(x, c.item(0)), c.item(-1))
    # Counting c_0 ... c_{n+1} at or below the clamped x gives i + 1.
    i = int(c.searchsorted(inside, side="right")) - 1
    return inside, i, min(i, c.size - 2)


def _pdf_at(d: PiecewiseLinearDensity, x: float, point_rule: str) -> float:
    """``pdf`` at one point, in Python floats."""
    inside, i, j = _locate_at(d.breakpoints, x)
    _check_point_rule(point_rule)
    if inside != x:
        return 0.0
    if d.breakpoints.item(i) == inside:
        return _value_at_breakpoint(d, point_rule, i)
    return _interp_at(d, inside, j)[2]


def _cdf_at(d: PiecewiseLinearDensity, table: np.ndarray, x: float) -> float:
    """``cdf`` at one point, in Python floats."""
    inside, i, j = _locate_at(d.breakpoints, x)
    if d.breakpoints.item(i) == inside:
        return table.item(i)
    h, right, f = _interp_at(d, inside, j)
    return table.item(j) + h * (right + f) / 2.0


def pdf(d: PiecewiseLinearDensity, x, point_rule: str = "given"):
    """Density at ``x``: 0 outside the support, linear interpolation of
    ``(R_j, L_{j+1})`` strictly inside piece ``j``, and the point-value
    convention exactly at breakpoints.  Accepts a scalar, giving a float,
    or an array; raises OutOfSupport for NaN.
    """
    point = _scalar(x)
    if point is not None:
        return _pdf_at(d, point, point_rule)
    xs, i, j, at_breakpoint, outside = _locate(d.breakpoints, x)
    _, _, vals = _interp(d, xs, j)
    vals[at_breakpoint] = _values_at_breakpoints(d, point_rule, i[at_breakpoint])
    vals[outside] = 0.0
    return vals


def cdf_table(d: PiecewiseLinearDensity) -> CdfTable:
    """Prefix sums of the per-piece trapezoid masses.

    Computed once per density; every call returns the same read-only array.
    """
    return CdfTable(d._cumulative)


def cdf(d: PiecewiseLinearDensity, x):
    """Cumulative distribution ``F(x) = P(X <= x)``.

    0 for ``x <= c_0``, the total mass for ``x >= c_{n+1}``, and prefix
    mass plus the partial-piece trapezoid term in between; continuous and
    nondecreasing.  Accepts a scalar, giving a float, or an array; raises
    OutOfSupport for NaN.
    """
    table = d._cumulative
    point = _scalar(x)
    if point is not None:
        return _cdf_at(d, table, point)
    xs, i, j, at_breakpoint, _ = _locate(d.breakpoints, x)
    h, right, f = _interp(d, xs, j)
    vals = table[j] + h * (right + f) / 2.0
    # On a breakpoint return the table entry itself; a value outside the
    # support sits on c_0 or c_{n+1}, whose entry is 0 or the total mass.
    return np.where(at_breakpoint, table[i], vals)
