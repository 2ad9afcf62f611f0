"""Closed-form moments: mean, variance, shape, and exact higher raw moments.

Every moment of a general density comes from one kernel, :func:`_moment_sums`,
which integrates ``x^m f(x)`` exactly piece by piece.  Each piece is
translated so its midpoint sits at 0 before integrating, which keeps the
odd/even split exact and avoids the cancellation the monomial basis suffers
when breakpoints are far from the origin (Chan, Golub & LeVeque 1983); the
binomial shift then moves the result back.  That shift is a polynomial in
the piece midpoint, evaluated by Horner's rule over blocks of pieces with the
powers of the half-width as a running product: no array power (which is
slow for negative bases) and a fixed number of temporaries for every order.

Its order-1 and order-2 terms are the paper's trapezoid sums.  On piece i,
of width ``w_i``, midpoint ``m_i`` and half-width ``h_i = w_i / 2``, the
kernel's order-1 term ``(R_i + L_{i+1}) h_i m_i + (L_{i+1} - R_i) h_i^2 / 3``
is, with ``2c_i + c_{i+1} = 3m_i - h_i`` and ``c_i + 2c_{i+1} = 3m_i + h_i``,

    w_i [R_i (2c_i + c_{i+1}) + L_{i+1} (c_i + 2c_{i+1})] / 6,

and on breakpoints shifted by the mean mu its order-2 term
``(R_i + L_{i+1}) (h_i m_i^2 + h_i^3 / 3) + 2 (L_{i+1} - R_i) h_i^2 m_i / 3`` is

    w_i [R_i (c_{i+1}^2 + 2 c_{i+1} c_i + 3 c_i^2)
         + L_{i+1} (3 c_{i+1}^2 + 2 c_{i+1} c_i + c_i^2)] / 12,

the paper's variance term at mu = 0.  So mu is the sum of the first over
the mass, and sigma^2 the sum of the second over the mass.

:func:`summary` works on the breakpoints shifted by ``c_0`` and in units of
the power of two ``u <= b - a < 2u``: it takes the mean from one pass, then
the central moments 2-4 from a second pass on the breakpoints shifted by the
mean too.  The shift keeps far supports accurate; the unit keeps every term
about the size of a piece's mass at any width, and scaling back by u is
exact.  :func:`mean` and :func:`variance` are fields of that one stored
summary.  Mean, variance, and the shape summary are the moments of the
distribution ``f / mass``, which matters for a mass just inside the
normalization tolerance; :func:`raw_moment` integrates ``x^m f`` itself.
Its orders ``0 ... 12`` are likewise fields of one stored tuple, taken in
one pass on the first call of any order: the first call costs the pass of
all 13, and every later one is a lookup.

The vertex-indexed reductions of the same sums for the continuous
(polygonal) case work in the same ``c_0``-shifted frame and unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (
    PiecewiseLinearDensity,
    PolygonalDensity,
    promote,
    raw_mass,
    require_normalized,
    _stored,
    _unit_of,
)
from .errors import OrderTooLargeError

MAX_MOMENT_ORDER = 12


@dataclass(frozen=True)
class MomentSummary:
    """Mass, location, spread, and shape of a normalized density."""

    mass: float
    mean: float
    variance: float
    std: float
    skewness: float
    excess: float


def _frame(d: PiecewiseLinearDensity, breakpoints):
    """``c_0``, the power of two ``u <= b - a < 2u``, ``breakpoints`` (those
    of ``d``, or of the polygon it came from) shifted by ``c_0`` in units of
    u, and the mass of a normalized ``d``."""
    require_normalized(d)
    c0 = breakpoints[0]
    c = breakpoints - c0
    unit = _unit_of(c[-1])
    c /= unit
    return c0, unit, c, raw_mass(d)


def _shifted_mean_polygonal(p: PolygonalDensity):
    """The unit, ``c_0``, the mass, the mean, and the interior vertex
    triples ``(H_i, c_{i+1}, c_i, c_{i-1})``, in the frame of
    :func:`_frame`: heights times u, and the mean in units of u."""
    c0, unit, c, mass = _frame(promote(p), p.breakpoints)
    h, nxt, cur, prv = p.heights[1:-1] * unit, c[2:], c[1:-1], c[:-2]
    mu = (h * (nxt - prv) * (nxt + cur + prv)).sum() / 6.0 / mass
    return unit, c0, mass, mu, (h, nxt, cur, prv)


def mean_polygonal(p: PolygonalDensity) -> float:
    """Expected value via the vertex-indexed reduction of the general sum."""
    unit, c0, _, mu, _ = _shifted_mean_polygonal(p)
    return float(c0 + float(mu) * unit)


def variance_polygonal(p: PolygonalDensity) -> float:
    """Variance via the vertex-indexed reduction of the general sum."""
    unit, _, mass, mu, (h, nxt, cur, prv) = _shifted_mean_polygonal(p)
    poly = (
        nxt * nxt + cur * cur + prv * prv
        + nxt * cur + nxt * prv + cur * prv
        - 4.0 * mu * (nxt + cur + prv)
        + 6.0 * mu * mu
    )
    return float((h * (nxt - prv) * poly).sum() / 12.0 / mass) * unit * unit


# Pieces per block in _moment_sums: a block's temporaries stay in cache,
# where the elementwise steps run several times faster than over whole
# arrays of 10^5 pieces.
_BLOCK = 16384


def _moment_sums(d: PiecewiseLinearDensity, c, orders, unit) -> list[float]:
    """``int (x/unit)^m f(x) dx`` for each ``m`` in ``orders``, with ``x/unit``
    measured on the breakpoints ``c`` (those of ``d``, possibly shifted,
    over ``unit``) and ``unit`` a power of two.

    On piece i write ``x/unit = mid + u`` with ``mid`` the piece midpoint
    and ``unit f = p + q u``, the density per unit; then over the symmetric
    range ``|u| <= w/2``, ``w`` the width in units,

        seg_k = int u^k (p + q u) du = 2 p (w/2)^{k+1} / (k+1)   for even k,
                                       2 q (w/2)^{k+2} / (k+2)   for odd k,

    and the piece contributes ``sum_k binom(m, k) mid^{m-k} seg_k``.  That
    polynomial in ``mid`` is evaluated by Horner's rule, one accumulator per
    order, ``acc = acc * mid + binom(m, k) seg_k`` for k = 1 ... m from
    ``acc = seg_0``, with the powers of ``w/2`` kept as a running product: no
    array power, and a fixed number of temporaries of at most ``_BLOCK``
    pieces whatever the order.  Starting from ``seg_0`` and adding ``seg_k``
    itself where ``binom(m, k) = 1`` skip only exact steps.  The unit rides
    in the constants that halve ``w`` and ``p`` and in one multiply of the
    array ``q`` (which holds ``2 q``), so every term is about the size of a
    piece's mass, whatever the width.
    """
    rr, ll = d.right_limits, d.left_limits
    sums = [0.0] * len(orders)
    to_half = 0.5 / unit
    for start in range(0, rr.size, _BLOCK):
        stop = min(start + _BLOCK, rr.size)
        w = d.breakpoints[start + 1:stop + 1] - d.breakpoints[start:stop]
        mid = (c[start:stop] + c[start + 1:stop + 1]) * 0.5
        half = w * to_half
        p = (rr[start:stop] + ll[start:stop]) * (0.5 * unit)
        q = (ll[start:stop] - rr[start:stop]) * unit / half
        half_sq = half * half
        power = half  # (w/2)^{k+1} for even k, (w/2)^{k+2} for odd k
        seg = p * power * 2.0
        accs = [seg] + [seg.copy() for _ in orders[1:]]
        for k in range(1, max(orders) + 1):
            if k % 2 == 0:
                seg = p * power * (2.0 / (k + 1))
            else:
                power = power * half_sq
                seg = q * power * (1.0 / (k + 2))
            for acc, m in zip(accs, orders):
                if k <= m:
                    acc *= mid
                    binom = math.comb(m, k)
                    acc += seg if binom == 1 else binom * seg
        for i, acc in enumerate(accs):
            sums[i] += float(acc.sum())
    return sums


def raw_moment(d: PiecewiseLinearDensity, m: int) -> float:
    """Exact ``E[X^m]`` for integer ``0 <= m <= 12``.

    A field of one stored tuple, as ``mean`` is of :func:`summary`: the
    first call on a density takes every order ``0 ... 12`` in one pass,
    integrating ``x^m f(x)`` piece by piece about each piece's midpoint and
    moving the result back with the binomial expansion in the midpoint,
    evaluated by Horner's rule (see the module docstring).  Each order's
    accumulator does the same operations whatever orders share the pass.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"moment order must be a nonnegative integer, got {m!r}")
    if m > MAX_MOMENT_ORDER:
        raise OrderTooLargeError(
            f"moment order {m} exceeds the supported maximum {MAX_MOMENT_ORDER}"
        )
    return _stored(d, "raw_moments", _raw_moments)[m]


def _raw_moments(d: PiecewiseLinearDensity) -> tuple[float, ...]:
    # A support is at least one ulp of its ends wide, so |x|/unit < 2**54;
    # Python multiplies scale back, inf only where E[X^m] itself overflows.
    unit = _unit_of(d.grid.b - d.grid.a)
    orders = range(MAX_MOMENT_ORDER + 1)
    sums = _moment_sums(d, d.breakpoints / unit, orders, unit)
    for m in orders:
        for _ in range(m):
            sums[m] *= unit
    return tuple(sums)


def mean(d: PiecewiseLinearDensity) -> float:
    """Expected value: the ``mean`` of :func:`summary`."""
    return summary(d).mean


def variance(d: PiecewiseLinearDensity) -> float:
    """Second central moment: the ``variance`` of :func:`summary`."""
    return summary(d).variance


def summary(d: PiecewiseLinearDensity) -> MomentSummary:
    """Mass, mean, variance, std, skewness, and excess kurtosis.

    The breakpoints are shifted by ``c_0`` and taken in units of the power
    of two ``u <= b - a < 2u``; the mean is the order-1 sum of that frame,
    and the central moments 2-4 are the raw moments of the coordinates
    shifted by the mean too, from a second pass over the pieces.  The shift
    keeps far supports accurate; the unit keeps the moments near one at any
    width, and scaling back by it is exact.  Skewness and excess are NaN
    when the variance is zero.  Every moment is divided by the mass once,
    so they are those of the distribution ``f / mass``.
    """
    return _stored(d, "summary", _summary)


def _summary(d: PiecewiseLinearDensity) -> MomentSummary:
    c0, unit, c, mass = _frame(d, d.breakpoints)
    mu = _moment_sums(d, c, (1,), unit)[0] / mass
    c2, c3, c4 = (s / mass for s in _moment_sums(d, c - mu, (2, 3, 4), unit))
    var = max(c2, 0.0)
    std = math.sqrt(var)
    skew = excess = math.nan
    if std > 0.0:
        skew = c3 / std ** 3
        excess = c4 / var ** 2 - 3.0
    return MomentSummary(
        mass=mass,
        mean=float(c0 + mu * unit),
        variance=var * unit * unit,
        std=std * unit,
        skewness=skew,
        excess=excess,
    )
