"""Closed-form moments: mean, variance, and exact higher raw moments.

Mean and variance are the trapezoid sums

    mu      = sum (c_{i+1} - c_i) [R_i (2c_i + c_{i+1}) + L_{i+1} (c_i + 2c_{i+1})] / 6
    sigma^2 = sum (c_{i+1} - c_i) [R_i (c_{i+1}^2 + 2 c_{i+1} c_i + 3 c_i^2 - 4 mu c_{i+1} - 8 mu c_i + 6 mu^2)
                                 + L_{i+1} (3 c_{i+1}^2 + 2 c_{i+1} c_i + c_i^2 - 8 mu c_{i+1} - 4 mu c_i + 6 mu^2)] / 12

with the vertex-indexed reductions for the continuous (polygonal) case.
These sums are translation-equivariant, so they are evaluated on the
breakpoints shifted by ``c_0`` and ``c_0`` is added back to the mean; in raw
coordinates far from the origin they cancel catastrophically (Chan, Golub &
LeVeque 1983).  Lengths are in units of the power of two ``u <= b - a < 2u``,
so no sum overflows at any width, and scaling back by u is exact.  Mean,
variance, and the shape summary are the moments of the distribution
``f / mass``, which matters for a mass just inside the normalization
tolerance; :func:`raw_moment` integrates ``x^m f`` itself.
Higher raw moments integrate ``x^m f(x)`` exactly piece by piece; each piece
is translated so its midpoint sits at 0 before integrating, which keeps the
odd/even split exact and avoids the cancellation the monomial basis suffers
when breakpoints are far from the origin, then the binomial shift moves the
result back.  That shift is a polynomial in the piece midpoint, evaluated by
Horner's rule over blocks of pieces with the powers of the half-width as a
running product: no array power (which is slow for negative bases) and a
fixed number of temporaries for every order.  The shape summary takes its
central moments 2-4 the same way in one pass, on breakpoints shifted by
``c_0`` and then by the mean, in units of a power of two near the width.
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


def _shifted_mean(d: PiecewiseLinearDensity):
    """``c_0``, the power of two ``u <= b - a < 2u``, the piece widths, and
    the breakpoints shifted by ``c_0`` and their mean, both in units of u."""
    require_normalized(d)
    c0 = d.breakpoints[0]
    c = d.breakpoints - c0
    unit = _unit_of(c[-1])
    w = c[1:] - c[:-1]
    c /= unit
    lo, hi = c[:-1], c[1:]
    terms = d.right_limits * (2.0 * lo + hi) + d.left_limits * (lo + 2.0 * hi)
    return c0, unit, w, c, (w * terms).sum() / 6.0 / raw_mass(d)


def mean(d: PiecewiseLinearDensity) -> float:
    """Expected value, by the exact per-piece trapezoid sum."""
    return _stored(d, "mean", _mean)


def _mean(d: PiecewiseLinearDensity) -> float:
    c0, unit, _, _, mu = _shifted_mean(d)
    return float(c0 + float(mu) * unit)


def variance(d: PiecewiseLinearDensity) -> float:
    """Second central moment, by the exact per-piece sum."""
    return _stored(d, "variance", _variance)


def _variance(d: PiecewiseLinearDensity) -> float:
    _, unit, w, c, mu = _shifted_mean(d)
    lo, hi = c[:-1], c[1:]
    r_term = d.right_limits * (
        hi * hi + 2.0 * hi * lo + 3.0 * lo * lo - 4.0 * mu * hi - 8.0 * mu * lo + 6.0 * mu * mu
    )
    l_term = d.left_limits * (
        3.0 * hi * hi + 2.0 * hi * lo + lo * lo - 8.0 * mu * hi - 4.0 * mu * lo + 6.0 * mu * mu
    )
    return float((w * (r_term + l_term)).sum() / 12.0 / raw_mass(d)) * unit * unit


def _shifted_mean_polygonal(p: PolygonalDensity):
    """``c_0``, the mass, the shifted mean, and the interior vertex
    triples ``(H_i, c_{i+1}, c_i, c_{i-1})`` shifted by ``c_0``."""
    d = promote(p)
    require_normalized(d)
    c0 = p.breakpoints[0]
    c = p.breakpoints - c0
    h, nxt, cur, prv = p.heights[1:-1], c[2:], c[1:-1], c[:-2]
    mass = raw_mass(d)
    mu = (h * (nxt - prv) * (nxt + cur + prv)).sum() / 6.0 / mass
    return c0, mass, mu, (h, nxt, cur, prv)


def mean_polygonal(p: PolygonalDensity) -> float:
    """Expected value via the vertex-indexed reduction of the general sum."""
    c0, _, mu, _ = _shifted_mean_polygonal(p)
    return float(c0 + mu)


def variance_polygonal(p: PolygonalDensity) -> float:
    """Variance via the vertex-indexed reduction of the general sum."""
    _, mass, mu, (h, nxt, cur, prv) = _shifted_mean_polygonal(p)
    poly = (
        nxt * nxt + cur * cur + prv * prv
        + nxt * cur + nxt * prv + cur * prv
        - 4.0 * mu * (nxt + cur + prv)
        + 6.0 * mu * mu
    )
    return float((h * (nxt - prv) * poly).sum() / 12.0 / mass)


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

    Integrates ``x^m f(x)`` piece by piece about each piece's midpoint and
    moves the result back with the binomial expansion in the midpoint,
    evaluated by Horner's rule (see the module docstring).
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"moment order must be a nonnegative integer, got {m!r}")
    if m > MAX_MOMENT_ORDER:
        raise OrderTooLargeError(
            f"moment order {m} exceeds the supported maximum {MAX_MOMENT_ORDER}"
        )
    m = int(m)
    return _stored(d, m, lambda d: _raw_moment(d, m))


def _raw_moment(d: PiecewiseLinearDensity, m: int) -> float:
    # A support is at least one ulp of its ends wide, so |x|/unit < 2**54;
    # Python multiplies scale back, inf only where E[X^m] itself overflows.
    unit = _unit_of(d.grid.b - d.grid.a)
    moment = _moment_sums(d, d.breakpoints / unit, (m,), unit)[0]
    for _ in range(m):
        moment *= unit
    return moment


def summary(d: PiecewiseLinearDensity) -> MomentSummary:
    """Mass, mean, variance, std, skewness, and excess kurtosis.

    The breakpoints are shifted by ``c_0`` and then by the mean taken in
    that frame, and the central moments 2-4 are the raw moments of those
    coordinates in units of the power of two ``u <= b - a < 2u``, all
    from one pass over the pieces.  The shift keeps far supports accurate
    and gives symmetric densities an exactly zero third central moment; the
    unit keeps the moments near one at any width, and scaling back by it is
    exact.  Skewness and excess are NaN when the variance is zero.
    Every moment is divided by the mass once, so they are those of the
    distribution ``f / mass``.
    """
    return _stored(d, "summary", _summary)


def _summary(d: PiecewiseLinearDensity) -> MomentSummary:
    c0, unit, _, c, mu = _shifted_mean(d)
    mass = raw_mass(d)
    c2, c3, c4 = (s / mass for s in _moment_sums(d, c - mu, (2, 3, 4), unit))
    var = max(c2, 0.0)
    std = math.sqrt(var)
    skew = excess = math.nan
    if std > 0.0:
        skew = c3 / std ** 3
        excess = c4 / var ** 2 - 3.0
    return MomentSummary(
        mass=mass,
        mean=float(c0 + float(mu) * unit),
        variance=var * unit * unit,
        std=std * unit,
        skewness=skew,
        excess=excess,
    )
