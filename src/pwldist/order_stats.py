"""Median sets, quantile preimages, point quantiles, and sampling.

The CDF of a piecewise-linear density is continuous and nondecreasing but
not necessarily strictly increasing: it is flat across zero-density pieces.
A probability level therefore has a whole preimage interval.  Its lower
end lies on the first piece whose cumulative-mass bracket holds the level,
its upper end on the last; either is found by one binary search and that
piece's quadratic ``F(v) = p``, O(log n) work.

There are two routes through that solve, chosen by the input's shape.
Preimages, point quantiles and the median set take one level at a time:
``_preimage_end`` solves for one end in Python floats, with no per-call
array work, since a numpy kernel on a 1- or 2-element array would spend
most of its time in the fixed cost of a few dozen numpy calls.  Sampling
takes an array of levels and needs lower ends only: ``_inverse_cdf``
solves them all in numpy.  Both do the same IEEE operations in the same
order, so they return the same floats; the tests pin them together, and
to the two-ended array kernel they replaced, bit for bit.

The level is first clamped to the total mass, which may fall short of 1 by
up to ``NORMALIZATION_RTOL``; the search then always ends on a piece of
positive mass, so no zero-mass piece is ever solved in.  The lower end is
``c_0`` at ``p = 0``, and the upper end is ``c_{n+1}`` once ``p`` reaches
the total mass or 1.

Restricted to piece j, with ``h = v - c_j``, ``w`` the piece width, and
``q = p - F(c_j)`` the mass still needed,

    alpha h^2 + beta h - q = 0,   alpha = (L_{j+1} - R_j) / (2w),  beta = R_j.

Every piece takes the root ``h = 2q / (beta + sqrt(beta^2 + 4 alpha q))``,
the one the stable formula selects and the one inside ``[0, w]``: F is
strictly increasing on a positive-mass piece, so the root is unique; a flat
piece (``alpha = 0``) gets exactly ``q / beta``.  ``h`` is solved for in
units of the power of two ``u <= w < 2u``, where every term is about the
size of the piece's mass, so no piece width overflows it.
Scaling by a power of two is exact, so the bits are those of absolute units
wherever those do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (
    _MEDIAN_ATTAINED_ATOL,
    PiecewiseLinearDensity,
    _stored,
    require_normalized,
)
from .errors import BadProbabilityError
from .evaluate import cdf

QUANTILE_RULES = ("inf", "sup", "mid")


@dataclass(frozen=True)
class MedianSet:
    """The interval of median values with endpoint-attainment flags."""

    v_min: float
    v_max: float
    min_attained: bool
    max_attained: bool


@dataclass(frozen=True)
class QuantilePreimage:
    """Infimum and supremum inverses of the CDF at level ``p``."""

    lower: float
    upper: float
    p: float


def _inverse_cdf(d: PiecewiseLinearDensity, p: np.ndarray) -> np.ndarray:
    """Lower (infimum) ends of ``{x : F(x) = p}``, elementwise over ``p``."""
    c = d.breakpoints
    table = d._cumulative
    p = np.minimum(p, table[-1])
    # Counting F(c_1) ... F(c_n) below p gives j, in 0 ... n, directly.
    j = table[1:-1].searchsorted(p)
    lo = c[j]
    w = c[j + 1] - lo
    # w = m * 2**e with 1/2 <= m < 1, so unit = 2**(e - 1) <= w = 2m unit.
    m, e = np.frexp(w)
    unit = np.ldexp(0.5, e)
    right = d.right_limits[j]
    beta = right * unit
    alpha = (d.left_limits[j] - right) * unit / (4.0 * m)
    q = p - table[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.maximum(beta * beta + 4.0 * alpha * q, 0.0)
        h = 2.0 * q / (beta + np.sqrt(disc)) * unit
    return lo + np.minimum(np.where(q <= 0.0, 0.0, h), w)


def _preimage_end(
    d: PiecewiseLinearDensity, table: np.ndarray, p: float, upper: bool
) -> float:
    """One end of ``{x : F(x) = p}``, the upper (supremum) one if ``upper``,
    in Python floats.  It does ``_inverse_cdf``'s operations in the same
    order; the upper end searches with the next float above ``p`` and ends
    at ``c_{n+1}`` once ``p`` reaches the total mass or 1.  ``table`` is
    the density's stored cdf prefix table, ``d._cumulative``.
    """
    c = d.breakpoints
    mass = table.item(-1)
    p = min(p, mass)
    if upper and p >= min(mass, 1.0):
        return c.item(-1)
    # The last piece starting at or below p is the last one starting
    # strictly below the next float above p.
    key = math.nextafter(p, math.inf) if upper else p
    # The count of F(c_1) ... F(c_n) below the key, j, as in _inverse_cdf,
    # but without a slice: the whole table adds F(c_0) = 0 when the key is
    # positive, and never the total mass, which the key does not exceed.
    j = max(int(table.searchsorted(key)) - 1, 0)
    lo = c.item(j)
    w = c.item(j + 1) - lo
    m, e = math.frexp(w)
    unit = math.ldexp(0.5, e)
    right = d.right_limits.item(j)
    beta = right * unit
    alpha = (d.left_limits.item(j) - right) * unit / (4.0 * m)
    q = p - table.item(j)
    if q <= 0.0:
        return lo + 0.0  # not lo itself, which may be -0.0
    root = beta + math.sqrt(max(beta * beta + 4.0 * alpha * q, 0.0))
    # A zero root gives h = inf under numpy, so the piece's right end.
    h = 2.0 * q / root * unit if root else math.inf
    return lo + min(h, w)


def _checked_level(d: PiecewiseLinearDensity, p: float) -> float:
    """``p`` as a float, after the probability and normalization checks."""
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise BadProbabilityError(f"probability must lie in [0, 1], got {p!r}")
    require_normalized(d)
    return p


def quantile_preimage(d: PiecewiseLinearDensity, p: float) -> QuantilePreimage:
    """The full interval ``{x : F(x) = p}``, clipped to the support.

    For ``p = 0`` the lower end is the support infimum; for ``p = 1``, or
    ``p`` at or above the total mass, the upper end is the support supremum.
    """
    p = _checked_level(d, p)
    table = d._cumulative
    return QuantilePreimage(
        lower=_preimage_end(d, table, p, False),
        upper=_preimage_end(d, table, p, True),
        p=p,
    )


def quantile(d: PiecewiseLinearDensity, p: float, rule: str = "inf") -> float:
    """One point of the preimage: its infimum, supremum, or midpoint.

    ``inf`` and ``sup`` solve only the end they return.
    """
    if rule not in QUANTILE_RULES:
        raise ValueError(f"rule must be one of {QUANTILE_RULES}")
    p = _checked_level(d, p)
    table = d._cumulative
    if rule == "mid":
        lower = _preimage_end(d, table, p, False)
        return lower / 2.0 + _preimage_end(d, table, p, True) / 2.0
    return _preimage_end(d, table, p, rule == "sup")


def median_set(d: PiecewiseLinearDensity) -> MedianSet:
    """All medians: the closed interval where F equals 1/2.

    A nondegenerate interval appears exactly when the density vanishes
    almost everywhere between the endpoints.  F is continuous here, so the
    endpoints themselves always satisfy F = 1/2; the flags record that the
    bounds are attained, checked against the computed CDF at both ends in
    one call.
    """
    return _stored(d, "median_set", _median_set)


def _median_set(d: PiecewiseLinearDensity) -> MedianSet:
    pre = quantile_preimage(d, 0.5)
    f_lower, f_upper = cdf(d, pre.lower), cdf(d, pre.upper)
    return MedianSet(
        v_min=pre.lower,
        v_max=pre.upper,
        min_attained=abs(f_lower - 0.5) <= _MEDIAN_ATTAINED_ATOL,
        max_attained=abs(f_upper - 0.5) <= _MEDIAN_ATTAINED_ATOL,
    )


def sample(d: PiecewiseLinearDensity, uniforms) -> np.ndarray:
    """Inverse-transform samples for caller-supplied uniforms in [0, 1).

    ``out[i] = quantile(d, uniforms[i], rule="inf")``, vectorized; the
    engine owns no randomness, so identical inputs give identical outputs.
    """
    u = np.asarray(uniforms, dtype=float)
    # NaN fails both tests and each infinity fails one.
    if not ((u >= 0.0) & (u < 1.0)).all():
        raise BadProbabilityError("uniform variates must lie in [0, 1)")
    require_normalized(d)
    return _inverse_cdf(d, u)
