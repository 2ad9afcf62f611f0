"""Median sets, quantile preimages, point quantiles, and sampling.

The CDF of a piecewise-linear density is continuous and nondecreasing but
not necessarily strictly increasing: it is flat across zero-density pieces.
A probability level therefore has a whole preimage interval.  One kernel,
``_inverse_cdf``, finds an end of it for each of an array of levels, the
lower or the upper end as flagged per level: it locates the first (lower
end) or last (upper end) piece whose cumulative-mass bracket holds the
level and solves that piece's quadratic ``F(v) = p``.  A preimage, and so
the median set, is one call over ``[p, p]``; point quantiles and sampling
use it too.

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

from dataclasses import dataclass

import numpy as np

from .density import (
    _MEDIAN_ATTAINED_ATOL,
    PiecewiseLinearDensity,
    _stored,
    require_normalized,
)
from .errors import BadProbabilityError
from .evaluate import cdf, cdf_table

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


def _inverse_cdf(d: PiecewiseLinearDensity, p, upper) -> np.ndarray:
    """Ends of ``{x : F(x) = p}``, elementwise over ``p``: the upper
    (supremum) end where ``upper`` is true, else the lower (infimum) end.

    ``upper`` is one flag for every level or an array of flags, one per
    level, so a single call over ``[p, p]`` solves both ends of a preimage.
    ``upper=False`` skips the upper-end steps altogether.
    """
    c = d.breakpoints
    table = cdf_table(d).cumulative
    mass = table[-1]
    p = np.minimum(p, mass)
    key = p
    if upper is not False:
        # The last piece starting at or below p (searchsorted side="right")
        # is the last one starting strictly below the next float above p.
        key = np.where(upper, np.nextafter(p, np.inf), p)
    # Counting F(c_1) ... F(c_n) below the key gives j, in 0 ... n, directly.
    j = table[1:-1].searchsorted(key)
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
    x = lo + np.minimum(np.where(q <= 0.0, 0.0, h), w)
    if upper is not False:
        x = np.where(upper & (p >= min(mass, 1.0)), c[-1], x)
    return x


_BOTH_ENDS = np.array([False, True])


def _preimage_ends(d: PiecewiseLinearDensity, p: float) -> list[float]:
    """``[lower, upper]`` ends of ``{x : F(x) = p}``, from one solve."""
    return _inverse_cdf(d, (p, p), _BOTH_ENDS).tolist()


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
    lower, upper = _preimage_ends(d, p)
    return QuantilePreimage(lower=lower, upper=upper, p=p)


def quantile(d: PiecewiseLinearDensity, p: float, rule: str = "inf") -> float:
    """One point of the preimage: its infimum, supremum, or midpoint.

    ``inf`` and ``sup`` solve only the end they return.
    """
    if rule not in QUANTILE_RULES:
        raise ValueError(f"rule must be one of {QUANTILE_RULES}")
    p = _checked_level(d, p)
    if rule == "mid":
        lower, upper = _preimage_ends(d, p)
        return lower / 2.0 + upper / 2.0
    return float(_inverse_cdf(d, p, rule == "sup"))


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
    f_lower, f_upper = cdf(d, [pre.lower, pre.upper]).tolist()
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
    return _inverse_cdf(d, u, False)
