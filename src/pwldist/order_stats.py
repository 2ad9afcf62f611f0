"""Median sets, quantile preimages, point quantiles, and sampling.

The CDF of a piecewise-linear density is continuous and nondecreasing but
not necessarily strictly increasing: it is flat across zero-density pieces.
A probability level therefore has a whole preimage interval.  One kernel,
``_inverse_cdf``, finds either end of it for an array of levels: it locates
the first (lower end) or last (upper end) piece whose cumulative-mass
bracket holds the level and solves that piece's quadratic ``F(v) = p``.
Preimages, point quantiles, the median set, and sampling all use it.

The level is first clamped to the total mass, which may fall short of 1 by
up to ``NORMALIZATION_RTOL``; the search then always ends on a piece of
positive mass, so no zero-mass piece is ever solved in.  The lower end is
``c_0`` at ``p = 0``, and the upper end is ``c_{n+1}`` once ``p`` reaches
the total mass or 1.

Restricted to piece j, with ``h = v - c_j``, ``w`` the piece width, and
``q = p - F(c_j)`` the mass still needed,

    alpha h^2 + beta h - q = 0,   alpha = (L_{j+1} - R_j) / (2w),  beta = R_j.

When ``|alpha| <= 1e-14 |beta|`` the linear solution ``h = q / beta`` is
used; otherwise ``h = 2q / (beta + sqrt(beta^2 + 4 alpha q))``, which is the
root selected by the standard stable formula (divide the constant term by
``-(beta + sign(beta) sqrt(disc)) / 2``) and is the one inside ``[0, w]``:
within a positive-mass piece the density is strictly positive on the open
piece, so F restricted to it is strictly increasing and the root is unique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import PiecewiseLinearDensity, require_normalized
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


def _inverse_cdf(d: PiecewiseLinearDensity, p, side: str) -> np.ndarray:
    """Lower (infimum) or upper (supremum) end of ``{x : F(x) = p}``.

    Elementwise over ``p``; ``side`` is ``"lower"`` or ``"upper"``.
    """
    c = d.breakpoints
    table = cdf_table(d).cumulative
    mass = table[-1]
    p = np.minimum(np.asarray(p, dtype=float), mass)
    j = np.searchsorted(table, p, side="left" if side == "lower" else "right")
    j = np.clip(j - 1, 0, c.size - 2)
    w = c[j + 1] - c[j]
    beta = d.right_limits[j]
    alpha = (d.left_limits[j] - beta) / (2.0 * w)
    q = p - table[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        h_lin = q / beta
        disc = np.maximum(beta * beta + 4.0 * alpha * q, 0.0)
        h_quad = 2.0 * q / (beta + np.sqrt(disc))
    h = np.where(np.abs(alpha) <= 1e-14 * np.abs(beta), h_lin, h_quad)
    h = np.where(q <= 0.0, 0.0, h)
    x = c[j] + np.clip(h, 0.0, w)
    if side == "upper":
        x = np.where(p >= min(mass, 1.0), c[-1], x)
    return x


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
    lower = float(_inverse_cdf(d, p, "lower"))
    upper = float(_inverse_cdf(d, p, "upper"))
    return QuantilePreimage(lower=lower, upper=upper, p=p)


def quantile(d: PiecewiseLinearDensity, p: float, rule: str = "inf") -> float:
    """One point of the preimage: its infimum, supremum, or midpoint.

    ``inf`` and ``sup`` solve only the end they return.
    """
    if rule not in QUANTILE_RULES:
        raise ValueError(f"rule must be one of {QUANTILE_RULES}")
    if rule == "mid":
        pre = quantile_preimage(d, p)
        return (pre.lower + pre.upper) / 2.0
    p = _checked_level(d, p)
    return float(_inverse_cdf(d, p, "lower" if rule == "inf" else "upper"))


def median_set(d: PiecewiseLinearDensity) -> MedianSet:
    """All medians: the closed interval where F equals 1/2.

    A nondegenerate interval appears exactly when the density vanishes
    almost everywhere between the endpoints.  F is continuous here, so the
    endpoints themselves always satisfy F = 1/2; the flags record that the
    bounds are attained, checked against the computed CDF.
    """
    pre = quantile_preimage(d, 0.5)
    min_attained = bool(abs(cdf(d, pre.lower) - 0.5) <= 1e-9)
    max_attained = bool(abs(cdf(d, pre.upper) - 0.5) <= 1e-9)
    return MedianSet(
        v_min=pre.lower,
        v_max=pre.upper,
        min_attained=min_attained,
        max_attained=max_attained,
    )


def sample(d: PiecewiseLinearDensity, uniforms) -> np.ndarray:
    """Inverse-transform samples for caller-supplied uniforms in [0, 1).

    ``out[i] = quantile(d, uniforms[i], rule="inf")``, vectorized; the
    engine owns no randomness, so identical inputs give identical outputs.
    """
    u = np.asarray(uniforms, dtype=float)
    if u.size and (np.any(u < 0.0) or np.any(u >= 1.0) or not np.all(np.isfinite(u))):
        raise BadProbabilityError("uniform variates must lie in [0, 1)")
    require_normalized(d)
    return _inverse_cdf(d, u, "lower")
