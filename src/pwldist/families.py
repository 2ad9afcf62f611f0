"""Triangular and tetragonal (trapezoid-like) density families.

Both families are thin wrappers over :class:`PolygonalDensity` plus
closed-form statistics.  The closed forms are written out independently of
the general piecewise machinery so the two routes can check each other.

The tetragonal density rises linearly from ``a`` to height ``C`` at ``c``,
runs linearly to height ``D`` at ``d``, and falls back to zero at ``b``.
Normalization requires C(d - a) + D(b - c) = 2.  A convenient
reparameterization uses a weight ``w`` in [0, 1]:

    C = 2w / [w(d - a) + (1 - w)(b - c)]
    D = 2(1 - w) / [same denominator]

so w <-> C/(C + D), and alpha = w/(1 - w) = C/D when w < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .density import (
    NORMALIZATION_RTOL, PolygonalDensity, _normalized_polygon, _unit_of,
)
from .errors import (
    BadOrderError,
    BadProbabilityError,
    NegativeValueError,
    NotNormalizedError,
    ZeroMassError,
)

def _require_order(*values: float) -> None:
    for left, right in zip(values, values[1:]):
        if not (math.isfinite(left) and math.isfinite(right)):
            raise BadOrderError("parameters must be finite")
        if left > right:
            raise BadOrderError(
                f"parameters must be nondecreasing, got {left} > {right}"
            )
    if not values[0] < values[-1]:
        raise BadOrderError("support must have positive length")
    if values[-1] - values[0] == math.inf:
        raise BadOrderError("support width overflows")


@dataclass(frozen=True)
class TriangularParams:
    """Triangular density on [a, b] with apex at c (a <= c <= b, a < b)."""

    a: float
    c: float
    b: float

    def __post_init__(self):
        _require_order(self.a, self.c, self.b)

    @property
    def apex_height(self) -> float:
        return 2.0 / (self.b - self.a)


@dataclass(frozen=True)
class TetragonalParams:
    """Tetragonal density on [a, b] with plateau edges c, d and heights C, D.

    ``left_height`` is the density value at c, ``right_height`` at d.  The
    params may be unnormalized; operations that need normalization check
    C(d - a) + D(b - c) = 2 themselves.
    """

    a: float
    c: float
    d: float
    b: float
    left_height: float
    right_height: float

    def __post_init__(self):
        _require_order(self.a, self.c, self.d, self.b)
        for name in ("left_height", "right_height"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise NegativeValueError(f"{name} must be finite and >= 0")
        if self.left_height == 0.0 and self.right_height == 0.0:
            raise ZeroMassError("at least one height must be positive")

    @property
    def weight(self) -> float:
        """Left-side weight w = C/(C + D)."""
        return self.left_height / (self.left_height + self.right_height)

    @property
    def alpha(self) -> float:
        """Height ratio alpha = w/(1 - w) = C/D; infinite when D = 0."""
        if self.right_height == 0.0:
            return math.inf
        return self.left_height / self.right_height

    @property
    def normalization_defect(self) -> float:
        """C(d - a) + D(b - c) - 2; zero for a normalized density."""
        return (
            self.left_height * (self.d - self.a)
            + self.right_height * (self.b - self.c)
            - 2.0
        )


class TriangularStats(NamedTuple):
    mean: float
    variance: float
    median: float
    mode: float


class TetragonalStats(NamedTuple):
    mean: float
    variance: float
    median: float
    modes: tuple[float, ...]


def triangular(a: float, c: float, b: float) -> PolygonalDensity:
    """Normalized triangular density with apex height 2/(b - a).

    Degenerate apexes (c = a or c = b) keep the three-point grid; the
    zero-width piece drops out when the polygon is promoted to a general
    density.
    """
    params = TriangularParams(float(a), float(c), float(b))
    return _normalized_polygon(
        [params.a, params.c, params.b], [0.0, 1.0, 0.0], "triangle has no mass"
    )


def tetragonal(
    a: float, c: float, d: float, b: float, left_height: float, right_height: float
) -> PolygonalDensity:
    """Normalized tetragonal density from raw (unnormalized) edge heights.

    The raw heights are scaled by k = 2/[C'(d - a) + D'(b - c)] so the
    result integrates to one.
    """
    params = TetragonalParams(
        float(a), float(c), float(d), float(b),
        float(left_height), float(right_height),
    )
    return _normalized_polygon(
        [params.a, params.c, params.d, params.b],
        [0.0, params.left_height, params.right_height, 0.0],
        "raw heights integrate to zero over this support",
    )


def tetragonal_from_weight(
    a: float, c: float, d: float, b: float, w: float
) -> PolygonalDensity:
    """Normalized tetragonal density from the weight parameterization."""
    w = float(w)
    if not (math.isfinite(w) and 0.0 <= w <= 1.0):
        raise BadProbabilityError(f"weight must lie in [0, 1], got {w}")
    points = [float(a), float(c), float(d), float(b)]
    _require_order(*points)
    return _normalized_polygon(
        points, [0.0, w, 1.0 - w, 0.0],
        "degenerate geometry: weight denominator is zero",
    )


def triangular_stats(params: TriangularParams) -> TriangularStats:
    """Closed-form mean, variance, median, and mode of a triangular density.

    The median uses the sign-unified formula

        v = (a + b)/2 + ({(b - a)[b - a + |2c - a - b|]}^(1/2) + a - b)/2
            * sign(2c - a - b)

    which reduces to the familiar per-side square-root expressions and to
    (a + b)/2 at the symmetric point.
    """
    a, c, b = params.a, params.c, params.b
    # a moved to 0, lengths in units of a power of two u <= b - a < 2u
    # (exact), where no sum or square overflows.
    u = _unit_of(b - a)
    cs, bs = (c - a) / u, (b - a) / u
    mean = a + (bs + cs) / 3.0 * u
    variance = (bs * bs + cs * cs - bs * cs) / 18.0 * u * u
    t = 2.0 * cs - bs
    sign = int(t > 0.0) - int(t < 0.0)
    root = math.sqrt(bs * (bs + abs(t)))
    median = a + (bs + (root - bs) * sign) / 2.0 * u
    return TriangularStats(mean=mean, variance=variance, median=median, mode=c)


def tetragonal_mean_alpha(params: TetragonalParams) -> float:
    """Tetragonal mean via the alpha = w/(1 - w) form; needs w < 1.

    Numerator and denominator are divided by max(alpha, 1): the weights
    (alpha, 1) become (1, D/C) when C > D, so alpha = C/D never overflows.
    """
    big_c, big_d = params.left_height, params.right_height
    if big_d == 0.0:
        raise ZeroMassError("alpha form needs right_height > 0 (w < 1)")
    lw, rw = (1.0, big_d / big_c) if big_c > big_d else (big_c / big_d, 1.0)
    # a moved to 0, lengths in units of a power of two u <= b - a < 2u.
    u = _unit_of(params.b - params.a)
    cs, ds, bs = ((x - params.a) / u for x in (params.c, params.d, params.b))
    num = lw * ds * (cs + ds) + rw * (bs - cs) * (bs + cs + ds)
    return params.a + num / (lw * ds + rw * (bs - cs)) / 3.0 * u


def _tetragonal_median(params: TetragonalParams) -> float:
    """Six-case tetragonal median.

    Boundary cases use weak floating-point equality on purpose: C(c - a) = 1
    returns exactly c, D(b - d) = 1 returns exactly d, with no tolerance
    window.  The outer pieces take the square root of a squared length in
    units of ``u * u``, ``u`` a power of two near ``b - a``, where it cannot
    overflow; the middle piece takes the one stable root of its quadratic.
    """
    a, c, d, b = params.a, params.c, params.d, params.b
    big_c, big_d = params.left_height, params.right_height
    u = _unit_of(b - a)
    left_mass2, right_mass2 = big_c * (c - a), big_d * (b - d)
    if left_mass2 > 1.0:
        return a + math.sqrt((c - a) / u / (big_c * u)) * u
    if left_mass2 == 1.0:
        return c
    if right_mass2 > 1.0:
        return b - math.sqrt((b - d) / u / (big_d * u)) * u
    if right_mass2 == 1.0:
        return d
    if big_c == big_d:
        return 1.0 / (2.0 * big_c) + (a / 2.0 + c / 2.0)
    if d == c:  # each half holds 1/2 to within the normalization tolerance
        return c
    # Middle piece, C != D: solve the quadratic in t = v - c,
    #   (D - C) t^2 + 2C(d - c) t + (d - c)[C(c - a) - 1] = 0,
    # obtained from F(c) + C t + (D - C) t^2 / (2(d - c)) = 1/2.  Here
    # qc <= 0 <= qb, so the stable root below is the one with t >= 0.
    qa, qb = big_d - big_c, 2.0 * big_c * (d - c)
    qc = (d - c) * (left_mass2 - 1.0)
    t = -2.0 * qc / (qb + math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0)))
    return c + min(t, d - c)


def tetragonal_stats(params: TetragonalParams) -> TetragonalStats:
    """Closed-form mean, variance, median, and mode set; needs normalization.

    Modes follow the height trichotomy: C > D gives c, C < D gives d, and
    C = D gives both plateau edges, which are one mode when c = d.
    """
    if abs(params.normalization_defect) > NORMALIZATION_RTOL:
        raise NotNormalizedError(
            "tetragonal params are not normalized: "
            f"C(d - a) + D(b - c) = {params.normalization_defect + 2.0!r}"
        )
    a, c, d, b = params.a, params.c, params.d, params.b
    big_c, big_d = params.left_height, params.right_height
    # Mean and variance: a moved to 0, lengths in units of a power of two
    # u <= b - a < 2u and heights times u (exact), where nothing overflows.
    u = _unit_of(b - a)
    cs, ds, bs = (c - a) / u, (d - a) / u, (b - a) / u
    cu, du = big_c * u, big_d * u
    mu = (cu * ds * (cs + ds) + du * (bs - cs) * (bs + cs + ds)) / 6.0
    mean = a + mu * u
    variance = (
        cu * ds * (
            cs * cs + ds * ds + cs * ds - 4.0 * mu * (cs + ds) + 6.0 * mu * mu
        )
        + du * (bs - cs) * (
            bs * bs + cs * cs + ds * ds + bs * cs + bs * ds + cs * ds
            - 4.0 * mu * (bs + cs + ds) + 6.0 * mu * mu
        )
    ) / 12.0 * u * u
    median = _tetragonal_median(params)
    if big_c == big_d:
        modes: tuple[float, ...] = (c, d) if c < d else (c,)
    else:
        modes = (c,) if big_c > big_d else (d,)
    return TetragonalStats(mean=mean, variance=variance, median=median, modes=modes)
