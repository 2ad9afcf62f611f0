"""Core data model for piecewise-linear probability densities.

A density is described by breakpoints ``c_0 <= c_1 <= ... <= c_{n+1}`` and,
for each piece ``(c_i, c_{i+1})``, the one-sided limits ``R_i`` (approached
from the right at ``c_i``) and ``L_{i+1}`` (approached from the left at
``c_{i+1}``).  The density is linear on each open piece, may jump at
breakpoints, and vanishes outside ``[c_0, c_{n+1}]``; the outer limits
``L_0 = 0`` and ``R_{n+1} = 0`` are implicit and never stored.

The continuous special case, where left limit, right limit, and point value
coincide at every breakpoint, is :class:`PolygonalDensity` with vertex
heights ``H_i`` (``H_0 = H_{n+1} = 0``).

Total probability in trapezoid-area form is

    sum_i (R_i + L_{i+1}) (c_{i+1} - c_i) / 2

and a density is considered normalized when that mass is 1 within
``NORMALIZATION_RTOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DensityError,
    EmptySupportError,
    LengthMismatchError,
    NegativeValueError,
    NotNondecreasingError,
    NotNormalizedError,
    ZeroMassError,
)

# The package's tolerances, all in one place:
#
# =====================  ======  ==============================================
# NORMALIZATION_RTOL     1e-9    ``|mass - 1|`` within which a density counts
#                                as normalized
# _MEDIAN_ATTAINED_ATOL  1e-9    ``|F(v) - 1/2|`` within which a median-set end
#                                counts as attained (order_stats.median_set)
# _MODE_RTOL             1e-12   a candidate ties with ``f_sup`` when within
#                                this times ``max(|f_sup|, _MODE_RTOL_FLOOR)``
# _MODE_RTOL_FLOOR       1e-300  that scale's floor, so ``f_sup = 0`` still ties
# =====================  ======  ==============================================
NORMALIZATION_RTOL = 1e-9
_MEDIAN_ATTAINED_ATOL = 1e-9
_MODE_RTOL = 1e-12
_MODE_RTOL_FLOOR = 1e-300


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise DensityError(f"{name} must be one-dimensional")
    arr.setflags(write=False)
    return arr


def _check_nonnegative(arr: np.ndarray, name: str) -> None:
    # min and max propagate NaN, so a NaN fails this test as well.
    if arr.size and arr.min() >= 0.0 and arr.max() < math.inf:
        return
    ok = np.isfinite(arr) & (arr >= 0.0)
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        raise NegativeValueError(
            f"{name}[{bad}] = {arr[bad]} (must be finite and >= 0)"
        )


def _unit_of(width: float) -> float:
    """The power of two ``u`` with ``u <= width < 2u``."""
    return math.ldexp(1.0, math.frexp(width)[1] - 1)


@dataclass(frozen=True, eq=False)
class Grid:
    """Support partition ``c_0 <= c_1 <= ... <= c_{n+1}``.

    Coincident breakpoints are allowed here; a
    :class:`PiecewiseLinearDensity` built on such a grid drops the
    zero-length pieces they delimit, so its breakpoints are strictly
    increasing.
    """

    breakpoints: np.ndarray

    def __post_init__(self):
        c = _frozen_array(self.breakpoints, "breakpoints")
        if c.size < 2:
            raise EmptySupportError("need at least two breakpoints")
        # Nondecreasing and finite at both ends means finite throughout; NaN
        # fails the order test.  Non-finite values are reported first.
        if not ((c[1:] >= c[:-1]).all() and -math.inf < c[0] and c[-1] < math.inf):
            if not np.isfinite(c).all():
                raise DensityError("breakpoints must be finite")
            raise NotNondecreasingError("breakpoints must be nondecreasing")
        if not c[0] < c[-1]:
            raise EmptySupportError("support has zero length")
        # In Python floats: numpy would warn on the overflow.
        if float(c[-1]) - float(c[0]) == math.inf:
            raise DensityError("support width overflows")
        object.__setattr__(self, "breakpoints", c)

    @property
    def n(self) -> int:
        """Number of intermediate breakpoints."""
        return self.breakpoints.size - 2

    @property
    def a(self) -> float:
        return float(self.breakpoints[0])

    @property
    def b(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def widths(self) -> np.ndarray:
        c = self.breakpoints
        return c[1:] - c[:-1]

    @property
    def is_strict(self) -> bool:
        c = self.breakpoints
        return bool((c[1:] > c[:-1]).all())


@dataclass(frozen=True, eq=False)
class PiecewiseLinearDensity:
    """General (possibly discontinuous) piecewise-linear density.

    Parameters
    ----------
    grid : Grid
        The breakpoints ``c_0 ... c_{n+1}``.
    right_limits : array, length n+1
        ``right_limits[i] = R_i``, the density just right of ``c_i``; also
        the value at the left end of piece ``i``.
    left_limits : array, length n+1
        ``left_limits[i] = L_{i+1}``, the density just left of ``c_{i+1}``;
        also the value at the right end of piece ``i``.
    point_values : array, length n+2, optional
        Explicit density values at the breakpoints themselves.  When absent,
        evaluation falls back to the ``max{L_i, R_i}`` convention.

    Every instance is canonical: zero-length pieces are dropped at
    construction, so ``breakpoints`` is strictly increasing.  Empty pieces
    carry no mass.  At a merged breakpoint the surviving left limit is the
    leftmost original ``L`` and the surviving right limit the rightmost
    original ``R`` (the limits of the flanking nonempty pieces); a stored
    point value survives as the max over the merged group.

    Values are immutable after construction; all operations on them are
    pure functions, so instances can be shared freely across threads.
    ``summary``, ``median_set`` and the tuple of all 13 orders of
    ``raw_moment`` are computed once per density and stored on it;
    ``mean`` and ``variance`` read the stored summary, and each order of
    ``raw_moment`` reads the stored tuple.  The stored results are
    immutable, so threads may share them too.  A mode set is stored per
    convention only when it has at most 8 loci (``modes._STORED_LOCI``); a
    larger one can hold O(n) loci and is computed on every call, so a
    density holds at most 7 stored results.
    """

    grid: Grid
    right_limits: np.ndarray
    left_limits: np.ndarray
    point_values: np.ndarray | None = None

    def __post_init__(self):
        rr = _frozen_array(self.right_limits, "right_limits")
        ll = _frozen_array(self.left_limits, "left_limits")
        npieces = self.grid.breakpoints.size - 1
        for name, arr in (("right_limits", rr), ("left_limits", ll)):
            if arr.size != npieces:
                raise LengthMismatchError(
                    f"{name} has {arr.size} entries, expected {npieces}"
                )
        _check_nonnegative(rr, "right_limits")
        _check_nonnegative(ll, "left_limits")
        pv = self.point_values
        if pv is not None:
            pv = _frozen_array(pv, "point_values")
            if pv.size != npieces + 1:
                raise LengthMismatchError(
                    f"point_values has {pv.size} entries, expected {npieces + 1}"
                )
            _check_nonnegative(pv, "point_values")
        self._set_canonical(rr, ll, pv)

    def _set_canonical(self, rr, ll, pv) -> None:
        """Store checked, read-only arrays with the zero-length pieces
        dropped (see the class docstring)."""
        c = self.grid.breakpoints
        keep = c[1:] > c[:-1]
        if not keep.all():
            first_of_group = np.concatenate(([True], keep))
            object.__setattr__(
                self, "grid", Grid(self.grid.breakpoints[first_of_group])
            )
            rr = _frozen_array(rr[keep], "right_limits")
            ll = _frozen_array(ll[keep], "left_limits")
            if pv is not None:
                pv = _frozen_array(
                    np.maximum.reduceat(pv, np.flatnonzero(first_of_group)),
                    "point_values",
                )
        object.__setattr__(self, "right_limits", rr)
        object.__setattr__(self, "left_limits", ll)
        object.__setattr__(self, "point_values", pv)
        object.__setattr__(self, "_results", {})

    # Derived data, computed on first use and kept for the instance's life;
    # the public routes to them are raw_mass() and evaluate.cdf_table(), and
    # the cdf and inverse-cdf kernels read _cumulative itself.
    @cached_property
    def _mass(self) -> float:
        return float(
            ((self.right_limits + self.left_limits) * self.grid.widths).sum() / 2.0
        )

    @cached_property
    def _cumulative(self) -> np.ndarray:
        masses = (self.right_limits + self.left_limits) * self.grid.widths / 2.0
        cumulative = np.zeros(masses.size + 1)
        masses.cumsum(out=cumulative[1:])
        cumulative.setflags(write=False)
        return cumulative

    @property
    def breakpoints(self) -> np.ndarray:
        return self.grid.breakpoints

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def support(self) -> tuple[float, float]:
        return (self.grid.a, self.grid.b)

    @property
    def is_normalized(self) -> bool:
        return abs(raw_mass(self) - 1.0) <= NORMALIZATION_RTOL


@dataclass(frozen=True, eq=False)
class PolygonalDensity:
    """Continuous piecewise-linear density given by vertex heights.

    ``heights[i] = H_i`` is the density at ``breakpoints[i]``; the graph is
    the polygon through the vertices, so ``H_0 = H_{n+1} = 0`` is required
    for continuity with the zero density outside the support.
    """

    grid: Grid
    heights: np.ndarray

    def __post_init__(self):
        h = _frozen_array(self.heights, "heights")
        if h.size != self.grid.breakpoints.size:
            raise LengthMismatchError(
                f"heights has {h.size} entries, expected {self.grid.breakpoints.size}"
            )
        _check_nonnegative(h, "heights")
        if h[0] != 0.0 or h[-1] != 0.0:
            raise NegativeValueError(
                "outer heights must be 0 (density vanishes outside the support)"
            )
        object.__setattr__(self, "heights", h)

    @property
    def breakpoints(self) -> np.ndarray:
        return self.grid.breakpoints

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def is_normalized(self) -> bool:
        return abs(raw_mass(promote(self)) - 1.0) <= NORMALIZATION_RTOL


def _normalized_polygon(breakpoints, raw_heights, no_mass_message: str):
    """The polygon through ``raw_heights`` scaled to mass one by the factor
    ``k = 2 / sum_i H'_i (c_{i+1} - c_{i-1})``, its terms in units of the
    largest one's power of two, where none overflows or underflows."""
    grid = Grid(breakpoints)
    hm, he = np.frexp(np.asarray(raw_heights, dtype=float))
    sm, se = np.frexp(grid.breakpoints[2:] - grid.breakpoints[:-2])
    terms, exponents = hm[1:-1] * sm, he[1:-1] + se
    top = exponents.max(where=terms > 0.0, initial=-4096)  # below every exponent
    vertex_sum = float(np.ldexp(terms, exponents - top).sum())
    if not vertex_sum > 0.0:
        raise ZeroMassError(no_mass_message)
    with np.errstate(over="ignore"):  # PolygonalDensity refuses an inf height
        heights = np.ldexp(2.0 / vertex_sum * hm, he - top)
    return PolygonalDensity(grid, heights)


@dataclass(frozen=True)
class NormalizationReport:
    """Outcome of :func:`normalize`: the raw mass and the factor applied."""

    raw_mass: float
    factor_k: float


def validate(
    breakpoints,
    right_limits,
    left_limits,
    point_values=None,
) -> PiecewiseLinearDensity:
    """Build a density from raw arrays; zero-length pieces drop out.

    Raises the specific :class:`~pwldist.errors.DensityError` subclass
    naming the violated constraint.  The result may be unnormalized; check
    ``is_normalized`` or call :func:`normalize`.
    """
    return PiecewiseLinearDensity(
        Grid(breakpoints), right_limits, left_limits, point_values
    )


def raw_mass(d: PiecewiseLinearDensity) -> float:
    """Integral of the (possibly unnormalized) density over its support.

    Computed once per density as the trapezoid-area sum
    ``sum (R_i + L_{i+1}) w_i / 2``.
    """
    return d._mass


def normalize(
    d: PiecewiseLinearDensity,
) -> tuple[PiecewiseLinearDensity, NormalizationReport]:
    """Scale all limits (and point values) so the total mass becomes 1.

    The factor is ``k = 2 / sum (R'_i + L'_{i+1}) w_i``, identical to
    ``1 / raw_mass``.  Breakpoints are unchanged.
    """
    mass = raw_mass(d)
    if not mass > 0.0:
        raise ZeroMassError("density integrates to zero; nothing to normalize")
    k = 1.0 / mass
    if k == math.inf:  # mass below 2**-1024
        raise ZeroMassError(
            f"cannot normalize mass {mass!r}: 1/mass overflows"
        )
    if k == 0.0:
        raise ZeroMassError("cannot normalize: the mass overflows to inf")
    return scale(d, k), NormalizationReport(raw_mass=mass, factor_k=k)


def promote(p: PolygonalDensity) -> PiecewiseLinearDensity:
    """View a polygonal density as a general one: ``H_i = L_i = R_i``.

    The polygon's heights are already checked and read-only, so the general
    density shares them instead of copying and checking them again.
    """
    h = p.heights
    d = object.__new__(PiecewiseLinearDensity)
    object.__setattr__(d, "grid", p.grid)
    d._set_canonical(h[:-1], h[1:], h)
    return d


def canonicalize(d: PiecewiseLinearDensity) -> PiecewiseLinearDensity:
    """Return ``d``: every density is canonical from construction.

    :class:`PiecewiseLinearDensity` drops zero-length pieces itself, so the
    breakpoints of ``d`` are already strictly increasing.
    """
    return d


def scale(d: PiecewiseLinearDensity, s: float) -> PiecewiseLinearDensity:
    """Multiply all limits and point values by ``s > 0``."""
    if not s > 0.0:
        raise DensityError(f"scale factor must be positive, got {s}")
    pv = None if d.point_values is None else d.point_values * s
    return PiecewiseLinearDensity(
        d.grid, d.right_limits * s, d.left_limits * s, pv
    )


def _stored(d: PiecewiseLinearDensity, key, compute, keep=None):
    """The result stored on ``d`` under ``key`` (hashable), or ``compute(d)``,
    which is never None, stored there unless it raised or ``keep(result)``
    is false."""
    result = d._results.get(key)
    if result is None:
        result = compute(d)
        if keep is None or keep(result):
            d._results[key] = result
    return result


def require_normalized(d: PiecewiseLinearDensity) -> None:
    """Raise NotNormalized unless the mass is 1 within tolerance."""
    mass = raw_mass(d)
    if abs(mass - 1.0) > NORMALIZATION_RTOL:
        raise NotNormalizedError(
            f"density has mass {mass!r}; normalize() it first "
            f"(factor k = {1.0 / mass if mass > 0 else float('inf')!r})"
        )
