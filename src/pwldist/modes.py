"""Mode sets for possibly discontinuous piecewise-linear densities.

A discontinuous density need not attain its supremum, so "the mode" splits
into a supremum value ``f_sup`` and a set of loci that realize it.  Four
conventions fix which values compete for the supremum:

======================  ==============================================
point_and_limits        point values f(c_i) and both one-sided limits
point_and_mean_limits   point values and the limit means (L_i + R_i)/2
limits_only             one-sided limits only (the default)
mean_limits_only        limit means only
======================  ==============================================

The implicit outer limits L_0 = 0 and R_{n+1} = 0 take part.  Because the
density is linear inside pieces, interior values never exceed the piece's
endpoint limits and breakpoint scanning suffices.

Loci kinds: ``point`` (the breakpoint itself; also used when both one-sided
limits reach the supremum, which is the continuous situation), ``left-limit``
and ``right-limit`` (c_i -+ 0, supremum approached from one side only),
``half-half`` (the pair of half-weighted one-sided points at a breakpoint
whose limit mean attains the supremum), and ``open-interval`` (a plateau
piece with R_i = L_{i+1} = f_sup).  Plateaus are emitted for every piece,
including the outermost ones; this extends the source convention, which
confines them to interior pieces, because the same argument applies.

Equality against f_sup uses a relative tolerance of 1e-12
(``density._MODE_RTOL``, with a scale floor of 1e-300) to absorb rounding
in normalized heights.

A mode set with at most ``_STORED_LOCI`` (8) loci is stored on the density
per convention, so a repeat :func:`mode_set` call returns the same object.
A larger set (a flat density has one locus or more per breakpoint) is
computed on every call, so a density keeps O(1) stored results.
``f_sup`` is not stored; it is computed on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import (
    _MODE_RTOL,
    _MODE_RTOL_FLOOR,
    PiecewiseLinearDensity,
    PolygonalDensity,
    _stored,
)
from .evaluate import breakpoint_values

CONVENTIONS = (
    "point_and_limits",
    "point_and_mean_limits",
    "limits_only",
    "mean_limits_only",
)

DEFAULT_CONVENTION = "limits_only"

# The most loci a mode set may hold and still be stored on its density.
_STORED_LOCI = 8


@dataclass(frozen=True)
class ModeLocus:
    """One mode location.

    ``kind`` is one of ``point``, ``left-limit``, ``right-limit``,
    ``half-half``, ``open-interval``; ``position`` is the breakpoint (or
    the plateau's left end) and ``position2`` the plateau's right end.
    """

    kind: str
    position: float
    position2: float | None = None


@dataclass(frozen=True)
class ModeSet:
    f_sup: float
    convention: str
    loci: tuple[ModeLocus, ...]


def _padded_limits(d: PiecewiseLinearDensity):
    left_full = np.concatenate(([0.0], d.left_limits))
    right_full = np.concatenate((d.right_limits, [0.0]))
    return left_full, right_full


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")


def _candidate_values(d: PiecewiseLinearDensity, convention: str):
    left_full, right_full = _padded_limits(d)
    use_points = convention in ("point_and_limits", "point_and_mean_limits")
    use_limits = convention in ("point_and_limits", "limits_only")
    use_means = convention in ("point_and_mean_limits", "mean_limits_only")
    pv = breakpoint_values(d, "given") if use_points else None
    means = (left_full + right_full) / 2.0 if use_means else None
    return left_full, right_full, pv, means, use_limits


def _supremum(left_full, right_full, pv, means, use_limits) -> float:
    best = 0.0
    if use_limits:
        best = max(best, float(left_full.max()), float(right_full.max()))
    if pv is not None:
        best = max(best, float(pv.max()))
    if means is not None:
        best = max(best, float(means.max()))
    return best


def f_sup(d: PiecewiseLinearDensity, convention: str = DEFAULT_CONVENTION) -> float:
    """Supremum density value under the given convention."""
    _check_convention(convention)
    return _supremum(*_candidate_values(d, convention))


def _near(values: np.ndarray, sup: float) -> np.ndarray:
    """Elementwise ``values == sup`` within the relative tolerance."""
    return np.abs(values - sup) <= _MODE_RTOL * max(abs(sup), _MODE_RTOL_FLOOR)


def mode_set(
    d: PiecewiseLinearDensity, convention: str = DEFAULT_CONVENTION
) -> ModeSet:
    """All loci realizing f_sup under the convention, in support order.

    The candidate tests run as masks over all breakpoints; only the
    breakpoints that some test hits are visited to emit their loci, in the
    order limit locus, point-value locus, ``half-half``, ``open-interval``.
    A set of at most ``_STORED_LOCI`` loci is stored on ``d``.
    """
    _check_convention(convention)
    convention = str(convention)  # a numpy string shares the entry
    return _stored(
        d, ("mode_set", convention), lambda d: _mode_set(d, convention),
        keep=_is_small,
    )


def _is_small(ms: ModeSet) -> bool:
    return len(ms.loci) <= _STORED_LOCI


def _mode_set(d: PiecewiseLinearDensity, convention: str) -> ModeSet:
    candidates = _candidate_values(d, convention)
    left_full, right_full, pv, means, use_limits = candidates
    sup = _supremum(*candidates)
    c = d.breakpoints
    missed = np.zeros(c.size, dtype=bool)
    l_near, r_near = _near(left_full, sup), _near(right_full, sup)
    l_hit = l_near if use_limits else missed
    r_hit = r_near if use_limits else missed
    both = l_hit & r_hit
    pv_hit = _near(pv, sup) & ~both if pv is not None else missed
    mean_hit = _near(means, sup) if means is not None else missed
    # Piece i is a plateau when R_i and L_{i+1} both attain the supremum.
    plateau = missed.copy()
    plateau[:-1] = r_near[:-1] & l_near[1:]
    loci: list[ModeLocus] = []
    for i in np.flatnonzero(l_hit | r_hit | pv_hit | mean_hit | plateau).tolist():
        pos = float(c[i])
        if both[i]:
            loci.append(ModeLocus("point", pos))
        elif l_hit[i]:
            loci.append(ModeLocus("left-limit", pos))
        elif r_hit[i]:
            loci.append(ModeLocus("right-limit", pos))
        if pv_hit[i]:
            loci.append(ModeLocus("point", pos))
        if mean_hit[i]:
            loci.append(ModeLocus("half-half", pos))
        if plateau[i]:
            loci.append(ModeLocus("open-interval", pos, float(c[i + 1])))
    return ModeSet(f_sup=sup, convention=convention, loci=tuple(loci))


def mode_set_continuous(p: PolygonalDensity) -> ModeSet:
    """Modes of a continuous density: argmax vertices and plateau pieces.

    The maximum runs over the interior vertices; adjacent argmax vertices
    are joined by their plateau piece, so a maximal run of them reads as a
    closed interval (its endpoints are the point loci).  Argmax vertices on
    coincident breakpoints are one point, with no zero-length plateau.
    """
    h = p.heights
    c = p.breakpoints
    fmax = float(h[1:-1].max()) if h.size > 2 else 0.0
    hit = np.zeros(c.size, dtype=bool)
    hit[1:-1] = _near(h[1:-1], fmax)
    # A plateau joins two hit vertices; on a zero-length piece they are one.
    empty = c[1:] == c[:-1]
    point = hit.copy()
    point[1:] &= ~(hit[:-1] & empty)
    plateau = np.append(hit[:-1] & hit[1:] & ~empty, False)
    loci: list[ModeLocus] = []
    for i in np.flatnonzero(point | plateau).tolist():
        if point[i]:
            loci.append(ModeLocus("point", float(c[i])))
        if plateau[i]:
            loci.append(ModeLocus("open-interval", float(c[i]), float(c[i + 1])))
    return ModeSet(f_sup=fmax, convention="continuous", loci=tuple(loci))
