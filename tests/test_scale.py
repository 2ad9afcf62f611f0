"""Scale-free statistics: moving to units of a power of two is exact.

Scaling the breakpoints by ``2**k`` and the heights by ``2**-k`` keeps every
piece mass, so the shape statistics must not change by a single bit, and
locations and spreads must scale by ``2**k`` and ``4**k`` exactly, for every
k the float range allows.  The families' closed forms must do the same.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pwldist as pw

from oracles import top_exponent

EXPONENTS = st.integers(-900, 900)
OFFSETS = st.sampled_from([0.0, 1.0, -1e6, 1e12, -1e12])
# Positions on a grid of 2**-20 of a width: no subnormal offsets from a.
TICKS = st.integers(0, 2**20)


def _normal(x: float) -> bool:
    return sys.float_info.min <= abs(x) <= sys.float_info.max


def _ldexp(x: float, n: int) -> float:
    """``x * 2**n``, infinite where that overflows."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def _points(offset, width, ticks):
    return [offset + width * math.ldexp(t, -20) for t in sorted(ticks)]


@st.composite
def densities(draw):
    """Normalized densities with coincident breakpoints, zero runs, and a
    mass up to 0.9e-9 from 1."""
    n = draw(st.integers(1, 8))
    width = draw(st.floats(1e-12, 1e3))
    c = _points(draw(OFFSETS), width, draw(st.lists(TICKS, min_size=n + 1, max_size=n + 1)))
    limits = st.lists(
        st.floats(0.0, 2.0) | st.just(0.0), min_size=len(c) - 1, max_size=len(c) - 1
    )
    rr, ll = np.array(draw(limits)), np.array(draw(limits))
    mass = float(np.sum((rr + ll) * np.diff(c))) / 2.0
    if not (c[0] < c[-1] and mass > 1e-300):
        return None
    k = (1.0 + draw(st.sampled_from([0.0, -0.9e-9, 0.9e-9]))) / mass
    return pw.validate(c, rr * k, ll * k)


def _scaled(d, k):
    """``d`` with breakpoints times ``2**k`` and limits times ``2**-k``."""
    return pw.validate(
        np.ldexp(d.breakpoints, k),
        np.ldexp(d.right_limits, -k),
        np.ldexp(d.left_limits, -k),
    )


def _same_bits(x: float, y: float) -> bool:
    return repr(x) == repr(y)


def _check_scaled_moments(d, ds, k, rel=0.0):
    """``ds`` is ``d`` scaled by ``2**k``: summary, mean, variance and raw
    moments scale exactly, or within ``rel`` (of one, for the shape
    statistics), and are inf exactly where the scaled value overflows."""

    def check(got, scaled, shape=False):
        if rel:
            assert got == pytest.approx(scaled, rel=rel, abs=rel if shape else 0.0)
        else:
            assert _same_bits(got, scaled)

    s, ss = pw.summary(d), pw.summary(ds)
    check(ss.skewness, s.skewness, shape=True)
    check(ss.excess, s.excess, shape=True)
    assert ss.mass == s.mass
    check(ss.mean, math.ldexp(s.mean, k))
    check(pw.mean(ds), math.ldexp(pw.mean(d), k))
    for got, value, factor in ((ss.variance, s.variance, 2 * k), (ss.std, s.std, k),
                               (pw.variance(ds), pw.variance(d), 2 * k)):
        scaled = _ldexp(value, factor)
        if _normal(scaled) or math.isinf(scaled):
            check(got, scaled)
    for m in range(pw.MAX_MOMENT_ORDER + 1):
        scaled = _ldexp(pw.raw_moment(d, m), m * k)
        if _normal(scaled) or math.isinf(scaled):
            check(pw.raw_moment(ds, m), scaled)


@given(densities(), EXPONENTS)
def test_summary_is_scale_equivariant(d, k):
    if d is None:
        return
    _check_scaled_moments(d, _scaled(d, k), k)
    # As far up as the scaling stays exact: supports up to 2**1024 wide, or
    # breakpoints up to 2**1024 far out.  Heights there may sit at the
    # bottom of the normal floats, where an intermediate product can round
    # to a subnormal, so the results agree to about 1e-14, not bit for bit.
    top = top_exponent(d)
    _check_scaled_moments(d, _scaled(d, top), top, rel=1e-13)


def test_uniform_over_most_of_the_float_range():
    # Exact: mean b/2, skewness 0, excess -6/5, and E[X] = mass * b/2.
    b = 1.7e308
    d = pw.validate([0.0, b], [1.0 / b], [1.0 / b])
    mass = pw.raw_mass(d)
    assert pw.raw_moment(d, 0) == mass
    assert pw.mean(d) == b / 2.0
    assert pw.raw_moment(d, 1) == pytest.approx(mass * (b / 2.0), rel=1e-15)
    assert pw.raw_moment(d, 2) == math.inf
    s = pw.summary(d)
    assert (s.mean, s.skewness, s.variance) == (b / 2.0, 0.0, math.inf)
    assert s.excess == pytest.approx(-1.2, rel=1e-15)
    assert s.std == pytest.approx(b / math.sqrt(12.0), rel=1e-15)
    assert pw.mean(pw.validate([0.0, 7e307], [1.0 / 7e307], [1.0 / 7e307])) == 3.5e307


@st.composite
def tetragonal_params(draw):
    """Normalized tetragonal parameters, with c = a, d = c and d = b among them."""
    width = draw(st.floats(1e-12, 1e3))
    a, c, d, b = _points(draw(OFFSETS), width, draw(st.lists(TICKS, min_size=4, max_size=4)))
    w = draw(st.floats(0.0, 1.0) | st.just(0.5))
    denom = w * (d - a) + (1.0 - w) * (b - c)
    if not (a < b and denom > 0.0):
        return None
    return pw.TetragonalParams(a, c, d, b, 2.0 * w / denom, 2.0 * (1.0 - w) / denom)


def _check_scaled_stats(stats, scaled, k):
    assert scaled.mean == math.ldexp(stats.mean, k)
    assert scaled.median == math.ldexp(stats.median, k)
    variance = _ldexp(stats.variance, 2 * k)
    if _normal(variance):
        assert scaled.variance == variance


@given(tetragonal_params(), EXPONENTS)
def test_tetragonal_stats_are_scale_equivariant(params, k):
    if params is None:
        return
    p = params
    scaled = pw.TetragonalParams(
        *(math.ldexp(x, k) for x in (p.a, p.c, p.d, p.b)),
        math.ldexp(p.left_height, -k),
        math.ldexp(p.right_height, -k),
    )
    _check_scaled_stats(pw.tetragonal_stats(p), pw.tetragonal_stats(scaled), k)


@given(OFFSETS, st.floats(1e-12, 1e3), st.lists(TICKS, min_size=3, max_size=3), EXPONENTS)
def test_triangular_stats_are_scale_equivariant(offset, width, ticks, k):
    a, c, b = _points(offset, width, ticks)
    if not a < b:
        return
    stats = pw.triangular_stats(pw.TriangularParams(a, c, b))
    scaled = pw.triangular_stats(
        pw.TriangularParams(*(math.ldexp(x, k) for x in (a, c, b)))
    )
    _check_scaled_stats(stats, scaled, k)


def _float_or_inf(x: Fraction) -> float:
    return math.inf if x > sys.float_info.max else float(x)


@pytest.mark.parametrize(
    "b", [1e-300, 1e-160, 1e-100, 1e-80, 1.0, 1e77, 1e100, 1.5e154, 1e200, 1e300, 1.7e308]
)
def test_wide_and_narrow_triangles(b):
    # triangular(0, b/2, b): skewness 0, excess -0.6, variance b^2 / 24.
    variance = _float_or_inf(Fraction(b) ** 2 / 24)
    s = pw.summary(pw.promote(pw.triangular(0.0, b / 2.0, b)))
    assert s.skewness == pytest.approx(0.0, abs=1e-14)
    assert s.excess == pytest.approx(-0.6, rel=1e-14)
    t = pw.triangular_stats(pw.TriangularParams(0.0, b / 2.0, b))
    assert t.median == b / 2.0
    for got in (s.variance, t.variance):
        if _normal(variance):
            assert got == pytest.approx(variance, rel=1e-14)
        else:
            assert got == pytest.approx(variance, abs=1e-320)
