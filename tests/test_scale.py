"""Scale-free statistics: moving to units of a power of two is exact.

Scaling the breakpoints by ``2**k`` and the heights by ``2**-k`` keeps every
piece mass, so the shape statistics must not change by a single bit, and
locations and spreads must scale by ``2**k`` and ``4**k`` exactly, for every
k the float range allows.  The families' closed forms and the polygon
builders must do the same.
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


def _check_scaled_moments(d, ds, k):
    """``ds`` is ``d`` scaled by ``2**k``: summary, mean, variance and raw
    moments scale exactly, and are inf exactly where the scaled value
    overflows."""
    s, ss = pw.summary(d), pw.summary(ds)
    assert _same_bits(ss.skewness, s.skewness)
    assert _same_bits(ss.excess, s.excess)
    assert ss.mass == s.mass
    assert _same_bits(ss.mean, math.ldexp(s.mean, k))
    assert _same_bits(pw.mean(ds), math.ldexp(pw.mean(d), k))
    for got, value, factor in ((ss.variance, s.variance, 2 * k), (ss.std, s.std, k),
                               (pw.variance(ds), pw.variance(d), 2 * k)):
        scaled = _ldexp(value, factor)
        if _normal(scaled) or math.isinf(scaled):
            assert _same_bits(got, scaled)
    for m in range(pw.MAX_MOMENT_ORDER + 1):
        scaled = _ldexp(pw.raw_moment(d, m), m * k)
        if _normal(scaled) or math.isinf(scaled):
            assert _same_bits(pw.raw_moment(ds, m), scaled)


@given(densities(), EXPONENTS)
def test_summary_is_scale_equivariant(d, k):
    if d is None:
        return
    _check_scaled_moments(d, _scaled(d, k), k)
    # As far up as the scaling stays exact: supports up to 2**1024 wide, or
    # breakpoints up to 2**1024 far out.  Heights there may sit at the
    # bottom of the normal floats; the moment kernel multiplies them by the
    # unit before any other product, so no term rounds to a subnormal.
    top = top_exponent(d)
    _check_scaled_moments(d, _scaled(d, top), top)


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
    if p.right_height > 0.0:
        mean = pw.tetragonal_mean_alpha(p)
        assert pw.tetragonal_mean_alpha(scaled) == math.ldexp(mean, k)


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


# Apexes at a, at the midpoint and at b of [0, b]: apex / b, median / b and
# skewness.
APEXES = [
    (0.0, 1.0 - math.sqrt(0.5), 0.4 * math.sqrt(2.0)),
    (0.5, 0.5, 0.0),
    (1.0, math.sqrt(0.5), -0.4 * math.sqrt(2.0)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "b",
    [1e-300, 1e-160, 1e-100, 1e-80, 1.0, 1e77, 1e100, 1e154, 1.5e154, 1e200, 1e300, 1.7e308],
)
def test_wide_and_narrow_triangles(b):
    # triangular(0, c, b): mean (b + c)/3, excess -0.6, variance
    # (b^2 + c^2 - bc)/18.
    for apex, median, skewness in APEXES:
        c = apex * b
        fb, fc = Fraction(b), Fraction(c)
        mean = float((fb + fc) / 3)
        variance = _float_or_inf((fb * fb + fc * fc - fb * fc) / 18)
        p = pw.triangular(0.0, c, b)
        s = pw.summary(pw.promote(p))
        assert s.skewness == pytest.approx(skewness, abs=1e-14)
        assert s.excess == pytest.approx(-0.6, rel=1e-14)
        t = pw.triangular_stats(pw.TriangularParams(0.0, c, b))
        assert t.mean == pytest.approx(mean, rel=1e-15)
        assert t.median == pytest.approx(median * b, rel=1e-15)
        if apex == 0.5:
            assert t.median == b / 2.0
        assert pw.mean_polygonal(p) == pytest.approx(mean, rel=1e-14)
        for got in (s.variance, t.variance, pw.variance_polygonal(p)):
            if _normal(variance):
                assert got == pytest.approx(variance, rel=1e-14)
            else:
                assert got == pytest.approx(variance, abs=1e-320)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "b", [1e-300, 1e-305, 1e-307, 5e-308, 3e-308, sys.float_info.min, 2e-308]
)
def test_tiny_pieces_near_the_origin(b):
    # Heights near 1/b, up to 5e307: every moment must stay finite.
    def density(w):
        d = pw.validate([0.0, w / 3.0, w], [0.25 / w, 0.5 / w], [1.0 / w, 0.25 / w])
        return pw.normalize(d)[0]

    d = density(b)
    s = pw.summary(d)
    for x in (pw.mean(d), pw.variance(d), *vars(s).values()):
        assert math.isfinite(x)
    assert 0.0 < s.mean < b
    # The shape does not depend on b, up to b / 3 rounding in subnormals.
    one = pw.summary(density(1.0))
    assert s.skewness == pytest.approx(one.skewness, rel=1e-12)
    assert s.excess == pytest.approx(one.excess, rel=1e-12)


BUILDERS = {
    "triangular": lambda c, h: pw.triangular(*c),
    "tetragonal": lambda c, h: pw.tetragonal(*c, h[1], h[2]),
    "tetragonal_from_weight": lambda c, h: pw.tetragonal_from_weight(
        *c, h[1] / (h[1] + h[2]) if h[1] else 0.0
    ),
    "fit": lambda c, h: pw.fit(pw.FitRequest(c, h)),
}


@st.composite
def builds(draw):
    """A builder, its breakpoints (distinct ticks for ``fit``) and raw
    heights from 0 to 2**10 on a grid of 2**-10, so scaling them is exact."""
    kind = draw(st.sampled_from(sorted(BUILDERS)))
    size = {"triangular": 3, "fit": draw(st.integers(3, 6))}.get(kind, 4)
    ticks = draw(st.lists(TICKS, min_size=size, max_size=size, unique=kind == "fit"))
    points = _points(draw(OFFSETS), draw(st.floats(1e-12, 1e3)), ticks)
    raw = st.integers(0, 2**20).map(lambda t: math.ldexp(t, -10))
    return kind, points, draw(st.lists(raw, min_size=size, max_size=size))


def _build(kind, points, raw):
    """The heights of ``kind``'s polygon as hex strings, or the error type."""
    try:
        return [float(h).hex() for h in BUILDERS[kind](points, raw).heights]
    except pw.DensityError as exc:
        return type(exc)


@given(builds(), EXPONENTS, EXPONENTS)
def test_polygon_builders_are_scale_free(build, k, j):
    # Breakpoints times 2**k and raw heights times 2**j give heights times
    # 2**-k, bit for bit, or the same error.
    kind, points, raw = build
    heights = _build(kind, points, raw)
    scaled = _build(
        kind, [math.ldexp(x, k) for x in points], [math.ldexp(h, j) for h in raw]
    )
    if isinstance(heights, type) or isinstance(scaled, type):
        assert scaled is heights
        return
    for got, h in zip(scaled, heights):
        want = _ldexp(float.fromhex(h), -k)
        if _normal(want) or want == 0.0:
            assert got == want.hex()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "build",
    [
        lambda: pw.tetragonal(0, 1, 2, 3, 1e308, 1e308),
        lambda: pw.tetragonal(0, 1, 2, 3, 1e-320, 1e-320),
        lambda: pw.tetragonal(0, 4e307, 8e307, 1.7e308, 1, 1),
        lambda: pw.tetragonal_from_weight(0, 6e307, 1.2e308, 1.7e308, 0.5),
        lambda: pw.fit(pw.FitRequest([0, 1, 2, 3], [0, 1e308, 1e308, 0])),
        lambda: pw.fit(pw.FitRequest([0, 1, 2, 3], [0, 1e-320, 1e-320, 0])),
        lambda: pw.fit(pw.FitRequest([0, 1e200, 2e200, 3e200], [0, 1e200, 1e200, 0])),
        # A spike about 2**-1029 of the support wide: its term must not underflow.
        lambda: pw.fit(pw.FitRequest([0, 1e-10, 2e-10, 1e300], [0, 1, 0, 0])),
    ],
    ids=["tet-1e308", "tet-1e-320", "tet-wide", "weight-wide", "fit-1e308",
         "fit-1e-320", "fit-1e200", "fit-spike"],
)
def test_builders_at_the_ends_of_the_float_range(build):
    mass = pw.raw_mass(pw.promote(build()))
    assert abs(mass - 1.0) <= 4 * sys.float_info.epsilon


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "build",
    [
        lambda: pw.triangular(0, 0.5e-308, 1e-308),
        lambda: pw.tetragonal(0, 1e-309, 2e-309, 4e-309, 1, 1),
        lambda: pw.tetragonal_from_weight(0, 1e-309, 2e-309, 4e-309, 0.5),
        lambda: pw.fit(pw.FitRequest([0, 1e-309, 2e-309, 3e-309], [0, 1, 1, 0])),
    ],
    ids=["triangular", "tetragonal", "tetragonal_from_weight", "fit"],
)
def test_builders_refuse_heights_beyond_the_float_range(build):
    # Mass one on a support narrower than about 1.1e-308 needs a height
    # above the largest double: one error, no warning.
    with pytest.raises(pw.NegativeValueError, match="= inf"):
        build()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "corners", [(0, 6e307, 1.2e308, 1.7e308), (1e308, 1.1e308, 1.6e308, 1.7e308)]
)
def test_tetragonal_closed_forms_at_the_widest_supports(corners):
    # Equal heights: the median is on the plateau, at the midpoint of a and c
    # plus 1/(2C).
    p = pw.tetragonal_from_weight(*corners, 0.5)
    params = pw.TetragonalParams(*corners, *map(float, p.heights[1:3]))
    d = pw.promote(p)
    assert pw.tetragonal_mean_alpha(params) == pytest.approx(pw.mean(d), rel=1e-14)
    assert pw.tetragonal_stats(params).median == pytest.approx(
        pw.median_set(d).v_min, rel=1e-14
    )
