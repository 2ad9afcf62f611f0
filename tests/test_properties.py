"""Properties over adversarial densities, under the deterministic profile.

The densities have offsets to 1e12 either side of 0, widths from 1e-12 to
1 of the larger of 1 and the offset, runs of zero density, coincident
breakpoints, point values, and a mass up to 0.9e-9 from 1.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pwldist as pw
from oracles import reference_inverse_cdf, reference_mode_set, reference_raw_moment
from pwldist.modes import _STORED_LOCI
from perfbench.exact import ExactDensity

OFFSETS = st.sampled_from([0.0, 1.0, -1e6, 1e12, -1e12])
# Few ticks, so breakpoints often coincide.
TICKS = st.integers(0, 64)


@st.composite
def densities(draw):
    n = draw(st.integers(1, 12))
    offset = draw(OFFSETS)
    width = draw(st.floats(1e-12, 1.0)) * max(1.0, abs(offset))
    ticks = sorted(draw(st.lists(TICKS, min_size=n + 1, max_size=n + 1)))
    c = [offset + width * t / 64 for t in ticks]
    limits = st.lists(st.floats(0.0, 2.0) | st.just(0.0), min_size=n, max_size=n)
    rr, ll = np.array(draw(limits)), np.array(draw(limits))
    start = draw(st.integers(0, n - 1))
    stop = start + draw(st.integers(0, 3))
    rr[start:stop] = ll[start:stop] = 0.0
    pv = draw(st.none() | st.lists(st.floats(0.0, 2.0), min_size=n + 1, max_size=n + 1))
    mass = float(np.sum((rr + ll) * np.diff(c))) / 2.0
    if not (c[0] < c[-1] and mass > 1e-300):
        return None
    k = (1.0 + draw(st.sampled_from([0.0, -0.9e-9, 0.9e-9]))) / mass
    return pw.validate(c, rr * k, ll * k, None if pv is None else np.array(pv) * k)


STORED = [pw.summary, pw.mean, pw.variance, pw.median_set] + [
    (lambda d, m=m: pw.raw_moment(d, m)) for m in range(pw.MAX_MOMENT_ORDER + 1)
]


@given(densities(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
def test_stored_statistics_median_set_and_sample(d, uniforms):
    if d is None:
        return
    # Every stored statistic is bit-equal on the first call and on repeat.
    fresh = pw.validate(d.breakpoints, d.right_limits, d.left_limits, d.point_values)
    for f in STORED:
        first = f(d)
        assert f(d) is first
        assert repr(f(fresh)) == repr(first)
    # The median set is the preimage of 1/2.
    ms, pre = pw.median_set(d), pw.quantile_preimage(d, 0.5)
    assert (ms.v_min, ms.v_max) == (pre.lower, pre.upper)
    # Sampling is the infimum quantile, at random levels and at every
    # cumulative mass, where a flat stretch of the cdf starts.
    table = pw.cdf_table(d).cumulative
    u = np.concatenate((uniforms, table[table < 1.0]))
    expected = [pw.quantile(d, float(x), "inf") for x in u]
    assert pw.sample(d, u).tolist() == expected


@given(densities())
def test_mean_and_variance_error_budget(d):
    if d is None:
        return
    # One stored summary serves mean and variance.
    s = pw.summary(d)
    assert pw.mean(d) is s.mean
    assert pw.variance(d) is s.variance
    # Mean within 4 ulps of max(|a|, |b|), variance within 8 ulps of itself,
    # of the exact moments of f / mass.
    ref = ExactDensity(d.breakpoints, d.right_limits, d.left_limits)
    scale = max(abs(ref.lo), abs(ref.hi))
    assert abs(Fraction(s.mean) - ref.mean) <= 4 * Fraction(math.ulp(scale))
    ulp = Fraction(math.ulp(float(ref.variance)))
    assert abs(Fraction(s.variance) - ref.variance) <= 8 * ulp


@given(densities())
def test_mode_set_matches_the_reference_scan(d):
    if d is None:
        return
    for convention in pw.CONVENTIONS:
        ms = pw.mode_set(d, convention)
        sup, loci = reference_mode_set(d, convention)
        assert ms.f_sup == sup
        assert [(m.kind, m.position, m.position2) for m in ms.loci] == loci
        # A small set is stored: the repeat call returns the same object.
        again = pw.mode_set(d, convention)
        assert (again is ms) == (len(loci) <= _STORED_LOCI)
        assert repr(again) == repr(ms)


@given(densities())
def test_infinities_give_the_limits_and_nan_raises(d):
    if d is None:
        return
    # The cdf's total mass is its prefix table's last entry; the pairwise
    # raw_mass sums the same pieces in another order.
    mass = float(pw.cdf_table(d).cumulative[-1])
    assert math.isclose(mass, pw.raw_mass(d), rel_tol=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rule in ("given", "max", "mean"):
            assert pw.pdf(d, -math.inf, rule) == 0.0
            assert pw.pdf(d, math.inf, rule) == 0.0
            assert pw.pdf(d, [-math.inf, math.inf], rule).tolist() == [0.0, 0.0]
        assert pw.cdf(d, -math.inf) == 0.0
        assert pw.cdf(d, math.inf) == mass == pw.cdf(d, d.support[1])
        assert pw.cdf(d, [-math.inf, math.inf]).tolist() == [0.0, mass]
    for f in (pw.pdf, pw.cdf):
        for x in (math.nan, [0.0, math.nan]):
            with pytest.raises(pw.OutOfSupportError):
                f(d, x)


# Levels where the preimage ends meet the ends of the support or the float
# grid below 1, besides 1/2 for the median set.
LEVELS = [-0.0, 0.0, 0.5, 1.0, 1.0 - 2.0**-53]


def _same(x, y) -> bool:
    """Bit-equal Python floats: ``repr`` tells ``-0.0`` from ``0.0``, and a
    numpy scalar from a float."""
    return repr(x) == repr(y)


def _scaled(d, k):
    """``d`` with breakpoints times ``2**k`` and heights times ``2**-k``, or
    None where that leaves the floats or the normalization tolerance."""
    heights = (d.right_limits, d.left_limits, d.point_values)
    with np.errstate(over="ignore"):
        scaled = [None if h is None else np.ldexp(h, -k) for h in heights]
        c = np.ldexp(d.breakpoints, k)
    try:
        ds = pw.validate(c, *scaled)
    except pw.DensityError:
        return None
    return ds if ds.is_normalized else None


def check_routes_agree(d, fractions=()):
    """The scalar route gives the array route's floats, bit for bit.

    Quantiles under every rule, preimages and the median set against the
    two-ended array kernel they replaced, at every cumulative mass up to 1;
    scalar pdf and cdf against the same points inside one array call: at
    breakpoints, inside pieces, outside the support and at signed zeros and
    infinities.  ``fractions`` in [0, 1] add levels and points.
    """
    table = pw.cdf_table(d).cumulative
    ps = [*LEVELS, *fractions, *table[table <= 1.0].tolist()]
    lower = reference_inverse_cdf(d, np.array(ps), False).tolist()
    upper = reference_inverse_cdf(d, np.array(ps), True).tolist()
    for p, lo, hi in zip(ps, lower, upper):
        assert _same(pw.quantile(d, p, "inf"), lo)
        assert _same(pw.quantile(d, p, "sup"), hi)
        assert _same(pw.quantile(d, p, "mid"), lo / 2.0 + hi / 2.0)
        pre = pw.quantile_preimage(d, p)
        assert _same((pre.lower, pre.upper), (lo, hi))
    ms = pw.median_set(d)
    assert _same((ms.v_min, ms.v_max), (lower[2], upper[2]))

    c = d.breakpoints
    a, b = d.support
    xs = [
        *c.tolist(),
        *(c[:-1] / 2.0 + c[1:] / 2.0).tolist(),
        *(a + t * (b - a) for t in fractions),
        a - (b - a), b + (b - a), 0.0, -0.0, -math.inf, math.inf,
    ]
    for x, want in zip(xs, pw.cdf(d, np.array(xs)).tolist()):
        assert _same(pw.cdf(d, x), want)
    for rule in pw.POINT_RULES:
        for x, want in zip(xs, pw.pdf(d, np.array(xs), rule).tolist()):
            assert _same(pw.pdf(d, x, rule), want)


@given(densities(), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_scalar_and_array_routes_agree(d, fractions):
    if d is None:
        return
    check_routes_agree(d, fractions)
    # Far out and far in: the solve works in units of each piece's width.
    for k in (900, -900):
        ds = _scaled(d, k)
        if ds is not None:
            check_routes_agree(ds, fractions)


@given(densities(), st.integers(0, pw.MAX_MOMENT_ORDER))
def test_raw_moments_keep_their_per_order_bits(d, first):
    if d is None:
        return
    # Whichever order comes first takes all of them in one pass, and each
    # equals a pass for its order alone, near and far from the origin.
    for ds in (d, _scaled(d, 900), _scaled(d, -900)):
        if ds is not None:
            for m in (first, *range(pw.MAX_MOMENT_ORDER + 1)):
                assert _same(pw.raw_moment(ds, m), reference_raw_moment(ds, m))


@pytest.mark.parametrize(
    "d",
    [
        # quantile(0) is lo + 0.0, which is 0.0, not the -0.0 left end; at
        # c_1 the "max" rule keeps the second of 0.0 and -0.0, as numpy does.
        pw.validate([-0.0, 1.0, 2.0], [0.5, -0.0], [0.0, 1.5]),
        # Flat pieces: alpha = 0, so the root is q / beta.
        pw.validate([0.0, 1.0, 3.0], [0.5, 0.25], [0.5, 0.25]),
        # A trailing zero piece, and a mass 5e-10 short of 1.
        pw.validate([0.0, 1.0, 2.0], [1.0 - 5e-10, 0.0], [1.0 - 5e-10, 0.0]),
        # A piece wider than 2**1023, with subnormal heights.
        pw.validate([0.0, 1.7e308], [1 / 1.7e308], [1 / 1.7e308]),
    ],
    ids=["negative-zero-end", "flat", "trailing-zero", "widest"],
)
def test_scalar_and_array_routes_agree_by_hand(d):
    assert d.is_normalized
    check_routes_agree(d, [0.25, 0.75])


SCALARS = [1, 0.5, np.float64(0.5), np.float32(0.1), np.int64(1), np.array(0.25)]


@pytest.mark.parametrize("x", SCALARS, ids=lambda x: type(x).__name__)
def test_scalars_give_floats_and_arrays_give_arrays(x):
    d = pw.validate([0.0, 1.0, 2.0], [0.75, 0.25], [0.5, 0.5])
    # Every 0-d input is read as np.asarray(x, dtype=float) would read it.
    want = np.asarray(x, dtype=float).reshape(1)
    assert _same(pw.cdf(d, x), pw.cdf(d, want).tolist()[0])
    for rule in pw.POINT_RULES:
        assert _same(pw.pdf(d, x, rule), pw.pdf(d, want, rule).tolist()[0])
    lo, hi = (reference_inverse_cdf(d, want, up).tolist()[0] for up in (False, True))
    assert _same(pw.quantile(d, x, "inf"), lo)
    assert _same(pw.quantile(d, x, "sup"), hi)
    pre = pw.quantile_preimage(d, x)
    assert _same((pre.lower, pre.upper, pre.p), (lo, hi, want.tolist()[0]))
    for listed in ([x], np.array([x])):
        assert isinstance(pw.cdf(d, listed), np.ndarray)
        assert isinstance(pw.pdf(d, listed), np.ndarray)
