"""Properties over adversarial densities, under the deterministic profile.

The densities have offsets to 1e12 either side of 0, widths from 1e-12 to
1 of the larger of 1 and the offset, runs of zero density, coincident
breakpoints, point values, and a mass up to 0.9e-9 from 1.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

import pwldist as pw
from oracles import reference_mode_set
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
