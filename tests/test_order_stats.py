"""Quantile preimages, medians, and inverse-transform sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pwldist as pw

from oracles import random_density_arrays, top_exponent


def _two_triangle():
    """Two unit-mass-half triangles separated by a flat gap on [1, 2]."""
    return pw.PolygonalDensity(
        pw.Grid([0, 0.5, 1, 2, 2.5, 3]), [0, 1, 0, 0, 1, 0]
    )


def _step():
    return pw.validate([0, 1, 2], [0.75, 0.25], [0.75, 0.25])


def _mass_short_of_one():
    """Mass 1 - 5e-10, inside the tolerance, ending in a zero piece."""
    h = [1.0 - 5e-10, 0.0]
    return pw.validate([0, 1, 2], h, h)


def _random_edge_density(rng, offset=0.0):
    """Coincident breakpoints, zero runs, and a mass at the tolerance edge."""
    n = int(rng.integers(1, 12))
    c = np.sort(rng.uniform(-5.0, 5.0, size=n + 1)) + offset
    c = np.sort(np.concatenate((c, rng.choice(c, size=int(rng.integers(0, 3))))))
    rr = rng.uniform(0.0, 1.0, size=c.size - 1)
    ll = rng.uniform(0.0, 1.0, size=c.size - 1)
    for _ in range(int(rng.integers(0, 3))):
        start = int(rng.integers(0, rr.size))
        stop = start + int(rng.integers(1, 4))
        rr[start:stop] = 0.0
        ll[start:stop] = 0.0
    mass = np.sum((rr + ll) * np.diff(c)) / 2.0
    if not mass > 0.0:
        return None
    k = (1.0 + rng.choice([0.0, -0.9e-9, 0.9e-9])) / mass
    return pw.validate(c, rr * k, ll * k)


class TestQuantilePreimage:
    def test_flat_gap_at_half(self):
        d = pw.promote(_two_triangle())
        pre = pw.quantile_preimage(d, 0.5)
        assert pre.lower == pytest.approx(1.0, abs=1e-12)
        assert pre.upper == pytest.approx(2.0, abs=1e-12)
        assert pre.p == 0.5

    def test_interior_point_is_degenerate(self):
        d = pw.promote(pw.triangular(0, 0.5, 1))
        pre = pw.quantile_preimage(d, 0.25)
        assert pre.lower == pre.upper
        assert pw.cdf(d, pre.lower) == pytest.approx(0.25, abs=1e-12)

    def test_zero_probability_stretches_left(self):
        d = pw.validate([0, 1, 2], [0.0, 1.0], [0.0, 1.0])
        pre = pw.quantile_preimage(d, 0.0)
        assert pre.lower == 0.0
        assert pre.upper == pytest.approx(1.0, abs=1e-12)

    def test_one_probability_stretches_right(self):
        d = pw.validate([0, 1, 2], [1.0, 0.0], [1.0, 0.0])
        pre = pw.quantile_preimage(d, 1.0)
        assert pre.lower == pytest.approx(1.0, abs=1e-12)
        assert pre.upper == 2.0

    def test_one_probability_with_mass_short_of_one(self):
        pre = pw.quantile_preimage(_mass_short_of_one(), 1.0)
        assert (pre.lower, pre.upper) == (1.0, 2.0)

    def test_probability_out_of_range(self):
        d = pw.promote(pw.triangular(0, 0.5, 1))
        for p in (-0.1, 1.1, float("nan")):
            with pytest.raises(pw.BadProbabilityError):
                pw.quantile_preimage(d, p)

    def test_requires_normalization(self):
        with pytest.raises(pw.NotNormalizedError):
            pw.quantile_preimage(pw.validate([0, 1], [3.0], [3.0]), 0.5)

    def test_brackets_target_probability(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            c, rr, ll = random_density_arrays(rng, floor=0.05)
            d = pw.validate(c, rr, ll)
            eps = 1e-9 * (c[-1] - c[0])
            for p in (0.1, 0.5, 0.9):
                pre = pw.quantile_preimage(d, p)
                assert pw.cdf(d, max(pre.lower - eps, c[0])) <= p + 1e-9
                assert pw.cdf(d, min(pre.upper + eps, c[-1])) >= p - 1e-9


class TestQuantile:
    def test_rules(self):
        d = pw.promote(_two_triangle())
        assert pw.quantile(d, 0.5, rule="inf") == pytest.approx(1.0, abs=1e-12)
        assert pw.quantile(d, 0.5, rule="sup") == pytest.approx(2.0, abs=1e-12)
        assert pw.quantile(d, 0.5, rule="mid") == pytest.approx(1.5, abs=1e-12)

    def test_default_rule_is_inf(self):
        d = pw.promote(_two_triangle())
        assert pw.quantile(d, 0.5) == pw.quantile(d, 0.5, rule="inf")

    def test_unknown_rule(self):
        d = pw.promote(pw.triangular(0, 0.5, 1))
        with pytest.raises(ValueError):
            pw.quantile(d, 0.5, rule="nearest")

    def test_inf_and_sup_are_the_preimage_ends(self):
        rng = np.random.default_rng(157)
        checked = 0
        while checked < 100:
            d = _random_edge_density(rng)
            if d is None:
                continue
            table = pw.cdf_table(d).cumulative
            for p in np.concatenate((rng.random(10), table[table <= 1.0], [0.0, 1.0])):
                pre = pw.quantile_preimage(d, p)
                assert pw.quantile(d, p, "inf") == pre.lower
                assert pw.quantile(d, p, "sup") == pre.upper
                assert pw.quantile(d, p, "mid") == (pre.lower + pre.upper) / 2.0
            # The median set is the preimage at 1/2; its flags are the scalar
            # cdf test at each end.
            ms, pre = pw.median_set(d), pw.quantile_preimage(d, 0.5)
            assert repr((ms.v_min, ms.v_max)) == repr((pre.lower, pre.upper))
            assert ms.min_attained == (abs(pw.cdf(d, pre.lower) - 0.5) <= 1e-9)
            assert ms.max_attained == (abs(pw.cdf(d, pre.upper) - 0.5) <= 1e-9)
            checked += 1

    def test_checks_apply_under_every_rule(self):
        d = pw.promote(pw.triangular(0, 0.5, 1))
        unnormalized = pw.validate([0, 1], [3.0], [3.0])
        for rule in pw.QUANTILE_RULES:
            for p in (-0.1, 1.1, float("nan")):
                with pytest.raises(pw.BadProbabilityError):
                    pw.quantile(d, p, rule)
            with pytest.raises(pw.NotNormalizedError):
                pw.quantile(unnormalized, 0.5, rule)

    def test_round_trip_strictly_positive(self):
        rng = np.random.default_rng(89)
        ps = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
        for _ in range(30):
            c, rr, ll = random_density_arrays(rng, floor=0.05)
            d = pw.validate(c, rr, ll)
            for p in ps:
                v = pw.quantile(d, p)
                assert pw.cdf(d, v) == pytest.approx(p, abs=1e-10)


class TestMedianSet:
    def test_flat_gap(self):
        ms = pw.median_set(pw.promote(_two_triangle()))
        assert ms.v_min == pytest.approx(1.0, abs=1e-12)
        assert ms.v_max == pytest.approx(2.0, abs=1e-12)
        assert ms.min_attained
        assert ms.max_attained

    def test_step_density(self):
        ms = pw.median_set(_step())
        assert ms.v_min == ms.v_max
        assert ms.v_min == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_triangular(self):
        ms = pw.median_set(pw.promote(pw.triangular(0, 0.5, 1)))
        assert ms.v_min == pytest.approx(0.5, abs=1e-12)
        assert ms.v_max == pytest.approx(0.5, abs=1e-12)


class TestSample:
    def test_values_stay_in_support(self):
        rng = np.random.default_rng(97)
        c, rr, ll = random_density_arrays(rng)
        d = pw.validate(c, rr, ll)
        u = rng.uniform(0, 1, size=500)
        x = pw.sample(d, u)
        assert np.all(x >= c[0])
        assert np.all(x <= c[-1])

    def test_inverts_cdf(self):
        rng = np.random.default_rng(101)
        c, rr, ll = random_density_arrays(rng, floor=0.05)
        d = pw.validate(c, rr, ll)
        u = rng.uniform(0.001, 0.999, size=300)
        x = pw.sample(d, u)
        assert_allclose(pw.cdf(d, x), u, atol=1e-10)

    def test_midpoint_of_flat_gap(self):
        d = pw.promote(_two_triangle())
        x = pw.sample(d, np.array([0.5]))
        assert x[0] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_uniform(self):
        d = _step()
        u = np.linspace(0.0, 0.999, 200)
        x = pw.sample(d, u)
        assert np.all(np.diff(x) >= -1e-15)

    def test_rejects_bad_uniforms(self):
        d = _step()
        for bad in (1.0, 1.5, -0.01, float("nan")):
            with pytest.raises(pw.BadProbabilityError):
                pw.sample(d, np.array([0.25, bad]))

    def test_requires_normalization(self):
        with pytest.raises(pw.NotNormalizedError):
            pw.sample(pw.validate([0, 1], [3.0], [3.0]), np.array([0.5]))

    def test_matches_quantile_with_mass_short_of_one(self):
        d = _mass_short_of_one()
        u = math.nextafter(1.0, 0.0)
        assert pw.sample(d, [u])[0] == pw.quantile(d, u, "inf")

    def test_matches_quantile_on_edge_densities(self):
        rng = np.random.default_rng(151)
        checked = 0
        while checked < 200:
            d = _random_edge_density(rng)
            if d is None:
                continue
            table = pw.cdf_table(d).cumulative
            u = np.concatenate((
                rng.random(40),
                table[table < 1.0],
                [0.0, math.nextafter(1.0, 0.0)],
            ))
            expected = [pw.quantile(d, float(ui), "inf") for ui in u]
            np.testing.assert_array_equal(pw.sample(d, u), expected)
            checked += 1

    def test_empty_input(self):
        x = pw.sample(_step(), np.array([]))
        assert x.size == 0


def _scaled(d, k):
    """``d`` with breakpoints times ``2**k`` and limits times ``2**-k``."""
    pv = d.point_values
    return pw.validate(
        np.ldexp(d.breakpoints, k),
        np.ldexp(d.right_limits, -k),
        np.ldexp(d.left_limits, -k),
        None if pv is None else np.ldexp(pv, -k),
    )


def _equivariance_misses(d, k, levels, uniforms):
    """The results on ``_scaled(d, k)`` that are not ``2**k`` times those
    on ``d`` bit for bit, and the number of results compared."""
    ds = _scaled(d, k)
    pairs = []
    for p in levels:
        for rule in pw.QUANTILE_RULES:
            pairs.append((("quantile", p, rule),
                          pw.quantile(d, p, rule), pw.quantile(ds, p, rule)))
        pre, pre_s = pw.quantile_preimage(d, p), pw.quantile_preimage(ds, p)
        pairs.append((("lower", p), pre.lower, pre_s.lower))
        pairs.append((("upper", p), pre.upper, pre_s.upper))
    ms, ms_s = pw.median_set(d), pw.median_set(ds)
    pairs.append((("median_min",), ms.v_min, ms_s.v_min))
    pairs.append((("median_max",), ms.v_max, ms_s.v_max))
    for u, x, x_s in zip(uniforms, pw.sample(d, uniforms), pw.sample(ds, uniforms)):
        pairs.append((("sample", u), x, x_s))
    misses = [
        (k, what, x_s, math.ldexp(x, k))
        for what, x, x_s in pairs
        if x_s != math.ldexp(x, k)
    ]
    flags = (ms.min_attained, ms.max_attained)
    if (ms_s.min_attained, ms_s.max_attained) != flags:
        misses.append((k, "median flags", flags))
    return misses, len(pairs) + 1


class TestPowerOfTwoEquivariance:
    """Scaling the breakpoints by ``2**k`` and the limits by ``2**-k``
    leaves every piece mass alone, so quantiles, preimages, the median set
    and samples must scale by ``2**k`` exactly, at every magnitude."""

    LEVELS = (0.0, 1e-12, 0.02, 0.1, 0.5, 0.9, 0.98, 1.0)

    def test_random_densities(self):
        rng = np.random.default_rng(2**10 + 7)
        misses, compared, checked = [], 0, 0
        while checked < 60:
            d = _random_edge_density(rng, float(rng.choice([0.0, -1e6, 1e12])))
            if d is None:
                continue
            table = pw.cdf_table(d).cumulative
            levels = self.LEVELS + tuple(rng.random(3)) + tuple(table[table <= 1.0])
            uniforms = np.concatenate((rng.random(8), table[table < 1.0]))
            top = top_exponent(d)
            for k in (-900, 900, top, *rng.integers(-900, 901, size=2).tolist()):
                found, n = _equivariance_misses(d, k, levels, uniforms)
                misses += found
                compared += n
            checked += 1
        assert not misses, f"{len(misses)} of {compared} differ, e.g. {misses[:3]}"

    @pytest.mark.parametrize("b", [1e16, 1e200, 1e-160, 1e-300])
    def test_wide_and_narrow_triangles(self, b):
        # triangular(0, b/2, b) is triangular(0, m/2, m) scaled by 2**e.
        m, e = math.frexp(b)
        d = pw.promote(pw.triangular(0.0, m / 2.0, m))
        ds = pw.promote(pw.triangular(0.0, b / 2.0, b))
        scaled = _scaled(d, e)
        for name in ("breakpoints", "right_limits", "left_limits"):
            assert getattr(ds, name).tolist() == getattr(scaled, name).tolist()
        misses, _ = _equivariance_misses(d, e, self.LEVELS, np.array([0.02, 0.9]))
        assert not misses
        # The exact quantiles are b sqrt(p/2) below the apex and
        # b (1 - sqrt((1 - p)/2)) above it.
        assert pw.quantile(ds, 0.02) == pytest.approx(0.1 * b, rel=1e-15)
        assert pw.quantile(ds, 0.5) == 0.5 * b
        assert pw.quantile(ds, 0.9) == pytest.approx(
            (1.0 - math.sqrt(0.05)) * b, rel=1e-15
        )
        ms = pw.median_set(ds)
        assert (ms.v_min, ms.v_max) == (0.5 * b, 0.5 * b)
        assert ms.min_attained and ms.max_attained

    def test_pieces_wider_than_2_to_the_1023(self):
        # Heights this small are subnormal, so no exact scaling reaches
        # here; compare with the exact values instead.  On one uniform piece
        # F(x) = R x, with R the stored height.
        b = 1.7e308
        d = pw.validate([0.0, b], [1.0 / b], [1.0 / b])
        exact = {p: float(Fraction(p) / Fraction(d.right_limits[0])) for p in (0.25, 0.5)}
        for p, x in exact.items():
            for rule in pw.QUANTILE_RULES:
                assert pw.quantile(d, p, rule) == pytest.approx(x, rel=1e-15)
        pre = pw.quantile_preimage(d, 0.5)
        ms = pw.median_set(d)
        assert pre.lower == pre.upper == ms.v_min == ms.v_max == exact[0.5]
        assert ms.min_attained and ms.max_attained
        assert pw.sample(d, [0.25, 0.5]).tolist() == [pw.quantile(d, 0.25), exact[0.5]]
        t = pw.promote(pw.triangular(0.0, b / 2.0, b))
        assert pw.quantile(t, 0.5) == 0.5 * b
        assert pw.quantile(t, 0.02) == pytest.approx(0.1 * b, rel=1e-14)
        assert pw.quantile(t, 0.9) == pytest.approx((1.0 - math.sqrt(0.05)) * b, rel=1e-14)
