"""Quantile preimages, medians, and inverse-transform sampling."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pwldist as pw

from oracles import random_density_arrays


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


def _random_edge_density(rng):
    """Coincident breakpoints, zero runs, and a mass at the tolerance edge."""
    n = int(rng.integers(1, 12))
    c = np.sort(rng.uniform(-5.0, 5.0, size=n + 1))
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
