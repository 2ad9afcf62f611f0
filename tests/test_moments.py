"""Mean, variance, higher raw moments, and the shape summary.

Every closed-form sum is checked twice: against hand-computable fixtures
and against adaptive quadrature on randomized densities.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pwldist as pw

from oracles import (
    polygonal_limits,
    quad_mean,
    quad_moment,
    quad_variance,
    random_density_arrays,
)


def _step():
    return pw.validate([0, 1, 2], [0.75, 0.25], [0.75, 0.25])


def _uniform01():
    return pw.validate([0, 1], [1.0], [1.0])


def _exact_integral(c, rr, ll, k, centre=Fraction(0)):
    """int (x - centre)^k f dx in exact rational arithmetic."""
    c, rr, ll = ([Fraction(float(v)) for v in arr] for arr in (c, rr, ll))
    total = Fraction(0)
    for lo, hi, r, l in zip(c, c[1:], rr, ll):
        # f = r + s (y - y0) in y = x - centre
        s = (l - r) / (hi - lo)
        y0, y1 = lo - centre, hi - centre
        a = r - s * y0
        total += a * (y1 ** (k + 1) - y0 ** (k + 1)) / (k + 1)
        total += s * (y1 ** (k + 2) - y0 ** (k + 2)) / (k + 2)
    return total


def _exact_mean_variance(c, rr, ll):
    """Mean and variance of f / mass in exact rational arithmetic."""
    mass = _exact_integral(c, rr, ll, 0)
    mu = _exact_integral(c, rr, ll, 1) / mass
    return mu, _exact_integral(c, rr, ll, 2, mu) / mass


def _random_polygonal(rng, max_interior=6):
    n = int(rng.integers(1, max_interior + 1))
    c = np.sort(rng.uniform(-10, 10, size=n + 2))
    while np.any(np.diff(c) <= 1e-6):
        c = np.sort(rng.uniform(-10, 10, size=n + 2))
    h = np.zeros(n + 2)
    h[1:-1] = rng.uniform(0.1, 1.0, size=n)
    mass = np.sum((h[:-1] + h[1:]) * np.diff(c)) / 2.0
    return pw.PolygonalDensity(pw.Grid(c), h / mass)


class TestMeanVariance:
    def test_step_density(self):
        d = _step()
        assert pw.mean(d) == pytest.approx(0.75, abs=1e-15)
        assert pw.variance(d) == pytest.approx(13.0 / 48.0, abs=1e-15)

    def test_ramp(self):
        d = pw.validate([0, 1], [2.0], [0.0])
        assert pw.mean(d) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_triangular_1_2_4(self):
        d = pw.promote(pw.triangular(1, 2, 4))
        assert pw.mean(d) == pytest.approx(7.0 / 3.0, rel=1e-14)
        assert pw.variance(d) == pytest.approx(7.0 / 18.0, rel=1e-14)

    def test_uniform(self):
        d = _uniform01()
        assert pw.mean(d) == pytest.approx(0.5, abs=1e-15)
        assert pw.variance(d) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_requires_normalization(self):
        d = pw.validate([0, 1], [3.0], [3.0])
        with pytest.raises(pw.NotNormalizedError):
            pw.mean(d)
        with pytest.raises(pw.NotNormalizedError):
            pw.variance(d)

    def test_against_quadrature(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            c, rr, ll = random_density_arrays(rng)
            d = pw.validate(c, rr, ll)
            assert pw.mean(d) == pytest.approx(quad_mean(c, rr, ll), abs=1e-9)
            assert pw.variance(d) == pytest.approx(
                quad_variance(c, rr, ll), abs=1e-9
            )

    def test_translation_equivariance(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            c, rr, ll = random_density_arrays(rng)
            d = pw.validate(c, rr, ll)
            t = rng.uniform(-50, 50)
            shifted = pw.validate(c + t, rr, ll)
            assert pw.mean(shifted) == pytest.approx(
                pw.mean(d) + t, rel=1e-10, abs=1e-10
            )
            assert pw.variance(shifted) == pytest.approx(
                pw.variance(d), rel=1e-10, abs=1e-12
            )
        # Far offsets, on breakpoints rounded to multiples of 2^-10 so the
        # shifted grid is exact.
        for t in (1e6, 1e8):
            for _ in range(25):
                c, rr, ll = random_density_arrays(rng)
                c = np.round(c * 1024.0) / 1024.0
                d, _ = pw.normalize(pw.validate(c, rr, ll))
                shifted = pw.PiecewiseLinearDensity(
                    pw.Grid(d.breakpoints + t), d.right_limits, d.left_limits
                )
                assert pw.mean(shifted) == pytest.approx(
                    pw.mean(d) + t, rel=1e-14
                )
                assert pw.variance(shifted) == pytest.approx(
                    pw.variance(d), rel=1e-10, abs=1e-12
                )

    def test_distribution_moments_far_and_short_of_unit_mass(self):
        """Moments are those of f / mass, accurate at an offset of 1e8."""
        c = [1e8, 1e8 + 2.0**-9]
        h = [(1.0 - 0.9e-9) * 2.0**9]
        d = pw.validate(c, h, h)
        mu, var = _exact_mean_variance(c, h, h)
        s = pw.summary(d)
        for got in (pw.mean(d), s.mean):
            assert abs(Fraction(got) - mu) <= math.ulp(1e8)
        for got in (pw.variance(d), s.variance):
            assert got == pytest.approx(float(var), rel=1e-12)

        c = [1e8, 1e8 + 2.0**-9, 1e8 + 2.0**-8]
        heights = [0.0, (1.0 - 0.9e-9) * 2.0**9, 0.0]
        p = pw.PolygonalDensity(pw.Grid(c), heights)
        mu, var = _exact_mean_variance(c, heights[:-1], heights[1:])
        assert abs(Fraction(pw.mean_polygonal(p)) - mu) <= math.ulp(1e8)
        assert pw.variance_polygonal(p) == pytest.approx(float(var), rel=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            c, rr, ll = random_density_arrays(rng)
            d = pw.validate(c, rr, ll)
            s = rng.uniform(0.2, 5.0)
            stretched = pw.validate(c * s, rr / s, ll / s)
            assert pw.mean(stretched) == pytest.approx(
                s * pw.mean(d), rel=1e-10, abs=1e-10
            )
            assert pw.variance(stretched) == pytest.approx(
                s * s * pw.variance(d), rel=1e-10, abs=1e-12
            )


class TestPolygonalReduction:
    """The vertex-indexed sums agree with the general trapezoid sums."""

    def test_triangular_fixture(self):
        p = pw.triangular(0, 0.3, 1)
        assert pw.mean_polygonal(p) == pytest.approx(13.0 / 30.0, rel=1e-14)
        assert pw.variance_polygonal(p) == pytest.approx(
            0.79 / 18.0, rel=1e-13
        )

    def test_random_polygonal(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            p = _random_polygonal(rng)
            d = pw.promote(p)
            assert pw.mean_polygonal(p) == pytest.approx(
                pw.mean(d), rel=1e-12, abs=1e-13
            )
            assert pw.variance_polygonal(p) == pytest.approx(
                pw.variance(d), rel=1e-12, abs=1e-13
            )

    def test_requires_normalization(self):
        p = pw.PolygonalDensity(pw.Grid([0, 1, 2]), [0, 3, 0])
        with pytest.raises(pw.NotNormalizedError):
            pw.mean_polygonal(p)


class TestRawMoment:
    def test_uniform_powers(self):
        d = _uniform01()
        assert pw.raw_moment(d, 0) == pytest.approx(1.0, abs=1e-15)
        assert pw.raw_moment(d, 1) == pytest.approx(0.5, abs=1e-15)
        assert pw.raw_moment(d, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert pw.raw_moment(d, 3) == pytest.approx(0.25, abs=1e-15)

    def test_symmetric_tetragonal_second_moment(self):
        d = pw.promote(pw.tetragonal(0, 1, 2, 3, 1, 1))
        assert pw.raw_moment(d, 2) == pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_order_validation(self):
        d = _uniform01()
        with pytest.raises(pw.OrderTooLargeError):
            pw.raw_moment(d, pw.MAX_MOMENT_ORDER + 1)
        with pytest.raises(ValueError):
            pw.raw_moment(d, -1)
        with pytest.raises(ValueError):
            pw.raw_moment(d, 2.5)

    def test_against_quadrature(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            c, rr, ll = random_density_arrays(rng, span=(-5.0, 5.0))
            d = pw.validate(c, rr, ll)
            for m in (3, 4, 5):
                assert pw.raw_moment(d, m) == pytest.approx(
                    quad_moment(c, rr, ll, m), abs=1e-9
                )

    def test_far_from_origin_stability(self):
        """Per-piece midpoint translation keeps distant supports accurate."""
        near = pw.validate([0, 1, 2], [0.75, 0.25], [0.75, 0.25])
        far = pw.validate([1000, 1001, 1002], [0.75, 0.25], [0.75, 0.25])
        m2_near = pw.raw_moment(near, 2) - pw.mean(near) ** 2
        m2_far = pw.raw_moment(far, 2) - pw.mean(far) ** 2
        assert m2_far == pytest.approx(m2_near, rel=1e-6)
        assert pw.summary(far).variance == pytest.approx(
            pw.summary(near).variance, rel=1e-12
        )

    def test_exact_on_negative_and_far_supports(self):
        """Orders 0-12 within 1e-14 relative of an exact Fraction sum.

        Each support lies on one side of the origin, so x^m f has one sign
        and the exact value has no cancellation to amplify rounding; the
        bound is about 45 ulp.
        """
        rng = np.random.default_rng(227)
        for offset in (-12345.0, 1e8):
            for _ in range(8):
                n = int(rng.integers(0, 40))
                c = offset + np.cumsum(rng.uniform(0.05, 3.0, size=n + 2))
                rr = rng.uniform(0.0, 1.0, size=n + 1)
                ll = rng.uniform(0.0, 1.0, size=n + 1)
                rr[rng.random(n + 1) < 0.2] = 0.0
                d = pw.validate(c, rr, ll)
                for m in range(pw.MAX_MOMENT_ORDER + 1):
                    exact = _exact_integral(c, rr, ll, m)
                    got = Fraction(pw.raw_moment(d, m))
                    assert abs(got - exact) <= 1e-14 * abs(exact), (offset, m)


class TestSummary:
    def test_uniform_shape(self):
        s = pw.summary(_uniform01())
        assert s.mass == pytest.approx(1.0, abs=1e-12)
        assert s.skewness == pytest.approx(0.0, abs=1e-12)
        assert s.excess == pytest.approx(-1.2, abs=1e-9)

    def test_symmetric_triangular_shape(self):
        s = pw.summary(pw.promote(pw.triangular(0, 0.5, 1)))
        assert s.skewness == 0.0
        assert s.excess == pytest.approx(-0.6, abs=1e-9)
        assert s.std == pytest.approx(math.sqrt(1.0 / 24.0), rel=1e-12)

    def test_variance_routes_agree(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            c, rr, ll = random_density_arrays(rng)
            d = pw.validate(c, rr, ll)
            s = pw.summary(d)
            assert s.variance == pytest.approx(pw.variance(d), rel=1e-10)
            m2 = pw.raw_moment(d, 2)
            assert s.variance == pytest.approx(
                m2 - pw.mean(d) ** 2, rel=1e-7, abs=1e-12
            )

    def test_skewness_kurtosis_inequality(self):
        """excess + 2 >= skewness^2 holds for every distribution."""
        rng = np.random.default_rng(79)
        for _ in range(40):
            c, rr, ll = random_density_arrays(rng)
            s = pw.summary(pw.validate(c, rr, ll))
            assert s.excess + 2.0 >= s.skewness**2 - 1e-9

    def test_shape_far_from_origin(self):
        """Skewness and excess stay at rounding level at offsets 1e6, 1e8."""
        for offset in (0.0, 1e6, 1e8):
            c = offset + np.array([0.0, 1.0, 1.5, 3.0])
            d, _ = pw.normalize(pw.validate(c, [0.2, 0.9, 0.1], [0.7, 0.3, 0.0]))
            args = (d.breakpoints, d.right_limits, d.left_limits)
            mass = _exact_integral(*args, 0)
            mu = _exact_integral(*args, 1) / mass
            c2, c3, c4 = (_exact_integral(*args, k, mu) / mass for k in (2, 3, 4))
            s = pw.summary(d)
            assert s.variance == pytest.approx(float(c2), rel=1e-14)
            assert s.skewness == pytest.approx(
                float(c3) / float(c2) ** 1.5, rel=1e-12
            )
            assert s.excess == pytest.approx(float(c4 / c2 ** 2 - 3), rel=1e-12)

    def test_requires_normalization(self):
        with pytest.raises(pw.NotNormalizedError):
            pw.summary(pw.validate([0, 1], [3.0], [3.0]))
