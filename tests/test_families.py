"""Triangular and tetragonal constructors and their closed-form statistics.

The closed forms are deliberately cross-checked against the general
piecewise pipeline (mean/variance/median_set/mode_set) so that neither
route can drift without the other noticing.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import pwldist as pw
from pwldist.families import tetragonal_mean_alpha


class TestTriangularConstructor:
    def test_basic_heights(self):
        p = pw.triangular(0, 0.5, 1)
        np.testing.assert_array_equal(p.grid.breakpoints, [0, 0.5, 1])
        np.testing.assert_allclose(p.heights, [0.0, 2.0, 0.0])

    def test_apex_height_property(self):
        params = pw.TriangularParams(0, 1, 3)
        assert params.apex_height == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_degenerate_apex_at_edge(self):
        p = pw.triangular(0, 0, 1)
        d = pw.canonicalize(pw.promote(p))
        assert pw.raw_mass(d) == pytest.approx(1.0, rel=1e-15)
        assert pw.pdf(d, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_rejects_bad_order(self):
        with pytest.raises(pw.BadOrderError):
            pw.triangular(1, 0.5, 0)
        with pytest.raises(pw.BadOrderError):
            pw.triangular(0, 2, 1)
        with pytest.raises(pw.BadOrderError):
            pw.triangular(1, 1, 1)


class TestTetragonalConstructor:
    def test_symmetric_unit_heights(self):
        p = pw.tetragonal(0, 1, 2, 3, 1, 1)
        np.testing.assert_array_equal(p.grid.breakpoints, [0, 1, 2, 3])
        np.testing.assert_allclose(p.heights, [0.0, 0.5, 0.5, 0.0])

    def test_right_height_zero_keeps_left_triangle(self):
        p = pw.tetragonal(0, 1, 2, 3, 2, 0)
        np.testing.assert_allclose(p.heights, [0.0, 1.0, 0.0, 0.0])

    def test_collapsed_middle_reduces_to_triangular(self):
        p = pw.tetragonal(0, 0.5, 0.5, 1, 1, 1)
        d = pw.canonicalize(pw.promote(p))
        ref = pw.canonicalize(pw.promote(pw.triangular(0, 0.5, 1)))
        np.testing.assert_allclose(d.breakpoints, ref.breakpoints)
        np.testing.assert_allclose(d.right_limits, ref.right_limits)
        np.testing.assert_allclose(d.left_limits, ref.left_limits)

    def test_zero_mass(self):
        with pytest.raises(pw.ZeroMassError):
            pw.tetragonal(0, 1, 2, 3, 0, 0)

    def test_negative_height(self):
        with pytest.raises(pw.NegativeValueError):
            pw.tetragonal(0, 1, 2, 3, -1, 1)


class TestTetragonalFromWeight:
    def test_half_weight_is_symmetric(self):
        p = pw.tetragonal_from_weight(0, 1, 2, 3, 0.5)
        np.testing.assert_allclose(p.heights, [0.0, 0.5, 0.5, 0.0])

    def test_extreme_weights(self):
        left_only = pw.tetragonal_from_weight(0, 1, 2, 3, 1.0)
        assert left_only.heights[2] == 0.0
        assert left_only.heights[1] == pytest.approx(1.0, rel=1e-15)
        right_only = pw.tetragonal_from_weight(0, 1, 2, 3, 0.0)
        assert right_only.heights[1] == 0.0

    def test_weight_out_of_range(self):
        with pytest.raises(pw.BadProbabilityError):
            pw.tetragonal_from_weight(0, 1, 2, 3, 1.2)

    def test_mass_is_always_one(self):
        rng = np.random.default_rng(109)
        for _ in range(30):
            a, c, d, b = np.sort(rng.uniform(-5, 5, size=4))
            if b - a < 1e-3 or d - c < 1e-6:
                continue
            w = rng.uniform(0, 1)
            p = pw.tetragonal_from_weight(a, c, d, b, w)
            assert pw.raw_mass(pw.promote(p)) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_weight_round_trip(self):
        params = pw.TetragonalParams(0, 1, 2, 3, 0.4, 0.6)
        k = 2.0 / (0.4 * 2 + 0.6 * 2)
        normalized = pw.TetragonalParams(0, 1, 2, 3, 0.4 * k, 0.6 * k)
        assert normalized.weight == pytest.approx(0.4, rel=1e-12)
        assert normalized.alpha == pytest.approx(0.4 / 0.6, rel=1e-12)
        assert params.normalization_defect == pytest.approx(0.0, abs=1e-12)

    def test_alpha_infinite_when_right_height_zero(self):
        params = pw.TetragonalParams(0, 1, 2, 3, 1.0, 0.0)
        assert params.alpha == math.inf

    def test_degenerate_geometry(self):
        # w = 1 puts all mass on [a, d], which has zero length here.
        with pytest.raises(pw.ZeroMassError) as err:
            pw.tetragonal_from_weight(0, 0, 0, 1, 1.0)
        assert str(err.value) == "degenerate geometry: weight denominator is zero"


class TestParameterChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        with pytest.raises(pw.BadOrderError) as err:
            pw.TriangularParams(0.0, bad, 1.0)
        assert str(err.value) == "parameters must be finite"

    def test_raw_heights_with_zero_mass(self):
        # Only the left height is positive, and [a, d] has zero length.
        with pytest.raises(pw.ZeroMassError) as err:
            pw.tetragonal(0, 0, 0, 1, 1, 0)
        assert str(err.value) == "raw heights integrate to zero over this support"

    def test_alpha_mean_needs_a_right_height(self):
        with pytest.raises(pw.ZeroMassError) as err:
            tetragonal_mean_alpha(pw.TetragonalParams(0, 0.5, 1, 2, 1, 0))
        assert str(err.value) == "alpha form needs right_height > 0 (w < 1)"

    @pytest.mark.parametrize(
        "params",
        [
            (0.0, 1.0, 2.0, 3.0, 1e308, 1e-10),  # alpha = C/D overflows
            (0.0, 2.9, 3.0, 3.1, 1e308, 2.0),  # finite alpha of 5e307
            (0.0, 1.0, 2.0, 3.0, 1e-10, 1e308),
            (-1e12, -1e12 + 1.0, -1e12 + 2.0, -1e12 + 3.0, 0.25, 0.75),
            (5.0, 5.5, 7.0, 9.0, 0.75, 0.25),
        ],
    )
    def test_alpha_mean_against_the_exact_mean(self, params):
        a, c, d, b, big_c, big_d = params
        # Exact integrals of f and x f over the three linear pieces.
        vertices = [(a, 0.0), (c, big_c), (d, big_d), (b, 0.0)]
        mass = moment = Fraction(0)
        for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
            x0, y0, x1, y1 = map(Fraction, (x0, y0, x1, y1))
            mass += (y0 + y1) * (x1 - x0) / 2
            moment += (x1 - x0) * (x0 * (2 * y0 + y1) + x1 * (y0 + 2 * y1)) / 6
        got = tetragonal_mean_alpha(pw.TetragonalParams(*params))
        ulp = Fraction(math.ulp(max(abs(a), abs(b))))
        assert abs(Fraction(got) - moment / mass) <= 4 * ulp

    @pytest.mark.parametrize(
        "build",
        [
            lambda: pw.triangular(-1e308, 0.0, 1e308),
            lambda: pw.tetragonal(-1e308, 0.0, 1.0, 1e308, 1.0, 1.0),
            lambda: pw.tetragonal_from_weight(-1e308, 0.0, 1.0, 1e308, 0.5),
        ],
    )
    def test_support_width_overflow(self, build):
        with pytest.raises(pw.BadOrderError) as err:
            build()
        assert str(err.value) == "support width overflows"


class TestTriangularStats:
    def test_symmetric(self):
        s = pw.triangular_stats(pw.TriangularParams(0, 0.5, 1))
        assert s.mean == pytest.approx(0.5, abs=1e-15)
        assert s.variance == pytest.approx(1.0 / 24.0, rel=1e-14)
        assert s.median == pytest.approx(0.5, abs=1e-12)
        assert s.mode == 0.5

    def test_skewed_median(self):
        s = pw.triangular_stats(pw.TriangularParams(0, 0.3, 1))
        assert s.mean == pytest.approx(13.0 / 30.0, rel=1e-14)
        assert s.median == pytest.approx(1.0 - math.sqrt(0.35), rel=1e-14)

    def test_wide(self):
        s = pw.triangular_stats(pw.TriangularParams(1, 2, 4))
        assert s.mean == pytest.approx(7.0 / 3.0, rel=1e-14)
        assert s.variance == pytest.approx(7.0 / 18.0, rel=1e-14)

    def test_far_from_origin(self):
        a, c, b = 1e8, 1e8 + 0.25, 1e8 + 1.0
        s = pw.triangular_stats(pw.TriangularParams(a, c, b))
        assert s.variance == pytest.approx(
            (1.0 + 0.25**2 - 0.25) / 18.0, rel=1e-12
        )

    def test_against_general_pipeline(self):
        rng = np.random.default_rng(113)
        for _ in range(100):
            a, c, b = np.sort(rng.uniform(-10, 10, size=3))
            if b - a < 1e-3:
                continue
            params = pw.TriangularParams(a, c, b)
            s = pw.triangular_stats(params)
            d = pw.canonicalize(pw.promote(pw.triangular(a, c, b)))
            assert s.mean == pytest.approx(pw.mean(d), rel=1e-9, abs=1e-9)
            assert s.variance == pytest.approx(
                pw.variance(d), rel=1e-9, abs=1e-12
            )
            ms = pw.median_set(d)
            assert s.median == pytest.approx(ms.v_min, rel=1e-9, abs=1e-9)
            assert pw.cdf(d, s.median) == pytest.approx(0.5, abs=1e-9)


class TestTetragonalStats:
    def test_symmetric_fixture(self):
        params = pw.TetragonalParams(0, 1, 2, 3, 0.5, 0.5)
        s = pw.tetragonal_stats(params)
        assert s.mean == pytest.approx(1.5, rel=1e-14)
        assert s.variance == pytest.approx(5.0 / 12.0, rel=1e-13)
        assert s.median == pytest.approx(1.5, abs=1e-12)
        assert s.modes == (1.0, 2.0)

    def test_symmetric_far_from_origin(self):
        t = 1e8
        params = pw.TetragonalParams(t, t + 1, t + 2, t + 3, 0.5, 0.5)
        s = pw.tetragonal_stats(params)
        assert s.mean == t + 1.5
        assert s.variance == pytest.approx(5.0 / 12.0, rel=1e-12)

    def test_mode_trichotomy(self):
        taller_left = pw.TetragonalParams(0, 1, 2, 3, 0.75, 0.25)
        assert pw.tetragonal_stats(taller_left).modes == (1.0,)
        taller_right = pw.TetragonalParams(0, 1, 2, 3, 0.25, 0.75)
        assert pw.tetragonal_stats(taller_right).modes == (2.0,)
        one_edge = pw.TetragonalParams(0, 1, 1, 2, 1.0, 1.0)
        assert pw.tetragonal_stats(one_edge).modes == (1.0,)

    def test_alpha_form_mean_matches(self):
        params = pw.TetragonalParams(0, 1, 2, 3, 0.5, 0.5)
        assert tetragonal_mean_alpha(params) == pytest.approx(
            1.5, rel=1e-14
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(pw.NotNormalizedError):
            pw.tetragonal_stats(pw.TetragonalParams(0, 1, 2, 3, 1.0, 1.0))

    def test_collapsed_middle_with_both_halves_just_short(self):
        # d = c and C(c - a), D(b - d) both a little under 1: no middle piece
        # to solve in, and the median is the shared edge.
        params = pw.TetragonalParams(-1.0, 0.5, 0.5, 2.0, (1 - 2e-10) / 1.5, (1 - 3e-10) / 1.5)
        assert params.left_height * 1.5 < 1.0 and params.right_height * 1.5 < 1.0
        assert pw.tetragonal_stats(params).median == 0.5

    def test_equal_heights_median_formulas_agree(self):
        # When both plateau heights coincide the median has a short
        # closed form; it must agree with the general quadratic route.
        rng = np.random.default_rng(127)
        for _ in range(50):
            a, c, d, b = np.sort(rng.uniform(-8, 8, size=4))
            if b - a < 1e-3 or d - c < 1e-6 or c - a < 1e-6 or b - d < 1e-6:
                continue
            h = 2.0 / ((d - a) + (b - c))
            if h * (c - a) >= 1.0 or h * (b - d) >= 1.0:
                continue
            params = pw.TetragonalParams(a, c, d, b, h, h)
            s = pw.tetragonal_stats(params)
            short_form = 1.0 / (2.0 * h) + (a + c) / 2.0
            assert s.median == pytest.approx(short_form, rel=1e-12)
            other = (b + d) / 2.0 - 1.0 / (2.0 * h)
            assert s.median == pytest.approx(other, rel=1e-12)

    def test_against_general_pipeline(self):
        rng = np.random.default_rng(131)
        for _ in range(100):
            a, c, d, b = np.sort(rng.uniform(-10, 10, size=4))
            if b - a < 1e-2 or d - c < 1e-4 or c - a < 1e-4 or b - d < 1e-4:
                continue
            w = rng.uniform(0.05, 0.95)
            p = pw.tetragonal_from_weight(a, c, d, b, w)
            dd = pw.canonicalize(pw.promote(p))
            denom = w * (d - a) + (1 - w) * (b - c)
            params = pw.TetragonalParams(
                a, c, d, b, 2 * w / denom, 2 * (1 - w) / denom
            )
            s = pw.tetragonal_stats(params)
            assert s.mean == pytest.approx(pw.mean(dd), rel=1e-9, abs=1e-9)
            assert s.variance == pytest.approx(
                pw.variance(dd), rel=1e-9, abs=1e-12
            )
            assert pw.cdf(dd, s.median) == pytest.approx(0.5, abs=1e-9)
            q = pw.quantile(dd, 0.5)
            assert s.median == pytest.approx(q, rel=1e-7, abs=1e-7)

    def test_alpha_mean_against_weight_mean(self):
        rng = np.random.default_rng(137)
        for _ in range(50):
            a, c, d, b = np.sort(rng.uniform(-10, 10, size=4))
            if b - a < 1e-2 or d - c < 1e-4:
                continue
            w = rng.uniform(0.05, 0.95)
            denom = w * (d - a) + (1 - w) * (b - c)
            params = pw.TetragonalParams(
                a, c, d, b, 2 * w / denom, 2 * (1 - w) / denom
            )
            assert tetragonal_mean_alpha(params) == pytest.approx(
                pw.tetragonal_stats(params).mean, rel=1e-12
            )
