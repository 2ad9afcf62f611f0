"""Fitting polygonal densities to sampled curves."""

import math

import numpy as np
import pytest

import pwldist as pw


def _normal_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2.0 * math.pi)


class TestFit:
    def test_tent_recovers_triangular(self):
        req = pw.FitRequest.from_points([0, 0.5, 1], [0, 1, 0])
        p = pw.fit(req)
        np.testing.assert_allclose(p.heights, [0.0, 2.0, 0.0])
        ref = pw.triangular(0, 0.5, 1)
        np.testing.assert_allclose(p.heights, ref.heights)

    def test_self_fit_is_exact(self):
        target = lambda x: pw.pdf(
            pw.promote(pw.triangular(0, 0.5, 1)), np.asarray(x, float)
        )
        req = pw.FitRequest.from_function(target, 0, 1, pieces=2)
        p = pw.fit(req)
        assert pw.fit_error(p, target) == pytest.approx(0.0, abs=1e-12)

    def test_normal_64_pieces(self):
        req = pw.FitRequest.from_function(_normal_pdf, -6, 6, pieces=64)
        p = pw.fit(req)
        d = pw.promote(p)
        assert pw.raw_mass(d) == pytest.approx(1.0, rel=1e-12)
        assert abs(pw.mean(d)) < 1e-3
        assert abs(pw.variance(d) - 1.0) < 0.01
        assert pw.fit_error(p, _normal_pdf) < 0.01

    def test_coarser_grid_fits_worse(self):
        fine = pw.fit(pw.FitRequest.from_function(_normal_pdf, -6, 6, 64))
        coarse = pw.fit(pw.FitRequest.from_function(_normal_pdf, -6, 6, 8))
        assert pw.fit_error(coarse, _normal_pdf) > pw.fit_error(
            fine, _normal_pdf
        )

    def test_result_is_normalized(self):
        rng = np.random.default_rng(139)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            xs = np.sort(rng.uniform(-5, 5, size=n))
            while np.any(np.diff(xs) <= 1e-6):
                xs = np.sort(rng.uniform(-5, 5, size=n))
            ys = rng.uniform(0.1, 2.0, size=n)
            p = pw.fit(pw.FitRequest.from_points(xs, ys))
            h = p.heights
            c = p.grid.breakpoints
            vertex_sum = np.sum(h[1:-1] * (c[2:] - c[:-2]))
            assert vertex_sum == pytest.approx(2.0, abs=1e-9)
            assert pw.raw_mass(pw.promote(p)) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_refinement_converges(self):
        rng = np.random.default_rng(149)
        improved = 0
        cases = 0
        for _ in range(20):
            m1, m2 = rng.uniform(-2, 2, size=2)
            s1, s2 = rng.uniform(0.5, 1.2, size=2)
            w = rng.uniform(0.2, 0.8)

            def target(x, m1=m1, m2=m2, s1=s1, s2=s2, w=w):
                x = np.asarray(x, float)
                g1 = np.exp(-0.5 * ((x - m1) / s1) ** 2) / (
                    s1 * math.sqrt(2 * math.pi)
                )
                g2 = np.exp(-0.5 * ((x - m2) / s2) ** 2) / (
                    s2 * math.sqrt(2 * math.pi)
                )
                return w * g1 + (1 - w) * g2

            errs = []
            for pieces in (16, 32, 64):
                p = pw.fit(
                    pw.FitRequest.from_function(target, -6, 6, pieces)
                )
                errs.append(pw.fit_error(p, target, resolution=20))
            cases += 1
            assert errs[1] <= errs[0] + 1e-12
            assert errs[2] <= errs[1] + 1e-12
            if errs[2] < errs[0]:
                improved += 1
        assert improved >= 0.95 * cases


class TestFitValidation:
    def test_all_zero_curve(self):
        with pytest.raises(pw.ZeroMassError):
            pw.fit(pw.FitRequest.from_points([0, 1, 2], [0, 0, 0]))

    def test_non_increasing_xs(self):
        with pytest.raises(pw.NotIncreasingError):
            pw.fit(pw.FitRequest.from_points([0, 1, 1], [0, 1, 0]))
        with pytest.raises(pw.NotIncreasingError):
            pw.fit(pw.FitRequest.from_points([0, 2, 1], [0, 1, 0]))

    def test_negative_values(self):
        with pytest.raises(pw.NegativeValueError):
            pw.fit(pw.FitRequest.from_points([0, 1, 2], [0, -1, 0]))

    @pytest.mark.parametrize(
        "xs,ys",
        [
            ([0.0, 1.0, 2.0], [0.0, 1.0]),
            ([[0.0, 1.0, 2.0]] * 2, [[0.0, 1.0, 0.0]] * 2),
        ],
    )
    def test_arrays_must_be_one_dimensional_and_equal_length(self, xs, ys):
        req = pw.FitRequest(np.array(xs), np.array(ys), True)
        with pytest.raises(pw.NotIncreasingError) as err:
            pw.fit(req)
        assert str(err.value) == "xs and ys must be 1-D arrays of equal length"

    def test_non_finite_xs(self):
        req = pw.FitRequest(np.array([0.0, np.inf, 2.0]), np.array([0.0, 1.0, 0.0]), True)
        with pytest.raises(pw.NotIncreasingError) as err:
            pw.fit(req)
        assert str(err.value) == "xs must be finite"

    def test_too_few_points(self):
        with pytest.raises(pw.DensityError):
            pw.fit(pw.FitRequest.from_points([0, 1], [0, 0]))

    def test_unclamped_ends_must_be_zero(self):
        req = pw.FitRequest.from_points(
            [0, 1, 2], [0.5, 1, 0.5], clamp_ends=False
        )
        with pytest.raises(pw.DensityError):
            pw.fit(req)

    def test_clamped_ends_discard_end_values(self):
        req = pw.FitRequest.from_points([0, 1, 2], [0.5, 1, 0.5])
        p = pw.fit(req)
        assert p.heights[0] == 0.0
        assert p.heights[-1] == 0.0

    def test_from_function_validation(self):
        with pytest.raises(pw.NotIncreasingError):
            pw.FitRequest.from_function(_normal_pdf, 1, 0, pieces=4)
        with pytest.raises(pw.NotIncreasingError):
            pw.FitRequest.from_function(_normal_pdf, 0, 1, pieces=1)
