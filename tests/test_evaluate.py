"""Piece lookup, pdf evaluation, and the cumulative distribution."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import pwldist as pw

from oracles import oracle_pdf, quad_cdf, random_density_arrays


def _step():
    return pw.validate([0, 1, 2], [0.75, 0.25], [0.75, 0.25])


def _two_triangle():
    d = pw.validate([0, 0.5, 1, 2, 2.5, 3], [0, 2, 0, 0, 2], [2, 0, 0, 2, 0])
    scaled, _ = pw.normalize(d)
    return scaled


def test_piece_index_basic():
    g = pw.Grid([0, 1, 2])
    assert pw.piece_index(g, 0.0) == 0
    assert pw.piece_index(g, 0.999) == 0
    assert pw.piece_index(g, 1.0) == 1
    assert pw.piece_index(g, 2.0) == 1  # right endpoint clamps to last piece


def test_piece_index_tie_resolves_to_maximal():
    g = pw.Grid([0, 1, 1, 2])
    assert pw.piece_index(g, 1.0) == 2


def test_piece_index_array_and_errors():
    g = pw.Grid([0, 1, 2])
    assert_allclose(pw.piece_index(g, [0.5, 1.5, 2.0]), [0, 1, 1])
    for bad in (-0.1, 2.1, np.nan):
        with pytest.raises(pw.OutOfSupportError):
            pw.piece_index(g, bad)


def test_pdf_step_values():
    d = _step()
    assert pw.pdf(d, 0.5) == pytest.approx(0.75)
    assert pw.pdf(d, 1.5) == pytest.approx(0.25)
    assert pw.pdf(d, -0.5) == 0.0
    assert pw.pdf(d, 2.5) == 0.0
    assert isinstance(pw.pdf(d, 0.5), float)


def test_pdf_ramp_interpolates():
    d = pw.validate([0, 1], [0.0], [2.0])
    assert pw.pdf(d, 0.25) == pytest.approx(0.5)
    assert pw.pdf(d, 0.75) == pytest.approx(1.5)


def test_pdf_triangular_quarter_point():
    d = pw.promote(pw.triangular(0, 0.5, 1))
    assert pw.pdf(d, 0.25) == pytest.approx(1.0)


def test_pdf_breakpoint_conventions():
    """Without stored point values, 'given' falls back to the max rule."""
    d = _step()
    assert pw.pdf(d, 1.0) == pytest.approx(0.75)
    assert pw.pdf(d, 1.0, point_rule="max") == pytest.approx(0.75)
    assert pw.pdf(d, 1.0, point_rule="mean") == pytest.approx(0.5)
    # outer breakpoints see the implicit zero limits
    assert pw.pdf(d, 0.0, point_rule="mean") == pytest.approx(0.375)
    assert pw.pdf(d, 2.0, point_rule="mean") == pytest.approx(0.125)
    with pytest.raises(ValueError):
        pw.pdf(d, 1.0, point_rule="median")
    with pytest.raises(ValueError):
        pw.pdf(d, 0.5, point_rule="median")


def test_pdf_stored_point_values_win_under_given():
    d = pw.validate([0, 1, 2], [0.75, 0.25], [0.75, 0.25], [0, 5, 0])
    assert pw.pdf(d, 1.0) == pytest.approx(5.0)
    assert pw.pdf(d, 1.0, point_rule="max") == pytest.approx(0.75)
    assert pw.pdf(d, 0.5) == pytest.approx(0.75)  # interior unaffected


def test_pdf_at_breakpoints_matches_breakpoint_values():
    rng = np.random.default_rng(29)
    for _ in range(30):
        c, rr, ll = random_density_arrays(rng)
        left_full = np.concatenate(([0.0], ll))
        right_full = np.concatenate((rr, [0.0]))
        pv = rng.uniform(0.0, 2.0, size=c.size)
        expected = {
            "max": np.maximum(left_full, right_full),
            "mean": (left_full + right_full) / 2.0,
        }
        for d, given in (
            (pw.validate(c, rr, ll), expected["max"]),
            (pw.validate(c, rr, ll, pv), pv),
        ):
            for rule, values in dict(expected, given=given).items():
                assert_array_equal(pw.breakpoint_values(d, rule), values)
                assert_array_equal(pw.pdf(d, c, point_rule=rule), values)
                assert [pw.pdf(d, float(x), point_rule=rule) for x in c] == list(values)


def test_pdf_vector_matches_scalar():
    d = _two_triangle()
    xs = np.linspace(-0.5, 3.5, 41)
    vec = pw.pdf(d, xs)
    assert vec.tolist() == [pw.pdf(d, float(x)) for x in xs]


def test_pdf_matches_reference_interpolant():
    rng = np.random.default_rng(23)
    for _ in range(50):
        c, rr, ll = random_density_arrays(rng)
        d = pw.validate(c, rr, ll)
        f = oracle_pdf(c, rr, ll)
        # stay away from the breakpoints where conventions differ
        for x in rng.uniform(c[0], c[-1], size=20):
            if np.min(np.abs(c - x)) < 1e-9:
                continue
            assert pw.pdf(d, float(x)) == pytest.approx(f(x), abs=1e-12)


def test_cdf_step_frozen_values():
    d = _step()
    assert pw.cdf(d, 0.5) == pytest.approx(0.375, abs=1e-15)
    assert pw.cdf(d, 1.0) == pytest.approx(0.75, abs=1e-15)
    assert pw.cdf(d, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert pw.cdf(d, -1.0) == 0.0
    assert pw.cdf(d, 3.0) == pytest.approx(1.0, abs=1e-15)


def test_cdf_exactly_reproduces_table_at_breakpoints():
    d = _two_triangle()
    table = pw.cdf_table(d).cumulative
    assert_allclose(table, [0.0, 0.25, 0.5, 0.5, 0.75, 1.0], atol=1e-15)
    for i, x in enumerate(d.breakpoints):
        assert pw.cdf(d, float(x)) == table[i]


def test_cdf_table_is_cumsum_and_readonly():
    d = _step()
    t = pw.cdf_table(d)
    masses = (d.right_limits + d.left_limits) * np.diff(d.breakpoints) / 2.0
    assert_allclose(t.cumulative, np.concatenate(([0.0], np.cumsum(masses))))
    assert not t.cumulative.flags.writeable


def test_cdf_table_is_built_once():
    d = _two_triangle()
    first, second = pw.cdf_table(d).cumulative, pw.cdf_table(d).cumulative
    assert first is second
    assert not first.flags.writeable


def test_cdf_unnormalized_density_integrates_to_mass():
    d = pw.validate([0, 1], [3.0], [3.0])
    assert pw.cdf(d, 1.0) == pytest.approx(3.0)
    assert pw.cdf(d, 0.5) == pytest.approx(1.5)


def test_cdf_monotone_on_random_densities():
    rng = np.random.default_rng(31)
    for _ in range(30):
        c, rr, ll = random_density_arrays(rng)
        d = pw.validate(c, rr, ll)
        xs = np.sort(rng.uniform(c[0] - 0.5, c[-1] + 0.5, size=60))
        vals = pw.cdf(d, xs)
        assert np.all(np.diff(vals) >= -1e-15)


def test_cdf_derivative_recovers_pdf():
    """Central difference of F lands on f away from breakpoints."""
    rng = np.random.default_rng(37)
    for _ in range(20):
        c, rr, ll = random_density_arrays(rng)
        d = pw.validate(c, rr, ll)
        span = c[-1] - c[0]
        h = 1e-6 * span
        for x in rng.uniform(c[0], c[-1], size=10):
            if np.min(np.abs(c - x)) < 2 * h:
                continue
            deriv = (pw.cdf(d, x + h) - pw.cdf(d, x - h)) / (2 * h)
            f = pw.pdf(d, float(x))
            assert abs(deriv - f) <= max(1e-6, 1e-4 * f)


def test_cdf_matches_quadrature():
    rng = np.random.default_rng(41)
    for _ in range(20):
        c, rr, ll = random_density_arrays(rng)
        d = pw.validate(c, rr, ll)
        for x in rng.uniform(c[0], c[-1], size=5):
            assert pw.cdf(d, float(x)) == pytest.approx(
                quad_cdf(c, rr, ll, float(x)), abs=1e-9
            )


def test_cdf_vector_matches_scalar():
    d = _step()
    xs = np.linspace(-1, 3, 33)
    assert pw.cdf(d, xs).tolist() == [pw.cdf(d, float(x)) for x in xs]


def test_nan_raises_and_infinities_keep_their_limits():
    d = _step()
    for fn in (pw.pdf, pw.cdf):
        with pytest.raises(pw.OutOfSupportError):
            fn(d, np.nan)
        with pytest.raises(pw.OutOfSupportError):
            fn(d, [0.5, np.nan, 1.5])
    # No RuntimeWarning either: pytest turns those into errors.
    assert pw.pdf(d, -np.inf) == 0.0
    assert pw.pdf(d, np.inf) == 0.0
    assert_array_equal(pw.pdf(d, [-np.inf, 0.5, np.inf]), [0.0, 0.75, 0.0])
    assert pw.cdf(d, -np.inf) == 0.0
    assert pw.cdf(d, np.inf) == pw.raw_mass(d)
    assert_array_equal(
        pw.cdf(d, [-np.inf, 1.0, np.inf]), [0.0, 0.75, pw.raw_mass(d)]
    )


def test_far_values_on_a_narrow_support_keep_their_limits():
    # x - c_j over a piece width of 1e-300 overflows to an infinite offset
    # ratio; values outside the support never reach the interpolation.
    d = pw.validate([0.0, 1e-300, 2e-300], [5e299, 5e299], [5e299, 5e299])
    assert_array_equal(pw.pdf(d, [-1e308, 1.5e-300, 1e308]), [0.0, 5e299, 0.0])
    assert_array_equal(pw.cdf(d, [-1e308, 1e-300, 1e308]), [0.0, 0.5, 1.0])
