"""Construction, validation, normalization, and canonical form."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pwldist as pw

from oracles import random_density_arrays


def test_validate_builds_frozen_arrays():
    d = pw.validate([0, 1, 2], [0.75, 0.25], [0.75, 0.25])
    assert d.n == 1
    assert d.support == (0.0, 2.0)
    assert_allclose(d.breakpoints, [0.0, 1.0, 2.0])
    assert not d.right_limits.flags.writeable
    assert not d.left_limits.flags.writeable
    with pytest.raises(ValueError):
        d.breakpoints[0] = 5.0


def test_validate_accepts_point_values():
    d = pw.validate([0, 1, 2], [0.75, 0.25], [0.75, 0.25], [0, 5, 0])
    assert d.point_values is not None
    assert_allclose(d.point_values, [0.0, 5.0, 0.0])


@pytest.mark.parametrize(
    "breakpoints,rr,ll,err",
    [
        ([0, 1, 2], [1.0], [1.0, 1.0], pw.LengthMismatchError),
        ([0, 1, 2], [1.0, 1.0], [1.0], pw.LengthMismatchError),
        ([0, 1, 2], [1.0, -0.5], [1.0, 1.0], pw.NegativeValueError),
        ([0, 1, 2], [1.0, np.nan], [1.0, 1.0], pw.NegativeValueError),
        ([0, 2, 1], [1.0, 1.0], [1.0, 1.0], pw.NotNondecreasingError),
        ([1, 1], [1.0], [1.0], pw.EmptySupportError),
        ([0.5], [], [], pw.EmptySupportError),
        ([0, np.inf], [1.0], [1.0], pw.DensityError),
    ],
)
def test_validate_rejects_bad_input(breakpoints, rr, ll, err):
    with pytest.raises(err):
        pw.validate(breakpoints, rr, ll)


def test_negative_limit_message_names_index():
    with pytest.raises(pw.NegativeValueError, match=r"right_limits\[1\]"):
        pw.validate([0, 1, 2], [1.0, -0.5], [1.0, 1.0])


def test_point_values_length_checked():
    with pytest.raises(pw.LengthMismatchError):
        pw.validate([0, 1, 2], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0])


def test_rejects_two_dimensional_breakpoints():
    with pytest.raises(pw.DensityError) as err:
        pw.validate([[0, 1], [1, 2]], [1.0], [1.0])
    assert str(err.value) == "breakpoints must be one-dimensional"


def test_rejects_a_support_whose_width_overflows():
    # Each breakpoint is finite, but c_{n+1} - c_0 is not.
    with pytest.raises(pw.DensityError) as err:
        pw.validate([-1e308, 0.0, 1e308], [1.0, 1.0], [1.0, 1.0])
    assert type(err.value) is pw.DensityError
    assert str(err.value) == "support width overflows"
    assert pw.Grid([-1e308, 7e307]).b == 7e307


def test_polygon_heights_length_checked():
    with pytest.raises(pw.LengthMismatchError) as err:
        pw.PolygonalDensity(pw.Grid([0, 1, 2]), [0.0, 1.0])
    assert str(err.value) == "heights has 2 entries, expected 3"


def test_polygon_is_normalized():
    assert pw.PolygonalDensity(pw.Grid([0, 1, 2]), [0.0, 1.0, 0.0]).is_normalized
    assert not pw.PolygonalDensity(pw.Grid([0, 1, 2]), [0.0, 2.0, 0.0]).is_normalized


@pytest.mark.parametrize(
    "breakpoints,rr,ll,expected",
    [
        ([0, 1, 2], [0.75, 0.25], [0.75, 0.25], 1.0),
        ([0, 1], [2.0], [0.0], 1.0),
        ([0, 0.5, 1, 2, 2.5, 3], [0, 2, 0, 0, 2], [2, 0, 0, 2, 0], 2.0),
        ([0, 1], [1.5], [1.5], 1.5),
    ],
)
def test_raw_mass_trapezoid_sum(breakpoints, rr, ll, expected):
    d = pw.validate(breakpoints, rr, ll)
    assert_allclose(pw.raw_mass(d), expected, rtol=1e-15)


def test_normalize_step_density():
    d = pw.validate([0, 1, 2], [1.5, 0.5], [1.5, 0.5])
    scaled, report = pw.normalize(d)
    assert report.raw_mass == pytest.approx(2.0, rel=1e-15)
    assert report.factor_k == pytest.approx(0.5, rel=1e-15)
    assert_allclose(scaled.right_limits, [0.75, 0.25])
    assert_allclose(scaled.left_limits, [0.75, 0.25])
    assert scaled.is_normalized


def test_normalize_random_densities_matches_inverse_mass():
    rng = np.random.default_rng(7)
    for _ in range(200):
        c, rr, ll = random_density_arrays(rng)
        s = rng.uniform(0.1, 10.0)
        d = pw.validate(c, rr * s, ll * s)
        mass = pw.raw_mass(d)
        scaled, report = pw.normalize(d)
        assert abs(pw.raw_mass(scaled) - 1.0) <= 1e-9
        assert report.factor_k == pytest.approx(1.0 / mass, rel=1e-12)
        # the trapezoid sum itself lands on 2
        total = np.sum(
            (scaled.right_limits + scaled.left_limits) * np.diff(scaled.breakpoints)
        )
        assert abs(total - 2.0) <= 1e-9


def test_normalize_zero_mass_raises():
    d = pw.validate([0, 1], [0.0], [0.0])
    with pytest.raises(pw.ZeroMassError):
        pw.normalize(d)


@pytest.mark.parametrize(
    "d",
    [
        pw.validate([0, 1], [1e-320], [1e-320]),
        pw.promote(pw.PolygonalDensity(pw.Grid([0, 1, 2]), [0, 1e-320, 0])),
    ],
    ids=["step", "polygon"],
)
def test_normalize_refuses_a_mass_whose_reciprocal_overflows(d):
    with pytest.raises(pw.ZeroMassError, match="1e-320: 1/mass overflows"):
        pw.normalize(d)


def test_normalize_refuses_an_infinite_mass():
    with np.errstate(over="ignore"):  # the mass itself overflows
        d = pw.validate([0, 1, 2, 3], [0, 1e308, 1e308], [1e308, 1e308, 0])
        with pytest.raises(pw.ZeroMassError, match="mass overflows to inf"):
            pw.normalize(d)


def test_normalize_scales_point_values():
    d = pw.validate([0, 1], [1.5], [1.5], [0.0, 3.0])
    scaled, _ = pw.normalize(d)
    assert_allclose(scaled.point_values, [0.0, 2.0])


def test_canonicalize_drops_empty_pieces():
    """A zero-width piece carries no mass; the flanking limits survive."""
    d = pw.PiecewiseLinearDensity(
        pw.Grid([0, 1, 1, 2]), [1.0, 5.0, 0.5], [2.0, 7.0, 0.25]
    )
    out = pw.canonicalize(d)
    assert_allclose(out.breakpoints, [0.0, 1.0, 2.0])
    # leftmost L and rightmost R at the merged breakpoint
    assert_allclose(out.left_limits, [2.0, 0.25])
    assert_allclose(out.right_limits, [1.0, 0.5])


def test_canonicalize_merges_point_values_by_max():
    d = pw.PiecewiseLinearDensity(
        pw.Grid([0, 1, 1, 2]),
        [1.0, 5.0, 0.5],
        [2.0, 7.0, 0.25],
        point_values=[0.0, 3.0, 9.0, 0.0],
    )
    out = pw.canonicalize(d)
    assert_allclose(out.point_values, [0.0, 9.0, 0.0])


def test_canonicalize_identity_on_strict_grid():
    d = pw.validate([0, 1, 2], [1, 1], [1, 1])
    assert pw.canonicalize(d) is d


def test_canonicalize_preserves_mass():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c, rr, ll = random_density_arrays(rng, max_interior=5)
        # duplicate a random breakpoint, giving the empty piece junk limits
        k = int(rng.integers(0, c.size))
        c2 = np.insert(c, k, c[k])
        j = min(k, c2.size - 2)
        rr2 = np.insert(rr, j, rng.uniform(0, 3))
        ll2 = np.insert(ll, j, rng.uniform(0, 3))
        d = pw.PiecewiseLinearDensity(pw.Grid(c2), rr2, ll2)
        out = pw.canonicalize(d)
        assert out.grid.is_strict
        assert_allclose(pw.raw_mass(out), pw.raw_mass(d), rtol=1e-14)
        assert out is d
        raw = np.sum((rr2 + ll2) * np.diff(c2)) / 2.0
        assert_allclose(pw.raw_mass(d), raw, rtol=1e-14)


def test_density_is_canonical_at_construction():
    d = pw.PiecewiseLinearDensity(
        pw.Grid([0, 1, 1, 2]), [1.0, 5.0, 0.5], [2.0, 7.0, 0.25]
    )
    assert np.all(np.diff(d.breakpoints) > 0.0)
    assert_allclose(d.breakpoints, [0.0, 1.0, 2.0])
    assert not d.right_limits.flags.writeable
    assert not d.left_limits.flags.writeable


def test_promote_matches_heights():
    p = pw.PolygonalDensity(pw.Grid([0, 0.5, 1]), [0, 2, 0])
    d = pw.promote(p)
    assert_allclose(d.right_limits, [0.0, 2.0])
    assert_allclose(d.left_limits, [2.0, 0.0])
    assert_allclose(d.point_values, [0.0, 2.0, 0.0])
    assert_allclose(pw.raw_mass(d), 1.0, rtol=1e-15)


@pytest.mark.parametrize(
    "c, h",
    [
        ([0, 0.5, 1], [0, 2, 0]),
        ([0, 1, 1, 2, 2, 2, 3], [0, 0.5, 1.5, 0.25, 0.75, 0.5, 0]),
        ([-1e12, -1e12, 5.0, 5.0], [0, 0, 2e-12, 0]),
    ],
)
def test_promote_equals_the_checked_constructor(c, h):
    heights = np.array(h, dtype=float)
    p = pw.PolygonalDensity(pw.Grid(c), heights)
    d = pw.promote(p)
    ref = pw.PiecewiseLinearDensity(p.grid, p.heights[:-1], p.heights[1:], p.heights)
    assert np.all(np.diff(d.breakpoints) > 0.0)
    for name in ("breakpoints", "right_limits", "left_limits", "point_values"):
        got, want = getattr(d, name), getattr(ref, name)
        assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
        assert not got.flags.writeable
    # The caller's array is not shared: writing it changes nothing.
    heights[1:-1] = 7.0
    assert d.point_values.tobytes() == ref.point_values.tobytes()
    assert d._results == {} and repr(pw.raw_moment(d, 2)) == repr(pw.raw_moment(ref, 2))


def test_polygonal_requires_zero_outer_heights():
    with pytest.raises(pw.DensityError):
        pw.PolygonalDensity(pw.Grid([0, 1, 2]), [0.5, 1, 0])


def test_scale_multiplies_mass():
    d = pw.validate([0, 1, 3], [1, 0.5], [0.25, 0], [0, 1, 0])
    out = pw.scale(d, 4.0)
    assert_allclose(pw.raw_mass(out), 4.0 * pw.raw_mass(d), rtol=1e-15)
    assert_allclose(out.point_values, [0.0, 4.0, 0.0])
    with pytest.raises(pw.DensityError):
        pw.scale(d, 0.0)


def test_require_normalized_reports_factor():
    d = pw.validate([0, 1], [4.0], [4.0])
    with pytest.raises(pw.NotNormalizedError, match="0.25"):
        pw.require_normalized(d)


def test_is_normalized_tolerance_boundary():
    eps = 1e-9
    assert pw.validate([0, 1], [1 + 0.5 * eps], [1 + 0.5 * eps]).is_normalized
    assert not pw.validate([0, 1], [1 + 4 * eps], [1 + 4 * eps]).is_normalized


def test_grid_properties():
    g = pw.Grid([0, 1, 1, 4])
    assert g.n == 2
    assert (g.a, g.b) == (0.0, 4.0)
    assert_allclose(g.widths, [1.0, 0.0, 3.0])
    assert not g.is_strict
    assert pw.Grid([0, 2]).is_strict
