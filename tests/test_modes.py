"""Supremum of the density and the full set of locations attaining it."""

import numpy as np
import pytest

import pwldist as pw

from oracles import reference_mode_set, reference_mode_set_continuous


def _step():
    return pw.validate([0, 1, 2], [0.75, 0.25], [0.75, 0.25])


def _loci_by_kind(ms):
    out = {}
    for locus in ms.loci:
        out.setdefault(locus.kind, []).append(locus)
    return out


class TestFSup:
    def test_step_default_convention(self):
        assert pw.f_sup(_step()) == pytest.approx(0.75, abs=1e-15)

    def test_point_values_can_raise_the_sup(self):
        d = pw.validate([0, 1, 2], [1.0, 1.0], [1.0, 1.0], [0, 5, 0])
        assert pw.f_sup(d, convention="point_and_limits") == 5.0
        assert pw.f_sup(d, convention="limits_only") == 1.0

    def test_mean_limits_only(self):
        # At the interior breakpoint the two one-sided limits average
        # to (0.75 + 0.25) / 2 = 0.5, which is the whole candidate set.
        assert pw.f_sup(_step(), convention="mean_limits_only") == 0.5

    def test_continuous_density_same_under_all_conventions(self):
        d = pw.promote(pw.triangular(0, 0.5, 1))
        for conv in pw.CONVENTIONS:
            assert pw.f_sup(d, convention=conv) == pytest.approx(
                2.0, abs=1e-15
            )

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            pw.f_sup(_step(), convention="pointwise")

    def test_scale_equivariance_without_normalization(self):
        d = pw.scale(_step(), 3.7)
        assert pw.f_sup(d) == pytest.approx(3.7 * 0.75, rel=1e-14)


class TestModeSet:
    def test_step_density_loci(self):
        ms = pw.mode_set(_step())
        kinds = [(l.kind, l.position) for l in ms.loci]
        assert ("right-limit", 0.0) in kinds
        assert ("left-limit", 1.0) in kinds
        plateau = [l for l in ms.loci if l.kind == "open-interval"]
        assert len(plateau) == 1
        assert (plateau[0].position, plateau[0].position2) == (0.0, 1.0)

    def test_uniform_outermost_plateau(self):
        ms = pw.mode_set(pw.validate([0, 1], [1.0], [1.0]))
        kinds = _loci_by_kind(ms)
        assert [l.position for l in kinds["right-limit"]] == [0.0]
        assert [l.position for l in kinds["left-limit"]] == [1.0]
        assert [
            (l.position, l.position2) for l in kinds["open-interval"]
        ] == [(0.0, 1.0)]

    def test_symmetric_tetragonal(self):
        d = pw.promote(pw.tetragonal(0, 1, 2, 3, 1, 1))
        ms = pw.mode_set(d)
        assert ms.f_sup == pytest.approx(0.5, abs=1e-15)
        kinds = _loci_by_kind(ms)
        assert sorted(l.position for l in kinds["point"]) == [1.0, 2.0]
        assert [
            (l.position, l.position2) for l in kinds["open-interval"]
        ] == [(1.0, 2.0)]

    def test_asymmetric_tetragonal_single_apex(self):
        d = pw.promote(pw.tetragonal(0, 1, 2, 3, 2, 0))
        ms = pw.mode_set(d)
        points = [l for l in ms.loci if l.kind == "point"]
        assert len(points) == 1
        assert points[0].position == pytest.approx(1.0, abs=1e-15)
        assert not any(l.kind == "open-interval" for l in ms.loci)

    def test_matching_one_sided_limits_merge_to_point(self):
        d = pw.validate([0, 1, 2], [0.5, 1.5], [1.5, 0.5])
        ms = pw.mode_set(d)
        assert [(l.kind, l.position) for l in ms.loci] == [("point", 1.0)]

    def test_point_value_locus(self):
        d = pw.validate([0, 1, 2], [1.0, 1.0], [1.0, 1.0], [0, 5, 0])
        ms = pw.mode_set(d, convention="point_and_limits")
        assert ms.f_sup == 5.0
        assert [(l.kind, l.position) for l in ms.loci] == [("point", 1.0)]

    def test_limits_only_ignores_point_values(self):
        base = pw.mode_set(_step())
        spiked = pw.validate(
            [0, 1, 2], [0.75, 0.25], [0.75, 0.25], [9, 9, 9]
        )
        assert pw.mode_set(spiked).loci == base.loci

    def test_half_half_locus(self):
        ms = pw.mode_set(_step(), convention="mean_limits_only")
        assert ms.f_sup == 0.5
        assert [(l.kind, l.position) for l in ms.loci] == [
            ("half-half", 1.0)
        ]

    def test_every_locus_attains_the_sup(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            c = np.sort(rng.uniform(-5, 5, size=n + 2))
            if np.any(np.diff(c) <= 1e-6):
                continue
            rr = rng.uniform(0, 1, size=n + 1)
            ll = rng.uniform(0, 1, size=n + 1)
            d = pw.validate(c, rr, ll)
            ms = pw.mode_set(d)
            left_full = np.concatenate(([0.0], d.left_limits))
            right_full = np.concatenate((d.right_limits, [0.0]))
            for locus in ms.loci:
                if locus.kind == "open-interval":
                    i = int(np.searchsorted(d.breakpoints, locus.position))
                    assert d.right_limits[i] == pytest.approx(
                        ms.f_sup, rel=1e-12
                    )
                    assert d.left_limits[i] == pytest.approx(
                        ms.f_sup, rel=1e-12
                    )
                else:
                    i = int(np.searchsorted(d.breakpoints, locus.position))
                    attained = max(left_full[i], right_full[i])
                    assert attained == pytest.approx(ms.f_sup, rel=1e-12)


def _tie_heights(rng, size, top):
    """Heights drawn from the top level, near-ties within 1e-12 relative
    on either side of it, values just outside the tie tolerance, lower
    values and zero runs."""
    palette = np.array([
        top,
        top * (1.0 - 4e-13),
        top * (1.0 + 4e-13),
        top * (1.0 - 3e-12),
        0.5 * top,
        0.0,
    ])
    h = palette[rng.integers(0, palette.size, size=size)]
    lower = rng.random(size) < 0.3
    h[lower] = rng.uniform(0.0, top, size=int(lower.sum()))
    for _ in range(int(rng.integers(0, 3))):
        start = int(rng.integers(0, max(size, 1)))
        h[start:start + int(rng.integers(1, 6))] = 0.0
    return h


def _random_tie_density(rng, n):
    """A density with ties to its supremum, outermost plateaus, jumps,
    zero runs and, half the time, point values above the limits."""
    c = np.cumsum(rng.uniform(0.1, 1.0, size=n + 2)) - rng.uniform(0.0, 50.0)
    top = float(rng.uniform(0.5, 2.0))
    rr = _tie_heights(rng, n + 1, top)
    ll = _tie_heights(rng, n + 1, top)
    continuous = rng.random(n) < 0.5
    ll[:-1][continuous] = rr[1:][continuous]
    if rng.random() < 0.3:
        rr[0] = ll[0] = top
    if rng.random() < 0.3:
        rr[-1] = ll[-1] = top
    pv = None
    if rng.random() < 0.5:
        pv = _tie_heights(rng, n + 2, top)
        above = rng.random(n + 2) < 0.05
        pv[above] = top * rng.choice([1.0, 1.5], size=int(above.sum()))
    return pw.validate(c, rr, ll, pv)


def _as_tuples(ms):
    return [(l.kind, l.position, l.position2) for l in ms.loci]


class TestModeSetAgainstScan:
    """The masked mode_set against a per-breakpoint reference scan."""

    def test_equal_to_reference_scan(self):
        rng = np.random.default_rng(211)
        kinds = set()
        for trial in range(240):
            n = int(rng.integers(0, 30)) if trial % 40 else int(rng.integers(1000, 10_001))
            d = _random_tie_density(rng, n)
            for conv in pw.CONVENTIONS:
                ms = pw.mode_set(d, convention=conv)
                sup, loci = reference_mode_set(d, conv)
                assert ms.f_sup == sup
                assert _as_tuples(ms) == loci
                kinds.update(kind for kind, _, _ in loci)
        assert kinds == {
            "point", "left-limit", "right-limit", "half-half", "open-interval"
        }

    def test_continuous_equal_to_reference_scan(self):
        rng = np.random.default_rng(223)
        for trial in range(200):
            n = int(rng.integers(0, 30)) if trial % 40 else int(rng.integers(1000, 10_001))
            c = np.cumsum(rng.uniform(0.1, 1.0, size=n + 2))
            h = np.zeros(n + 2)
            h[1:-1] = _tie_heights(rng, n, float(rng.uniform(0.5, 2.0)))
            ms = pw.mode_set_continuous(pw.PolygonalDensity(pw.Grid(c), h))
            fmax, loci = reference_mode_set_continuous(h, c)
            assert ms.f_sup == fmax
            assert _as_tuples(ms) == loci


class TestModeSetContinuous:
    def test_triangular_apex(self):
        ms = pw.mode_set_continuous(pw.triangular(0, 0.3, 1))
        assert ms.f_sup == pytest.approx(2.0, abs=1e-15)
        assert [(l.kind, l.position) for l in ms.loci] == [("point", 0.3)]

    def test_plateau(self):
        p = pw.PolygonalDensity(pw.Grid([0, 1, 2, 3]), [0, 1, 1, 0])
        ms = pw.mode_set_continuous(p)
        kinds = _loci_by_kind(ms)
        assert sorted(l.position for l in kinds["point"]) == [1.0, 2.0]
        assert [
            (l.position, l.position2) for l in kinds["open-interval"]
        ] == [(1.0, 2.0)]

    def test_coincident_breakpoints(self):
        # Hit vertices on one position are one point, with no plateau
        # between them.
        apex = pw.tetragonal(0, 1, 1, 2, 1, 1)
        ms = pw.mode_set_continuous(apex)
        assert ms.loci == (pw.ModeLocus("point", 1.0),)
        assert pw.mode_set(pw.promote(apex)).loci == ms.loci
        plateau = [
            ("point", 1.0, None), ("open-interval", 1.0, 2.0), ("point", 2.0, None)
        ]
        for c in ([0, 1, 1, 2, 3], [0, 1, 2, 2, 3]):
            p = pw.PolygonalDensity(pw.Grid(c), [0, 1, 1, 1, 0])
            assert _as_tuples(pw.mode_set_continuous(p)) == plateau

    def test_twin_peaks(self):
        p = pw.PolygonalDensity(pw.Grid([0, 1, 2, 3, 4]), [0, 1, 0, 1, 0])
        ms = pw.mode_set_continuous(p)
        assert sorted(l.position for l in ms.loci) == [1.0, 3.0]
        assert all(l.kind == "point" for l in ms.loci)

    def test_agrees_with_general_route(self):
        rng = np.random.default_rng(107)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            c = np.sort(rng.uniform(-5, 5, size=n + 2))
            if np.any(np.diff(c) <= 1e-6):
                continue
            h = np.zeros(n + 2)
            h[1:-1] = rng.uniform(0.1, 1.0, size=n)
            p = pw.PolygonalDensity(pw.Grid(c), h)
            cont = pw.mode_set_continuous(p)
            general = pw.mode_set(pw.promote(p))
            assert general.f_sup == pytest.approx(cont.f_sup, rel=1e-12)
            cont_points = sorted(
                l.position for l in cont.loci if l.kind == "point"
            )
            general_points = sorted(
                l.position for l in general.loci if l.kind == "point"
            )
            assert general_points == cont_points
