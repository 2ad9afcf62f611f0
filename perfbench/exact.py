"""Exact reference values for piecewise-linear densities, and the answer checks.

Nothing here calls pwldist. A reference density is built from the same
generated numbers the library receives (or, for the triangular and
tetragonal families, from the exact rational heights the spec describes).
Breakpoints are held as integer numerators over one power-of-two
denominator and heights as integer numerators over one common denominator,
so mass, mean, variance and the cdf prefix table are exact integer sums even
at 10^5 pieces; single values (F at a point, a density value) are
``fractions.Fraction``.

Raw moments E[X^m], m >= 1, are the one exception: they are evaluated in
numpy's extended precision (``longdouble``, 64-bit mantissa or better)
from an independent Beta-integral form, because exact order-12 moments over
10^5 pieces cost seconds per density.

Every tolerance an answer is held to is in ``TOLERANCES``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import pairwise

import numpy as np

EPS = 2.0**-52

TOLERANCES = {
    # |F(x) - p| and cdf values, in probability units. The library's prefix
    # table is a running float sum of up to 10^5 terms of size <= 1, whose
    # worst-case error is about 2e-11.
    "prob_abs": 1e-10,
    # Total mass, against the exact trapezoid sum.
    "mass_abs": 1e-12,
    # Mean of f / mass, relative to S = max(|a|, |b|): a sum of positive
    # terms, so a few hundred EPS of S even at 10^5 pieces or 1e8 from the
    # origin. |mass - 1| times the support width comes on top (mean_slack).
    "mean_rel": 1e-13,
    # Raw moments (the integral of x^m f), relative to S^m, the size of the
    # numbers the closed form multiplies; its binomial shift adds up to 2^m
    # terms.
    "moment_rel": 1e-10,
    # Variance of f / mass, relative to the exact variance; the effect of a
    # centre and breakpoints off by their slack comes on top (variance_slack).
    "variance_rel": 1e-9,
    # Density values, relative to the largest height next to x.
    "pdf_rel": 1e-12,
    # Slack in x, in units of EPS * (largest |coordinate| of the piece):
    # a point answer is one rounded sum c_j + h, where h comes from a stable
    # quadratic solve accurate to a few EPS relative.
    "coord_eps": 8.0,
    # Text output: half a unit in the 12th significant digit.
    "print_rel": 5e-12,
    # Ties against f_sup, as documented for the mode machinery (semantic,
    # not an error bound).
    "mode_rel": 1e-12,
}

if np.finfo(np.longdouble).nmant < 60:
    raise ImportError("the raw-moment reference needs an extended numpy.longdouble")


def dyadic(values) -> tuple[list[int], int]:
    """Exact integer numerators of floats over one power-of-two denominator."""
    arr = np.asarray(values, dtype=float)
    shift = _shift(arr)
    return list(_numerators(arr, shift)), 1 << shift


def _shift(arr: np.ndarray) -> int:
    """Smallest k >= 0 such that 2^k times each float is an integer (or more)."""
    mant, exp = np.frexp(arr)
    nonzero = mant != 0.0
    return max(int((53 - exp[nonzero]).max()), 0) if nonzero.any() else 0


def _numerators(arr: np.ndarray, shift: int, chunk: int = 4096):
    """Iterator over the exact integers 2^shift * arr[i], made a chunk at a time."""
    for k in range(0, arr.size, chunk):
        mant, exp = np.frexp(arr[k:k + chunk])
        m = (mant * 2.0**53).astype(np.int64)
        shifts = np.where(m != 0, exp.astype(np.int64) - 53 + shift, 0)
        yield from map(operator.lshift, m.tolist(), shifts.tolist())


def _num(value, den: int) -> int:
    """The exact integer den * value; den is a multiple of value's denominator."""
    n, d = (value.numerator, value.denominator) if isinstance(value, Fraction) \
        else float(value).as_integer_ratio()
    return n * (den // d)


def common_denominator(values) -> int:
    return math.lcm(*(Fraction(v).denominator for v in values))


def coord_slack(*coords: float) -> float:
    return TOLERANCES["coord_eps"] * EPS * max(abs(float(v)) for v in coords)


class ExactDensity:
    """A density in exact arithmetic, canonicalized independently.

    ``breakpoints`` are floats (exact dyadic rationals). ``right``, ``left``
    and ``point_values`` are all floats, or all exact Fractions (the
    families). Zero-length pieces are dropped as the package documents: the
    surviving left limit is the leftmost ``L`` of a merged group, the
    surviving right limit the rightmost ``R``, and a point value the group
    maximum.

    Numerators are made on demand from the float arrays. Above
    ``FULL_TABLE`` pieces only every 32nd entry of the exact cdf prefix table
    is kept, so a 10^5-piece reference stays a few MB.
    """

    FULL_TABLE = 4096

    def __init__(self, breakpoints, right, left, point_values=None):
        c = np.asarray(breakpoints, dtype=float)
        positive = np.diff(c) > 0.0
        starts = np.flatnonzero(np.concatenate(([True], positive)))
        keep = np.flatnonzero(positive)
        self.c = c[starts]
        n = self.c.size - 1
        self.stride = 1 if n <= self.FULL_TABLE else 32
        if isinstance(next(iter(right)), Fraction):
            # Families: a handful of exact rational heights.
            right, left = [right[i] for i in keep], [left[i] for i in keep]
            pv = None if point_values is None else [
                max(point_values[a:b]) for a, b in zip(starts, list(starts[1:]) + [c.size])]
            self.hd = common_denominator(right + left + (pv or []))
            self._exact = (right, left, pv)
            self.r_f = np.array([float(v) for v in right])
            self.l_f = np.array([float(v) for v in left])
            self.pv_f = None if pv is None else np.array([float(v) for v in pv])
        else:
            self._exact = None
            self.r_f = np.asarray(right, dtype=float)[keep]
            self.l_f = np.asarray(left, dtype=float)[keep]
            self.pv_f = None if point_values is None else np.maximum.reduceat(
                np.asarray(point_values, dtype=float), starts)
            parts = [self.r_f, self.l_f] + ([] if self.pv_f is None else [self.pv_f])
            self.hd = 1 << _shift(np.concatenate(parts))
        self.cs = _shift(self.c)
        cd = 1 << self.cs

        # One exact pass: prefix table (every stride-th entry kept), mean,
        # second moment, and F at the start of every zero-density run.
        zero = (self.r_f == 0.0) & (self.l_f == 0.0)
        run_start = zero & ~np.concatenate(([False], zero[:-1]))
        run_end = zero & ~np.concatenate((zero[1:], [False]))
        runs = dict(zip(np.flatnonzero(run_start).tolist(), (np.flatnonzero(run_end) + 1).tolist()))
        self.flat = {}
        self.checkpoints = []
        acc = m1 = m2 = 0
        cn = pairwise(_numerators(self.c, self.cs))
        for i, r, l, (a, b) in zip(range(n), self._heights(0), self._heights(1), cn):
            if i % self.stride == 0:
                self.checkpoints.append(acc)
            if i in runs:
                self.flat[acc] = (i, runs[i])
            w = b - a
            acc += (r + l) * w
            m1 += w * (r * (2 * a + b) + l * (a + 2 * b))
            m2 += w * (r * (3 * a * a + 2 * a * b + b * b) + l * (a * a + 2 * a * b + 3 * b * b))
        hd = self.hd
        self.f_den = 2 * cd * hd
        self.mass = Fraction(acc, self.f_den)
        # The integrals of x f and x^2 f, and from them the mean and variance
        # of the distribution, whose density is f / mass.
        self.m1 = Fraction(m1, 6 * cd * cd * hd)
        self.m2 = Fraction(m2, 12 * cd**3 * hd)
        self.mean = self.m1 / self.mass
        self.variance = self.second_about(self.mean) / self.mass
        self.lo, self.hi = float(self.c[0]), float(self.c[-1])
        self.f_max = max(self._exact[0] + self._exact[1]) if self._exact else \
            Fraction(float(max(self.r_f.max(), self.l_f.max())))
        self.scale = max(abs(self.lo), abs(self.hi))
        self.width = self.hi - self.lo
        # A density counts as normalized when its mass is within the library's
        # NORMALIZATION_RTOL of 1, so no F(x) can come closer to p = 1 than that.
        self.eta = abs(float(self.mass) - 1.0)
        self.level_tol = Fraction(TOLERANCES["prob_abs"]) + abs(self.mass - 1)
        self._moments = None

    # -- exact numerators --------------------------------------------------

    def _heights(self, which: int):
        """Iterator over the exact height numerators: 0 right, 1 left, 2 point."""
        if self._exact is not None:
            return (_num(v, self.hd) for v in self._exact[which])
        return _numerators((self.r_f, self.l_f, self.pv_f)[which], self.hd.bit_length() - 1)

    def _height(self, which: int, i: int) -> int:
        values = self._exact[which] if self._exact is not None else (self.r_f, self.l_f, self.pv_f)[which]
        return _num(values[i], self.hd)

    def _table(self, j: int) -> int:
        """Exact F(c_j) * f_den, from the nearest checkpoint below j."""
        k = min(j // self.stride, len(self.checkpoints) - 1)
        acc = self.checkpoints[k]
        for i in range(k * self.stride, j):
            w = self._cnum(i + 1) - self._cnum(i)
            acc += (self._height(0, i) + self._height(1, i)) * w
        return acc

    def _cnum(self, i: int) -> int:
        return _num(self.c[i], 1 << self.cs)

    def second_about(self, centre: Fraction) -> Fraction:
        """The integral of (x - centre)^2 f."""
        return self.m2 - 2 * centre * self.m1 + centre * centre * self.mass

    @property
    def n_pieces(self) -> int:
        return self.c.size - 1

    def piece_scale(self, x: float) -> float:
        j = int(np.clip(np.searchsorted(self.c, x, side="right") - 1, 0, self.n_pieces - 1))
        return max(abs(x), abs(float(self.c[j])), abs(float(self.c[j + 1])))

    def _piece(self, x: Fraction) -> int:
        """Largest j with c_j <= x, for c_0 < x < c_{n+1}, decided exactly."""
        j = int(np.searchsorted(self.c, float(x), side="right")) - 1
        j = min(max(j, 0), self.n_pieces - 1)
        while j > 0 and float(self.c[j]) > x:
            j -= 1
        while j + 1 < self.n_pieces and float(self.c[j + 1]) <= x:
            j += 1
        return j

    # -- exact point values ---------------------------------------------

    def cdf(self, x) -> Fraction:
        """Exact F(x) for a float or Fraction x."""
        x = Fraction(x)
        if x <= self.lo:
            return Fraction(0)
        if x >= self.hi:
            return self.mass
        j = self._piece(x)
        h = x * (1 << self.cs) - self._cnum(j)
        w = self._cnum(j + 1) - self._cnum(j)
        r, l = self._height(0, j), self._height(1, j)
        partial = (h * r + (l - r) * h * h / (2 * w)) / ((1 << self.cs) * self.hd)
        return Fraction(self._table(j), self.f_den) + partial

    def cdf_around(self, x: float, slack: float) -> tuple[Fraction, Fraction]:
        """Exact bounds on F over [x - slack, x + slack]: F(x) -+ slack * sup f."""
        f = self.cdf(x)
        d = Fraction(slack) * self.f_max
        return f - d, f + d

    def cdf_many(self, xs) -> np.ndarray:
        """F at many points in extended precision, for bulk text output.

        The prefix table is exact, rounded once to longdouble; the partial
        piece adds a few longdouble roundings, far below ``prob_abs``.
        Needs float heights (every bulk check uses float-valued specs).
        """
        ld = np.longdouble
        if not hasattr(self, "_table_ld"):
            parts = []
            for j in range(self.n_pieces + 1):
                f = Fraction(self._table(j), self.f_den)
                hi = float(f)
                parts.append(ld(hi) + ld(float(f - Fraction(hi))))
            self._table_ld = np.array(parts)
        c = self.c.astype(ld)
        x = np.asarray(xs, dtype=ld)
        j = np.clip(np.searchsorted(c, x, side="right") - 1, 0, self.n_pieces - 1)
        h = x - c[j]
        r = self.r_f.astype(ld)[j]
        l = self.l_f.astype(ld)[j]
        out = self._table_ld[j] + h * r + (l - r) * h * h / (2 * (c[j + 1] - c[j]))
        out = np.where(x <= c[0], ld(0), out)
        return np.where(x >= c[-1], self._table_ld[-1], out)

    def pdf(self, x: float, point_rule: str = "given") -> Fraction:
        """Exact density at x under the library's breakpoint conventions."""
        hd = self.hd
        x = Fraction(x)
        if x < self.c[0] or x > self.c[-1]:
            return Fraction(0)
        k = int(np.searchsorted(self.c, float(x)))
        for near in (k - 1, k, k + 1):
            if 0 <= near <= self.n_pieces and self.c[near] == x:
                left = self._height(1, near - 1) if near > 0 else 0
                right = self._height(0, near) if near < self.n_pieces else 0
                if point_rule == "given" and self.pv_f is not None:
                    return Fraction(self._height(2, near), hd)
                if point_rule == "mean":
                    return Fraction(left + right, 2 * hd)
                return Fraction(max(left, right), hd)
        j = self._piece(x)
        t = (x - Fraction(self.c[j])) / (Fraction(self.c[j + 1]) - Fraction(self.c[j]))
        r, l = self._height(0, j), self._height(1, j)
        return (r + (l - r) * t) / hd

    def raw_moment(self, m: int) -> float:
        """E[X^m] in extended precision, from the Beta-integral form

        integral over a piece = w / ((m+1)(m+2)) * (R S_m + L T_m),
        S_m = sum_k (m-k+1) lo^(m-k) hi^k,  T_m = sum_k (k+1) lo^(m-k) hi^k,

        built for every order at once by S_m = lo S_(m-1) + P_m,
        T_m = hi T_(m-1) + P_m, P_m = lo P_(m-1) + hi^m.
        """
        if self._moments is None:
            ld = np.longdouble
            lo, hi = self.c[:-1].astype(ld), self.c[1:].astype(ld)
            r, l, w = self.r_f.astype(ld), self.l_f.astype(ld), hi - lo
            p = s = t = np.ones_like(lo)
            hi_pow = np.ones_like(lo)
            self._moments = [float(np.sum(w * (r + l)) / 2)]
            for k in range(1, 13):
                hi_pow = hi_pow * hi
                p = lo * p + hi_pow
                s, t = lo * s + p, hi * t + p
                self._moments.append(float(np.sum(w * (r * s + l * t)) / ld((k + 1) * (k + 2))))
        return self._moments[m]

    def flat_run(self, p: float):
        """(lower, upper) breakpoints of the exact flat stretch at level p, or None."""
        level = Fraction(p) * self.f_den
        if level.denominator != 1:
            return None
        run = self.flat.get(level.numerator)
        if run is None:
            return None
        return float(self.c[run[0]]), float(self.c[run[1]])

    def mode_loci(self, convention: str):
        """(f_sup, loci) under the documented mode conventions."""
        left_full = np.concatenate(([0.0], self.l_f))
        right_full = np.concatenate((self.r_f, [0.0]))
        use_points = convention in ("point_and_limits", "point_and_mean_limits")
        use_limits = convention in ("point_and_limits", "limits_only")
        use_means = convention in ("point_and_mean_limits", "mean_limits_only")
        pv = self.pv_f if self.pv_f is not None else np.maximum(left_full, right_full)
        means = (left_full + right_full) / 2.0
        sup = 0.0
        if use_limits:
            sup = max(sup, float(left_full.max()), float(right_full.max()))
        if use_points:
            sup = max(sup, float(pv.max()))
        if use_means:
            sup = max(sup, float(means.max()))
        tol = TOLERANCES["mode_rel"] * max(abs(sup), 1e-300)

        def near(a):
            return np.abs(a - sup) <= tol

        l_hit = near(left_full) & use_limits
        r_hit = near(right_full) & use_limits
        p_hit = near(pv) & use_points & ~(l_hit & r_hit)
        m_hit = near(means) & use_means
        plateau = near(self.r_f) & near(self.l_f)
        loci = []
        for i in np.flatnonzero(l_hit | r_hit | p_hit | m_hit | np.append(plateau, False)):
            pos = float(self.c[i])
            if l_hit[i] and r_hit[i]:
                loci.append(("point", pos, None))
            elif l_hit[i]:
                loci.append(("left-limit", pos, None))
            elif r_hit[i]:
                loci.append(("right-limit", pos, None))
            if p_hit[i]:
                loci.append(("point", pos, None))
            if m_hit[i]:
                loci.append(("half-half", pos, None))
            if i < self.n_pieces and plateau[i]:
                loci.append(("open-interval", pos, float(self.c[i + 1])))
        return sup, loci


# -- checks: each returns None when the answer is right, else a reason ----


class KnownDefect(str):
    """The reason for a wrong answer that matches a known, still open defect
    of the library (those ``workloads.known_defect_probes`` shows). The
    benchmark counts such operations apart from the failed ones and prints
    them, so a fix moves that count and any other error counts as failed."""


def verdict(reasons) -> str | None:
    """The first wrong answer among ``reasons``, else the first known defect."""
    known = None
    for reason in reasons:
        if reason and not isinstance(reason, KnownDefect):
            return reason
        known = known or reason
    return known


def check_level(ref: ExactDensity, x: float, p: float, extra: float = 0.0) -> str | None:
    """x solves F(x) = p, up to the coordinate slack (plus ``extra``) and
    the level tolerance."""
    if not math.isfinite(x):
        return f"non-finite answer {x!r} for p={p!r}"
    lo, hi = ref.cdf_around(x, coord_slack(ref.piece_scale(x)) + extra)
    p, tol = Fraction(p), ref.level_tol
    if lo > p + tol or hi < p - tol:
        return f"F({x!r}) in [{float(lo)!r}, {float(hi)!r}], wanted p={p!r}"
    return None


def _near_point(x: float, want: float) -> bool:
    return abs(x - want) <= coord_slack(x, want)


def check_quantile(ref: ExactDensity, x: float, p: float, rule: str) -> str | None:
    flat = ref.flat_run(p)
    if flat is not None:
        want = {"inf": flat[0], "sup": flat[1], "mid": (flat[0] + flat[1]) / 2.0}[rule]
        if not _near_point(x, want):
            return f"quantile({p!r}, {rule}) = {x!r} on flat stretch {flat}, wanted {want!r}"
        return None
    return check_level(ref, x, p)


def check_preimage(ref: ExactDensity, lower: float, upper: float, p: float) -> str | None:
    if not lower <= upper:
        return f"preimage lower {lower!r} > upper {upper!r}"
    flat = ref.flat_run(p)
    if flat is not None:
        if not (_near_point(lower, flat[0]) and _near_point(upper, flat[1])):
            return f"preimage ({lower!r}, {upper!r}) at p={p!r}, wanted {flat}"
        return None
    return check_level(ref, lower, p) or check_level(ref, upper, p)


def check_cdf(ref: ExactDensity, x: float, value: float) -> str | None:
    lo, hi = ref.cdf_around(x, coord_slack(ref.piece_scale(x)))
    tol = Fraction(TOLERANCES["prob_abs"])
    lo, hi = lo - tol, hi + tol
    if not lo <= Fraction(value) <= hi:
        return f"cdf({x!r}) = {value!r}, exact in [{float(lo)!r}, {float(hi)!r}]"
    return None


def check_pdf(ref: ExactDensity, x: float, value: float, point_rule: str) -> str | None:
    want = ref.pdf(x, point_rule)
    near = [want]
    if ref.c[0] < x < ref.c[-1] and x not in ref.c:
        # Inside a piece the answer may be the density one coordinate slack away.
        s = coord_slack(ref.piece_scale(x))
        near += [ref.pdf(x - s, point_rule), ref.pdf(x + s, point_rule)]
    tol = TOLERANCES["pdf_rel"] * float(max(near))
    if not float(min(near)) - tol <= value <= float(max(near)) + tol:
        return f"pdf({x!r}, {point_rule}) = {value!r}, exact {float(want)!r}"
    return None


def check_mass(ref: ExactDensity, value: float) -> str | None:
    if abs(Fraction(value) - ref.mass) > Fraction(TOLERANCES["mass_abs"]):
        return f"mass {value!r}, exact {float(ref.mass)!r}"
    return None


def mean_slack(ref: ExactDensity) -> float:
    """How far a right mean may lie from the exact one.

    Rounding in a sum of terms of size S = max(|a|, |b|), plus the gap
    between dividing by the mass or not, taken in a frame inside the support:
    at most |mass - 1| times the support width.
    """
    return TOLERANCES["mean_rel"] * ref.scale + ref.eta * ref.width


def variance_slack(ref: ExactDensity, centre: Fraction) -> float:
    """How far a right integral of (x - centre)^2 f may lie from the exact one.

    Relative rounding and the |mass - 1| gap between conventions; a centre
    that is off by up to ``mean_slack`` (delta) adds delta^2 + 2 delta
    |centre - mean|; breakpoints moved by a coordinate slack s, as any shift
    of the frame in floats moves them, add up to 2 s times the width.
    """
    delta = mean_slack(ref)
    v = float(ref.second_about(centre))
    return ((TOLERANCES["variance_rel"] + ref.eta) * v
            + delta * (delta + 2.0 * abs(float(centre - ref.mean)))
            + 2.0 * coord_slack(ref.scale) * ref.width)


def check_mean(ref: ExactDensity, value: float, extra: float = 0.0) -> str | None:
    """The mean of f / mass; ``extra`` widens the tolerance (printed values)."""
    tol = mean_slack(ref) + extra
    if math.isfinite(value) and abs(Fraction(value) - ref.mean) <= Fraction(tol):
        return None
    reason = f"mean {value!r}, exact {float(ref.mean)!r}, tolerance {tol:.3g}"
    if math.isfinite(value) and abs(Fraction(value) - ref.m1) <= Fraction(tol):
        return KnownDefect(f"{reason}: it is the integral of x f, not divided by "
                           f"the mass {float(ref.mass)!r}")
    return reason


def check_variance(ref: ExactDensity, value: float, extra: float = 0.0) -> str | None:
    """The variance of f / mass, about its exact mean."""
    tol = variance_slack(ref, ref.mean) + extra
    if math.isfinite(value) and abs(Fraction(value) - ref.variance) <= Fraction(tol):
        return None
    reason = f"variance {value!r}, exact {float(ref.variance)!r}, tolerance {tol:.3g}"
    if math.isfinite(value) and abs(Fraction(value) - ref.second_about(ref.m1)) \
            <= Fraction(variance_slack(ref, ref.m1) + extra):
        return KnownDefect(f"{reason}: it is taken about the integral of x f "
                           f"{float(ref.m1)!r}, not about the mean")
    return reason


def check_raw_moment(ref: ExactDensity, m: int, value: float) -> str | None:
    """The integral of x^m f, as the library documents (m = 0 gives the mass)."""
    if m == 0:
        return check_mass(ref, value)
    want = ref.raw_moment(m)
    tol = TOLERANCES["moment_rel"] * ref.scale**m
    if not math.isfinite(value) or abs(value - want) > tol:
        return f"E[X^{m}] = {value!r}, reference {want!r}"
    return None


def check_modes(ref: ExactDensity, mode_set, convention: str) -> str | None:
    sup, loci = ref.mode_loci(convention)
    got = [(l.kind, l.position, l.position2) for l in mode_set.loci]
    if abs(mode_set.f_sup - sup) > TOLERANCES["mode_rel"] * sup or got != loci:
        return f"mode set f_sup={mode_set.f_sup!r} loci={got[:4]}, wanted f_sup={sup!r} loci={loci[:4]}"
    return None


def check_median(ref: ExactDensity, ms) -> str | None:
    bad = check_preimage(ref, ms.v_min, ms.v_max, 0.5)
    if bad:
        return "median " + bad
    # The flags are documented as |F(v) - 1/2| <= 1e-9 on the computed cdf;
    # within prob_abs of that threshold either answer is right.
    for v, flag in ((ms.v_min, ms.min_attained), (ms.v_max, ms.max_attained)):
        gap = abs(float(ref.cdf(v) - Fraction(1, 2)))
        if abs(gap - 1e-9) > TOLERANCES["prob_abs"] and flag != (gap <= 1e-9):
            return f"median attainment flag {flag} at {v!r}, where |F - 1/2| = {gap!r}"
    return None


def check_printed(value_text: str, want: float, abs_tol: float = 0.0) -> bool:
    """A %.12g rendering agrees with ``want`` to its printed precision."""
    value = float(value_text)
    return abs(value - want) <= TOLERANCES["print_rel"] * abs(want) + abs_tol
