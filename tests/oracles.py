"""Reference oracles for the test suite.

Everything here is computed straight from raw breakpoint/limit arrays with
scipy quadrature or elementary algebra, never through the library under test,
so every closed-form result has an independent second route.  The two
exceptions are ``reference_inverse_cdf`` and ``reference_raw_moment``: the
library's earlier per-call kernels, kept so that what replaced them can be
pinned to them bit for bit.
"""

import numpy as np
from scipy import integrate

from pwldist.density import _unit_of
from pwldist.moments import _moment_sums


def oracle_pdf(breakpoints, right_limits, left_limits):
    """Plain callable evaluating the piecewise-linear interpolant.

    ``right_limits[j]`` is the density at the left end of piece j,
    ``left_limits[j]`` the density at its right end.  Values exactly at
    breakpoints follow the containing piece, which is irrelevant under
    the integral sign.
    """
    c = np.asarray(breakpoints, dtype=float)
    rr = np.asarray(right_limits, dtype=float)
    ll = np.asarray(left_limits, dtype=float)

    def f(x):
        x = float(x)
        if x < c[0] or x > c[-1]:
            return 0.0
        j = int(np.searchsorted(c, x, side="right")) - 1
        j = min(max(j, 0), len(c) - 2)
        w = c[j + 1] - c[j]
        if w == 0.0:
            return 0.0
        t = (x - c[j]) / w
        return float(rr[j] * (1.0 - t) + ll[j] * t)

    return f


def _quad(g, breakpoints, lo, hi):
    cuts = [float(t) for t in np.asarray(breakpoints, dtype=float) if lo < t < hi]
    val, _ = integrate.quad(g, lo, hi, points=cuts or None, limit=200)
    return val


def quad_mass(breakpoints, right_limits, left_limits):
    f = oracle_pdf(breakpoints, right_limits, left_limits)
    c = np.asarray(breakpoints, dtype=float)
    return _quad(f, c, c[0], c[-1])


def quad_cdf(breakpoints, right_limits, left_limits, x):
    f = oracle_pdf(breakpoints, right_limits, left_limits)
    c = np.asarray(breakpoints, dtype=float)
    if x <= c[0]:
        return 0.0
    hi = min(float(x), float(c[-1]))
    return _quad(f, c, c[0], hi)


def quad_moment(breakpoints, right_limits, left_limits, m, center=0.0):
    """Adaptive quadrature of (x - center)^m f(x) over the support."""
    f = oracle_pdf(breakpoints, right_limits, left_limits)
    c = np.asarray(breakpoints, dtype=float)
    return _quad(lambda x: (x - center) ** m * f(x), c, c[0], c[-1])


def quad_mean(breakpoints, right_limits, left_limits):
    return quad_moment(breakpoints, right_limits, left_limits, 1)


def quad_variance(breakpoints, right_limits, left_limits):
    mu = quad_mean(breakpoints, right_limits, left_limits)
    return quad_moment(breakpoints, right_limits, left_limits, 2, center=mu)


def polygonal_limits(heights):
    """Split vertex heights into the per-piece (right, left) limit arrays."""
    h = np.asarray(heights, dtype=float)
    return h[:-1], h[1:]


def random_density_arrays(rng, max_interior=8, span=(-10.0, 10.0), floor=0.0):
    """Raw arrays of a random normalized density with n <= max_interior.

    ``floor`` > 0 keeps every limit strictly positive.  Normalization is
    done by plain division with the trapezoid mass, independently of the
    library's normalize().
    """
    n = int(rng.integers(0, max_interior + 1))
    c = np.sort(rng.uniform(span[0], span[1], size=n + 2))
    while np.any(np.diff(c) <= 1e-6):
        c = np.sort(rng.uniform(span[0], span[1], size=n + 2))
    rr = rng.uniform(floor, 1.0, size=n + 1)
    ll = rng.uniform(floor, 1.0, size=n + 1)
    if not np.any(rr > 0) and not np.any(ll > 0):
        rr[0] = 1.0
    mass = float(np.sum((rr + ll) * np.diff(c)) / 2.0)
    return c, rr / mass, ll / mass


_MODE_REL_TOL = 1e-12


def _near(value, sup):
    return abs(value - sup) <= _MODE_REL_TOL * max(abs(sup), 1e-300)


def reference_mode_set(d, convention):
    """``(f_sup, loci)`` of ``d`` by a per-breakpoint scan, loci as
    ``(kind, position, position2)`` tuples in support order.

    The candidate values are rebuilt here from the stored limits and point
    values: padded limits with the implicit outer zeros, point values
    falling back to ``max{L_i, R_i}``, and limit means.
    """
    left_full = np.concatenate(([0.0], d.left_limits))
    right_full = np.concatenate((d.right_limits, [0.0]))
    use_points = convention in ("point_and_limits", "point_and_mean_limits")
    use_limits = convention in ("point_and_limits", "limits_only")
    use_means = convention in ("point_and_mean_limits", "mean_limits_only")
    pv = None
    if use_points:
        pv = (
            d.point_values
            if d.point_values is not None
            else np.maximum(left_full, right_full)
        )
    means = (left_full + right_full) / 2.0 if use_means else None
    sup = 0.0
    if use_limits:
        sup = max(sup, float(np.max(left_full)), float(np.max(right_full)))
    if pv is not None:
        sup = max(sup, float(np.max(pv)))
    if means is not None:
        sup = max(sup, float(np.max(means)))

    c = d.breakpoints
    loci = []
    for i in range(c.size):
        pos = float(c[i])
        l_hit = use_limits and _near(float(left_full[i]), sup)
        r_hit = use_limits and _near(float(right_full[i]), sup)
        if l_hit and r_hit:
            loci.append(("point", pos, None))
        elif l_hit:
            loci.append(("left-limit", pos, None))
        elif r_hit:
            loci.append(("right-limit", pos, None))
        if pv is not None and _near(float(pv[i]), sup) and not (l_hit and r_hit):
            loci.append(("point", pos, None))
        if means is not None and _near(float(means[i]), sup):
            loci.append(("half-half", pos, None))
        if i < c.size - 1:
            if _near(float(d.right_limits[i]), sup) and _near(
                float(d.left_limits[i]), sup
            ):
                loci.append(("open-interval", pos, float(c[i + 1])))
    return sup, loci


def reference_mode_set_continuous(heights, breakpoints):
    """``(fmax, loci)`` of a polygonal density by a per-vertex scan."""
    h = np.asarray(heights, dtype=float)
    c = np.asarray(breakpoints, dtype=float)
    fmax = float(np.max(h[1:-1])) if h.size > 2 else 0.0
    loci = []
    for i in range(1, c.size - 1):
        if _near(float(h[i]), fmax):
            loci.append(("point", float(c[i]), None))
            if i + 1 < c.size - 1 and _near(float(h[i + 1]), fmax):
                loci.append(("open-interval", float(c[i]), float(c[i + 1])))
    return fmax, loci


def top_exponent(d):
    """The largest k for which moving ``d`` to breakpoints times ``2**k`` and
    limits and point values times ``2**-k`` is exact: no breakpoint or the
    support width overflows, and no nonzero height leaves the normal floats."""
    a, b = d.breakpoints[0], d.breakpoints[-1]
    k = 1024 - int(np.frexp(max(abs(a), abs(b), b - a))[1])
    heights = [d.right_limits, d.left_limits]
    if d.point_values is not None:
        heights.append(d.point_values)
    heights = np.concatenate(heights)
    heights = heights[heights > 0.0]
    if heights.size:
        k = min(k, int(np.frexp(heights.min())[1]) + 1021)
    return k


def reference_inverse_cdf(d, p, upper):
    """Ends of ``{x : F(x) = p}``, elementwise over ``p``: the upper
    (supremum) end where ``upper`` is true, else the lower (infimum) end.

    The two-ended numpy kernel that ``quantile``, ``quantile_preimage`` and
    ``median_set`` used before they took one level at a time in Python
    floats; their results must equal its results bit for bit.  It reads
    the density's own cdf prefix table.
    """
    c = d.breakpoints
    table = d._cumulative
    mass = table[-1]
    p = np.minimum(p, mass)
    # The last piece starting at or below p (searchsorted side="right")
    # is the last one starting strictly below the next float above p.
    key = np.where(upper, np.nextafter(p, np.inf), p)
    # Counting F(c_1) ... F(c_n) below the key gives j, in 0 ... n, directly.
    j = table[1:-1].searchsorted(key)
    lo = c[j]
    w = c[j + 1] - lo
    # w = m * 2**e with 1/2 <= m < 1, so unit = 2**(e - 1) <= w = 2m unit.
    m, e = np.frexp(w)
    unit = np.ldexp(0.5, e)
    right = d.right_limits[j]
    beta = right * unit
    alpha = (d.left_limits[j] - right) * unit / (4.0 * m)
    q = p - table[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.maximum(beta * beta + 4.0 * alpha * q, 0.0)
        h = 2.0 * q / (beta + np.sqrt(disc)) * unit
    x = lo + np.minimum(np.where(q <= 0.0, 0.0, h), w)
    return np.where(upper & (p >= min(mass, 1.0)), c[-1], x)


def reference_raw_moment(d, m):
    """``E[X^m]`` of ``d`` from a pass over the pieces for order ``m`` alone.

    The per-order computation ``raw_moment`` made before it took every
    order in one stored pass; each order must keep its bits.
    """
    # A support is at least one ulp of its ends wide, so |x|/unit < 2**54;
    # Python multiplies scale back, inf only where E[X^m] itself overflows.
    unit = _unit_of(d.grid.b - d.grid.a)
    moment = _moment_sums(d, d.breakpoints / unit, (m,), unit)[0]
    for _ in range(m):
        moment *= unit
    return moment
