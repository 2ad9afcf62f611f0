"""The benchmark's workloads: seeded inputs, the operations, and their checks.

Each workload is a closed loop with one caller. ``setup`` builds what the
workload keeps for the whole run (densities, spec files, exact references)
and warms up; ``blocks`` yields the operations in blocks of fixed
composition, so the mix of operation kinds in a run does not depend on the
seed or on where the time runs out. Inputs come only from ``numpy.random``
seeded with ``[seed, stream]``; the library receives nothing else.

Operations look library functions up through ``pwldist`` and ``pwldist.cli``
at call time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import exact
import pwldist as pw
from pwldist import cli

# Input sizes. ``tiny`` only serves the harness smoke check.
SIZES = {
    "full": {"large_pieces": 100_000, "cli_pieces": 1_000, "sample_n": 100_000,
             "eval_steps": 10_000, "fit_points": 10_000},
    "tiny": {"large_pieces": 1_000, "cli_pieces": 50, "sample_n": 500,
             "eval_steps": 100, "fit_points": 200},
}

SETUP_STREAM, WARMUP_STREAM, OPS_STREAM = 0, 1, 2


@dataclass
class Op:
    kind: str
    fn: Callable[[], object]
    check: Callable[[object], "str | None"]


class Workload:
    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def blocks(self, stream: int = OPS_STREAM):
        raise NotImplementedError

    def warm_up(self) -> None:
        for op in next(self.blocks(WARMUP_STREAM)):
            op.fn()


# -- generators -------------------------------------------------------------


def ladder(rng, n_pieces: int, offset: float, frac_bits: int, coincident: float = 0.0):
    """Breakpoints offset + k * 2^-frac_bits with integer steps, exact in float.

    ``coincident`` is the share of zero steps (coincident breakpoints).
    """
    steps = rng.integers(1, 64, n_pieces)
    if coincident:
        steps[rng.random(n_pieces) < coincident] = 0
        steps[int(rng.integers(n_pieces))] = 1 + int(rng.integers(63))
    return offset + np.concatenate(([0], np.cumsum(steps))) * 2.0**-frac_bits


def zero_runs(rng, right, left, runs: int, max_len: int) -> None:
    n = right.size
    for start, length in zip(rng.integers(0, n, runs), rng.integers(1, max_len + 1, runs)):
        right[start:start + length] = 0.0
        left[start:start + length] = 0.0


def scale_to(c, right, left, pv, target: float):
    """Scale heights so the float trapezoid mass is ``target``."""
    mass = float(np.sum((right + left) * np.diff(c)) / 2.0)
    k = target / mass
    return right * k, left * k, None if pv is None else pv * k


def edge_mass(rng) -> float:
    """Mass 1, or just inside NORMALIZATION_RTOL on either side."""
    return float(rng.choice([1.0, 1.0, 1.0 - 0.9e-9, 1.0 + 0.9e-9]))


def pick_point(rng, c) -> float:
    """A query point: inside the support, on a breakpoint, or just outside."""
    u = rng.random()
    if u < 0.25:
        return float(c[rng.integers(c.size)])
    if u < 0.30:
        return float(c[0] - 1.0) if u < 0.275 else float(c[-1] + 1.0)
    return float(c[0] + rng.random() * (c[-1] - c[0]))


def lcg_uniforms(seed: int, n: int) -> np.ndarray:
    """The CLI's documented 64-bit LCG stream, written from its description."""
    mult, inc, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state * mult + inc) & mask
        out.append(state >> 11)
    return np.array(out, dtype=float) * 2.0**-53


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# -- query_mix_large ----------------------------------------------------------


@dataclass
class LargeDensity:
    density: object
    ref: exact.ExactDensity
    breakpoints: np.ndarray


def large_densities(rng, n: int) -> list[LargeDensity]:
    """Three n-piece densities with discontinuities, zero runs and edge masses.

    A: built uncanonical (coincident breakpoints kept), point values.
    B: far from the origin, trailing zero pieces, mass 1 - 0.9e-9, no point values.
    C: near-continuous with jumps, leading zero pieces, point values,
       coincident breakpoints merged at construction, mass 1 + 0.9e-9.
    """
    out = []
    c = ladder(rng, n, -50.0, 16, coincident=0.02)
    right, left = rng.random(n), rng.random(n)
    zero_runs(rng, right, left, 30, 40)
    right, left, pv = scale_to(c, right, left, 1.2 * rng.random(n + 1), 1.0)
    d = pw.PiecewiseLinearDensity(pw.Grid(c), right, left, pv)
    out.append(LargeDensity(d, exact.ExactDensity(c, right, left, pv), c))

    c = ladder(rng, n, 1e6, 20)
    right, left = rng.random(n), rng.random(n)
    zero_runs(rng, right, left, 30, 40)
    right[-(n // 100 + 1):] = 0.0
    left[-(n // 100 + 1):] = 0.0
    right, left, _ = scale_to(c, right, left, None, 1.0 - 0.9e-9)
    d = pw.validate(c, right, left)
    out.append(LargeDensity(d, exact.ExactDensity(c, right, left), c))

    c = ladder(rng, n, -12345.0, 18, coincident=0.01)
    h = rng.random(n + 1)
    right, left = h[:-1].copy(), h[1:].copy()
    jumps = rng.random(n) < 0.01
    left[jumps] = rng.random(int(jumps.sum()))
    zero_runs(rng, right, left, 30, 40)
    right[: n // 100 + 1] = 0.0
    left[: n // 100 + 1] = 0.0
    pv = np.maximum(np.concatenate(([0.0], left)), np.concatenate((right, [0.0])))
    pv[rng.random(n + 1) < 0.1] *= 0.5
    right, left, pv = scale_to(c, right, left, pv, 1.0 + 0.9e-9)
    d = pw.validate(c, right, left, pv)
    out.append(LargeDensity(d, exact.ExactDensity(c, right, left, pv), c))
    return out


class QueryMixLarge(Workload):
    """Single queries against three unchanged n = 10^5 densities."""

    # Operations per block for each density. B and C carry most scalar
    # queries; A, whose every query re-canonicalizes, gets one of each kind.
    # This keeps the median latency inside the B/C quantile cluster.
    PLAN_A = {"pdf": 1, "cdf": 1, "quantile": 1, "quantile_preimage": 1,
              "median_set": 1, "raw_moment": 1, "summary": 1, "mode_set": 1}
    PLAN_BC = {"pdf": 2, "cdf": 2, "quantile": 4, "quantile_preimage": 4,
               "median_set": 1, "raw_moment": 1, "summary": 1, "mode_set": 1}

    def setup(self):
        self.densities = large_densities(self.rng(SETUP_STREAM), self.size["large_pieces"])
        self.warm_up()

    def warm_up(self):
        target = self.densities[1]
        for kind in self.PLAN_A:
            self.op(np.random.default_rng(0), kind, target, 0).fn()

    def blocks(self, stream: int = OPS_STREAM):
        rng = self.rng(stream)
        i = 0
        while True:
            block = []
            for entry, plan in zip(self.densities, (self.PLAN_A, self.PLAN_BC, self.PLAN_BC)):
                for kind, count in plan.items():
                    for _ in range(count):
                        block.append(self.op(rng, kind, entry, i))
                        i += 1
            yield [block[k] for k in rng.permutation(len(block))]

    @staticmethod
    def op(rng, kind: str, entry: LargeDensity, i: int) -> Op:
        d, ref = entry.density, entry.ref
        if kind == "pdf":
            x, rule = pick_point(rng, entry.breakpoints), pw.POINT_RULES[i % 3]
            return Op(kind, lambda: pw.pdf(d, x, rule), lambda v: exact.check_pdf(ref, x, v, rule))
        if kind == "cdf":
            x = pick_point(rng, entry.breakpoints)
            return Op(kind, lambda: pw.cdf(d, x), lambda v: exact.check_cdf(ref, x, v))
        if kind == "quantile":
            p, rule = float(rng.random()), pw.QUANTILE_RULES[i % 3]
            return Op(kind, lambda: pw.quantile(d, p, rule),
                      lambda v: exact.check_quantile(ref, v, p, rule))
        if kind == "quantile_preimage":
            p = float(rng.random())
            return Op(kind, lambda: pw.quantile_preimage(d, p),
                      lambda v: exact.check_preimage(ref, v.lower, v.upper, p))
        if kind == "median_set":
            return Op(kind, lambda: pw.median_set(d), lambda v: exact.check_median(ref, v))
        if kind == "raw_moment":
            # The order cycles with the operation index, not the seed: its
            # cost grows with m, and the mix should not depend on the seed.
            m = i % (pw.MAX_MOMENT_ORDER + 1)
            return Op(kind, lambda: pw.raw_moment(d, m), lambda v: exact.check_raw_moment(ref, m, v))
        if kind == "summary":
            return Op(kind, lambda: pw.summary(d), lambda s: exact.verdict((
                exact.check_mass(ref, s.mass), exact.check_mean(ref, s.mean),
                exact.check_variance(ref, s.variance))))
        assert kind == "mode_set"
        return Op(kind, lambda: pw.mode_set(d), lambda v: exact.check_modes(ref, v, pw.DEFAULT_CONVENTION))


# -- spec_batch_small ----------------------------------------------------------


def spec_offset(rng, far: bool) -> tuple[float, int]:
    """Support origin and breakpoint resolution; far ones give narrow supports."""
    if far:
        return float(rng.choice([1e6, -3e7, 1e8]) + rng.integers(-1000, 1001)), 20
    return float(rng.integers(-20, 21)), 6


def spec_piecewise(rng, far: bool):
    n = int(rng.integers(1, 51))
    offset, bits = spec_offset(rng, far)
    c = ladder(rng, n, offset, bits, coincident=0.05)
    right, left = rng.random(n), rng.random(n)
    if n > 3 and rng.random() < 0.3:
        zero_runs(rng, right, left, 1, n // 2)
    widest = int(np.argmax(np.diff(c)))
    right[widest] = max(right[widest], 0.5)
    pv = rng.random(n + 1) if rng.random() < 0.5 else None
    right, left, pv = scale_to(c, right, left, pv, edge_mass(rng))
    doc = {"kind": "piecewise_linear", "breakpoints": c.tolist(),
           "right_limits": right.tolist(), "left_limits": left.tolist()}
    if pv is not None:
        doc["point_values"] = pv.tolist()
    ref = exact.ExactDensity(c, right.tolist(), left.tolist(), None if pv is None else pv.tolist())
    return doc, ref


def spec_flat_median(rng, far: bool):
    """Two half-mass blocks around a zero gap: the median set is the gap.

    Widths and heights are powers of two, so every mass is exact in float.
    """
    offset, _ = spec_offset(rng, far)
    unit = 2.0 ** -int(rng.integers(8, 12) if far else rng.integers(0, 4))
    w1, w2 = unit * 2.0 ** int(rng.integers(0, 3)), unit * 2.0 ** int(rng.integers(0, 3))
    gap = unit * int(rng.integers(1, 16))
    c = [offset, offset + w1, offset + w1 + gap, offset + w1 + gap + w2]
    h = [0.5 / w1, 0.0, 0.5 / w2]
    doc = {"kind": "piecewise_linear", "breakpoints": c, "right_limits": h, "left_limits": h}
    return doc, exact.ExactDensity(c, h, h)


def spec_polygonal(rng, far: bool):
    n = int(rng.integers(2, 51))
    offset, bits = spec_offset(rng, far)
    c = ladder(rng, n, offset, bits)
    h = rng.random(n + 1)
    h[0] = h[-1] = 0.0
    if n > 4 and rng.random() < 0.3:
        h[int(rng.integers(1, n))] = 0.0
    h[int(rng.integers(1, n))] += 0.5
    _, _, h = scale_to(c, h[:-1], h[1:], h, edge_mass(rng))
    doc = {"kind": "polygonal", "breakpoints": c.tolist(), "heights": h.tolist()}
    hl = h.tolist()
    return doc, exact.ExactDensity(c, hl[:-1], hl[1:], hl)


def spec_triangular(rng, far: bool):
    offset, bits = spec_offset(rng, far)
    kb = int(rng.integers(1, 4096))
    u = rng.random()
    kc = 0 if u < 0.1 else kb if u < 0.2 else int(rng.integers(0, kb + 1))
    a, c, b = offset, offset + kc * 2.0**-bits, offset + kb * 2.0**-bits
    apex = Fraction(2) / (Fraction(b) - Fraction(a))
    doc = {"kind": "triangular", "a": a, "c": c, "b": b}
    return doc, exact.ExactDensity([a, c, b], [Fraction(0), apex], [apex, Fraction(0)],
                                   [Fraction(0), apex, Fraction(0)])


def spec_tetragonal(rng, far: bool, weight_form: bool):
    offset, bits = spec_offset(rng, far)
    # a < c <= d < b, so both weight-form denominators stay positive.
    ks = np.cumsum([0, 1 + rng.integers(0, 1365), rng.integers(0, 1365), 1 + rng.integers(0, 1365)])
    a, c, d, b = (offset + int(k) * 2.0**-bits for k in ks)
    fa, fc, fd, fb = (Fraction(v) for v in (a, c, d, b))
    doc = {"kind": "tetragonal", "a": a, "c": c, "d": d, "b": b}
    if weight_form:
        u = rng.random()
        w = 0.5 if u < 0.1 else 0.0 if u < 0.15 else 1.0 if u < 0.2 else float(rng.random())
        doc["w"] = w
        fw = Fraction(w)
        denom = fw * (fd - fa) + (1 - fw) * (fb - fc)
        big_c, big_d = 2 * fw / denom, 2 * (1 - fw) / denom
    else:
        hc = float(rng.uniform(0.1, 2.0))
        hd = hc if rng.random() < 0.15 else float(rng.uniform(0.1, 2.0))
        doc["heights"] = [hc, hd]
        k = Fraction(2) / (Fraction(hc) * (fd - fa) + Fraction(hd) * (fb - fc))
        big_c, big_d = k * Fraction(hc), k * Fraction(hd)
    zero = Fraction(0)
    return doc, exact.ExactDensity([a, c, d, b], [zero, big_c, big_d], [big_c, big_d, zero],
                                   [zero, big_c, big_d, zero])


class SpecBatchSmall(Workload):
    """Distinct small JSON specs, each parsed once and given the stats bundle.

    One operation is a batch of 60 new specs (``ROUNDS`` times ``PLAN``), so
    that one slow spec or a scheduler hiccup does not decide the latency tail.
    """

    ROUNDS = 3
    # (generator, far from the origin): 20 specs of a batch.
    PLAN = (
        [(spec_piecewise, False)] * 6 + [(spec_piecewise, True), (spec_flat_median, False)]
        + [(spec_polygonal, False)] * 3 + [(spec_polygonal, True)]
        + [(spec_triangular, False)] * 3 + [(spec_triangular, True)]
        + [(lambda r, f: spec_tetragonal(r, f, False), False),
           (lambda r, f: spec_tetragonal(r, f, False), True),
           (lambda r, f: spec_tetragonal(r, f, True), False),
           (lambda r, f: spec_tetragonal(r, f, True), True)]
    )

    def setup(self):
        self.warm_up()

    def blocks(self, stream: int = OPS_STREAM):
        rng = self.rng(stream)
        while True:
            batch = []
            plan = self.PLAN * self.ROUNDS
            for i, k in enumerate(rng.permutation(len(plan))):
                make, far = plan[k]
                doc, ref = make(rng, far)
                batch.append((json.dumps(doc), ref, float(rng.random()),
                              pw.QUANTILE_RULES[i % 3], pw.CONVENTIONS[i % 4]))
            yield [Op(f"batch of {len(batch)} specs",
                      lambda batch=batch: [self.stats(text, p, rule, convention)
                                           for text, _, p, rule, convention in batch],
                      lambda results, batch=batch: self.check(batch, results))]

    @staticmethod
    def stats(text: str, p: float, rule: str, convention: str):
        d = cli.parse_spec(text).density
        return (pw.summary(d), pw.median_set(d), pw.mode_set(d, convention),
                pw.quantile(d, p, rule))

    @staticmethod
    def check(batch, results) -> str | None:
        """The first wrong answer, else the known defects with their count."""
        reasons = [exact.verdict((
            exact.check_mass(ref, s.mass), exact.check_mean(ref, s.mean),
            exact.check_variance(ref, s.variance), exact.check_median(ref, ms),
            exact.check_modes(ref, modes, convention), exact.check_quantile(ref, q, p, rule)))
            for (_, ref, p, rule, convention), (s, ms, modes, q) in zip(batch, results)]
        bad = exact.verdict(reasons)
        if isinstance(bad, exact.KnownDefect):
            return exact.KnownDefect(f"{sum(map(bool, reasons))} of {len(batch)} specs, first: {bad}")
        return bad


# -- cli_batch_io ------------------------------------------------------------


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def csv_columns(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    lines = text.splitlines()
    values = np.array(",".join(lines[1:]).split(","), dtype=float)
    return lines[:1], values[0::2], values[1::2]


class CliBatchIO(Workload):
    """In-process ``cli.main`` runs: sample, eval, and the two spec writers.

    One operation is one round of the four commands.
    """


    def setup(self):
        rng = self.rng(SETUP_STREAM)
        n = self.size["cli_pieces"]
        c = ladder(rng, n, -3.0, 10)
        right, left = rng.random(n), rng.random(n)
        zero_runs(rng, right, left, 5, 10)
        right, left, _ = scale_to(c, right, left, None, 1.0)
        self.spec = os.path.join(self.workdir, "spec.json")
        write_text(self.spec, json.dumps({"kind": "piecewise_linear", "breakpoints": c.tolist(),
                                          "right_limits": right.tolist(), "left_limits": left.tolist()}))
        self.ref = exact.ExactDensity(c, right.tolist(), left.tolist())

        c2 = ladder(rng, n, 7.0, 12, coincident=0.02)
        right2, left2 = rng.random(n), rng.random(n)
        pv2 = rng.random(n + 1)
        right2, left2, pv2 = scale_to(c2, right2, left2, pv2, float(rng.uniform(2.0, 9.0)))
        self.raw_spec = os.path.join(self.workdir, "unnormalized.json")
        write_text(self.raw_spec, json.dumps({
            "kind": "piecewise_linear", "breakpoints": c2.tolist(), "right_limits": right2.tolist(),
            "left_limits": left2.tolist(), "point_values": pv2.tolist()}))
        self.raw_ref = exact.ExactDensity(c2, right2.tolist(), left2.tolist(), pv2.tolist())

        m = self.size["fit_points"]
        xs = np.linspace(-6.0, 6.0, m)
        mu = rng.uniform(-2.0, 2.0, 2)
        ys = np.exp(-0.5 * (xs - mu[0]) ** 2) + 0.5 * np.exp(-2.0 * (xs - mu[1]) ** 2)
        self.csv = os.path.join(self.workdir, "curve.csv")
        write_text(self.csv, "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist())))
        xn, xd = exact.dyadic(xs)
        yn, yd = exact.dyadic(ys)
        vertex_sum = Fraction(sum(yn[i] * (xn[i + 1] - xn[i - 1]) for i in range(1, m - 1)), xd * yd)
        self.fit_xs = xs.tolist()
        self.fit_heights = [0.0] + [float(2 * Fraction(y) / vertex_sum) for y in ys[1:-1]] + [0.0]
        self.fit_out = os.path.join(self.workdir, "fit.json")
        self.norm_out = os.path.join(self.workdir, "normalized.json")
        self.warm_up()

    def blocks(self, stream: int = OPS_STREAM):
        rng = self.rng(stream)
        while True:
            seed = int(rng.integers(0, 2**63))
            yield [Op("sample+eval+fit+normalize", lambda seed=seed: self.round(seed),
                      lambda r, seed=seed: self.check(seed, r))]

    def round(self, seed: int):
        return [
            run_main(["sample", self.spec, "-n", str(self.size["sample_n"]), "--seed", str(seed)]),
            run_main(["eval", self.spec, "--what", "cdf", "--steps", str(self.size["eval_steps"])]),
            run_main(["fit", self.csv, "-o", self.fit_out]),
            run_main(["normalize", self.raw_spec, "-o", self.norm_out]),
        ]

    def check(self, seed: int, results) -> str | None:
        for argv0, (code, _, err) in zip(("sample", "eval", "fit", "normalize"), results):
            if code != 0:
                return f"{argv0} exited {code}: {err.strip()[:200]}"
        return (self.check_sample(seed, results[0][1]) or self.check_eval(results[1][1])
                or self.check_fit(results[2][1]) or self.check_normalize(results[3][1]))

    def bracket(self, xs, levels, extra_rel=0.0) -> np.ndarray:
        """Rows whose x solves F(x) = level within print and coordinate slack."""
        ld = np.longdouble
        ref = self.ref
        s = (exact.TOLERANCES["print_rel"] * np.abs(xs)
             + exact.TOLERANCES["coord_eps"] * exact.EPS * np.maximum(np.abs(xs), ref.scale))
        x = xs.astype(ld)
        tol = float(ref.level_tol) + extra_rel * np.abs(levels)
        return (ref.cdf_many(x - s) <= levels + tol) & (ref.cdf_many(x + s) >= levels - tol)

    def check_sample(self, seed: int, text: str) -> str | None:
        header, us, xs = csv_columns(text)
        want_u = lcg_uniforms(seed, self.size["sample_n"])
        if header != ["x,value"] or us.size != want_u.size:
            return f"sample printed {us.size} rows under {header}"
        if np.any(np.abs(us - want_u) > exact.TOLERANCES["print_rel"] * want_u + 1e-300):
            return "sample uniforms differ from the documented LCG stream"
        bad = np.flatnonzero(~self.bracket(xs, want_u))
        if bad.size:
            return f"sample row {bad[0]}: x={xs[bad[0]]!r} is not the inf-quantile of u={want_u[bad[0]]!r}"
        return None

    def check_eval(self, text: str) -> str | None:
        header, xs, values = csv_columns(text)
        grid = np.linspace(self.ref.c[0], self.ref.c[-1], self.size["eval_steps"] + 1)
        if header != ["x,value"] or xs.size != grid.size:
            return f"eval printed {xs.size} rows under {header}"
        if np.any(np.abs(xs - grid) > exact.TOLERANCES["print_rel"] * np.abs(grid)):
            return "eval grid differs from linspace over the support"
        ok = self.bracket(grid, values, extra_rel=exact.TOLERANCES["print_rel"])
        bad = np.flatnonzero(~ok)
        if bad.size:
            return f"eval row {bad[0]}: F({grid[bad[0]]!r}) printed as {values[bad[0]]!r}"
        return None

    def check_fit(self, text: str) -> str | None:
        m = self.size["fit_points"]
        if text != f"points = {m}\npieces = {m - 1}\n":
            return f"fit report {text[:80]!r}"
        with open(self.fit_out, encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc.get("kind") != "polygonal" or doc.get("breakpoints") != self.fit_xs:
            return "fit wrote other breakpoints than the curve's x values"
        got = np.array(doc["heights"])
        want = np.array(self.fit_heights)
        if np.any(np.abs(got - want) > exact.TOLERANCES["pdf_rel"] * want.max()):
            return "fit heights differ from the rescaled curve values"
        hl = doc["heights"]
        return exact.check_mass(exact.ExactDensity(self.fit_xs, hl[:-1], hl[1:]), 1.0)

    def check_normalize(self, text: str) -> str | None:
        mass = self.raw_ref.mass
        lines = dict(line.split(" = ") for line in text.splitlines())
        if not (exact.check_printed(lines.get("raw_mass", "nan"), float(mass))
                and exact.check_printed(lines.get("factor_k", "nan"), float(1 / mass))):
            return f"normalize report {text[:80]!r}"
        with open(self.norm_out, encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc.get("breakpoints") != self.raw_ref.c.tolist():
            return "normalize wrote other breakpoints than the canonical input"
        written = exact.ExactDensity(doc["breakpoints"], doc["right_limits"], doc["left_limits"],
                                     doc.get("point_values"))
        return exact.check_mass(written, 1.0)


WORKLOADS = {
    "query_mix_large": QueryMixLarge,
    "spec_batch_small": SpecBatchSmall,
    "cli_batch_io": CliBatchIO,
}


def make(name: str, seed: int, size: str, workdir: str) -> Workload:
    return WORKLOADS[name](seed, size, workdir)


# -- known defects -----------------------------------------------------------


def known_defect_probes() -> list[tuple[str, "str | None"]]:
    """Known wrong answers, put through the same checks: ROADMAP item 2's,
    and the summary mean and variance of a far, narrow density whose mass is
    1 - 0.9e-9, which are taken without dividing by the mass.

    They run after the timed loop in every run and are reported on their own
    line, so the defects stay visible until they are fixed.
    """
    probes = []

    def probe(label, fn, check):
        try:
            reason = check(fn())
        except Exception as exc:  # a raised exception is the finding
            reason = f"raised {type(exc).__name__}: {exc}"
        probes.append((label, reason))

    c, h = [0.0, 1.0, 2.0], [1.0 - 5e-10, 0.0]
    d, ref = pw.validate(c, h, h), exact.ExactDensity(c, h, h)
    probe("quantile_preimage(p=1), mass 1-5e-10, trailing zero piece",
          lambda: pw.quantile_preimage(d, 1.0),
          lambda pre: exact.check_preimage(ref, pre.lower, pre.upper, 1.0))
    u = math.nextafter(1.0, 0.0)
    probe("sample == quantile(rule='inf') at u = 1 - 2^-53 on the same density",
          lambda: (float(pw.sample(d, [u])[0]), pw.quantile(d, u, "inf")),
          lambda r: None if r[0] == r[1] else f"sample {r[0]!r} != quantile {r[1]!r}")
    c = [1e8, 1e8 + 1.0, 1e8 + 2.0]
    tent = pw.validate(c, [0.0, 1.0], [1.0, 0.0])
    tent_ref = exact.ExactDensity(c, [0.0, 1.0], [1.0, 0.0])
    probe("variance of a tent on [1e8, 1e8+2]", lambda: pw.variance(tent),
          lambda v: exact.check_variance(tent_ref, v))
    a, m, b = 1e8, 1e8 + 0.3, 1e8 + 1.0
    apex = Fraction(2) / (Fraction(b) - Fraction(a))
    tri_ref = exact.ExactDensity([a, m, b], [Fraction(0), apex], [apex, Fraction(0)])
    c = [1e8, 1e8 + 2.0**-9]
    h = [(1.0 - 0.9e-9) * 2.0**9]
    step, step_ref = pw.validate(c, h, h), exact.ExactDensity(c, h, h)
    probe("summary mean of a step on [1e8, 1e8+2^-9] with mass 1-0.9e-9",
          lambda: pw.summary(step).mean, lambda v: exact.check_mean(step_ref, v))
    probe("summary variance of the same step",
          lambda: pw.summary(step).variance, lambda v: exact.check_variance(step_ref, v))
    probe("triangular_stats(1e8, 1e8+.3, 1e8+1).variance",
          lambda: pw.triangular_stats(pw.TriangularParams(a, m, b)).variance,
          lambda v: exact.check_variance(tri_ref, v))
    return probes
