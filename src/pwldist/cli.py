"""JSON density specs and the command-line front end.

Spec files are single JSON objects with a ``kind`` plus the constructor
fields of that kind:

    {"kind": "piecewise_linear", "breakpoints": [...],
     "right_limits": [...], "left_limits": [...], "point_values": [...]}
    {"kind": "polygonal", "breakpoints": [...], "heights": [...]}
    {"kind": "triangular", "a": 0, "c": 0.5, "b": 1}
    {"kind": "tetragonal", "a": 0, "c": 1, "d": 2, "b": 3,
     "heights": [1, 1]}        (raw edge heights, rescaled to mass 1)
    {"kind": "tetragonal", ..., "w": 0.5}   (weight form instead of heights)

Unknown fields are rejected.  ``point_values`` is optional.

Each ``cmd_*`` returns an ``_Output`` record and writes nothing; ``main``
passes it to ``_render``, the one place where the output conventions live:
key-value lines ``name = value`` for scalar results, two-column CSV under
an ``x,value`` header for eval and sample (for sample the first column
holds the uniform variate that produced the row), and numbers with 12
significant digits, or 17 under ``--exact``.  Domain errors print one
``error: ...`` line on stderr with exit status 1 (argparse handles usage
errors with status 2).

Sampling is deterministic: ``--seed S`` expands to uniforms through the
64-bit linear congruential generator

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64
    u     <- (state >> 11) * 2^-53

starting from state = S, one update per draw.  The stream is evaluated in
closed form by jump-ahead (draw k is a^k S + c (a^k - 1)/(a - 1) mod 2^64),
so ``--seed`` output is exactly that of the recurrence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import approximation, density, evaluate, modes, moments, order_stats
from .density import Grid, PiecewiseLinearDensity, PolygonalDensity
from .errors import BadOrderError, DensityError, ParseError, SchemaError
from .families import tetragonal, tetragonal_from_weight, triangular

_KINDS = ("piecewise_linear", "polygonal", "triangular", "tetragonal")

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

_ROW_BLOCK = 4096  # CSV rows formatted per write


def seeded_uniforms(seed: int, n: int) -> np.ndarray:
    """The documented deterministic uniform stream for --seed.

    Draw k = 1..n has state a^k S + c_k with c_k = c (a^k - 1)/(a - 1),
    all mod 2^64.  The (a^k, c_k) tables are built by doubling,
    (a^(m+j), c_(m+j)) = (a^j a^m, a^j c_m + c_j), in uint64 arrays,
    whose products wrap mod 2^64 exactly as the recurrence does.
    """
    n = int(n)
    mult = np.empty(n, dtype=np.uint64)
    inc = np.empty(n, dtype=np.uint64)
    mult[:1], inc[:1] = _LCG_MULT, _LCG_INC
    m = 1
    while m < n:
        k = min(m, n - m)
        mult[m:m + k] = mult[:k] * mult[m - 1]
        inc[m:m + k] = mult[:k] * inc[m - 1] + inc[:k]
        m += k
    mult *= np.uint64(int(seed) & _LCG_MASK)
    mult += inc
    return (mult >> np.uint64(11)) * 2.0**-53


@dataclass(frozen=True)
class DistributionSpecFile:
    """A parsed spec: the kind, its raw payload, and the built density.

    ``density`` is the general form, canonical by construction;
    ``polygonal`` is set when the kind is continuous (polygonal,
    triangular, tetragonal).
    """

    kind: str
    payload: dict
    density: PiecewiseLinearDensity
    polygonal: PolygonalDensity | None = None


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"field '{field}' must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(f"field '{field}' must be finite")
    return value


_NUMBER_TYPES = frozenset((int, float))


def _as_number_list(value, field: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"field '{field}' must be a non-empty array")
    # The usual case, plain numbers whose sum is finite (so each one is), is
    # checked in bulk.  On anything else the per-item loop raises the error
    # the first bad item deserves, or converts finite numbers whose sum
    # overflowed.
    if set(map(type, value)) <= _NUMBER_TYPES:
        try:
            numbers = list(map(float, value))
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if math.isfinite(sum(numbers)):
                return numbers
    return [_as_number(item, field) for item in value]


def _check_fields(doc: dict, kind: str, required, optional=()) -> None:
    for field in required:
        if field not in doc:
            raise SchemaError(f"kind '{kind}' requires field '{field}'")
    allowed = {"kind", *required, *optional}
    for field in doc:
        if field not in allowed:
            raise SchemaError(f"unknown field '{field}' for kind '{kind}'")


def parse_spec(text: str) -> DistributionSpecFile:
    """Parse and validate a JSON density spec, building the density."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:  # nesting or digit limits
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("spec must be a JSON object")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise SchemaError(f"kind must be one of {_KINDS}, got {kind!r}")
    try:
        if kind == "piecewise_linear":
            _check_fields(
                doc, kind,
                ("breakpoints", "right_limits", "left_limits"),
                ("point_values",),
            )
            pv = doc.get("point_values")
            d = density.validate(
                _as_number_list(doc["breakpoints"], "breakpoints"),
                _as_number_list(doc["right_limits"], "right_limits"),
                _as_number_list(doc["left_limits"], "left_limits"),
                None if pv is None else _as_number_list(pv, "point_values"),
            )
            return DistributionSpecFile(kind, doc, d)
        if kind == "polygonal":
            _check_fields(doc, kind, ("breakpoints", "heights"))
            p = PolygonalDensity(
                Grid(_as_number_list(doc["breakpoints"], "breakpoints")),
                _as_number_list(doc["heights"], "heights"),
            )
        elif kind == "triangular":
            _check_fields(doc, kind, ("a", "c", "b"))
            p = triangular(*(_as_number(doc[f], f) for f in ("a", "c", "b")))
        else:
            _check_fields(doc, kind, ("a", "c", "d", "b"), ("heights", "w"))
            if ("heights" in doc) == ("w" in doc):
                raise SchemaError(
                    "kind 'tetragonal' needs exactly one of 'heights' or 'w'"
                )
            corners = [
                _as_number(doc[field], field) for field in ("a", "c", "d", "b")
            ]
            if "heights" in doc:
                heights = _as_number_list(doc["heights"], "heights")
                if len(heights) != 2:
                    raise SchemaError("field 'heights' must have two entries")
                p = tetragonal(*corners, heights[0], heights[1])
            else:
                p = tetragonal_from_weight(*corners, _as_number(doc["w"], "w"))
        d = density.promote(p)
        return DistributionSpecFile(kind, doc, d, polygonal=p)
    except (ParseError, SchemaError):
        raise
    except DensityError as exc:
        raise SchemaError(str(exc)) from exc


def _read_text(path: str, newline: str | None = None) -> str:
    """The file's text; bytes that are not UTF-8 are a ParseError."""
    try:
        with open(path, newline=newline, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load(path: str) -> DistributionSpecFile:
    return parse_spec(_read_text(path))


class _Output(NamedTuple):
    """What a command prints: ``(name, value)`` lines (a None name prints
    the bare value), ``x,value`` rows, or a spec whose report is ``lines``."""

    lines: list
    rows: tuple | None = None
    spec: dict | None = None


def _text(value, exact: bool) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, tuple):  # the support
        return f"[{_text(value[0], exact)}, {_text(value[1], exact)}]"
    if isinstance(value, modes.ModeLocus):
        at = _text(value.position, exact)
        if value.kind == "open-interval":
            return f"open-interval ({at}, {_text(value.position2, exact)})"
        return f"{value.kind} {at}"
    return ("%.17g" if exact else "%.12g") % float(value)


def _ensure_normalized(
    d: PiecewiseLinearDensity, autonormalize: bool
) -> PiecewiseLinearDensity:
    if autonormalize:
        return density.normalize(d)[0]
    density.require_normalized(d)
    return d


def _write_rows(xs: np.ndarray, values: np.ndarray, exact: bool) -> None:
    """Write the ``x,value`` CSV, formatting ``_ROW_BLOCK`` rows at a time."""
    row = "%.17g,%.17g\n" if exact else "%.12g,%.12g\n"
    sys.stdout.write("x,value\n")
    for start in range(0, len(xs), _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        block = np.column_stack((xs[start:stop], values[start:stop]))
        sys.stdout.write(row * len(block) % tuple(block.ravel().tolist()))


def _render(out: _Output, args) -> None:
    """Print ``out``: a spec goes to ``-o`` and its report to stdout, or
    without ``-o`` the spec to stdout and the report to stderr."""
    if out.rows is not None:
        return _write_rows(*out.rows, args.exact)
    text = "".join(
        f"{_text(value, args.exact)}\n" if name is None
        else f"{name} = {_text(value, args.exact)}\n"
        for name, value in out.lines
    )
    if out.spec is None:
        sys.stdout.write(text)
    elif args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(out.spec) + "\n")
        sys.stdout.write(text)
    else:
        sys.stdout.write(json.dumps(out.spec) + "\n")
        sys.stderr.write(text)


def cmd_validate(args) -> _Output:
    spec = _load(args.file)
    d = spec.density
    return _Output([
        ("kind", spec.kind),
        ("pieces", d.breakpoints.size - 1),
        ("support", d.support),
        ("mass", density.raw_mass(d)),
        ("normalized", d.is_normalized),
    ])


def _polygon_spec(breakpoints: np.ndarray, heights: np.ndarray) -> dict:
    return {"kind": "polygonal", "breakpoints": breakpoints.tolist(),
            "heights": heights.tolist()}


def cmd_normalize(args) -> _Output:
    spec = _load(args.file)
    scaled, report = density.normalize(spec.density)
    if spec.kind == "piecewise_linear":
        payload = {
            "kind": "piecewise_linear",
            "breakpoints": scaled.breakpoints.tolist(),
            "right_limits": scaled.right_limits.tolist(),
            "left_limits": scaled.left_limits.tolist(),
        }
        if scaled.point_values is not None:
            payload["point_values"] = scaled.point_values.tolist()
    else:
        p = spec.polygonal
        payload = _polygon_spec(p.breakpoints, p.heights * report.factor_k)
    lines = [("raw_mass", report.raw_mass), ("factor_k", report.factor_k)]
    return _Output(lines, spec=payload)


def cmd_stats(args) -> _Output:
    spec = _load(args.file)
    d = _ensure_normalized(spec.density, args.autonormalize)
    s = moments.summary(d)
    lines = [
        (name, getattr(s, name))
        for name in ("mass", "mean", "variance", "std", "skewness", "excess")
    ]
    ms = order_stats.median_set(d)
    if ms.v_min == ms.v_max:
        lines.append(("median", ms.v_min))
    else:
        lines += [("median_min", ms.v_min), ("median_max", ms.v_max)]
    mset = modes.mode_set(d, args.convention)
    lines.append(("f_sup", mset.f_sup))
    lines += [("mode", locus) for locus in mset.loci]
    return _Output(lines)


def cmd_eval(args) -> _Output:
    spec = _load(args.file)
    d = spec.density
    lo = d.support[0] if args.from_x is None else args.from_x
    hi = d.support[1] if args.to_x is None else args.to_x
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise BadOrderError(f"--from and --to must be finite, got {lo} and {hi}")
    if not lo <= hi:
        raise BadOrderError(f"--from must not exceed --to, got {lo} > {hi}")
    # Checked in Python floats: np.linspace would warn on the overflow.
    if hi - lo == math.inf:
        raise BadOrderError(f"grid width overflows: --from {lo} to --to {hi}")
    xs = np.linspace(lo, hi, args.steps + 1)
    values = evaluate.pdf(d, xs) if args.what == "pdf" else evaluate.cdf(d, xs)
    return _Output([], rows=(xs, values))


def cmd_quantile(args) -> _Output:
    spec = _load(args.file)
    d = _ensure_normalized(spec.density, args.autonormalize)
    pre = order_stats.quantile_preimage(d, args.p)
    return _Output([
        ("preimage_lower", pre.lower),
        ("preimage_upper", pre.upper),
        ("quantile", order_stats.quantile(d, args.p, args.rule)),
    ])


def cmd_median(args) -> _Output:
    spec = _load(args.file)
    d = _ensure_normalized(spec.density, args.autonormalize)
    ms = order_stats.median_set(d)
    return _Output([
        ("median_min", ms.v_min),
        ("median_max", ms.v_max),
        ("min_attained", ms.min_attained),
        ("max_attained", ms.max_attained),
    ])


def cmd_mode(args) -> _Output:
    spec = _load(args.file)
    mset = modes.mode_set(spec.density, args.convention)
    return _Output([("f_sup", mset.f_sup)] + [(None, l) for l in mset.loci])


def cmd_sample(args) -> _Output:
    spec = _load(args.file)
    d = _ensure_normalized(spec.density, args.autonormalize)
    uniforms = seeded_uniforms(args.seed, args.n)
    return _Output([], rows=(uniforms, order_stats.sample(d, uniforms)))


def _read_xy_csv(path: str) -> tuple[list[float], list[float]]:
    xs: list[float] = []
    ys: list[float] = []
    reader = csv.reader(io.StringIO(_read_text(path, newline=""), newline=""))
    try:
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise ParseError(
                    f"line {lineno}: expected two columns, got {len(row)}"
                )
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                if lineno == 1:
                    continue
                raise ParseError(f"line {lineno}: non-numeric value") from None
            xs.append(x)
            ys.append(y)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    return xs, ys


def cmd_fit(args) -> _Output:
    xs, ys = _read_xy_csv(args.file)
    req = approximation.FitRequest.from_points(
        xs, ys, clamp_ends=not args.no_clamp
    )
    p = approximation.fit(req)
    lines = [("points", len(xs)), ("pieces", p.breakpoints.size - 1)]
    return _Output(lines, spec=_polygon_spec(p.breakpoints, p.heights))


def _count(text: str) -> int:
    """argparse type for -n and --steps: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwldist",
        description="Piecewise-linear probability densities: "
        "validate, normalize, evaluate, and summarize JSON density specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *, output=False,
            convention=False, autonormalize=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="density spec file (JSON)")
        p.add_argument(
            "--exact", action="store_true",
            help="print 17 significant digits instead of 12",
        )
        if output:
            p.add_argument("-o", "--output", help="save the spec to this file")
        if convention:
            p.add_argument("--convention", choices=modes.CONVENTIONS,
                           default=modes.DEFAULT_CONVENTION,
                           help="f_sup convention for modes")
        if autonormalize:
            p.add_argument("--autonormalize", action="store_true",
                           help="rescale unnormalized input rather than fail")
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate, "check a spec and report basic facts")
    add("normalize", cmd_normalize, "rescale to unit mass, emit a spec",
        output=True)
    add("stats", cmd_stats, "moment summary, median, and modes",
        convention=True, autonormalize=True)

    p = add("eval", cmd_eval, "tabulate pdf or cdf as CSV")
    p.add_argument("--what", choices=("pdf", "cdf"), default="pdf")
    p.add_argument("--from", dest="from_x", type=float, default=None,
                   help="start of the grid (default: support start)")
    p.add_argument("--to", dest="to_x", type=float, default=None,
                   help="end of the grid (default: support end)")
    p.add_argument("--steps", type=_count, default=100,
                   help="number of grid intervals (rows = steps + 1)")

    p = add("quantile", cmd_quantile, "quantile and preimage at a level p",
            autonormalize=True)
    p.add_argument("-p", type=float, required=True, help="probability level")
    p.add_argument("--rule", choices=order_stats.QUANTILE_RULES, default="inf")

    add("median", cmd_median, "median set with attainment flags",
        autonormalize=True)
    add("mode", cmd_mode, "f_sup and the mode loci", convention=True)

    p = add("sample", cmd_sample, "deterministic inverse-transform samples",
            autonormalize=True)
    p.add_argument("-n", type=_count, required=True, help="number of draws")
    p.add_argument("--seed", type=int, required=True,
                   help="seed for the documented 64-bit LCG")

    p = add("fit", cmd_fit, "fit a polygonal density to x,y samples (CSV)",
            output=True)
    p.add_argument("--no-clamp", action="store_true",
                   help="do not zero the end samples; nonzero ones are refused")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _render(args.handler(args), args)
    except (DensityError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
