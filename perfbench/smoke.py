#!/usr/bin/env python3
"""Smoke check for the benchmark harness itself.

From the root of a checkout:

    python3 perfbench/smoke.py

It runs every workload at tiny size, untraced and traced, and asserts that
the result line carries exactly the metrics BENCHMARK.json names, each with
its unit; that the reference checks reject deliberately wrong answers; and
that the benchmark exits non-zero without a result where there are no
pwldist sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result_line(proc, wanted: list[dict], label: str) -> None:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {proc.stdout[-2000:]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert [m for m in result["metrics"]] == [m["name"] for m in wanted], label
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), label
        assert f"{m['name']} = " in proc.stdout, f"{label}: {m['name']} not printed"


def check_workloads(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        proc = run(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0", "--size", "tiny"])
        check_result_line(proc, spec["end_to_end"], f"{name} untraced")
        for line in ("failed_ops_frac = ", "known_defect_ops = ", "known_defect_probes = "):
            assert line in proc.stdout, f"{name}: {line}missing"
    proc = run(["--workload", names[0], "--seed", "7", "--seconds", "1", "--trace", "1", "--size", "tiny"])
    check_result_line(proc, spec["per_layer"], "traced")


def check_checker() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from fractions import Fraction

    import numpy as np

    import exact
    import pwldist as pw
    import workloads

    rng = np.random.default_rng(11)
    c = workloads.ladder(rng, 40, 3.0, 6, coincident=0.05)
    right, left = rng.random(40), rng.random(40)
    workloads.zero_runs(rng, right, left, 2, 3)
    right, left, pv = workloads.scale_to(c, right, left, rng.random(41), 1.0)
    d = pw.validate(c, right, left, pv)
    ref = exact.ExactDensity(c, right, left, pv)
    width = c[-1] - c[0]
    x = float(c[0] + 0.37 * width)
    q = pw.quantile(d, 0.3)
    pre = pw.quantile_preimage(d, 0.6)
    s = pw.summary(d)
    ms = pw.median_set(d)
    modes = pw.mode_set(d)
    m3 = pw.raw_moment(d, 3)
    right_answers = [
        exact.check_quantile(ref, q, 0.3, "inf"),
        exact.check_preimage(ref, pre.lower, pre.upper, 0.6),
        exact.check_cdf(ref, x, pw.cdf(d, x)),
        exact.check_pdf(ref, x, pw.pdf(d, x), "given"),
        exact.check_mass(ref, s.mass), exact.check_mean(ref, s.mean),
        exact.check_variance(ref, s.variance), exact.check_median(ref, ms),
        exact.check_modes(ref, modes, pw.DEFAULT_CONVENTION),
        exact.check_raw_moment(ref, 3, m3),
    ]
    assert right_answers == [None] * len(right_answers), right_answers
    wrong_answers = {
        "quantile": exact.check_quantile(ref, q + 1e-3 * width, 0.3, "inf"),
        "preimage": exact.check_preimage(ref, pre.lower, pre.upper + 1e-3 * width, 0.6),
        "cdf": exact.check_cdf(ref, x, pw.cdf(d, x) + 1e-8),
        "pdf": exact.check_pdf(ref, x, pw.pdf(d, x) * (1 + 1e-9), "given"),
        "mass": exact.check_mass(ref, s.mass + 1e-10),
        "mean": exact.check_mean(ref, s.mean + 1e-9 * width),
        "variance": exact.check_variance(ref, s.variance * (1 + 1e-7)),
        "median": exact.check_median(ref, pw.MedianSet(ms.v_min, ms.v_max + 1e-3 * width, True, True)),
        "modes": exact.check_modes(ref, pw.ModeSet(modes.f_sup, modes.convention, modes.loci[1:]),
                                   pw.DEFAULT_CONVENTION),
        "raw_moment": exact.check_raw_moment(ref, 3, m3 * (1 + 1e-8)),
    }
    missed = [name for name, reason in wrong_answers.items()
              if reason is None or isinstance(reason, exact.KnownDefect)]
    assert not missed, f"wrong answers not flagged: {missed}"

    # A far, narrow density with mass 1 - 0.9e-9. The exact mean and variance
    # of f / mass pass. The integral of x f, and the integral of (x - it)^2 f,
    # are the known defect; answers wrong in any other way fail.
    c = [1e8, 1e8 + 2.0**-9]
    h = [(1.0 - 0.9e-9) * 2.0**9]
    far = exact.ExactDensity(c, h, h)
    width = c[1] - c[0]
    assert exact.check_mean(far, float(far.mean)) is None
    assert exact.check_variance(far, float(far.variance)) is None
    assert isinstance(exact.check_mean(far, float(far.m1)), exact.KnownDefect)
    assert isinstance(exact.check_variance(far, float(far.second_about(far.m1))), exact.KnownDefect)
    for bad in (exact.check_mean(far, float(far.mean) + 0.05 * width),
                exact.check_mean(far, float(far.m1) + 0.05 * width),
                exact.check_variance(far, float(far.variance) * 1.01),
                exact.check_variance(far, float(far.variance) + 1e-3 * width**2)):
        assert bad and not isinstance(bad, exact.KnownDefect), bad
    s = pw.summary(pw.validate(c, h, h))
    got = exact.verdict((exact.check_mean(far, s.mean), exact.check_variance(far, s.variance)))
    assert got is None or isinstance(got, exact.KnownDefect), got

    # A flat median: the interval is the zero gap, and its ends are checked.
    c, h = [0.0, 1.0, 3.0, 4.0], [0.5, 0.0, 0.5]
    flat = exact.ExactDensity(c, h, h)
    assert exact.check_median(flat, pw.median_set(pw.validate(c, h, h))) is None
    assert exact.check_median(flat, pw.MedianSet(1.0, 2.0, True, True)) is not None
    assert flat.cdf(2.0) == Fraction(1, 2)

    # Bulk text output: one corrupted sample row is found.
    workdir = os.path.join(ROOT, ".perfbench", "smoke-cli")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.CliBatchIO(5, "tiny", workdir)
        wl.setup()
        (op,) = next(wl.blocks())
        result = op.fn()
        assert op.check(result) is None, op.check(result)
        code, out, err = result[0]
        lines = out.splitlines()
        u, xv = lines[7].split(",")
        lines[7] = f"{u},{float(xv) + 1e-3:.12g}"
        result[0] = (code, "\n".join(lines) + "\n", err)
        assert op.check(result) is not None, "corrupted sample row not flagged"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_needs_sources() -> None:
    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "spec_batch_small", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "ran without pwldist sources"
        assert '"metrics"' not in proc.stdout, "printed a result without pwldist sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check_checker()
    print("checker: right answers pass, wrong answers are flagged")
    check_needs_sources()
    print("without sources: exits non-zero, prints no result")
    check_workloads(spec)
    print("workloads: every metric present with its unit, untraced and traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
