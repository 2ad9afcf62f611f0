#!/usr/bin/env python3
"""The pwldist benchmark: run one workload and print its metrics.

From the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload query_mix_large --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics. ``--trace 1`` is the separate traced run: it times every call into
the library's public functions on each in-process workload, reduces the
spans to calls and self time per operation, breaks interpreter start-up
down with ``-X importtime``, and prints the per-layer metrics. Either way
every answer is checked against exact references outside the timed region,
and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Metric names and units come from ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-ups per run: at least SETUP_REPEATS, and as many more as fit in
# SETUP_MIN_S seconds, half before the timed loop and half after it, so that
# they span the same stretch of time as the operations; setup_s is their
# median.
SETUP_REPEATS = 6
SETUP_MIN_S = 2.0
# -X importtime children per traced run; the start-up metrics are medians.
IMPORT_REPEATS = 5
# ops_per_s is the median throughput of windows of whole blocks that each
# hold at least this much operation time.
WINDOW_S = 1.0
WORKLOAD_NAMES = ("query_mix_large", "spec_batch_small", "cli_batch_io")

# Per-layer metric -> (workload it is measured on, what it should move).
LAYERS = {
    "density.canonicalize.calls": ("query_mix_large", "ops_per_s, latency_p50_ms on query_mix_large"),
    "density.canonicalize.noop_ratio": ("query_mix_large", "ops_per_s, latency_p50_ms on query_mix_large"),
    "density.raw_mass.calls": ("query_mix_large", "ops_per_s, latency_p50_ms on query_mix_large"),
    "density.require_normalized.calls": ("query_mix_large", "ops_per_s, latency_p50_ms on query_mix_large"),
    "evaluate.cdf_table.calls": ("query_mix_large", "ops_per_s, latency_p50_ms on query_mix_large"),
    "evaluate.cdf_table.self_ms": ("query_mix_large", "ops_per_s, latency_p50_ms on query_mix_large"),
    "modes.mode_set.self_ms": ("query_mix_large", "latency_tail_ms on query_mix_large"),
    "modes.f_sup.calls": ("query_mix_large", "latency_tail_ms on query_mix_large"),
    "moments.summary.self_ms": ("query_mix_large", "latency_tail_ms on query_mix_large"),
    "moments.raw_moment.calls": ("query_mix_large", "latency_tail_ms on query_mix_large"),
    "moments.mean.calls": ("query_mix_large", "latency_tail_ms on query_mix_large"),
    "order_stats.median_set.self_ms": ("query_mix_large", "latency_tail_ms on query_mix_large"),
    "order_stats.quantile_preimage.self_ms": ("query_mix_large", "latency_p50_ms on query_mix_large"),
    "evaluate.cdf.self_ms": ("query_mix_large", "latency_p50_ms on query_mix_large"),
    "evaluate.pdf.self_ms": ("query_mix_large", "latency_p50_ms on query_mix_large"),
    "cli.parse_spec.self_ms": ("spec_batch_small", "ops_per_s on spec_batch_small"),
    "density.validate.self_ms": ("spec_batch_small", "ops_per_s on spec_batch_small"),
    "families.triangular.self_ms": ("spec_batch_small", "ops_per_s on spec_batch_small"),
    "families.tetragonal.self_ms": ("spec_batch_small", "ops_per_s on spec_batch_small"),
    "families.tetragonal_from_weight.self_ms": ("spec_batch_small", "ops_per_s on spec_batch_small"),
    "cli.seeded_uniforms.self_ms": ("cli_batch_io", "ops_per_s on cli_batch_io"),
    "order_stats.sample.self_ms": ("cli_batch_io", "ops_per_s on cli_batch_io"),
    "approximation.fit.self_ms": ("cli_batch_io", "ops_per_s on cli_batch_io"),
    "density.normalize.self_ms": ("cli_batch_io", "ops_per_s on cli_batch_io"),
    "cli.main.self_ms": ("cli_batch_io", "ops_per_s on cli_batch_io"),
    "startup.numpy_import_ms": ("-X importtime children", "the start-up of every pwldist process"),
    "startup.pwldist_import_ms": ("-X importtime children", "the start-up of every pwldist process"),
    "trace.query_mix_large.overhead": ("query_mix_large", "nothing: untraced / traced ops_per_s"),
    "trace.spec_batch_small.overhead": ("spec_batch_small", "nothing: untraced / traced ops_per_s"),
    "trace.cli_batch_io.overhead": ("cli_batch_io", "nothing: untraced / traced ops_per_s"),
}


def load_library():
    """Import pwldist from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "pwldist", "__init__.py")):
        sys.exit(f"error: no pwldist sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import pwldist

    if not os.path.abspath(pwldist.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: pwldist was imported from {pwldist.__file__}, not from {SRC}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Measurement:
    latencies: list
    failures: list
    known: list
    busy: float
    blocks: list  # (operations, operation time) of each block, in run order

    @property
    def n_ops(self) -> int:
        return len(self.latencies)

    def windows(self) -> list[tuple[int, float]]:
        """Consecutive whole blocks grouped into windows of at least
        ``WINDOW_S`` of operation time; a short remainder joins the last."""
        out, ops, busy = [], 0, 0.0
        for n, t in self.blocks:
            ops, busy = ops + n, busy + t
            if busy >= WINDOW_S:
                out.append((ops, busy))
                ops, busy = 0, 0.0
        if ops:
            if out:
                last_ops, last_busy = out.pop()
                ops, busy = ops + last_ops, busy + last_busy
            out.append((ops, busy))
        return out

    @property
    def ops_per_s(self) -> float:
        """Median throughput over the run's windows, so that a stretch in
        which the host runs slow moves it less than it moves the mean."""
        return statistics.median(n / t for n, t in self.windows())

    def tail(self) -> tuple[float, float]:
        """Latency with exactly ten samples beyond it, and its percentile."""
        ordered = sorted(self.latencies)
        n = len(ordered)
        if n <= 10:
            return ordered[-1], 100.0
        return ordered[n - 11], 100.0 * (n - 10) / n


def measure(blocks, seconds: float, tracer=None) -> Measurement:
    """Run whole blocks until ``seconds`` of wall time have passed.

    Only the operation calls are timed: generating a block's inputs and
    checking its answers happen outside, so the loop is closed with one
    caller and no think time is counted. The run lasts ``seconds`` of wall
    time, checks included, so every workload's operations are spread over
    the same stretch of the host's drifting speed. An answer that matches a
    known defect of the library is listed in ``known``, any other wrong
    answer in ``failures``.
    """
    import exact

    latencies, failures, known, busy, sizes = [], [], [], 0.0, []
    clock = time.perf_counter
    end = clock() + seconds
    for block in blocks:
        done, block_busy = [], 0.0
        for op in block:
            if tracer is not None:
                tracer.op = len(latencies)
            start = clock()
            try:
                result, error = op.fn(), None
            except Exception as exc:  # a raising operation is a failed one
                result, error = None, exc
            elapsed = clock() - start
            latencies.append(elapsed)
            block_busy += elapsed
            done.append((op, result, error))
        busy += block_busy
        sizes.append((len(block), block_busy))
        for op, result, error in done:
            if error is not None:
                reason = f"raised {type(error).__name__}: {error}"
            else:
                try:
                    reason = op.check(result)
                except Exception as exc:  # an answer the checker cannot read is wrong
                    reason = f"unreadable answer ({type(exc).__name__}: {exc})"
            if reason:
                (known if isinstance(reason, exact.KnownDefect) else failures).append(
                    f"{op.kind}: {reason}")
        if clock() >= end:
            break
    return Measurement(latencies, failures, known, busy, sizes)


def set_ups(args, workdir: str, repeats: int, seconds: float):
    """Set the workload up ``repeats`` times, or for ``seconds``, whichever is
    more; return the last one and the time each took."""
    import workloads

    times = []
    while len(times) < repeats or sum(times) < seconds:
        workload = None
        start = time.perf_counter()
        workload = workloads.make(args.workload, args.seed, args.size, workdir)
        workload.setup()
        times.append(time.perf_counter() - start)
    return workload, times


def end_to_end(args, workdir: str):
    import workloads

    workload, setups = set_ups(args, workdir, SETUP_REPEATS // 2, SETUP_MIN_S / 2)
    m = measure(workload.blocks(), args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload = None
    setups += set_ups(args, workdir, SETUP_REPEATS // 2, SETUP_MIN_S / 2)[1]
    tail_ms, tail_pct = m.tail()
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": m.ops_per_s,
        "latency_p50_ms": statistics.median(m.latencies) * 1e3,
        "latency_tail_ms": tail_ms * 1e3,
        "peak_rss_mb": peak_rss_mib,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, half before and half after the timed loop",
        "ops_per_s": f"median of {len(m.windows())} windows of >= {WINDOW_S:g} s; {m.n_ops} ops in "
                     f"{m.busy:.2f} s of operation time, 1 caller, closed loop",
        "latency_tail_ms": f"p{tail_pct:.2f}, n={m.n_ops}, {min(10, m.n_ops - 1)} beyond",
    }
    lines = [f"failed_ops_frac = {len(m.failures) / m.n_ops!r} ratio ({len(m.failures)} of {m.n_ops})"]
    lines += [f"  failure: {f}" for f in m.failures[:5]]
    lines += known_lines(m.known, m.n_ops)
    probes = workloads.known_defect_probes()
    failing = [(label, reason) for label, reason in probes if reason]
    lines.append(f"known_defect_probes = {len(failing)} of {len(probes)} fail (not counted above)")
    lines += [f"  {label}: {reason}" for label, reason in failing]
    return values, notes, lines, m.n_ops, len(m.failures)


def known_lines(known: list, n_ops: int, label: str = "") -> list[str]:
    lines = [f"{label}known_defect_ops = {len(known)} of {n_ops} (wrong answers that match a "
             "known defect; not counted in failed_ops_frac)"]
    return lines + [f"  known defect: {k}" for k in known[:3]]


def import_breakdown() -> tuple[list[float], list[float], int]:
    """Parse ``-X importtime`` of ``import numpy; import pwldist`` children."""
    env = dict(os.environ, PYTHONPATH=SRC)
    numpy_ms, pwldist_ms, failed = [], [], 0
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import numpy; import pwldist"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        if proc.returncode != 0 or "numpy" not in cumulative or "pwldist" not in cumulative:
            failed += 1
            continue
        numpy_ms.append(cumulative["numpy"])
        pwldist_ms.append(cumulative["pwldist"])
    return numpy_ms, pwldist_ms, failed


def traced(args, workdir: str):
    import workloads
    from tracer import Tracer

    spans_dir = os.path.join(ROOT, ".perfbench", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    share = args.seconds / (2 * len(WORKLOAD_NAMES))
    layers, values, lines = {}, {}, []
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        workload = workloads.make(name, args.seed, args.size, workdir)
        workload.setup()
        plain = measure(workload.blocks(workloads.OPS_STREAM), share)
        tracer = Tracer()
        tracer.install()
        try:
            spanned = measure(workload.blocks(workloads.OPS_STREAM + 1), share, tracer)
        finally:
            tracer.restore()
        tracer.save(os.path.join(spans_dir, f"{args.workload}-seed{args.seed}-{name}.npz"))
        layers[name] = tracer.reduce(spanned.n_ops)
        values[f"trace.{name}.overhead"] = plain.ops_per_s / spanned.ops_per_s
        lines.append(f"{name}: untraced {plain.ops_per_s:.4g} ops/s over {plain.n_ops} ops, "
                     f"traced {spanned.ops_per_s:.4g} ops/s over {spanned.n_ops} ops, "
                     f"{len(tracer.spans)} spans")
        for label, m in (("  untraced ", plain), ("  traced ", spanned)):
            attempted += m.n_ops
            failed += len(m.failures)
            lines += [f"  failure: {f}" for f in m.failures[:5]]
            lines += known_lines(m.known, m.n_ops, label)
    numpy_ms, pwldist_ms, import_failed = import_breakdown()
    attempted += IMPORT_REPEATS
    failed += import_failed
    if numpy_ms:
        values["startup.numpy_import_ms"] = statistics.median(numpy_ms)
        values["startup.pwldist_import_ms"] = statistics.median(pwldist_ms)
    for metric, (home, _) in LAYERS.items():
        if metric.startswith(("startup.", "trace.")):
            continue
        module, function, stat = metric.split(".")
        spans = layers[home].get(f"{module}.{function}")
        if spans is None or stat not in spans:
            sys.exit(f"error: {module}.{function} is no traced public function; "
                     f"cannot measure {metric}")
        values[metric] = spans[stat]
    return values, lines, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny only serves the smoke check")
    args = parser.parse_args(argv)

    load_library()
    spec = load_spec()
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            values, lines, attempted, failed = traced(args, workdir)
            notes = {}
            wanted = spec["per_layer"]
        else:
            values, notes, lines, attempted, failed = end_to_end(args, workdir)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload = {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}, size {args.size})")
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in values:
            sys.exit(f"error: metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
        extra = notes.get(name) or (f"on {LAYERS[name][0]}; moves {LAYERS[name][1]}"
                                    if name in LAYERS else "")
        print(f"{name} = {values[name]:.6g} {unit}" + (f" ({extra})" if extra else ""))
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
