#!/usr/bin/env python3
"""Steadiness report: two sets of benchmark runs of the same code, compared.

From the root of a checkout:

    python3 perfbench/steady.py --runs 10 --out perfbench/results/NAME.json

Each of the two sets runs every workload ``--runs`` times, one run at a
time, with a different seed per run (set 1 uses seeds 1..runs, set 2 the
next ones), round-robin over the workloads so slow drift in machine speed
hits them alike. For every workload and end-to-end metric the report prints
each set's median and quartiles, the spread (q3 - q1) / median against the
metric's bound from BENCHMARK.json (flagged when above a third of it,
setup_s included), and whether set 2's median is within the bound of set 1's.
The results file also records the Python and numpy versions, nproc, the CPU
model and the git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def environment() -> dict:
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, timeout=60).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(spec: dict, runs: dict) -> tuple[dict, list[str], bool]:
    metrics = spec["end_to_end"]
    summary, lines, steady = {}, [], True
    for workload, per_set in runs.items():
        summary[workload] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in per_set[s]]
                q1, med, q3 = quartiles(values)
                stats.append({"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med})
            first, last = stats[0]["median"], stats[1]["median"]
            worse = (last - first) / first if m["better"] == "lower" else (first - last) / first
            agree = worse <= bound
            spread_ok = all(st["spread"] <= bound / 3 for st in stats)
            steady &= agree and spread_ok
            summary[workload][name] = {"sets": stats, "bound": bound, "second_worse_by": worse,
                                       "agree": agree, "spread_below_third_of_bound": spread_ok}
            cells = "  ".join(f"med {st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] "
                              f"spread {st['spread']:.3f}" for st in stats)
            lines.append(f"{workload:17s} {name:16s} {cells}  bound {bound}  "
                         f"worse {worse:+.3f}  {'agree' if agree else 'DISAGREE'}"
                         f"{'' if spread_ok else '  SPREAD>bound/3'}")
    return summary, lines, steady


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the results file here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    env = environment()
    runs = {w: [[] for _ in range(SETS)] for w in args.workloads}
    for s in range(SETS):
        for r in range(args.runs):
            seed = 1 + s * args.runs + r
            for w in args.workloads:
                result = run_once(w, seed, args.seconds)
                runs[w][s].append(result)
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.5g} {v['unit']}" for k, v in result["metrics"].items())
                      + f", failed_ops_frac={result['failed'] / result['attempted']:.3g} ratio"
                      + f" ({result['failed']} of {result['attempted']}), wall={result['wall_s']:.1f}s",
                      flush=True)
    summary, lines, steady = summarize(spec, runs)
    print("\n".join(lines))
    print("steady" if steady else "NOT steady")
    if args.out:
        compact = {w: [{"seed": [r["seed"] for r in rs], "wall_s": [r["wall_s"] for r in rs],
                        "attempted": [r["attempted"] for r in rs], "failed": [r["failed"] for r in rs],
                        **{m: [r["metrics"][m]["value"] for r in rs] for m in rs[0]["metrics"]}}
                       for rs in per_set] for w, per_set in runs.items()}
        doc = {"environment": env, "settings": vars(args), "summary": summary, "runs": compact}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
