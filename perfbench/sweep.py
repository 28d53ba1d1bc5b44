"""Repeat the benchmark over seeds and summarise every metric.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                               [--seconds S] [--out FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, from
the root of the checkout.  For each metric it prints the median over the
runs and the spread (q3 - q1) / median, with the quartiles of
statistics.quantiles(values, n=4): the spread the bounds in BENCHMARK.json
are judged against.  --out writes the runs (each with its unscaled times
under "raw"), the summary and the environment as one JSON document, such
as a point of perfbench/trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from checkout import ROOT
from run import environment

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # the unscaled times that run.py writes to stderr, kept beside the result
    for line in proc.stderr.splitlines():
        if line.startswith('{"raw_'):
            result.setdefault("raw", {}).update(json.loads(line))
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    report = {"env": environment(), "run_seconds": args.seconds, "trace": args.trace,
              "seeds": seed_list(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in report["seeds"]]
        summary = summarise(runs)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} operations, "
              f"{failed} failed, correct={all(r['correct'] for r in runs)}")
        for name, s in summary.items():
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:30s} {s['median']:12.6g} {s['unit']:6s} spread {s['spread']:.4f}{mark}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
