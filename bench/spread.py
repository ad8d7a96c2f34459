"""Repeat the benchmark over seeds and report each metric's median and spread.

Usage, from the repository root:

    python3 bench/spread.py [--seeds 1-10] [--seconds 40] [--trace 0] [WORKLOAD ...]

Runs ``bench/run.py`` once per seed and workload, one run at a time (by
default the workloads and run length of ``BENCHMARK.json``), and
prints for every metric the median, the quartiles and the spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median.  For untraced runs it also prints the same
figures for the plain wall times of passes and set-ups, before they are
divided by the machine's speed (``reference.py``).  The bounds in ``BENCHMARK.json`` are set
from this spread (see README.md).  Results also go to
``.bench_out/spread-<workload>-trace<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            saved = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed{seed}"
                                f"-trace{args.trace}.json").read_text())
            if args.trace == 0:
                result["wall"] = {
                    "wall.pass_s": {"value": statistics.median(saved["pass_walls"]),
                                    "unit": "s"},
                    "wall.setup_s": {"value": statistics.median(saved["setup_walls"]),
                                     "unit": "s"}}
            runs.append(result)
            values = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                               if args.trace == 0)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {values}", flush=True)
        print(f"{workload}: {len(runs)} runs")
        for name, first in dict(runs[0]["metrics"], **runs[0].get("wall", {})).items():
            values = [dict(r["metrics"], **r.get("wall", {}))[name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:28s} median {median:<12.5g} q1 {q1:<12.5g} q3 {q3:<12.5g} "
                  f"spread {spread:.4f}  {first['unit']}")
        out = ROOT / ".bench_out" / f"spread-{workload}-trace{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seeds": args.seeds, "runs": runs}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
