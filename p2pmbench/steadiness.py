#!/usr/bin/env python3
"""Run each workload N times with distinct seeds and report how steady each
end-to-end metric is: median, quartiles and the relative spread
(third quartile minus first, over the median), calibrated and raw side by
side.  The bounds in BENCHMARK.json are set from this output.

    python3 p2pmbench/steadiness.py --runs 10 --seconds 10
    python3 p2pmbench/steadiness.py --workloads fanout --runs 5 --first-seed 100

Runs go one after another (never in parallel), each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """(result JSON, raw metrics, info) of one untraced run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = next(line for line in lines if line.startswith("report: "))
    extra = json.loads(report[len("report: "):])
    return result, extra["raw"], extra["info"]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.perf_counter()
            result, raw, info = one_run(workload, seed, seconds)
            runs.append((seed, result, raw, info))
            print(f"# {workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} rounds {info['rounds']} "
                  f"took {time.perf_counter() - start:.1f} s", flush=True)
        shares = {r["failed"] / r["attempted"] for _, r, _, _ in runs}
        print(f"\n{workload}: {args.runs} runs x {seconds:g} s, failed share {sorted(shares)}")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}"
              f" {'bound':>6s} | {'raw median':>12s} {'raw spread':>10s}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for _, r, _, _ in runs]
            raw_values = [raw[name] for _, _, raw, _ in runs]
            median, q1, q3, rel = spread(values)
            raw_median, _, _, raw_rel = spread(raw_values)
            flag = "" if name == "setup_s" or rel < bounds[name] / 3 else "  <-- over bound/3"
            print(f"  {name:22s} {median:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.3%}"
                  f" {bounds[name]:6.2f} | {raw_median:12.6g} {raw_rel:10.3%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
