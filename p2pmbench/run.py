#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 p2pmbench/run.py --workload fanout --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are a readable report with the raw wall-clock figure beside each
calibrated one.  Exit status 0 means the run completed (failed operations
are reported, not fatal); 2 means the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"

#: fixed hash seed: set iteration order must not differ between runs
HASH_SEED = "0"

#: fewest timed rounds a run makes, however short --seconds is
MIN_ROUNDS = 10

#: end-to-end metrics: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("deliveries_per_s", "results/s"),
    ("lag_p50", "sim-time"),
    ("lag_p99", "sim-time"),
    ("net_msgs_per_event", "messages"),
    ("net_bytes_per_event", "weight"),
    ("subscribe_ms_p50", "ms"),
    ("subscribe_ms_p90", "ms"),
    ("cancel_ms_p50", "ms"),
    ("cancel_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bootstrap() -> None:
    """Fix the hash seed (re-executing once) and put the program on sys.path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    for entry in (str(SRC), str(BENCH_DIR)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (VmHWM; ru_maxrss as fallback)
    plus that of its largest child that has ended (the sharded runtime's
    workers; 0 when there were none)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1]) / 1024
    except OSError:
        pass
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; the median when fewer than ten samples lie
    beyond the q-quantile (a tail of fewer samples is no tail)."""
    ordered = sorted(values)
    if len(ordered) * (1 - q) < 10:
        return statistics.median(ordered)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def rounds_for(workload, seconds: float) -> int:
    """The run's fixed amount of work: about ``seconds`` of rounds at the
    calibration kernel's reference speed.

    A run does a fixed number of rounds rather than as many as fit into
    ``seconds``: on meteo-lossy the cost of a round grows with the rounds
    already run, so a time-limited loop would compare different amounts
    of work whenever the host's speed differs.  Counts and sim-time metrics
    then repeat exactly for a seed.
    """
    return max(MIN_ROUNDS, round(seconds * workload.rounds_per_second))


def run_rounds(workload, meter, count: int) -> list:
    """Closed loop: a round starts only when the previous one has drained.
    The rounds' operations are added to the workload's tallies."""
    rounds = [workload.round(meter) for _ in range(count)]
    for r in rounds:
        workload.attempted += r.attempted
        workload.failed += r.failed
    return rounds


def end_to_end(workload_cls, seed: int, seconds: float) -> tuple[dict, dict, object]:
    from calibrate import Meter
    from checks import quantile_of_counts

    meter = Meter()
    workload = workload_cls(seed)
    setup_raw, setup_cal, ops = [], [], []
    if workload.in_process:
        pass_lags, pass_bytes, notes = workload.in_process_pass(meter)
        ops.extend(notes)
        gc.collect()
    for rep in range(workload.setups):
        raw, cal, notes = workload.setup(meter)
        gc.collect()
        setup_raw.append(raw)
        setup_cal.append(cal)
        ops.extend(notes)
        if rep < workload.setups - 1 and workload.teardown_every_setup:
            ops.extend(workload.teardown(meter))
    workload.start_data()
    workload.warmup()
    workload.checker.lags.clear()
    start_messages, start_weight = workload.net_counts()
    rounds = run_rounds(workload, meter, rounds_for(workload, seconds))
    messages, weight = workload.net_counts()
    events = sum(r.events for r in rounds)
    lags = workload.checker.lags.copy()
    workload.checker.record_lags = False
    ops.extend(workload.teardown(meter))
    rss = peak_rss_mb()
    for r in rounds:
        ops.extend(r.ops)

    def rates(attr: str, calibrated: bool) -> float:
        return statistics.median(
            getattr(r, attr) / (r.cal if calibrated else r.raw) for r in rounds
        )

    def op_ms(kind: str, q: float, calibrated: bool) -> float:
        values = [(cal if calibrated else raw) * 1000 for k, raw, cal in ops if k == kind]
        return percentile(values, q) if q != 0.5 else statistics.median(values)

    metrics, raw_metrics = {}, {}
    for calibrated, out in ((True, metrics), (False, raw_metrics)):
        out["setup_s"] = statistics.median(setup_cal if calibrated else setup_raw)
        out["events_per_s"] = rates("events", calibrated)
        out["deliveries_per_s"] = rates("deliveries", calibrated)
        out["subscribe_ms_p50"] = op_ms("subscribe", 0.5, calibrated)
        out["subscribe_ms_p90"] = op_ms("subscribe", 0.9, calibrated)
        out["cancel_ms_p50"] = op_ms("cancel", 0.5, calibrated)
        out["cancel_ms_p90"] = op_ms("cancel", 0.9, calibrated)
    for out in (metrics, raw_metrics):
        out["lag_p50"] = quantile_of_counts(lags, 0.5)
        out["lag_p99"] = quantile_of_counts(lags, 0.99) if sum(lags.values()) >= 1000 else out["lag_p50"]
        out["net_msgs_per_event"] = (messages - start_messages) / events
        out["net_bytes_per_event"] = (weight - start_weight) / events
        out["peak_rss_mb"] = rss
        if workload.in_process:
            out["lag_p50"] = quantile_of_counts(pass_lags, 0.5)
            out["lag_p99"] = quantile_of_counts(pass_lags, 0.99)
            out["net_bytes_per_event"] = pass_bytes
    info = {
        "rounds": len(rounds),
        "setups": workload.setups,
        "ops": {kind: sum(1 for k, *_ in ops if k == kind) for kind in ("subscribe", "cancel")},
        "kernel_ms_median": statistics.median(meter.kernel_times) * 1000,
    }
    return metrics, {"raw": raw_metrics, "info": info}, workload


def traced(workload_cls, seed: int, seconds: float) -> tuple[dict, dict, object]:
    """Untraced rounds first (no wrappers anywhere), then the same inputs
    with wrappers installed before the traced system is built."""
    from calibrate import Meter
    from tracing import Tracer

    meter = Meter()
    plain = workload_cls(seed)
    plain.setup(meter)
    gc.collect()
    plain.start_data()
    plain.warmup()
    count = rounds_for(plain, seconds / 2)
    plain_rounds = run_rounds(plain, meter, count)
    plain.teardown(meter)
    plain_tally = (plain.attempted, plain.failed, plain.checker.error_count, plain.checker.errors)
    del plain
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        workload = workload_cls(seed)
        workload.setup(meter)
        gc.collect()
        workload.start_data()
        workload.warmup()
        traced_rounds = run_rounds(workload, meter, count)
        workload.teardown(meter)
    finally:
        tracer.uninstall()
    workload.attempted += plain_tally[0]
    workload.failed += plain_tally[1]
    workload.checker.error_count += plain_tally[2]
    workload.checker.errors[:0] = plain_tally[3]
    metrics = {name: value for name, (value, _) in tracer.layer_metrics(workload.system).items()}
    plain_ms = statistics.median(r.cal for r in plain_rounds) * 1000
    traced_ms = statistics.median(r.cal for r in traced_rounds) * 1000
    metrics["trace.overhead_ratio"] = traced_ms / plain_ms
    path = BENCH_DIR / "traces" / f"{workload_cls.name}-seed{seed}.spans.tsv.gz"
    kept = tracer.dump(path)
    info = {
        "untraced_round_ms": plain_ms,
        "traced_round_ms": traced_ms,
        "traced_rounds": len(traced_rounds),
        "spans": tracer._next_id,
        "spans_kept": kept,
        "span_dump": str(path.relative_to(REPO_ROOT)),
    }
    return metrics, {"info": info}, workload


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    bootstrap()
    from tracing import per_layer_metric_names
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        values, extra, workload = traced(workload_cls, args.seed, args.seconds)
        units = dict(per_layer_metric_names())
        units["trace.overhead_ratio"] = "ratio"
    else:
        values, extra, workload = end_to_end(workload_cls, args.seed, args.seconds)
        units = dict(END_TO_END)
    checker = workload.checker
    raw = extra.get("raw", {})
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **extra}
    print("report: " + json.dumps(report))
    for name, unit in units.items():
        line = f"  {name:36s} {values[name]:>16.6g} {unit}"
        if name in raw and raw[name] != values[name]:
            line += f"   (raw wall clock: {raw[name]:.6g})"
        print(line)
    print(f"  attempted {workload.attempted}, failed {workload.failed}, checker errors {checker.error_count}")
    for error in checker.errors:
        print(f"  error: {error}")
    result = {
        "correct": workload.failed == 0 and checker.error_count == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
