"""Benchmark of alexquandle: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.

Workloads (inputs are generated by perfbench/inputs.py from the seed):
  classify-ladder  `alexquandle classify N` for N = 16, 27, 48, each in a fresh
                   process; one operation is one pass over the three orders.
                   Stdout must equal perfbench/expected/classify_N.txt.
  iso-stream       seeded module pairs of orders 64..256 through the library:
                   build both, theorem1_iso, and construct_quandle_iso when true;
                   rounds of 726 pairs, each (order, kind) once relabelled and
                   once not.
  decide-both      every equal-order pair of named modules of orders 13..18
                   through `iso A B --method both --witness`, in-process.

Each workload runs in a worker process of its own (perfbench/worker.py), a
closed loop of one client: the next operation starts when the last ends.

Every time is CPU time at reference speed (perfbench/refclock.py). The
host's speed changes by up to a factor of two within a second, so while
the work runs a timer samples it every 50 ms of CPU with a fixed
pure-Python kernel, and each stretch of CPU time is counted at the speed
its neighbouring samples show, rescaled to a machine where one kernel
call takes 2 ms. The samples themselves are not counted. The kernel is
the benchmark's own, so a change to the package still moves the times.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh
interpreters importing alexquandle.cli, twelve per run spread over it,
plus one at the start), op_ms.p50 and op_ms.p90 (operation time),
ops_per_s (operations per second of operation time) and peak_rss_mb (the
worker's, or for the ladder its largest child's, read after the first
round of work).

--trace 1 runs the same operations twice in fresh workers: untraced for
half the time (at least one round), then traced for the same operations.
It prints the per_layer metrics named in BENCHMARK.json: self time, calls
and work counts per layer function (see perfbench/spans.py),
trace_overhead (traced over untraced operation time, minus 1) and, for
the ladder, the untraced median seconds of each order. Spans are written
to .perfbench_out/.

The last line of stdout is one JSON object with correct, attempted, failed
and metrics. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import HERE, LADDER, ROOT, WORKLOADS, child_env

WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170


class BenchError(Exception):
    pass


def remaining(t_start: float) -> float:
    return max(5.0, DEADLINE_S - (time.perf_counter() - t_start))


def run_worker(args, t_start: float, *, seconds=None, ops=None, trace=False, setup=False) -> dict:
    out = os.path.join(ROOT, ".perfbench_out", args.workload)
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--out", out,
    ]
    if setup:
        cmd.append("--setup")
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(),
            timeout=remaining(t_start), cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    return result


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, t_start: float) -> tuple[dict, int, int]:
    res = run_worker(args, t_start, seconds=args.seconds, setup=True)
    d = res["durations"]
    setup = res["setup_s"]
    print(f"{args.workload}: {len(d)} operations in {sum(d):.2f} s", file=sys.stderr)
    print(f"  setup_s samples {json.dumps(setup)}", file=sys.stderr)
    print(
        f"  reference kernel: {res['ref_samples']} samples, median "
        f"{res['ref_ms']:.3f} ms CPU", file=sys.stderr,
    )
    for key in ("repeated_share", "relabelled_share", "isomorphic_share"):
        if key in res:
            print(f"  {key} {res[key]:.3f}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms.p50": (statistics.median(d) * 1e3, "ms"),
        "op_ms.p90": (percentile(d, 90) * 1e3, "ms"),
        "ops_per_s": (len(d) / sum(d), "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return metrics, len(d), res["failed"]


def per_layer(args, t_start: float) -> tuple[dict, int, int]:
    plain = run_worker(args, t_start, seconds=args.seconds / 2)
    ops = len(plain["durations"])
    traced = run_worker(args, t_start, ops=ops, trace=True)
    # span self times and counts (spans.py), plus what the two halves give
    measured = dict(traced["trace"])
    measured["trace_overhead"] = sum(traced["durations"]) / sum(plain["durations"]) - 1
    per_order = plain.get("per_order_s", {})
    for n in LADDER:
        times = per_order.get(str(n))
        measured[f"classify_s.{n}"] = statistics.median(times) if times else 0.0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer"]
    metrics = {m["name"]: (measured.get(m["name"], 0), m["unit"]) for m in wanted}
    return metrics, 2 * ops, plain["failed"] + traced["failed"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "alexquandle", "cli.py")):
        print(f"no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    try:
        if args.trace:
            metrics, attempted, failed = per_layer(args, t_start)
        else:
            metrics, attempted, failed = end_to_end(args, t_start)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
