"""One workload, run in a process of its own; prints one JSON line.

    python3 perfbench/worker.py --workload iso-stream --seed 1 --seconds 30 --out DIR
    python3 perfbench/worker.py --workload decide-both --seed 1 --ops 500 --out DIR --trace
    python3 perfbench/worker.py --classify 16 --out PREFIX [--trace]  (one CLI run)

Without --ops the workload runs whole rounds of operations (see Loop) until
the next is not expected to finish within --seconds; with --ops it runs
exactly that many operations. Every time it reports is CPU time at
reference speed (see refclock.py).
With --trace the package's public functions are wrapped (see spans.py)
and the spans are written to DIR. A classify run prints the CLI's report
and writes its time, and with --trace its spans and their summary, to
PREFIX.json and PREFIX.spans.tsv. Every operation is checked; a failed
check is counted and reported, never dropped.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
from refclock import REF_S, RefClock  # noqa: E402
from spans import Tracer, merge  # noqa: E402

WORKLOADS = ("classify-ladder", "iso-stream", "decide-both")
LADDER = (16, 27, 48)
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 12


def child_env() -> dict:
    env = dict(os.environ, QUANDLE_MAX_ORDER=str(max(LADDER)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return env


# --- independent witness check ------------------------------------------------


def _quandle_ops(module):
    """x > y = t(x) + y - t(y) and its right inverse, on element indices,
    with mixed-radix arithmetic over the module's invariant factors."""
    facs = module.group.invariant_factors
    size = module.order
    prefix = [1]
    for d in facs:
        prefix.append(prefix[-1] * d)
    coords = [tuple((x // p) % d for d, p in zip(facs, prefix)) for x in range(size)]
    radix = list(zip(facs, prefix))

    def add(x, y):
        return sum(((a + b) % d) * p for a, b, (d, p) in zip(coords[x], coords[y], radix))

    def sub(x, y):
        return sum(((a - b) % d) * p for a, b, (d, p) in zip(coords[x], coords[y], radix))

    t = module.t_action.element_map
    t_inv = [0] * size
    for x, y in enumerate(t):
        t_inv[y] = x
    u = [sub(y, t[y]) for y in range(size)]

    def op(x, y):
        return add(t[x], u[y])

    def op_inv(z, y):
        return t_inv[sub(z, u[y])]

    return op, op_inv


def _generators(size, op, op_inv):
    """A set S whose closure under x -> x > s and x -> x >^-1 s (s in S) is
    the whole quandle."""
    covered = bytearray(size)
    members: list[int] = []
    gens: list[int] = []
    for s in range(size):
        if covered[s]:
            continue
        # members found so far still need the new generator; new ones need all
        pending = [(x, (s,)) for x in members]
        gens.append(s)
        covered[s] = 1
        members.append(s)
        pending.append((s, gens))
        while pending:
            x, gs = pending.pop()
            for g in gs:
                for y in (op(x, g), op_inv(x, g)):
                    if not covered[y]:
                        covered[y] = 1
                        members.append(y)
                        pending.append((y, gens))
    return gens


def witness_holds(m, n, f) -> bool:
    """Whether the bijection f carries the quandle of module m onto that of n.

    If f(x > s) = f(x) > f(s) for all x, then the right translation by s
    commutes with f; the elements s with that property are closed under >
    and its inverse, since R_(y > z) = R_z R_y R_z^-1. Checking every x
    against a generating set S therefore checks every pair, at cost
    |Q| * |S| instead of |Q|^2.
    """
    size = m.order
    if n.order != size or sorted(f) != list(range(size)):
        return False
    op_m, inv_m = _quandle_ops(m)
    op_n, _ = _quandle_ops(n)
    return all(
        f[op_m(x, s)] == op_n(f[x], f[s])
        for s in _generators(size, op_m, inv_m)
        for x in range(size)
    )


# --- the operation loop -------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest finished child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def children_cpu() -> float:
    """CPU seconds, user and system, of every finished child so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(cmd, **kwargs) -> tuple[subprocess.CompletedProcess, float]:
    """Run cmd to completion; return the result and its CPU seconds."""
    before = children_cpu()
    proc = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S, **kwargs)
    return proc, children_cpu() - before


def time_setup(clock: RefClock) -> float:
    """Reference seconds of a fresh interpreter importing alexquandle.cli:
    its CPU time at the rate of the clock samples taken just before and
    just after it."""
    before = clock.sample()
    proc, seconds = run_child(
        [sys.executable, "-c", "import alexquandle.cli"], env=child_env()
    )
    after = clock.sample()
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.decode(errors='replace')}")
    return seconds * 2 * REF_S / (before + after)


class Loop:
    """Times operations in reference seconds and counts failures.

    ``more`` is asked before each round of operations: one cycle of the
    iso stream (inputs.iso_cycle), one ladder pass, one pass over all
    pairs for decide-both. A round has the same mix of inputs in every run.
    Without a count limit a round starts only while the elapsed time plus
    the median round so far fits in the budget, so every run does whole
    rounds and ends near the budget rather than one long round past it.
    Peak memory is read when the first round ends, after the same work in
    every run, so it does not grow with the machine's speed.

    With setup, ``tick`` (called before each operation or child process)
    times fresh imports until there are one plus SETUP_SAMPLES per budget
    so far, at most 1 + SETUP_SAMPLES, so they spread over the whole run.

    In-process operations are recorded as thread_time marks and converted
    by the run's RefClock when the run ends; a ladder pass is recorded in
    the reference seconds its children reported.
    """

    def __init__(self, seconds: float, ops: int | None, setup: bool = False):
        self.seconds, self.ops, self.with_setup = seconds, ops, setup
        self.marks: list[tuple[float, float]] = []
        self.durations: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.setup: list[float] = []
        self._rounds: list[float] = []
        self.peak_rss_mb = 0.0
        self._round_start: float | None = None
        self.clock = RefClock()
        self.clock.start()
        self.t0 = perf_counter()

    def tick(self) -> None:
        elapsed = perf_counter() - self.t0
        share = min(1.0, elapsed / self.seconds)
        while self.with_setup and len(self.setup) < 1 + SETUP_SAMPLES * share:
            self.setup.append(time_setup(self.clock))

    def more(self) -> bool:
        now = perf_counter()
        if self._round_start is not None:
            if not self._rounds:
                self.peak_rss_mb = peak_rss_mb()
            bisect.insort(self._rounds, now - self._round_start)
        if self.ops is not None:
            go = self.done() < self.ops
        elif not self._rounds:
            go = True
        else:
            median = self._rounds[len(self._rounds) // 2]
            go = now - self.t0 + median <= self.seconds
        if go:
            self.tick()
            self._round_start = perf_counter()
        return go

    def round_size(self, size: int) -> int:
        """Operations in the next round: size, or fewer to meet the count."""
        if self.ops is None:
            return size
        return min(size, self.ops - self.done())

    def done(self) -> int:
        return len(self.marks) + len(self.durations)

    def record(self, start: float, end: float) -> None:
        """An in-process operation between two thread_time marks."""
        self.marks.append((start, end))

    def record_seconds(self, seconds: float) -> None:
        """An operation already measured in reference seconds."""
        self.durations.append(seconds)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def finish(self) -> None:
        """Take the set-up samples still due, stop the clock and convert the
        marks to reference seconds."""
        self.tick()
        self.clock.stop()
        self.durations += [self.clock.span(a, b) for a, b in self.marks]
        self.marks = []


def run_iso_stream(loop: Loop, seed: int) -> dict:
    import alexquandle as pk  # looked up per call, so traced runs see wrappers
    from alexquandle import lambda_module
    from alexquandle.linear import linear_iso

    stream = inputs.iso_stream(seed)
    repeated = relabelled = true = 0
    while loop.more():
        for _ in range(loop.round_size(inputs.iso_cycle())):
            loop.tick()
            left, right, is_relabelled, is_repeat = next(stream)
            shown = right if is_relabelled else inputs.spec_str(right)
            label = f"{inputs.spec_str(left)} vs {shown}"
            repeated += is_repeat
            relabelled += is_relabelled
            t0 = thread_time()
            try:
                m = pk.module_from_descriptor(left)
                if is_relabelled:
                    n = lambda_module.module_from_json_dict(right)
                else:
                    n = pk.module_from_descriptor(right)
                verdict = pk.theorem1_iso(m, n)
                witness = pk.construct_quandle_iso(m, n) if verdict else None
            except Exception:
                loop.record(t0, thread_time())
                loop.fail(f"{label}: {traceback.format_exc(limit=3)}")
                continue
            loop.record(t0, thread_time())
            true += verdict
            if is_relabelled and not verdict:
                loop.fail(f"{label}: relabelled pair reported non-isomorphic")
            elif left[0] == "linear" and not is_relabelled and right[0] == "linear" and (
                verdict != linear_iso(left[1], left[2], right[2])
            ):
                loop.fail(f"{label}: verdict {verdict} disagrees with linear_iso")
            elif witness is not None and not witness_holds(m, n, witness.map):
                loop.fail(f"{label}: witness is not a quandle isomorphism")
    done = max(loop.done(), 1)
    return {
        "repeated_share": repeated / done,
        "relabelled_share": relabelled / done,
        "isomorphic_share": true / done,
    }


def run_decide_both(loop: Loop, seed: int, parse_spec) -> dict:
    """One round is every pair once; parse_spec is the untraced original,
    used only to check witnesses."""
    from alexquandle import cli

    pairs = inputs.decide_pairs(seed)
    while loop.more():
        for a, b in pairs[: loop.round_size(len(pairs))]:
            loop.tick()
            out, err = io.StringIO(), io.StringIO()
            t0 = thread_time()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(["iso", a, b, "--method", "both", "--witness"])
            except Exception:
                loop.record(t0, thread_time())
                loop.fail(f"{a} vs {b}: {traceback.format_exc(limit=3)}")
                continue
            loop.record(t0, thread_time())
            lines = out.getvalue().split("\n")
            if code not in (0, 1) or lines[0] != ("true" if code == 0 else "false"):
                loop.fail(f"{a} vs {b}: exit {code}, {out.getvalue()!r} {err.getvalue()!r}")
            elif a == b and code != 0:
                loop.fail(f"{a} vs itself: reported non-isomorphic")
            elif code == 0:
                try:
                    f = [int(v) for v in lines[1].split()]
                except (IndexError, ValueError):
                    f = []
                if not witness_holds(parse_spec(a), parse_spec(b), f):
                    loop.fail(f"{a} vs {b}: witness {lines[1:]!r} is not a quandle isomorphism")
    return {}


def _expected(n: int) -> bytes:
    with open(os.path.join(HERE, "expected", f"classify_{n}.txt"), "rb") as fh:
        return fh.read()


def run_ladder(loop: Loop, out_dir: str, traced: bool) -> dict:
    """One operation is one pass over the ladder, each order classified by
    a fresh CLI process, as a user would run it; the process reports its
    own time in reference seconds (see classify_child)."""
    env = child_env()
    expected = {n: _expected(n) for n in LADDER}
    per_order: dict[int, list[float]] = {n: [] for n in LADDER}
    summaries = []
    while loop.more():
        total = 0.0
        for n in LADDER:
            loop.tick()
            out = os.path.join(out_dir, f"classify-{n}")
            cmd = [sys.executable, __file__, "--classify", str(n), "--out", out]
            if traced:
                cmd.append("--trace")
            try:
                proc, _ = run_child(cmd, env=env)
            except subprocess.TimeoutExpired:
                loop.fail(f"classify {n}: timed out after {CHILD_TIMEOUT_S} s")
                break
            if proc.returncode != 0 or proc.stdout != expected[n]:
                loop.fail(
                    f"classify {n}: exit {proc.returncode}, stdout differs from "
                    f"perfbench/expected/classify_{n}.txt: "
                    f"{proc.stderr.decode(errors='replace')[-500:]}"
                )
                continue
            with open(out + ".json", encoding="utf-8") as fh:
                report = json.load(fh)
            total += report["seconds"]
            per_order[n].append(report["seconds"])
            summaries.append(report["trace"])
        loop.record_seconds(total)
    return {"per_order_s": per_order, "trace": merge(summaries)}


def classify_child(n: int, prefix: str, traced: bool) -> int:
    """`alexquandle classify n` in this process, timed from the start of the
    interpreter to the end of the report, in reference seconds."""
    clock = RefClock()
    clock.start()
    from alexquandle import cli

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        return cli.main(["classify", str(n)])
    finally:
        end = thread_time()
        sys.stdout.flush()
        clock.stop()
        summary = tracer.dump(prefix + ".spans.tsv", clock.span) if tracer else {}
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"seconds": clock.span(0.0, end), "trace": summary}, fh)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--out", metavar="DIR", help="where spans and child reports go")
    ap.add_argument("--trace", action="store_true", help="wrap the package's functions")
    ap.add_argument("--setup", action="store_true", help="sample set-up time")
    ap.add_argument("--classify", type=int, metavar="N")
    args = ap.parse_args()

    if args.classify is not None:
        return classify_child(args.classify, args.out, args.trace)

    from alexquandle.cli import parse_spec  # import cost is setup, not work

    os.makedirs(args.out, exist_ok=True)
    tracer = None
    if args.trace and args.workload != "classify-ladder":
        tracer = Tracer()
        tracer.install()
    loop = Loop(args.seconds, args.ops, args.setup)
    if args.workload == "iso-stream":
        extra = run_iso_stream(loop, args.seed)
    elif args.workload == "decide-both":
        extra = run_decide_both(loop, args.seed, parse_spec)
    else:
        extra = run_ladder(loop, args.out, args.trace)
    loop.finish()
    if tracer is not None:
        spans = os.path.join(args.out, f"{args.workload}.spans.tsv")
        extra["trace"] = tracer.dump(spans, loop.clock.span)
    result = {
        "durations": loop.durations,
        "failed": loop.failed,
        "failures": loop.failures,
        "setup_s": loop.setup,
        "ref_ms": loop.clock.median_ms(),
        "ref_samples": len(loop.clock.lengths),
        "peak_rss_mb": loop.peak_rss_mb,
        **extra,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
