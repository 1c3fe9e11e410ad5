"""One benchmark process: set up a workload, then run it timed or traced.

Started by run.py from the root of a checkout, with the checkout's ``src``
first on the import path.  Prints ``ready`` once set-up (import, input
generation and one warm-up operation) is done, then ``kernel <seconds>``,
the host-speed kernel's time just after set-up, then, unless
``--setup-only``, one JSON line with the measurements.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402

# Cycles a traced run executes, untraced and traced; fixed so that every
# count it reports repeats exactly for a given seed.
TRACE_CYCLES = {"binary-design": 30, "simplex-sweep": 1, "pointwise-plans": 4}
# Host-speed kernel passes right after set-up; their median scales set-up.
SETUP_KERNEL_PASSES = 5


def _run_op(op, timer=None):
    """Run one operation; returns (seconds, check)."""
    from workloads import Check

    start = time.perf_counter()
    try:
        out = timer(op.run) if timer else op.run()
    except Exception as exc:  # an undocumented exception is a failed operation
        return time.perf_counter() - start, Check(False, True, math.nan, f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    try:
        check = op.check(out)
    except Exception as exc:  # output that cannot be read back is wrong
        check = Check(False, True, math.nan, f"check raised {type(exc).__name__}: {exc}")
    return elapsed, check


class Tally:
    def __init__(self):
        self.latency: list[float] = []
        self.kinds: list[str] = []
        self.priors = 0
        self.failed = 0
        self.unchecked = 0
        self.gap = math.nan
        self.notes: list[str] = []

    def add(self, op, elapsed, check):
        self.latency.append(elapsed)
        self.kinds.append(op.kind)
        self.priors += op.priors
        self.unchecked += not check.checked
        if not math.isnan(check.gap):
            self.gap = check.gap if math.isnan(self.gap) else max(self.gap, check.gap)
        if not check.ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"{op.kind}: {check.note}")

    def as_dict(self) -> dict:
        return {
            "latency": self.latency,
            "kinds": self.kinds,
            "priors": self.priors,
            "failed": self.failed,
            "unchecked": self.unchecked,
            "gap": self.gap,
            "notes": self.notes,
        }


def _pause() -> None:
    """Let the parent run a set-up probe while this process waits."""
    print("pause", flush=True)
    sys.stdin.readline()


def timed(pool, seconds: float, kernel, pauses: int = 0) -> dict:
    """Closed loop, one client: whole cycles until about ``seconds`` of
    operation time.  Stopping at the cycle whose end is nearest to the
    target keeps the op mix of every run the same.  The loop pauses
    between operations at ``pauses`` evenly spaced points of operation
    time, outside the timed region.  Between operations, after every
    ``hostspeed.EVERY_S`` of operation time, it also times one pass of
    the host-speed kernel; latencies are reported at reference speed."""
    samples: list[tuple[float, float]] = []
    stamps: list[float] = []
    tally = Tally()
    busy = 0.0
    since = math.inf
    cycles = 0
    marks = [seconds * (j + 1) / (pauses + 1) for j in range(pauses)]
    while True:
        for op in pool[cycles]:
            if since >= hostspeed.EVERY_S:
                samples.append((time.perf_counter(), kernel()))
                since = 0.0
            begin = time.perf_counter()
            elapsed, check = _run_op(op)
            stamps.append(begin + elapsed / 2.0)
            busy += elapsed
            since += elapsed
            tally.add(op, elapsed, check)
            while marks and busy >= marks[0]:
                marks.pop(0)
                _pause()
        cycles += 1
        if busy + 0.5 * busy / cycles >= seconds:
            break
    samples.append((time.perf_counter(), kernel()))
    raw = tally.latency
    tally.latency = hostspeed.scale(raw, stamps, samples)
    return dict(tally.as_dict(), cycles=cycles, raw_latency=raw,
                kernel_s=[k for _, k in samples])


def traced(pool, cycles: int, spans_path: str) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tally = Tally()
    plain = traced_time = 0.0
    op_id = 0
    for c in range(cycles):
        cycle = pool[c]
        for op in cycle:
            elapsed, check = _run_op(op)
            plain += elapsed
            tally.add(op, elapsed, check)
        handle = tracing.install(tracer)
        try:
            for op in cycle:
                tracer.op = op_id
                op_id += 1
                elapsed, check = _run_op(op, lambda fn: tracer.span("bench.op", fn))
                traced_time += elapsed
                tally.add(op, elapsed, check)
        finally:
            handle.remove()
    tracer.write(spans_path)
    return dict(
        tally.as_dict(),
        cycles=cycles,
        self_times=tracer.self_times(),
        counts=dict(tracer.counts),
        missing=sorted(tracer.missing),
        grids=[[*key, calls] for key, calls in sorted(tracer.grids.items(), key=str)],
        plain_s=plain,
        traced_s=traced_time,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pauses", type=int, default=0,
                        help="pauses during a timed run for set-up probes")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import cavscreen

    if not os.path.abspath(cavscreen.__file__).startswith(src + os.sep):
        print(f"imported cavscreen from {cavscreen.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(args.work, exist_ok=True)
    pool = workloads.build(args.workload, args.seed, args.work)
    pool[0][0].run()  # warm-up; its output is checked when the loop repeats it
    print("ready", flush=True)
    kernel = hostspeed.Kernel()
    print(f"kernel {statistics.median(kernel() for _ in range(SETUP_KERNEL_PASSES))!r}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced(pool, TRACE_CYCLES[args.workload], args.spans)
    else:
        result = timed(pool, args.seconds, kernel, args.pauses)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
