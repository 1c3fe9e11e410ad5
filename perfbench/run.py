"""cavscreen benchmark: one workload, one seed, timed or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simplex-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, measured without
tracing; with ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
failure fraction.  Lines before it, starting with ``#``, describe the
machine, the operation mix and the tail percentile.  Workloads, metrics and
checks are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

from hostspeed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("binary-design", "simplex-sweep", "pointwise-plans")
# Fresh processes that only set up, besides the measuring one.  They run
# while the measuring process pauses at evenly spaced points of its
# operation time (any it does not reach run after it), so the set-up
# samples span the whole run, as the operations do.
SETUP_PROBES = 6
# Every run must end within this many seconds.
DEADLINE_S = 170.0
BLAS_THREADS = 1
TAIL_BEYOND = 10

PER_LAYER_TIMES = (
    "simplex.grid", "simplex.plan", "experiments.posterior", "experiments.upsilon",
    "costs.potential", "values.payoff", "envelopes.scan1d", "envelopes.hull_build",
    "envelopes.hull_query", "envelopes.lp", "informed.sweep", "informed.point",
    "screening.verdict", "screening.construct", "screening.probe", "screening.xi_search",
    "config.parse", "traces.figure", "traces.write", "cli.command",
)
PER_LAYER_COUNTS = (
    ("simplex.grid_points", "count"), ("simplex.plan_count", "count"),
    ("experiments.upsilon_calls", "count"), ("costs.potential_points", "count"),
    ("values.payoff_points", "count"), ("envelopes.scan1d_points", "count"),
    ("envelopes.hull_input_points", "count"), ("envelopes.hull_facets", "count"),
    ("envelopes.query_plane_evals", "count"), ("envelopes.query_bytes_computed", "bytes"),
    ("envelopes.lp_calls", "count"), ("envelopes.lp_iterations", "count"),
    ("informed.sweep_priors", "count"), ("informed.point_calls", "count"),
    ("screening.verdicts", "count"), ("screening.prior_points", "count"),
    ("screening.xi_sweeps", "count"), ("screening.mc_draws", "count"),
    ("traces.bytes_written", "bytes"),
)


def _say(line: str) -> None:
    print(f"# {line}", flush=True)


def _machine() -> str:
    versions = []
    for pkg in ("numpy", "scipy", "PyYAML"):
        try:
            versions.append(f"{pkg} {metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{pkg} missing")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"machine: nproc {cpus}, BLAS threads {BLAS_THREADS}, {platform.machine()}, "
        f"Python {platform.python_version()}, " + ", ".join(versions)
    )


class Worker:
    """A worker process; ``ready_s`` is its time from start to ready, and
    ``setup_s`` that time at reference host speed.  It is killed at the
    deadline."""

    def __init__(self, argv, env, deadline, log):
        self.log = log
        self.late = False
        start = time.perf_counter()
        with open(log, "w") as err:
            self.proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True, env=env
            )
        self._watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), self._kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - start
        self.ready = line.strip() == "ready"
        kernel = self.proc.stdout.readline().split()
        self.ready = self.ready and len(kernel) == 2 and kernel[0] == "kernel"
        self.setup_s = self.ready_s * REFERENCE_S / float(kernel[1]) if self.ready else math.nan

    def _kill(self) -> None:
        self.late = True
        self.proc.kill()

    def finish(self, on_pause=None) -> tuple[int, str, str]:
        """Wait for the worker; ``on_pause()`` runs each time it pauses and
        returns False to stop it."""
        out = []
        for line in self.proc.stdout:
            if line.strip() != "pause":
                out.append(line)
            elif on_pause is not None and on_pause():
                with contextlib.suppress(BrokenPipeError):
                    self.proc.stdin.write("go\n")
                    self.proc.stdin.flush()
            else:
                self.proc.kill()
        self.proc.wait()
        self._watchdog.cancel()
        self.proc.stdin.close()
        with open(self.log) as fh:
            err = fh.read() + ("\nworker stopped at the deadline" if self.late else "")
        return self.proc.returncode, "".join(out), err


def _tail(latency: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND operations beyond it."""
    ordered = sorted(latency)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n


def _mix(result) -> str:
    by_kind: dict[str, list[float]] = {}
    for kind, t in zip(result["kinds"], result["latency"]):
        by_kind.setdefault(kind, []).append(t)
    return ", ".join(
        f"{kind} x{len(ts)} p50 {statistics.median(ts):.4g}s" for kind, ts in by_kind.items()
    )


def end_to_end(result, setups: list[tuple[float, float]]) -> dict:
    """``setups`` holds each set-up's (wall seconds, seconds at reference
    speed)."""
    latency, raw = result["latency"], result["raw_latency"]
    busy = sum(latency)
    tail, pct = _tail(latency)
    kernel = result["kernel_s"]
    _say(f"operations: {len(latency)} in {result['cycles']} cycles, {busy:.3f}s busy "
         f"at reference speed, {sum(raw):.3f}s wall")
    _say(f"op mix (reference speed): {_mix(result)}")
    _say(f"op_tail_s is p{pct:.1f} over {len(latency)} operations")
    _say(
        f"host-speed kernel: {len(kernel)} passes, median {statistics.median(kernel) * 1e3:.3f} ms, "
        f"range {min(kernel) * 1e3:.3f}-{max(kernel) * 1e3:.3f} ms; "
        f"reference {REFERENCE_S * 1e3:g} ms"
    )
    _say(
        f"wall (unscaled): op p50 {statistics.median(raw):.6g} s, "
        f"{len(raw) / sum(raw):.6g} ops/s, setup p50 {statistics.median(w for w, _ in setups):.6g} s"
    )
    _say(f"setup samples (s, wall -> reference speed): "
         f"{', '.join(f'{w:.4f}->{r:.4f}' for w, r in setups)}")
    _say(
        f"fail_frac: {result['failed']}/{len(latency)}; unchecked (no exact reference): "
        f"{result['unchecked']}"
    )
    return {
        "setup_s": (statistics.median(r for _, r in setups), "s"),
        "op_p50_s": (statistics.median(latency), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(latency) / busy, "1/s"),
        "priors_per_s": (result["priors"] / busy, "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "informed_gap_max": (result["gap"], "payoff"),
    }


def per_layer(result) -> dict:
    times, counts = result["self_times"], result["counts"]
    metrics = {f"{layer}_s": (times.get(layer, 0.0), "s") for layer in PER_LAYER_TIMES}
    for name, unit in PER_LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), unit)
    tried = counts.get("screening.xi_candidates", 0)
    metrics["screening.xi_useful_ratio"] = (
        counts.get("screening.xi_results", 0) / tried if tried else 0.0, "ratio"
    )
    metrics["trace.unattributed_s"] = (times.get("bench.op", 0.0), "s")
    metrics["trace.overhead_frac"] = (result["traced_s"] / result["plain_s"] - 1.0, "ratio")
    hull = times.get("envelopes.hull_build", 0.0) + times.get("envelopes.hull_query", 0.0)
    _say(
        f"traced {result['cycles']} cycles: {result['traced_s']:.3f}s traced, "
        f"{result['plain_s']:.3f}s untraced; hull build + query is "
        f"{100.0 * hull / result['traced_s']:.1f}% of traced operation time"
    )
    _say(f"op mix: {_mix(result)}")
    for n, asked, priors, points, calls in result["grids"]:
        hull = f"a simplex envelope over {points} input points" if points else "no simplex envelope"
        _say(f"verdict grid: n = {n}, resolution asked {asked}: {priors} priors, {hull} (x{calls})")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cavscreen", "__init__.py")):
        print("perfbench: no src/cavscreen here; run from the repository root", file=sys.stderr)
        return 2
    base = os.path.join(root, ".bench_build", "perfbench")
    work = os.path.join(base, f"run-{os.getpid()}")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    common = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    _say(_machine())
    _say(f"workload {args.workload}, seed {args.seed}, closed loop, one client")
    setups = []

    def probe(k: int) -> bool:
        worker = Worker(
            common + ["--work", f"{work}/p{k}", "--setup-only"], env, deadline, f"{work}/p{k}.log"
        )
        code, _, err = worker.finish()
        if not worker.ready or code != 0:
            print(f"perfbench: set-up failed:\n{err}", file=sys.stderr)
            return False
        setups.append((worker.ready_s, worker.setup_s))
        return True

    probes = 0 if args.trace else SETUP_PROBES
    try:
        os.makedirs(work, exist_ok=True)
        spans = os.path.join(base, f"spans-{args.workload}-seed{args.seed}.tsv")
        worker = Worker(
            common + ["--work", f"{work}/main", "--spans", spans, "--pauses", str(probes)],
            env, deadline, f"{work}/main.log",
        )
        code, out, err = worker.finish(lambda: probe(len(setups)))
        if not all(probe(k) for k in range(len(setups), probes)):
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if not worker.ready or code != 0 or not lines:
        print(f"perfbench: worker failed (exit {code}):\n{err}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if result.get("missing"):
        print(
            "perfbench: the traced run could not follow these layers; update "
            "perfbench/tracing.py:\n  " + "\n  ".join(result["missing"]),
            file=sys.stderr,
        )
        return 1
    if not args.trace and result["gap"] != result["gap"]:  # NaN: nothing compared
        print("perfbench: no operation was checked at full precision", file=sys.stderr)
        return 1
    setups.append((worker.ready_s, worker.setup_s))
    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    for note in result["notes"]:
        _say(f"failed: {note}")
    for name, (value, unit) in metrics.items():
        _say(f"{name} = {value:.6g} {unit}")
    attempted = len(result["latency"])
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
