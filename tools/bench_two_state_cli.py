"""Time the two-state CLI output and sampling layers, and the ``figure`` and
``xi-screen`` commands, in one or more source trees, and print a JSON table
of medians with the noise band.

    mkdir -p .bench_build/parent && git archive REV src | tar -x -C .bench_build/parent
    python3 tools/bench_two_state_cli.py parent=.bench_build/parent/src change=src

Each round times every tree once, in a fresh process with one BLAS thread,
alternating which tree runs first.  A process times each case as the median
of repeated calls after a warm-up; the table gives, per tree and case, the
median over rounds with its quartiles (the noise band).  The layers run on
the default figure's traces (neg-entropy, kappa 1, the designed contract,
1,001 x samples): the CSV table formatted and written, the SVG polylines
written, and the row minima of 100,000 flat Dirichlet draws at n = 2, as
``xi_screen_search`` takes them.  The commands are ``cli.main(["figure",
"--format", "both"])`` and ``cli.main(["xi-screen"])`` in-process, with
standard output discarded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

# (case, timed calls per round)
CASES = (
    ("csv: figure_table + write_csv", 200),
    ("svg: write_svg", 200),
    ("xi draws: n = 2, 100,000 samples", 200),
    ("cli figure --format both", 60),
    ("cli xi-screen", 60),
)


def _minima(samples: int, n: int, seed: int) -> np.ndarray:
    """The row minima the tree's xi search draws; trees without the column
    fold took the minimum of the Dirichlet rows themselves."""
    from cavscreen import screening

    if hasattr(screening, "_flat_dirichlet_minima"):
        return screening._flat_dirichlet_minima(samples, n, seed)
    draws = np.random.default_rng(seed).dirichlet(np.ones(n), size=samples)
    return np.minimum.reduce(draws.T.copy())


def worker() -> None:
    """Print the median seconds per call of each case, one JSON list."""
    from cavscreen import (
        PosteriorSeparable, binary_figure_traces, cli, design_binary_contract,
        figure_table, neg_entropy, write_csv, write_svg,
    )

    model = PosteriorSeparable(1.0, neg_entropy())
    traces = binary_figure_traces(model, design_binary_contract(model))
    series = [("payoff", traces.gross), ("objective", traces.objective),
              ("envelope", traces.envelope)]
    series += [(f"curve mu={p:g}", traces.curve(k)) for k, p in enumerate(traces.priors)]
    with tempfile.TemporaryDirectory() as out:
        csv, svg = os.path.join(out, "t.csv"), os.path.join(out, "t.svg")

        def command(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

        calls = (
            lambda: write_csv(csv, *figure_table(traces)),
            lambda: write_svg(svg, traces.x, series, title="value of information traces"),
            lambda: _minima(100_000, 2, 0),
            lambda: command(["figure", "--format", "both", "--out", out]),
            lambda: command(["xi-screen"]),
        )
        result = []
        for call, (_, count) in zip(calls, CASES):
            for _ in range(3):
                call()
            times = []
            for _ in range(count):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            result.append(float(np.median(times)))
    print(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", help="LABEL=SRC, a source tree holding cavscreen")
    parser.add_argument("--rounds", type=int, default=11)
    args = parser.parse_args()
    trees = [tree.split("=", 1) for tree in args.trees]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = {label: [] for label, _ in trees}
    for r in range(args.rounds):
        for label, src in trees[r % len(trees):] + trees[: r % len(trees)]:
            done = subprocess.run(
                [sys.executable, __file__, "--worker"], env=dict(env, PYTHONPATH=src),
                check=True, capture_output=True, text=True,
            )
            runs[label].append(json.loads(done.stdout))
    table = []
    for k, (case, calls) in enumerate(CASES):
        row = {"case": case, "calls_per_round": calls}
        for label, _ in trees:
            ms = [run[k] * 1e3 for run in runs[label]]
            q1, med, q3 = np.percentile(ms, [25, 50, 75])
            row[label] = {"median_ms": round(float(med), 3), "q1_ms": round(float(q1), 3),
                          "q3_ms": round(float(q3), 3)}
        first, last = trees[0][0], trees[-1][0]
        row["change_pct"] = round(100 * (row[last]["median_ms"] / row[first]["median_ms"] - 1), 1)
        table.append(row)
    print(json.dumps({
        "command": "python3 tools/bench_two_state_cli.py " + " ".join(args.trees)
                   + f" --rounds {args.rounds}",
        "rounds": args.rounds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "cases": table,
    }, indent=2))


if __name__ == "__main__":
    worker() if sys.argv[1:] == ["--worker"] else main()
