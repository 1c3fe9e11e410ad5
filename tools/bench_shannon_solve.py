"""Time ``shannon.solve`` on a Shannon rule-out game in one or more source
trees, and print a JSON table of medians with the noise band.

    mkdir -p .bench_build/parent && git archive REV src | tar -x -C .bench_build/parent
    python3 tools/bench_shannon_solve.py parent=.bench_build/parent/src change=src

Each round times every tree once, in a fresh process with one BLAS thread,
alternating which tree runs first.  A process times each case as the median
of repeated calls after a warm-up; the table gives, per tree and case, the
median over rounds with its quartiles (the noise band).  The game is
P = u - d I with u 0.3, d 1 and kappa 0.3, on one prior at n = 4 that
learns and one that stays put, and on the lattices of resolution 20 and 24
at n = 4 and 200 at n = 3.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np

# (case, states, lattice resolution or one prior, timed calls per round)
CASES = (
    ("one prior, learns", 4, (0.1, 0.2, 0.3, 0.4), 2000),
    ("one prior, stays", 4, (0.0, 0.0, 0.0, 1.0), 2000),
    ("lattice r = 20", 4, 20, 200),
    ("lattice r = 24", 4, 24, 200),
    ("lattice r = 200", 3, 200, 30),
)
U, D, KAPPA = 0.3, 1.0, 0.3


def worker() -> None:
    """Print the median seconds per call of each case, one JSON list."""
    from cavscreen import shannon, simplex_grid_array

    out = []
    for _, n, where, calls in CASES:
        priors = np.array([where]) if isinstance(where, tuple) else simplex_grid_array(n, where)
        P = U - D * np.eye(n)
        for _ in range(3):
            shannon.solve(P, KAPPA, priors)
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            shannon.solve(P, KAPPA, priors)
            times.append(time.perf_counter() - start)
        out.append({"n": n, "rows": len(priors), "seconds": float(np.median(times))})
    print(json.dumps(out))


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
    for k, (case, n, _, calls) in enumerate(CASES):
        row = {"case": case, "n": n, "rows": runs[trees[0][0]][0][k]["rows"],
               "calls_per_round": calls}
        for label, _ in trees:
            us = [run[k]["seconds"] * 1e6 for run in runs[label]]
            q1, med, q3 = np.percentile(us, [25, 50, 75])
            row[label] = {"median_us": round(float(med), 1), "q1_us": round(float(q1), 1),
                          "q3_us": round(float(q3), 1)}
        first, last = trees[0][0], trees[-1][0]
        row["change_pct"] = round(100 * (row[last]["median_us"] / row[first]["median_us"] - 1), 1)
        table.append(row)
    print(json.dumps({
        "command": "python3 tools/bench_shannon_solve.py " + " ".join(args.trees)
                   + f" --rounds {args.rounds}",
        "game": {"u": U, "d": D, "kappa": KAPPA},
        "rounds": args.rounds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "cases": table,
    }, indent=2))


if __name__ == "__main__":
    worker() if sys.argv[1:] == ["--worker"] else main()
