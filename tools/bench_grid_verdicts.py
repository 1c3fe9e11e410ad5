"""Compare two checkouts on the layers behind lattice verdicts and on the
perfbench workloads, and print one JSON record of medians with quartiles.

    mkdir -p .bench_build/parent && git archive REV | tar -x -C .bench_build/parent
    python3 tools/bench_grid_verdicts.py --parent .bench_build/parent --change . \\
        --rounds 11 --pairs 10 --seed 101

Layers: each round times both checkouts once, each in a fresh process with
one BLAS thread, alternating which runs first.  A process times each case as
the median of repeated calls after a warm-up.  The cases are
``DecisionProblem.batch`` on the n = 3 default lattice (20,301 rows) for the
rule-out game (u 0.3, d 1) and the urn (u 0.0485, d 0.1),
``uninformed_maximin`` of that urn, and ``upsilon_batch`` of a three-signal
experiment on the same lattice.

Pairs: for each workload, ``--pairs`` pairs of ``perfbench/run.py --seconds
20 --trace 0`` runs, one per checkout on the same seed, alternating which
runs first; pair k uses seed ``--seed`` + 100 w + k for the w-th workload.
The record gives every run, and per metric each side's median and
quartiles and the number of pairs the change won.
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

# (case, timed calls per process)
CASES = (
    ("DecisionProblem.batch, rule-out, n = 3 lattice", 300),
    ("DecisionProblem.batch, urn, n = 3 lattice", 300),
    ("uninformed_maximin, urn", 300),
    ("upsilon_batch, 3 signals, n = 3 lattice", 100),
)
WORKLOADS = ("simplex-sweep", "binary-design", "pointwise-plans")
# perfbench metrics where a larger value is better; the rest are lower-better.
HIGHER = {"ops_per_s", "priors_per_s"}
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def worker() -> None:
    """Print the median seconds per call of each case, one JSON list."""
    from cavscreen import Contract, Experiment, SimpleAnnouncement, UrnDraw, simplex_grid_array
    from cavscreen.experiments import upsilon_batch
    from cavscreen.screening import uninformed_maximin

    lattice = simplex_grid_array(3)
    urn = UrnDraw(Contract(0.0485, 0.1))
    E = Experiment([[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]])
    calls = (
        lambda g=SimpleAnnouncement(Contract(0.3, 1.0)): g.batch(lattice),
        lambda: urn.batch(lattice),
        lambda: uninformed_maximin(urn),
        lambda: upsilon_batch(E, lattice),
    )
    out = []
    for call, (_, repeats) in zip(calls, CASES):
        for _ in range(5):
            call()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        out.append(float(np.median(times)))
    print(json.dumps(out))


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def layers(trees, rounds: int) -> list:
    runs = {label: [] for label, _ in trees}
    for r in range(rounds):
        for label, root in trees[r % 2:] + trees[: r % 2]:
            done = subprocess.run(
                [sys.executable, __file__, "--worker"],
                env=dict(ENV, PYTHONPATH=os.path.join(root, "src")),
                check=True, capture_output=True, text=True,
            )
            runs[label].append(json.loads(done.stdout))
    table = []
    for k, (case, repeats) in enumerate(CASES):
        row = {"case": case, "calls_per_process": repeats}
        for label, _ in trees:
            stats = quartiles([run[k] * 1e6 for run in runs[label]])
            row[label] = {f"{key}_us": round(v, 2) for key, v in stats.items()}
        row["change_pct"] = round(
            100 * (row["change"]["median_us"] / row["parent"]["median_us"] - 1), 1
        )
        table.append(row)
    return table


def pairs(trees, workload: str, count: int, seed: int) -> dict:
    runs = []
    for k in range(count):
        for label, root in trees[k % 2:] + trees[: k % 2]:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed + k), "--seconds", "20", "--trace", "0"],
                cwd=root, check=True, capture_output=True, text=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"pair": k, "seed": seed + k, "side": label, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{m: v["value"] for m, v in result["metrics"].items()}})
            print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
    summary = {}
    for metric in [m for m in runs[0] if m not in ("pair", "seed", "side", "correct")]:
        side = {label: [r[metric] for r in runs if r["side"] == label] for label, _ in trees}
        sign = 1 if metric in HIGHER or metric == "attempted" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
        summary[metric] = {label: quartiles(v) for label, v in side.items()}
        summary[metric]["change_wins"] = f"{wins}/{count}"
    return {"workload": workload, "summary": summary, "runs": runs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    trees = [("parent", args.parent), ("change", args.change)]
    record = {
        "command": "python3 " + " ".join(sys.argv),
        "blas_threads": 1,
        "numpy": np.__version__,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "rounds": args.rounds,
        "layers": layers(trees, args.rounds),
        "perfbench": [
            pairs(trees, w, args.pairs, args.seed + 100 * i) for i, w in enumerate(args.workloads)
        ],
    }
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    worker() if sys.argv[1:] == ["--worker"] else main()
