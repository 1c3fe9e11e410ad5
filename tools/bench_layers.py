"""Time cavscreen's layers in one or more checkouts and print one JSON record.

    mkdir -p .bench_build/parent && git archive REV | tar -x -C .bench_build/parent
    python3 tools/bench_layers.py parent=.bench_build/parent change=. --rounds 11

Each round runs every LABEL=ROOT checkout in a fresh process (PYTHONPATH=ROOT/src,
one BLAS thread), alternating which runs first.  A process first allocates and frees
32 MB, as perfbench's host-speed kernel does, so that glibc keeps freed memory on the
heap; then it times each row of ``ROWS`` by ``timeit`` (collector off) as the median of
its calls after three warm-up calls, and counts the minor page faults per timed call.
Per row and tree the record gives the median and quartiles over rounds in µs, the
median faults per call, null where the tree cannot build or run the row, and the
last tree against the first.
``--pairs K`` adds, per workload, K rounds of ``perfbench/run.py --seconds 20 --trace
0``; round k of workload w runs seed ``--seed`` + 100 w + k.  To time a layer, add a row.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import timeit
from functools import partial

import numpy as np

ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
# (u, d, kappa, potential) of the rule-out game and of the quadratic game.
RULE_OUT, QUADRATIC = (0.3, 1.0, 0.3, "neg_entropy"), (0.4, 1.1, 0.5, "quadratic")
UPSILON = [[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]
# The urn game's (u, d, kappa), as pointwise-plans draws it.
URN = (0.03, 0.1, 0.01)
P2, P3, Q3 = (0.3713, 0.6287), (0.2, 0.3, 0.5), (0.2113, 0.3359, 0.4528)
P4, P5 = (0.1, 0.2, 0.3, 0.4), (0.11, 0.23, 0.19, 0.3, 0.17)
# The belief Proposition-2 fines are equalized against, with d_n = 1.
RHO4 = (0.22, 0.25, 0.23, 0.3)


def _samples(c, n: int, game) -> tuple:
    """The default lattice of n states and V - kappa c sampled on it, the
    samples a single prior is concavified over."""
    u, d, kappa, potential = game
    grid = c.simplex_grid_array(n)
    kc = kappa * getattr(c, potential)().batch(grid)
    return grid, c.SimpleAnnouncement(c.Contract(u, d)).batch(grid) - kc


def _at_prior(name: str, p, game):
    return lambda c: partial(getattr(c.envelopes, name), *_samples(c, len(p), game), c.Belief(p))


def _informed(p, urn: bool = False):
    """``informed_value`` at one prior: the rule-out game, or the urn."""
    (u, d, kappa), build = (URN, "UrnDraw") if urn else (RULE_OUT[:3], "SimpleAnnouncement")
    return lambda c: partial(c.informed_value, c.PosteriorSeparable(kappa, c.neg_entropy()),
                             getattr(c, build)(c.Contract(u, d)), c.Belief(p))


def _shannon(n: int, where):
    u, d, kappa, _ = RULE_OUT
    return lambda c: partial(c.shannon.solve, u - d * np.eye(n), kappa, np.array([where])
                             if isinstance(where, tuple) else c.simplex_grid_array(n, where))


def _prop2(c):
    """``shannon.solve`` on the r = 24 lattice under Proposition-2 fines, with
    u and kappa as simplex-sweep's prop2 verdicts at n = 4 draw them."""
    u, fines = 0.999 * RHO4[-1], RHO4[-1] / np.array(RHO4)
    return partial(c.shannon.solve, u - np.diag(fines), u / (2.0 * np.log(4)),
                   c.simplex_grid_array(4, 24))


def _prop2_verdict(c):
    """The ``screens`` verdict of simplex-sweep's median operation: Proposition-2
    fines on the r = 24 lattice, against the seu type holding the fines' belief."""
    u, rho = 0.999 * RHO4[-1], c.Belief(RHO4)
    return partial(c.screens, c.PosteriorSeparable(u / (2.0 * np.log(4)), c.neg_entropy()),
                   c.prop2_contract(rho, u, 1.0), 4, resolution=24, uninformed="seu", rho=rho)


def _plan(c):
    """The plan ``informed_value`` reads off one n = 4 prior's Shannon solution,
    pruned and checked, and its learning cost."""
    u, d, kappa, _ = RULE_OUT
    P, mu, model = u - d * np.eye(4), c.Belief(P4), c.PosteriorSeparable(kappa, c.neg_entropy())
    solution = c.shannon.solve(P, kappa, mu.probs[None])
    if hasattr(solution, "s"):  # the solution holds E and E^T p
        read = partial(c.shannon.posteriors, solution, 0, mu.probs)
    else:  # older trees rebuild them from P and the weights
        read = partial(c.shannon.posteriors, P, kappa, mu.probs, solution.weights[0])
    return lambda: c.distribution_cost(model, c.envelopes._prune_plan(*read(), mu))


def _traces(c):
    model = c.PosteriorSeparable(1.0, c.neg_entropy())
    return c.binary_figure_traces(model, c.design_binary_contract(model))


def _svg(c):
    t = _traces(c)
    series = [("payoff", t.gross), ("objective", t.objective), ("envelope", t.envelope)]
    series += [(f"curve mu={p:g}", t.curve(k)) for k, p in enumerate(t.priors)]
    return partial(c.write_svg, "t.svg", t.x, series, title="value of information traces")


# (layer, n, input rows: priors, samples or draws, or 1 for one game or prior,
#  timed calls per process, builder: the cavscreen package -> the call to time)
ROWS = (
    ("DecisionProblem.batch, rule-out", 3, 20301, 300,
     lambda c: partial(c.SimpleAnnouncement(c.Contract(0.3, 1.0)).batch, c.simplex_grid_array(3))),
    ("DecisionProblem.batch, urn", 3, 20301, 300,
     lambda c: partial(c.UrnDraw(c.Contract(0.0485, 0.1)).batch, c.simplex_grid_array(3))),
    ("uninformed_maximin, urn", 3, 1, 300,
     lambda c: partial(c.uninformed_maximin, c.UrnDraw(c.Contract(0.0485, 0.1)))),
    ("upsilon_batch, 3 signals", 3, 20301, 100,
     lambda c: partial(c.upsilon_batch, c.Experiment(UPSILON), c.simplex_grid_array(3))),
    ("shannon.solve, one prior, learns", 4, 1, 2000, _shannon(4, P4)),
    ("shannon.solve, one prior, stays", 4, 1, 2000, _shannon(4, (0.0, 0.0, 0.0, 1.0))),
    ("shannon.solve, lattice r = 20", 4, 1771, 200, _shannon(4, 20)),
    ("shannon.solve, lattice r = 24", 4, 2925, 200, _shannon(4, 24)),
    ("shannon.solve, lattice r = 200", 3, 20301, 30, _shannon(3, 200)),
    ("shannon.solve, lattice r = 24, prop2 fines", 4, 2925, 200, _prop2),
    ("Shannon plan read-off and its cost, one prior", 4, 1, 2000, _plan),
    ("screens, prop2 fines, seu, lattice r = 24", 4, 2925, 100, _prop2_verdict),
    ("simplex_grid_array, r = 24", 4, 2925, 300,
     lambda c: partial(c.simplex_grid_array, 4, 24)),
    ("csv: figure_table + write_csv", 2, 1001, 200,
     lambda c: partial(lambda t: c.write_csv("t.csv", *c.figure_table(t)), _traces(c))),
    ("svg: write_svg", 2, 1001, 200, _svg),
    ("xi draws: flat Dirichlet row minima", 2, 100_000, 200,
     lambda c: partial(c.screening._flat_dirichlet_minima, 100_000, 2, 0)),
    ("cli figure --format both", 2, 1001, 60,
     lambda c: partial(c.cli.main, ["figure", "--format", "both", "--out", "."])),
    ("cli xi-screen", 2, 100_000, 60, lambda c: partial(c.cli.main, ["xi-screen"])),
    ("concavify_walk, rule-out kappa 0.3", 3, 20301, 200,
     _at_prior("concavify_walk", P3, RULE_OUT)),
    ("concavify_walk, quadratic", 4, 7770, 200, _at_prior("concavify_walk", P4, QUADRATIC)),
    ("concavify_walk, quadratic", 5, 7315, 200, _at_prior("concavify_walk", P5, QUADRATIC)),
    ("SimplexEnvelope build, rule-out kappa 0.3", 3, 20301, 30,
     lambda c: partial(c.SimplexEnvelope, *_samples(c, 3, RULE_OUT))),
    ("SimplexEnvelope.values, rule-out kappa 0.3", 3, 20301, 30, lambda c: partial(
        c.SimplexEnvelope(*_samples(c, 3, RULE_OUT)).values, c.simplex_grid_array(3))),
    ("concavify_lp, quadratic", 4, 7770, 20, _at_prior("concavify_lp", P4, QUADRATIC)),
    ("informed_value, one prior, rule-out kappa 0.3", 2, 1, 300, _informed(P2)),
    ("informed_value, one prior, rule-out kappa 0.3", 3, 1, 200, _informed(Q3)),
    ("informed_value, one prior, urn kappa 0.01", 3, 1, 200, _informed(Q3, urn=True)),
    ("informed_value, one prior, Shannon rule-out kappa 0.3", 4, 1, 300, _informed(P4)),
    ("ball_grid, radius 0.1", 3, 20301, 300,
     lambda c: partial(c.ball_grid, c.Belief(P3), 0.1)),
)


def worker() -> None:
    """Print each row's median microseconds per call on the imported tree and
    its minor page faults per timed call, or nulls where it cannot build or
    run the row: one JSON object of two lists on the last line."""
    import cavscreen.cli

    # Freeing 32 MB raises glibc's mmap threshold, so later frees stay on the
    # heap and calls do not fault their pages in again: a warm heap, as in perfbench.
    np.ones(4_000_000)
    out = {"us": [], "faults": []}
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for layer, n, _, calls, build in ROWS:
            try:
                call = build(cavscreen)
                timeit.repeat(call, number=1, repeat=3)
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                times = timeit.repeat(call, number=1, repeat=calls)
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                out["us"].append(1e6 * float(np.median(times)))
                out["faults"].append(faults / calls)
            except Exception as exc:  # a row an older tree lacks leaves the rest timed
                print(f"{layer}, n = {n}: {type(exc).__name__}: {exc}", file=sys.stderr)
                out["us"].append(None)
                out["faults"].append(None)
    print(json.dumps(out))


def compare(runs: dict, key, higher: bool = False) -> dict:
    """Per tree, the median and quartiles of its runs' values at ``key`` (None
    where a run has none); the last tree's median change against the first in
    per cent, and the rounds in which the last tree did better."""
    out = {}
    for label, values in runs.items():
        values = [run[key] for run in values]
        out[label] = None if None in values else dict(zip(("median", "q1", "q3"), (
            float(f"{v:.6g}") for v in np.percentile(values, [50, 25, 75]))))
    first, last = list(runs)[0], list(runs)[-1]
    if first != last and out[first] and out[last]:
        base = out[first]["median"]
        out["change_pct"] = round(100 * (out[last]["median"] / base - 1), 1) if base else None
        differ = [(a[key], b[key]) for a, b in zip(runs[first], runs[last]) if a[key] != b[key]]
        out[f"{last}_wins"] = f"{sum((b > a) == higher for a, b in differ)}/{len(runs[first])}"
    return out


def alternate(trees, count: int, run) -> dict:
    """Per tree, ``run(root, k)`` for each round k, alternating which tree runs first."""
    out = {label: [] for label, _ in trees}
    for k in range(count):
        for label, root in trees[k % len(trees):] + trees[: k % len(trees)]:
            out[label].append(run(root, k))
    return out


def layers(trees, count: int) -> list:
    def run(root: str, _) -> list:
        env = dict(ENV, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker"],
                              env=env, check=True, stdout=subprocess.PIPE, text=True)
        return json.loads(done.stdout.splitlines()[-1])

    runs = alternate(trees, count, run)
    us, faults = ({label: [run[key] for run in done] for label, done in runs.items()}
                  for key in ("us", "faults"))
    out = []
    for k, (layer, n, rows, calls, _) in enumerate(ROWS):
        row = compare(us, k)
        for label, per_run in faults.items():
            if row[label] is not None:  # beside each median: the median faults per call
                row[label]["faults_per_call"] = float(np.median([run[k] for run in per_run]))
        out.append({"layer": layer, "n": n, "rows": rows, "calls_per_process": calls, **row})
    return out


def pairs(trees, workload: str, count: int, seed: int) -> dict:
    def run(root: str, k: int) -> dict:
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                               str(seed + k), "--seconds", "20", "--trace", "0"],
                              cwd=root, check=True, capture_output=True, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        out = {"seed": seed + k, "correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], **{m: v["value"] for m, v in result["metrics"].items()}}
        print(json.dumps({"root": root, **out}), file=sys.stderr, flush=True)
        return out

    runs = alternate(trees, count, run)
    # A larger value is better for these; lower for the rest.
    summary = {m: compare(runs, m, higher=m in ("ops_per_s", "priors_per_s", "attempted"))
               for m in runs[trees[0][0]][0] if m not in ("seed", "correct")}
    return {"workload": workload, "summary": summary, "runs": runs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", help="LABEL=ROOT, a checkout root")
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--workloads", nargs="*",
                        default=["simplex-sweep", "binary-design", "pointwise-plans"])
    args = parser.parse_args()
    trees = [tuple(tree.split("=", 1)) for tree in args.trees]
    host = {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}
    record = {"command": "python3 tools/bench_layers.py " + " ".join(sys.argv[1:]), "host": host,
              "rounds": args.rounds, "layers_us": layers(trees, args.rounds)}
    if args.pairs:
        record["perfbench"] = [pairs(trees, w, args.pairs, args.seed + 100 * i)
                               for i, w in enumerate(args.workloads)]
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    worker() if sys.argv[1:] == ["--worker"] else main()
