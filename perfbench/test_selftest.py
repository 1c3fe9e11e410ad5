"""Self-tests of the benchmark: references, failure counting, span
arithmetic and seeding.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# ----- reference -----------------------------------------------------------------


def test_reference_worked_example():
    P = ref.rule_out_matrix(250.0, [600.0, 600.0])
    menu = [([[0.75, 0.25], [0.25, 0.75]], 50.0)]
    for mu in (0.35, 0.45, 0.5, 0.55, 0.65):
        assert ref.menu_value(P, [mu, 1.0 - mu], menu) == pytest.approx(50.0, abs=1e-9)
    for mu in (0.1, 0.9):
        assert ref.menu_value(P, [mu, 1.0 - mu], menu) == pytest.approx(250.0 - 600.0 * min(mu, 1 - mu))
    assert ref.maximin_value(250.0, [600.0, 600.0]) == pytest.approx(-50.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_reference_no_learning_threshold(n):
    d = 6.0
    for delta in (-0.01, 0.0, 0.01):
        u = d * (1.0 / n + delta)
        P = ref.rule_out_matrix(u, [d] * n)
        worst = min(ref.gross(P, mu) for mu in ref.lattice(n, 30 if n < 5 else 10))
        assert worst == pytest.approx(u - d / n, abs=1e-12)
        assert ref.maximin_value(u, [d] * n) == pytest.approx(u - d / n, abs=1e-12)
        # Learning too dear to buy: the informed value is the payoff at the prior.
        value, _ = ref.shannon_value(P, np.full(n, 1.0 / n), 1e5)
        assert u - d / n - 1e-9 <= value <= u - d / n + 1e-3


def test_shannon_matches_brute_force_concavification():
    kappa, u, d = 0.3, 0.3, 1.0
    P = ref.rule_out_matrix(u, [d, d])
    xs = np.linspace(0.0, 1.0, 4001)
    obj = np.array([ref.gross(P, [x, 1 - x]) - kappa * ref.neg_entropy([x, 1 - x]) for x in xs])
    for mu in (0.2, 0.37, 0.5):
        a, b = np.meshgrid(np.flatnonzero(xs <= mu), np.flatnonzero(xs >= mu), indexing="ij")
        span = xs[b] - xs[a]
        w = np.where(span > 0, (xs[b] - mu) / np.where(span > 0, span, 1.0), 1.0)
        best = (w * obj[a] + (1 - w) * obj[b]).max() + kappa * ref.neg_entropy([mu, 1 - mu])
        value, bound = ref.shannon_value(P, [mu, 1 - mu], kappa)
        assert bound < 1e-8
        assert value >= best - 1e-9
        assert value - best < 1e-5


def test_urn_matrix_rows():
    P = ref.urn_matrix(1.0, 0.1)
    assert ref.gross(P, [1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert ref.gross(P, [0.0, 1.0, 0.0]) == pytest.approx(0.95)
    assert ref.urn_maximin_value(1.0, 0.1) == pytest.approx(0.95)


# ----- failure counting ----------------------------------------------------------


def _first(kind, workload, tmp_path):
    pool = workloads.build(workload, 3, str(tmp_path))
    return next(op for op in pool[0] if op.kind == kind)


def test_perturbed_result_counts_as_failure(tmp_path):
    op = _first("informed-n2", "pointwise-plans", tmp_path)
    tally = worker.Tally()
    elapsed, check = worker._run_op(op)
    tally.add(op, elapsed, check)
    assert check.ok and tally.failed == 0

    def perturbed():
        result = op.run()
        return result._replace(value=result.value + 1e-3)

    bad = op._replace(run=perturbed)
    elapsed, check = worker._run_op(bad)
    tally.add(bad, elapsed, check)
    assert not check.ok and tally.failed == 1
    assert len(tally.latency) == 2


def test_exception_counts_as_failure(tmp_path):
    op = _first("screens-n3-ball", "simplex-sweep", tmp_path)

    def broken():
        raise RuntimeError("boom")

    elapsed, check = worker._run_op(op._replace(run=broken))
    assert not check.ok and "boom" in check.note


def test_minimum_above_critical_prior_counts_as_failure():
    # A solver that misses the region around the uniform belief and
    # reports a consistent minimum elsewhere must still fail its check.
    import dataclasses

    import cavscreen

    kappa, u, d = 0.3, 0.2, 1.0
    P = ref.rule_out_matrix(u, [d] * 3)
    uniform = workloads._lattice_point(np.full(3, 1.0 / 3.0), 20)
    assert uniform.tolist() == [0.35, 0.35, 0.3]
    op = workloads._screen_op(
        "screens-n3-r20", 3, kappa, cavscreen.Contract(u, d), ref.maximin_value(u, [d] * 3), P,
        [uniform], math.comb(22, 2), resolution=20,
    )
    report = op.run()
    assert op.check(report).ok
    far = np.array([0.9, 0.05, 0.05])
    value, _ = ref.shannon_value(P, far, kappa)
    assert value > report.informed_min + 0.05  # far beyond the n = 3 tolerance
    wrong = dataclasses.replace(report, worst_prior=cavscreen.Belief(far), informed_min=value)
    check = op.check(wrong)
    assert not check.ok and "above reference" in check.note


# ----- tracing ---------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    tr = tracing.Tracer()

    def leaf():
        clock.t += 2.0

    def middle():
        clock.t += 1.0
        tr.span("leaf", leaf)
        clock.t += 3.0
        tr.span("leaf", leaf)

    def root():
        clock.t += 5.0
        tr.span("middle", middle)
        clock.t += 7.0

    tr.span("root", root)
    assert tr.self_times() == {"root": 12.0, "middle": 4.0, "leaf": 4.0}
    assert tr.calls_below(0, "leaf") == 2
    assert tr.calls_below(1, "leaf") == 2
    assert tr.calls_below(2, "leaf") == 0


def test_install_wraps_import_sites_and_removes_cleanly():
    import cavscreen
    from cavscreen import costs, informed, screening

    before = (screening.informed_value_sweep, cavscreen.informed_value_sweep,
              informed.informed_value_sweep)
    tr = tracing.Tracer()
    handle = tracing.install(tr)
    try:
        assert screening.informed_value_sweep is not before[0]
        model = cavscreen.PosteriorSeparable(0.3, cavscreen.neg_entropy())
        cavscreen.screens(model, cavscreen.Contract(0.3, 1.0), 3, resolution=20)
    finally:
        handle.remove()
    assert (screening.informed_value_sweep, cavscreen.informed_value_sweep,
            informed.informed_value_sweep) == before
    assert "batch" not in vars(costs.Potential)
    layers = {s.layer for s in tr.spans}
    assert {"screening.verdict", "informed.sweep", "envelopes.hull_build",
            "envelopes.hull_query", "costs.potential", "values.payoff"} <= layers
    assert tr.counts["screening.verdicts"] == 1
    assert tr.counts["screening.prior_points"] == math.comb(22, 2)
    assert tr.counts["envelopes.hull_input_points"] == math.comb(202, 2) + math.comb(22, 2)
    assert not tr.missing
    # Plane evaluations: every queried prior against every upper facet of
    # the hull the tracer saw built.
    planes, rest = divmod(tr.counts["envelopes.query_plane_evals"], math.comb(22, 2))
    assert rest == 0 and 0 < planes <= tr.counts["envelopes.hull_facets"]


def test_xi_candidates_are_counted_from_calls():
    import cavscreen

    tr = tracing.Tracer()
    handle = tracing.install(tr)
    try:
        model = cavscreen.PosteriorSeparable(0.01, cavscreen.neg_entropy())
        cavscreen.xi_screen_search(model, 0.2, samples=2000)
    finally:
        handle.remove()
    assert tr.counts["screening.xi_results"] == 1
    assert tr.counts["screening.xi_candidates"] >= 1
    assert tr.counts["screening.xi_sweeps"] >= 1


def test_missing_target_is_reported(monkeypatch):
    from cavscreen import envelopes

    monkeypatch.delattr(envelopes, "ConvexHull")
    tr = tracing.Tracer()
    tracing.install(tr).remove()
    assert "cavscreen.envelopes.ConvexHull" in tr.missing


# ----- seeding ---------------------------------------------------------------------


def _inputs(fn, depth=0):
    """Values a closure captured, recursively, as text."""
    out = []
    for cell in getattr(fn, "__closure__", None) or ():
        value = cell.cell_contents
        if callable(value) and depth < 3:
            out.append(_inputs(value, depth + 1))
        elif isinstance(value, np.ndarray):
            out.append(value.tobytes().hex())
        elif isinstance(value, (list, tuple)):
            out.append(repr([v.probs.tolist() if hasattr(v, "probs") else v for v in value]))
        else:
            out.append(repr(value))
    return "|".join(out)


def _snapshot(workload, seed, work):
    pool = workloads.build(workload, seed, str(work))
    text = [
        (op.kind + ":" + _inputs(op.run)).replace(str(work), "WORK")
        for k in range(pool.size) for op in pool[k]
    ]
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name)) as fh:
            text.append(fh.read())
    return text


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_seed_determines_inputs(workload, tmp_path):
    for k in ("a", "b", "c"):
        (tmp_path / k).mkdir()
    first = _snapshot(workload, 5, tmp_path / "a")
    again = _snapshot(workload, 5, tmp_path / "b")
    other = _snapshot(workload, 6, tmp_path / "c")
    assert first == again
    assert first != other


# ----- command contract ----------------------------------------------------------


def test_timed_loop_pauses_at_even_marks(monkeypatch):
    import time

    paused_at = []
    busy = []

    def run():
        time.sleep(0.002)

    def check(out):
        return workloads.Check(True, True, 0.0, "")

    op = workloads.Op("sleep", run, check, 1)

    class Repeat:
        def __getitem__(self, k):
            return [op]

    monkeypatch.setattr(worker, "_pause", lambda: paused_at.append(len(busy)))
    real = worker._run_op

    def counted(op, timer=None):
        busy.append(1)
        return real(op, timer)

    monkeypatch.setattr(worker, "_run_op", counted)
    result = worker.timed(Repeat(), 0.1, hostspeed.Kernel(), pauses=4)
    assert len(paused_at) == 4
    assert paused_at == sorted(paused_at) and paused_at[-1] < len(result["latency"])


def test_host_speed_scaling_uses_nearest_passes(monkeypatch):
    monkeypatch.setattr(hostspeed, "NEAREST", 3)
    ref_s = hostspeed.REFERENCE_S
    # Kernel passes at reference speed until t = 10, twice as slow after.
    samples = [(float(t), ref_s if t < 10 else 2.0 * ref_s) for t in range(20)]
    fast, slow = hostspeed.scale([0.5, 0.5], [3.2, 15.7], samples)
    assert fast == pytest.approx(0.5)
    assert slow == pytest.approx(0.25)
    # Next to the switch the median of the three nearest passes decides.
    assert hostspeed.scale([1.0], [9.4], samples) == pytest.approx([1.0])
    assert hostspeed.scale([1.0], [9.6], samples) == pytest.approx([0.5])


def test_tail_percentile():
    value, pct = run._tail([float(k) for k in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    assert run._tail([1.0, 2.0]) == (2.0, 100.0)


def test_refuses_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "binary-design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
