"""Upper concave envelopes: 1-D hull scan, simplex LP, and batch facets."""

import numpy as np
import pytest
from scipy.special import xlogy

from cavscreen import (
    Belief,
    Contract,
    Envelope1d,
    InfeasibleBarycenter,
    SimplexEnvelope,
    UrnDraw,
    barycenter,
    belief2,
    concavify_1d,
    concavify_lp,
    simplex_grid_array,
    uniform_belief,
)


def piecewise_objective(rng, xs):
    """Min of a few random lines plus a scaled entropy term, like the
    objectives the informed expert concavifies."""
    k = rng.integers(2, 5)
    slopes = rng.uniform(-4.0, 4.0, size=k)
    offsets = rng.uniform(-1.0, 1.0, size=k)
    lines = np.min(slopes[None, :] * xs[:, None] + offsets[None, :], axis=1)
    scale = rng.uniform(0.0, 0.5)
    return lines - scale * (xlogy(xs, xs) + xlogy(1.0 - xs, 1.0 - xs))


class TestConcavify1d:
    def test_affine_is_its_own_envelope(self):
        xs = np.linspace(0.0, 1.0, 101)
        fs = 2.0 * xs - 0.3
        value, plan = concavify_1d(xs, fs, 0.37)
        assert value == pytest.approx(2.0 * 0.37 - 0.3, abs=1e-12)
        assert plan.is_degenerate()

    def test_kinked_min_splits_to_endpoints(self):
        xs = np.linspace(0.0, 1.0, 101)
        fs = -np.minimum(xs, 1.0 - xs)
        value, plan = concavify_1d(xs, fs, 0.5)
        assert value == pytest.approx(0.0, abs=1e-12)
        support = sorted(b[0] for b in plan.support)
        np.testing.assert_allclose(support, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(plan.weights, [0.5, 0.5], atol=1e-12)

    def test_dominates_the_sampled_function(self):
        rng = np.random.default_rng(41)
        xs = np.linspace(0.0, 1.0, 201)
        for _ in range(20):
            fs = piecewise_objective(rng, xs)
            for mu in rng.uniform(0.0, 1.0, size=5):
                value, _ = concavify_1d(xs, fs, mu)
                assert value >= np.interp(mu, xs, fs) - 1e-12

    def test_support_at_most_two_and_bayes_plausible(self):
        rng = np.random.default_rng(42)
        xs = np.linspace(0.0, 1.0, 201)
        for _ in range(20):
            fs = piecewise_objective(rng, xs)
            mu = rng.uniform(0.05, 0.95)
            value, plan = concavify_1d(xs, fs, mu)
            assert len(plan) <= 2
            assert barycenter(plan)[0] == pytest.approx(mu, abs=1e-9)
            achieved = sum(
                w * np.interp(b[0], xs, fs) for b, w in zip(plan.support, plan.weights)
            )
            assert achieved == pytest.approx(value, abs=1e-6)

    def test_envelope_is_concave_on_the_grid(self):
        rng = np.random.default_rng(43)
        xs = np.linspace(0.0, 1.0, 301)
        fs = piecewise_objective(rng, xs)
        env = Envelope1d(xs, fs).values(xs)
        mids = 0.5 * (env[:-2] + env[2:])
        assert (env[1:-1] >= mids - 1e-9).all()

    def test_symmetric_objective_splits_symmetrically(self):
        xs = np.linspace(0.0, 1.0, 1001)
        fs = 0.04 - 0.08 * np.minimum(xs, 1.0 - xs) - 0.01 * (
            xlogy(xs, xs) + xlogy(1.0 - xs, 1.0 - xs)
        )
        _, plan = concavify_1d(xs, fs, 0.5)
        assert len(plan) == 2
        lo, hi = sorted(b[0] for b in plan.support)
        assert lo == pytest.approx(1.0 - hi, abs=1e-9)
        assert hi - lo > 0.01

    def test_query_outside_grid_range(self):
        xs = np.linspace(0.2, 0.8, 61)
        fs = np.zeros_like(xs)
        with pytest.raises(InfeasibleBarycenter):
            concavify_1d(xs, fs, 0.1)


class TestConcavifyLp:
    def test_constant_function_stays_degenerate_on_grid_points(self):
        grid = simplex_grid_array(2, 50)
        fs = np.full(len(grid), 3.25)
        value, plan = concavify_lp(grid, fs, belief2(0.42))
        assert value == pytest.approx(3.25, abs=1e-9)
        assert plan.is_degenerate()
        assert plan.support[0][0] == pytest.approx(0.42, abs=1e-12)

    def test_agrees_with_hull_scan_on_the_line(self):
        rng = np.random.default_rng(44)
        xs = np.linspace(0.0, 1.0, 101)
        grid = np.column_stack([xs, 1.0 - xs])
        for _ in range(15):
            fs = piecewise_objective(rng, xs)
            mu = rng.uniform(0.0, 1.0)
            v_scan, _ = concavify_1d(xs, fs, mu)
            v_lp, plan = concavify_lp(grid, fs, belief2(mu))
            assert v_lp == pytest.approx(v_scan, abs=1e-9)
            np.testing.assert_allclose(
                barycenter(plan).probs, [mu, 1.0 - mu], atol=1e-9
            )

    def test_urn_kink_split_beats_staying(self):
        contract = Contract(1.0, 1.2)
        vf = UrnDraw(contract)
        grid = simplex_grid_array(3, 20)
        fs = vf.batch(grid)
        value, plan = concavify_lp(grid, fs, uniform_belief(3))
        stay = contract.u - 0.5 * contract.d
        assert value > stay + 0.1
        assert value >= contract.u - contract.d / 6.0 - 1e-9
        assert len(plan) <= 3
        achieved = float(plan.weights @ vf.batch(plan.support_matrix))
        assert achieved == pytest.approx(value, abs=1e-6)

    def test_infeasible_outside_hull(self):
        grid = simplex_grid_array(2, 10)
        inner = grid[(grid[:, 0] >= 0.3) & (grid[:, 0] <= 0.7)]
        with pytest.raises(InfeasibleBarycenter):
            concavify_lp(inner, np.zeros(len(inner)), belief2(0.1))


class TestSimplexEnvelope:
    def test_batch_matches_lp_pointwise(self):
        rng = np.random.default_rng(45)
        grid = simplex_grid_array(3, 12)
        fs = rng.uniform(-1.0, 1.0, size=len(grid))
        env = SimplexEnvelope(grid, fs)
        queries = rng.dirichlet(np.ones(3), size=12)
        batch = env.values(queries)
        for q, got in zip(queries, batch):
            want, _ = concavify_lp(grid, fs, Belief(q))
            assert got == pytest.approx(want, abs=1e-9)

    def test_dominates_samples(self):
        rng = np.random.default_rng(47)
        grid = simplex_grid_array(3, 10)
        fs = rng.uniform(-1.0, 1.0, size=len(grid))
        env = SimplexEnvelope(grid, fs)
        np.testing.assert_array_less(fs - 1e-9, env.values(grid))
