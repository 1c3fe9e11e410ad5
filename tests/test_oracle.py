"""Naive baselines: exhaustive pair search and zero-sum LP."""

import numpy as np
import pytest
from scipy.special import xlogy

from cavscreen import (
    brute_force_two_point_search,
    concavify_1d,
    lp_maximin,
)


class TestBruteForcePairs:
    def test_concave_function_needs_no_split(self):
        f = lambda x: -((x - 0.3) ** 2)
        for prior in (0.3, 0.5, 0.715):
            got = brute_force_two_point_search(f, prior, 200)
            assert got == pytest.approx(f(prior), abs=1e-4)

    def test_kinked_min_splits_to_chord(self):
        f = lambda x: -min(x, 1.0 - x)
        assert brute_force_two_point_search(f, 0.5, 200) == pytest.approx(0.0, abs=1e-12)

    def test_matches_hull_scan_on_learning_objectives(self):
        rng = np.random.default_rng(71)
        xs = np.linspace(0.0, 1.0, 121)
        for _ in range(10):
            u = rng.uniform(0.02, 0.08)
            d = rng.uniform(0.05, 0.2)
            kappa = rng.uniform(0.005, 0.05)

            def objective(x):
                ent = xlogy(x, x) + xlogy(1.0 - x, 1.0 - x)
                return u - d * min(x, 1.0 - x) - kappa * ent

            fs = np.array([objective(x) for x in xs])
            mu = rng.uniform(0.1, 0.9)
            fast, _ = concavify_1d(xs, fs, mu)
            slow = brute_force_two_point_search(objective, mu, 120)
            assert fast == pytest.approx(slow, abs=1e-6)


class TestLpMaximin:
    def test_equal_fines_closed_form(self):
        u, d, n = 2.0, 5.0, 4
        payoff = u - d * np.eye(n)
        got = lp_maximin(payoff)
        assert got.value == pytest.approx(u - d / n, abs=1e-9)
        np.testing.assert_allclose(got.strategy, 1.0 / n, atol=1e-9)

    def test_single_row_takes_its_minimum(self):
        payoff = np.array([[3.0, -1.0, 2.0]])
        got = lp_maximin(payoff)
        assert got.value == pytest.approx(-1.0, abs=1e-9)

    def test_two_state_unequal_fines(self):
        payoff = 1.0 - np.diag([3.0, 1.0])
        got = lp_maximin(payoff)
        assert got.value == pytest.approx(0.25, abs=1e-9)
        np.testing.assert_allclose(got.strategy, [0.25, 0.75], atol=1e-9)

    def test_strategy_secures_the_value(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            payoff = rng.uniform(-3.0, 3.0, size=(rng.integers(2, 6), rng.integers(2, 6)))
            got = lp_maximin(payoff)
            secured = got.strategy @ payoff
            assert (secured >= got.value - 1e-9).all()
