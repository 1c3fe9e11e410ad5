"""Experiments, Bayes updating, and the learning-benefit functional."""

import math

import numpy as np
import pytest

from cavscreen import (
    Belief,
    DimensionMismatch,
    Experiment,
    ZeroProbabilitySignal,
    belief2,
    fully_informative,
    induced_posterior_distribution,
    null_experiment,
    posterior,
    symmetric_binary,
    uniform_belief,
    upsilon,
    upsilon_batch,
)
from cavscreen.experiments import _signal_marginal as signal_marginal
from helpers import assert_same_bits, barycenter, fold_stacks, garble


def example_experiment():
    """Diagonal-3/4 binary experiment used throughout the two-state scenario."""
    return symmetric_binary(0.75)


def random_experiment(rng, n, m):
    return Experiment(rng.dirichlet(np.ones(m), size=n))


class TestExperimentType:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            Experiment([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(ValueError):
            Experiment([[1.1, -0.1], [0.5, 0.5]])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Experiment([[bad, 1.0], [0.5, 0.5]])

    def test_null_and_full_info(self):
        E = null_experiment(3)
        assert E.m == 1 and (E.likelihoods == 1.0).all()
        np.testing.assert_allclose(fully_informative(3).likelihoods, np.eye(3))


class TestSignalMarginal:
    def test_uninformative_marginal_is_prior_free(self):
        E = Experiment([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
        for mu in (uniform_belief(3), Belief((0.6, 0.3, 0.1))):
            np.testing.assert_allclose(signal_marginal(E, mu), [0.3, 0.7], atol=1e-12)

    def test_symmetric_binary_at_half(self):
        m = signal_marginal(example_experiment(), belief2(0.5))
        np.testing.assert_allclose(m, [0.5, 0.5], atol=1e-15)

    def test_fully_informative_marginal_is_prior(self):
        mu = Belief((0.3, 0.45, 0.25))
        np.testing.assert_allclose(
            signal_marginal(fully_informative(3), mu), mu.probs, atol=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            signal_marginal(example_experiment(), uniform_belief(3))


class TestPosterior:
    def test_uninformative_keeps_prior(self):
        E = null_experiment(2)
        mu = belief2(0.3)
        np.testing.assert_allclose(posterior(E, mu, 0).probs, mu.probs, atol=1e-15)

    def test_symmetric_binary_high_signal(self):
        x = posterior(example_experiment(), belief2(0.5), 0)
        np.testing.assert_allclose(x.probs, [0.75, 0.25], atol=1e-15)

    def test_fully_informative_reveals(self):
        x = posterior(fully_informative(3), Belief((0.2, 0.5, 0.3)), 2)
        np.testing.assert_allclose(x.probs, [0.0, 0.0, 1.0], atol=1e-15)

    def test_zero_probability_signal(self):
        E = fully_informative(2)
        with pytest.raises(ZeroProbabilitySignal, match=r"^signal 1 has zero probability at "):
            posterior(E, belief2(1.0), 1)


class TestInducedDistribution:
    def test_uninformative_is_degenerate(self):
        F = induced_posterior_distribution(null_experiment(2), belief2(0.4))
        assert F.is_degenerate()
        np.testing.assert_allclose(F.prior.probs, [0.4, 0.6])

    def test_symmetric_binary_split(self):
        F = induced_posterior_distribution(example_experiment(), belief2(0.5))
        pts = sorted((tuple(b.probs), w) for b, w in zip(F.support, F.weights))
        np.testing.assert_allclose(pts[0][0], [0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(pts[1][0], [0.75, 0.25], atol=1e-15)
        np.testing.assert_allclose([pts[0][1], pts[1][1]], 0.5, atol=1e-15)

    def test_fully_informative_puts_weights_on_vertices(self):
        F = induced_posterior_distribution(fully_informative(2), belief2(0.3))
        weights = dict(
            (int(np.argmax(b.probs)), w) for b, w in zip(F.support, F.weights)
        )
        assert weights[0] == pytest.approx(0.3)
        assert weights[1] == pytest.approx(0.7)

    def test_expected_posterior_equals_prior(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, m = rng.integers(2, 5), rng.integers(1, 6)
            E = random_experiment(rng, n, m)
            mu = Belief(rng.dirichlet(np.ones(n)))
            F = induced_posterior_distribution(E, mu)
            np.testing.assert_allclose(barycenter(F).probs, mu.probs, atol=1e-9)


class TestUpsilon:
    def test_uninformative_is_zero(self):
        assert upsilon(null_experiment(2), belief2(0.37)) == pytest.approx(0.0, abs=1e-15)

    def test_fully_informative_at_half(self):
        assert upsilon(fully_informative(2), belief2(0.5)) == pytest.approx(0.5)

    def test_symmetric_binary_at_half(self):
        # 1/2 - (min(3/8,1/8) + min(1/8,3/8)) = 1/4
        assert upsilon(example_experiment(), belief2(0.5)) == pytest.approx(0.25)

    def test_fine_scaled_benefit_matches_payoff_gap(self):
        # d * upsilon is the drop in expected fine: 600 * 1/4 = 150 bridges
        # the gap between learning (50 net of the 50 price) and not (-50).
        gap = 600.0 * upsilon(example_experiment(), belief2(0.5))
        assert gap == pytest.approx(150.0)

    def test_agreement_with_distribution_decomposition(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n, m = rng.integers(2, 5), rng.integers(1, 6)
            E = random_experiment(rng, n, m)
            mu = Belief(rng.dirichlet(np.ones(n)))
            F = induced_posterior_distribution(E, mu)
            via_f = mu.probs.min() - sum(
                w * x.probs.min() for x, w in zip(F.support, F.weights)
            )
            assert upsilon(E, mu) == pytest.approx(via_f, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n, m = rng.integers(2, 5), rng.integers(1, 7)
            E = random_experiment(rng, n, m)
            mu = Belief(rng.dirichlet(np.ones(n)))
            v = upsilon(E, mu)
            assert -1e-12 <= v <= mu.probs.min() + 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_batch_folds_match_row_minima(self, n):
        rng = np.random.default_rng(14 + n)
        for m in (1, 2, 5):
            E = random_experiment(rng, n, m)
            for pts in fold_stacks(n).values():
                joint = pts[:, :, None] * E.likelihoods
                want = pts.min(axis=1) - joint.min(axis=1).sum(axis=1)
                assert_same_bits(upsilon_batch(E, pts), want)

    def test_garbling_never_helps(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n, m, k = rng.integers(2, 5), rng.integers(2, 6), rng.integers(1, 6)
            E = random_experiment(rng, n, m)
            M = rng.dirichlet(np.ones(k), size=m)
            mu = Belief(rng.dirichlet(np.ones(n)))
            assert upsilon(garble(E, M), mu) <= upsilon(E, mu) + 1e-12

    def test_batch_rows_match_single_priors(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n, m = rng.integers(2, 5), rng.integers(1, 6)
            E = random_experiment(rng, n, m)
            priors = rng.dirichlet(np.ones(n), size=25)
            batch = upsilon_batch(E, priors)
            assert batch.tolist() == [upsilon(E, Belief(p)) for p in priors]

    def test_batch_checks_the_state_count(self):
        with pytest.raises(DimensionMismatch):
            upsilon_batch(example_experiment(), np.full((4, 3), 1.0 / 3.0))
