"""Cost models: priced menus and posterior-separable functionals."""

import math

import numpy as np
import pytest

from cavscreen import (
    Belief,
    Experiment,
    FixedMenu,
    InfinitePotential,
    PosteriorDistribution,
    PosteriorSeparable,
    Potential,
    belief2,
    degenerate,
    distribution_cost,
    fully_informative,
    induced_posterior_distribution,
    neg_entropy,
    null_experiment,
    potential_by_name,
    quadratic,
    symmetric_binary,
    uniform_belief,
)
from cavscreen.config import cost_model_from, load_config
from helpers import garble, shifted


def full_revelation(prior):
    n = prior.n
    return PosteriorDistribution(
        support=np.eye(n), weights=prior.probs, prior=prior
    )


def random_plan(rng, n, k):
    support = rng.dirichlet(np.ones(n), size=k)
    weights = rng.dirichlet(np.ones(k))
    prior = Belief(weights @ support)
    return PosteriorDistribution(
        support=support, weights=weights, prior=prior
    )


class TestModelTypes:
    def test_menu_rejects_negative_price(self):
        with pytest.raises(ValueError):
            FixedMenu(((symmetric_binary(0.75), -1.0),))

    def test_empty_menu_allowed(self):
        assert FixedMenu(()).entries == ()

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            PosteriorSeparable(0.0, neg_entropy())

    def test_potential_lookup(self):
        assert potential_by_name("neg-entropy").name == "neg-entropy"
        assert potential_by_name("NEG_ENTROPY").name == "neg-entropy"
        assert potential_by_name("quadratic").name == "quadratic"
        with pytest.raises(ValueError):
            potential_by_name("cubic")


class TestExperimentCost:
    # An experiment costs what its induced posterior plan costs.
    def test_null_experiment_is_free(self):
        model = PosteriorSeparable(1.0, neg_entropy())
        plan = induced_posterior_distribution(null_experiment(2), belief2(0.5))
        assert distribution_cost(model, plan) == pytest.approx(0.0, abs=1e-12)

    def test_full_revelation_entropy_cost(self):
        model = PosteriorSeparable(1.0, neg_entropy())
        plan = induced_posterior_distribution(fully_informative(2), belief2(0.5))
        assert distribution_cost(model, plan) == pytest.approx(math.log(2.0), abs=1e-12)


class TestDistributionCost:
    def test_degenerate_plan_is_free(self):
        model = PosteriorSeparable(2.5, neg_entropy())
        assert distribution_cost(model, degenerate(belief2(0.3))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_full_revelation_from_half(self):
        F = full_revelation(belief2(0.5))
        entropy = PosteriorSeparable(1.0, neg_entropy())
        quad = PosteriorSeparable(1.0, quadratic())
        assert distribution_cost(entropy, F) == pytest.approx(math.log(2.0), abs=1e-12)
        assert distribution_cost(quad, F) == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative_by_convexity(self):
        rng = np.random.default_rng(21)
        for model in (
            PosteriorSeparable(1.0, neg_entropy()),
            PosteriorSeparable(0.3, quadratic()),
        ):
            for _ in range(40):
                F = random_plan(rng, int(rng.integers(2, 5)), int(rng.integers(1, 6)))
                assert distribution_cost(model, F) >= -1e-9

    def test_garbled_experiment_costs_no_more(self):
        rng = np.random.default_rng(22)
        model = PosteriorSeparable(1.0, neg_entropy())
        for _ in range(30):
            n, m, k = rng.integers(2, 4), rng.integers(2, 5), rng.integers(1, 5)
            E = Experiment(rng.dirichlet(np.ones(m), size=n))
            mu = Belief(rng.dirichlet(np.ones(n)))
            coarse = garble(E, rng.dirichlet(np.ones(k), size=m))
            cost_fine = distribution_cost(model, induced_posterior_distribution(E, mu))
            cost_coarse = distribution_cost(
                model, induced_posterior_distribution(coarse, mu)
            )
            assert cost_coarse <= cost_fine + 1e-9

    def test_shifting_the_potential_changes_nothing(self):
        rng = np.random.default_rng(23)
        base = neg_entropy()
        model = PosteriorSeparable(1.7, base)
        moved = PosteriorSeparable(1.7, shifted(base, 7.0))
        for _ in range(20):
            F = random_plan(rng, 3, int(rng.integers(1, 5)))
            assert distribution_cost(model, F) == pytest.approx(
                distribution_cost(moved, F), abs=1e-9
            )

    def test_infinite_potential_raises(self):
        def log_barrier(pts):
            with np.errstate(divide="ignore"):
                return -np.log(np.maximum(pts, 0.0)).sum(axis=1)

        model = PosteriorSeparable(1.0, Potential("log-barrier", log_barrier))
        with pytest.raises(InfinitePotential):
            distribution_cost(model, full_revelation(belief2(0.5)))


class TestPotentialShapes:
    def test_zero_log_zero_convention(self):
        # full-support and boundary evaluations both finite
        assert neg_entropy().value(belief2(0.0)) == pytest.approx(0.0, abs=1e-12)
        assert neg_entropy().value(uniform_belief(2)) == pytest.approx(-math.log(2.0))

    def test_midpoint_convexity_random(self):
        rng = np.random.default_rng(24)
        for pot in (neg_entropy(), quadratic()):
            for _ in range(50):
                n = int(rng.integers(2, 5))
                x, y = rng.dirichlet(np.ones(n), size=2)
                lam = rng.uniform()
                mid = pot.value(lam * x + (1 - lam) * y)
                assert mid <= lam * pot.value(x) + (1 - lam) * pot.value(y) + 1e-9

    @pytest.mark.parametrize("name", ["neg-entropy", "quadratic"])
    def test_named_potentials_compare_equal_across_builds(self, tmp_path, name):
        assert potential_by_name(name) == potential_by_name(name)
        assert hash(potential_by_name(name)) == hash(potential_by_name(name))
        path = tmp_path / "model.yaml"
        path.write_text(f"model:\n  kappa: 0.2\n  potential: {name}\n")
        first, again = (cost_model_from(load_config(str(path))) for _ in range(2))
        assert first == again
        assert first.potential == potential_by_name(name)
