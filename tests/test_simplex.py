"""Belief, contract, and posterior-distribution primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavscreen import (
    Belief,
    Contract,
    EmptySupport,
    GeneralizedContract,
    PosteriorDistribution,
    ball_grid,
    barycenter,
    belief2,
    degenerate,
    min_prob,
    simplex_grid_array,
    uniform_belief,
)


class TestBelief:
    def test_valid_construction(self):
        b = Belief((0.2, 0.5, 0.3))
        np.testing.assert_allclose(b.probs, [0.2, 0.5, 0.3])
        assert b.n == 3

    def test_rejects_negative_coordinate(self):
        with pytest.raises(ValueError):
            Belief((-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Belief((0.5, 0.6))

    def test_tiny_negative_rounding_is_tolerated(self):
        b = Belief((1.0 + 1e-13, -1e-13))
        assert b.probs.min() >= -1e-12

    def test_belief2_and_uniform(self):
        np.testing.assert_allclose(belief2(0.3).probs, [0.3, 0.7])
        np.testing.assert_allclose(uniform_belief(4).probs, 0.25)


class TestContracts:
    def test_contract_requires_positive_parts(self):
        with pytest.raises(ValueError):
            Contract(0.0, 1.0)
        with pytest.raises(ValueError):
            Contract(1.0, 0.0)

    def test_generalized_requires_positive_fines(self):
        with pytest.raises(ValueError):
            GeneralizedContract(1.0, (1.0, 0.0))

    def test_common_fine_expands_to_vector(self):
        c = Contract(2.0, 5.0)
        assert tuple(c.fines(3)) == (5.0, 5.0, 5.0)

    def test_generalized_fixes_dimension(self):
        gc = GeneralizedContract(1.0, (3.0, 1.0))
        assert gc.n == 2
        np.testing.assert_allclose(gc.fines(), [3.0, 1.0])


class TestMinProb:
    def test_symmetric_two_state(self):
        assert min_prob(belief2(0.5)) == 0.5

    def test_uniform_three_state(self):
        assert min_prob(uniform_belief(3)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_plain_minimum(self):
        assert min_prob(Belief((0.2, 0.5, 0.3))) == pytest.approx(0.2)


class TestBarycenter:
    def test_degenerate_point(self):
        F = degenerate(Belief((0.4, 0.6)))
        np.testing.assert_allclose(barycenter(F).probs, [0.4, 0.6])

    def test_symmetric_binary_split(self):
        F = PosteriorDistribution(
            support=[belief2(0.0), belief2(1.0)],
            weights=[0.5, 0.5],
            prior=belief2(0.5),
        )
        np.testing.assert_allclose(barycenter(F).probs, [0.5, 0.5])

    def test_asymmetric_split(self):
        # 2/3 * 1/4 + 1/3 * 1 = 1/2
        F = PosteriorDistribution(
            support=[Belief((0.25, 0.75)), Belief((1.0, 0.0))],
            weights=[2.0 / 3.0, 1.0 / 3.0],
            prior=belief2(0.5),
        )
        np.testing.assert_allclose(barycenter(F).probs, [0.5, 0.5], atol=1e-15)

    def test_empty_support_rejected(self):
        with pytest.raises(EmptySupport):
            PosteriorDistribution(support=[], weights=[], prior=belief2(0.5))

    def test_bayes_plausibility_enforced(self):
        with pytest.raises(ValueError):
            PosteriorDistribution(
                support=[belief2(0.0), belief2(1.0)],
                weights=[0.5, 0.5],
                prior=belief2(0.7),
            )

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_barycenter_is_identity_on_prior(self, n, k, seed):
        rng = np.random.default_rng(seed)
        support = [Belief(x) for x in rng.dirichlet(np.ones(n), size=k)]
        weights = rng.dirichlet(np.ones(k))
        prior = Belief(weights @ np.array([b.probs for b in support]))
        F = PosteriorDistribution(support=support, weights=weights, prior=prior)
        np.testing.assert_allclose(barycenter(F).probs, prior.probs, atol=1e-9)


class TestSimplexGrid:
    def test_coarsest_binary_grid(self):
        pts = {tuple(row) for row in simplex_grid_array(2, 2)}
        assert pts == {(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)}

    def test_binary_resolution_four(self):
        assert len(simplex_grid_array(2, 4)) == 5

    def test_three_state_resolution_two(self):
        assert len(simplex_grid_array(3, 2)) == 6

    @pytest.mark.parametrize("n,r", [(2, 7), (3, 9), (4, 5), (5, 4)])
    def test_lattice_count(self, n, r):
        assert len(simplex_grid_array(n, r)) == math.comb(r + n - 1, n - 1)

    def test_contains_all_vertices(self):
        grid = simplex_grid_array(3, 5)
        for v in np.eye(3):
            assert (np.abs(grid - v).sum(axis=1) < 1e-12).any()

    def test_coordinates_are_lattice_multiples(self):
        grid = simplex_grid_array(3, 8)
        np.testing.assert_allclose(grid * 8, np.round(grid * 8), atol=1e-9)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-9)


class TestBallGrid:
    def test_line_segment_ball(self):
        ball = ball_grid(belief2(0.5), 0.05, 100)
        xs = sorted(b[0] for b in ball)
        expected = [
            k / 100 for k in range(101) if abs(k / 100 - 0.5) * math.sqrt(2) <= 0.05
        ]
        np.testing.assert_allclose(xs, expected, atol=1e-12)

    def test_huge_radius_covers_grid(self):
        assert len(ball_grid(uniform_belief(3), 10.0, 6)) == len(simplex_grid_array(3, 6))

    def test_tight_ball_keeps_only_center(self):
        ball = ball_grid(uniform_belief(3), 0.01, 3)
        assert len(ball) == 1
        np.testing.assert_allclose(ball[0].probs, 1.0 / 3.0, atol=1e-12)

    def test_sup_norm_option_is_wider_on_the_line(self):
        eucl = ball_grid(belief2(0.5), 0.05, 100)
        sup = ball_grid(belief2(0.5), 0.05, 100, norm="sup")
        assert len(sup) > len(eucl)
