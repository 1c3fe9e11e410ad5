"""Belief, contract, and posterior-distribution primitives."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavscreen import (
    Belief,
    Contract,
    DimensionMismatch,
    EmptySupport,
    PosteriorDistribution,
    ball_grid,
    belief2,
    default_resolution,
    degenerate,
    simplex_grid_array,
    uniform_belief,
)
from cavscreen.simplex import distances
from helpers import assert_same_bits, barycenter, fold_stacks


def stars_and_bars(n, resolution):
    """The lattice by divider positions among resolution + n - 1 slots, in
    itertools order: the reference enumeration."""
    slots = resolution + n - 1
    combos = np.array(list(itertools.combinations(range(slots), n - 1)), dtype=int)
    ends = np.full((len(combos), 1), slots)
    bounded = np.hstack([np.full_like(ends, -1), combos, ends])
    return (np.diff(bounded, axis=1) - 1) / float(resolution)


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

    @pytest.mark.parametrize(
        "d",
        [
            pytest.param((1.0, 0.0), id="zero-fine"),
            pytest.param((2.0, -1.0, 3.0), id="negative-fine"),
            pytest.param(-2.0, id="negative-common-fine"),
            pytest.param(float("nan"), id="nan-fine"),
            pytest.param((1.5,), id="one-entry-vector"),
            pytest.param((), id="empty-vector"),
            pytest.param(((1.0, 2.0), (3.0, 4.0)), id="two-dimensional"),
        ],
    )
    def test_rejects_malformed_fines(self, d):
        with pytest.raises(ValueError):
            Contract(1.0, d)

    def test_common_fine_expands_to_vector(self):
        c = Contract(2.0, 5.0)
        assert c.n is None and c.d == 5.0
        assert tuple(c.fines(3)) == (5.0, 5.0, 5.0)
        with pytest.raises(ValueError):
            c.fines()

    def test_fine_vector_fixes_dimension(self):
        c = Contract(1.0, (3.0, 1.0))
        assert c.n == 2
        np.testing.assert_allclose(c.fines(), [3.0, 1.0])
        np.testing.assert_allclose(c.fines(2), [3.0, 1.0])
        for n in (1, 3, 4):
            with pytest.raises(DimensionMismatch):
                c.fines(n)

    def test_compares_by_identity(self):
        c = Contract(1.0, 2.0)
        assert c == c and c != Contract(1.0, 2.0)
        assert len({c, Contract(1.0, (2.0, 2.0))}) == 2


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

    def test_stacked_rows_get_the_belief_checks(self):
        rows = np.array([[0.25, 0.75], [1.0, 0.0]])
        F = PosteriorDistribution(rows, [2.0 / 3.0, 1.0 / 3.0], belief2(0.5))
        np.testing.assert_array_equal(F.support_matrix, rows)
        assert [b.probs.tolist() for b in F.support] == rows.tolist()
        assert not F.support_matrix.flags.writeable and not F.support[0].probs.flags.writeable
        rows[0, 0] = 0.5  # the distribution holds its own copy
        assert F.support[0][0] == 0.25
        for bad, error in (
            ([[-0.1, 1.1], [1.0, 0.0]], "negative probability"),
            ([[0.25, 0.7], [1.0, 0.0]], "sum to 0.95"),
        ):
            with pytest.raises(ValueError, match=error):
                PosteriorDistribution(np.array(bad), [0.5, 0.5], belief2(0.5))
        with pytest.raises(DimensionMismatch):
            PosteriorDistribution(np.array([[0.2, 0.3, 0.5]]), [1.0], belief2(0.5))
        with pytest.raises(EmptySupport):
            PosteriorDistribution(np.empty((0, 2)), [], belief2(0.5))

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

    @pytest.mark.parametrize("n,r", [(3, 100_000), (1000, 2), (10**9, 2), (2, 10**18)])
    def test_too_large_is_rejected_before_enumeration(self, monkeypatch, n, r):
        def refuse(*args):
            raise AssertionError("grid enumeration started")

        monkeypatch.setattr("cavscreen.simplex._lattice_counts", refuse)
        with pytest.raises(ValueError, match="coordinates"):
            simplex_grid_array(n, r)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("r", [2, 7, "default"])
    def test_matches_stars_and_bars_bit_for_bit(self, n, r):
        r = default_resolution(n) if r == "default" else r
        assert np.array_equal(simplex_grid_array(n, r), stars_and_bars(n, r))

    def test_cap_counts_coordinates(self, monkeypatch):
        # C(5, 2) = 10 points of 3 coordinates fill a cap of 30 exactly.
        monkeypatch.setattr("cavscreen.simplex.GRID_CAP", 30)
        assert simplex_grid_array(3, 3).shape == (10, 3)
        with pytest.raises(ValueError):
            simplex_grid_array(3, 4)

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
        assert ball.shape == (1, 3)
        np.testing.assert_allclose(ball[0], 1.0 / 3.0, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_distances_match_the_row_norm(self, n):
        center = np.random.default_rng(n).dirichlet(np.ones(n))
        for pts in fold_stacks(n).values():
            assert_same_bits(distances(pts, center), np.linalg.norm(pts - center, axis=1))
