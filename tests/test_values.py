"""Announcement games: payoffs at a fixed belief and optimal announcements."""

import numpy as np
import pytest

from cavscreen import (
    Belief,
    Contract,
    DecisionProblem,
    DimensionMismatch,
    SimpleAnnouncement,
    UrnDraw,
    belief2,
)
from helpers import assert_same_bits, fold_stacks


def payoff(contract, belief):
    return SimpleAnnouncement(contract).value(belief)


def announce(game, belief):
    """Index of the action the expert takes, ties to the lowest index."""
    return int(np.argmin(game.fines(belief.n) @ belief.probs))


def announced(contract, belief):
    return announce(SimpleAnnouncement(contract), belief)


class TestGrossValue:
    def test_worked_contract_at_half(self):
        assert payoff(Contract(250.0, 600.0), belief2(0.5)) == pytest.approx(-50.0)

    def test_worked_contract_at_third(self):
        got = payoff(Contract(250.0, 600.0), Belief((1 / 3, 2 / 3)))
        assert got == pytest.approx(50.0, abs=1e-9)

    def test_per_state_fines(self):
        c = Contract(1.0, (3.0, 1.0))
        assert payoff(c, belief2(0.3)) == pytest.approx(1.0 - 0.7)

    def test_value_function_dispatch(self):
        # the rule-out game is the decision problem with F = diag(d)
        vf = SimpleAnnouncement(Contract(250.0, 600.0))
        direct = DecisionProblem(250.0, lambda n: np.diag(np.full(n, 600.0)))
        assert direct.value(belief2(0.5)) == vf.value(belief2(0.5)) == -50.0
        pts = np.random.default_rng(30).dirichlet(np.ones(3), size=20)
        np.testing.assert_array_equal(direct.batch(pts), vf.batch(pts))

    def test_convex_along_segments(self):
        # max-of-affine form: the payoff can only kink upward
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            c = Contract(rng.uniform(0.5, 3), rng.uniform(0.2, 4, size=n))
            a, b = rng.dirichlet(np.ones(n), size=2)
            lam = rng.uniform()
            mid = payoff(c, Belief(lam * a + (1 - lam) * b))
            ends = lam * payoff(c, Belief(a)) + (1 - lam) * payoff(c, Belief(b))
            assert mid <= ends + 1e-12


class TestAnnounce:
    def test_least_likely_state_under_equal_fines(self):
        assert announced(Contract(1.0, 1.0), Belief((0.2, 0.5, 0.3))) == 0

    def test_fine_weighted_comparison(self):
        c = Contract(1.0, (3.0, 1.0))
        assert announced(c, belief2(0.3)) == 1  # 0.9 vs 0.7

    def test_tie_breaks_to_lowest_index(self):
        assert announced(Contract(1.0, 1.0), belief2(0.5)) == 0

    def test_accepts_value_function(self):
        # any expected-fine matrix: the action with the smallest row product
        vf = DecisionProblem(1.0, lambda n: np.array([[0.9, 0.9], [0.0, 1.0], [1.0, 0.2]]))
        assert announce(vf, belief2(0.3)) == 2  # 0.9, 0.7, 0.44
        assert vf.value(belief2(0.3)) == pytest.approx(1.0 - 0.44)

    def test_announcement_attains_gross_value(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            c = Contract(rng.uniform(0.5, 2), rng.uniform(0.2, 4, size=n))
            x = Belief(rng.dirichlet(np.ones(n)))
            i = announced(c, x)
            assert c.u - c.fines()[i] * x[i] == pytest.approx(payoff(c, x))


class TestUrnDraw:
    def test_requires_three_states(self):
        vf = UrnDraw(Contract(1.0, 1.0))
        with pytest.raises(DimensionMismatch):
            vf.value(belief2(0.5))

    def test_kink_line_gives_u_minus_half_d(self):
        vf = UrnDraw(Contract(0.03, 0.1))
        for x in (0.0, 0.2, 0.5):
            b = Belief((x, 1.0 - 2 * x, x))
            assert vf.value(b) == pytest.approx(0.03 - 0.05)

    def test_off_kink_values(self):
        vf = UrnDraw(Contract(1.0, 1.0))
        b = Belief((0.6, 0.3, 0.1))  # calling red loses less
        assert vf.value(b) == pytest.approx(1.0 - 0.5 * (1.0 + 0.1 - 0.6))
        assert announce(vf, b) == 0

    def test_black_call_when_blue_heavy(self):
        vf = UrnDraw(Contract(1.0, 1.0))
        assert announce(vf, Belief((0.1, 0.3, 0.6))) == 1

    def test_call_tie_breaks_to_red(self):
        vf = UrnDraw(Contract(1.0, 1.0))
        assert announce(vf, Belief((0.25, 0.5, 0.25))) == 0

    def test_batch_matches_scalar(self):
        vf = UrnDraw(Contract(0.5, 0.8))
        rng = np.random.default_rng(33)
        pts = rng.dirichlet(np.ones(3), size=30)
        batch = vf.batch(pts)
        scalar = [vf.value(Belief(p)) for p in pts]
        np.testing.assert_allclose(batch, scalar, atol=1e-12)

    def test_needs_a_common_fine(self):
        with pytest.raises(ValueError):
            UrnDraw(Contract(1.0, (1.0, 1.0, 1.0)))


def row_minimum_batch(game, points):
    """The payoff u - min_a (F x)_a with numpy's row-wise minimum."""
    return game.u - (points @ game.fines(points.shape[1]).T).min(axis=1)


class TestBatchFold:
    """``batch`` folds the action minimum over the columns, bit for bit the
    row-wise minimum."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rule_out_games(self, n):
        fines = np.random.default_rng(n).uniform(0.5, 2.0, n)
        for contract in (Contract(0.3, 1.0), Contract(0.2, fines)):
            game = SimpleAnnouncement(contract)
            for pts in fold_stacks(n).values():
                assert_same_bits(game.batch(pts), row_minimum_batch(game, pts))

    def test_urn(self):
        game = UrnDraw(Contract(0.0485, 0.1))
        for pts in fold_stacks(3).values():
            assert_same_bits(game.batch(pts), row_minimum_batch(game, pts))
