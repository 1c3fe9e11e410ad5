"""Announcement games: payoffs at a fixed belief and optimal announcements."""

import numpy as np
import pytest

from cavscreen import (
    Belief,
    Contract,
    DecisionProblem,
    DimensionMismatch,
    GeneralizedContract,
    SimpleAnnouncement,
    UrnDraw,
    belief2,
)


def payoff(contract, belief):
    return SimpleAnnouncement(contract).value(belief)


def announced(contract, belief):
    return SimpleAnnouncement(contract).announce(belief)


class TestGrossValue:
    def test_worked_contract_at_half(self):
        assert payoff(Contract(250.0, 600.0), belief2(0.5)) == pytest.approx(-50.0)

    def test_worked_contract_at_third(self):
        got = payoff(Contract(250.0, 600.0), Belief((1 / 3, 2 / 3)))
        assert got == pytest.approx(50.0, abs=1e-9)

    def test_generalized_fines(self):
        gc = GeneralizedContract(1.0, (3.0, 1.0))
        assert payoff(gc, belief2(0.3)) == pytest.approx(1.0 - 0.7)

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
            gc = GeneralizedContract(rng.uniform(0.5, 3), rng.uniform(0.2, 4, size=n))
            a, b = rng.dirichlet(np.ones(n), size=2)
            lam = rng.uniform()
            mid = payoff(gc, Belief(lam * a + (1 - lam) * b))
            ends = lam * payoff(gc, Belief(a)) + (1 - lam) * payoff(gc, Belief(b))
            assert mid <= ends + 1e-12


class TestAnnounce:
    def test_least_likely_state_under_equal_fines(self):
        assert announced(Contract(1.0, 1.0), Belief((0.2, 0.5, 0.3))) == 0

    def test_fine_weighted_comparison(self):
        gc = GeneralizedContract(1.0, (3.0, 1.0))
        assert announced(gc, belief2(0.3)) == 1  # 0.9 vs 0.7

    def test_tie_breaks_to_lowest_index(self):
        assert announced(Contract(1.0, 1.0), belief2(0.5)) == 0

    def test_accepts_value_function(self):
        # any expected-fine matrix: the action with the smallest row product
        vf = DecisionProblem(1.0, lambda n: np.array([[0.9, 0.9], [0.0, 1.0], [1.0, 0.2]]))
        assert vf.announce(belief2(0.3)) == 2  # 0.9, 0.7, 0.44
        assert vf.value(belief2(0.3)) == pytest.approx(1.0 - 0.44)

    def test_announcement_attains_gross_value(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            gc = GeneralizedContract(rng.uniform(0.5, 2), rng.uniform(0.2, 4, size=n))
            x = Belief(rng.dirichlet(np.ones(n)))
            i = announced(gc, x)
            assert gc.u - gc.fines()[i] * x[i] == pytest.approx(payoff(gc, x))


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
        assert vf.announce(b) == 0

    def test_black_call_when_blue_heavy(self):
        vf = UrnDraw(Contract(1.0, 1.0))
        assert vf.announce(Belief((0.1, 0.3, 0.6))) == 1

    def test_call_tie_breaks_to_red(self):
        vf = UrnDraw(Contract(1.0, 1.0))
        assert vf.announce(Belief((0.25, 0.5, 0.25))) == 0

    def test_batch_matches_scalar(self):
        vf = UrnDraw(Contract(0.5, 0.8))
        rng = np.random.default_rng(33)
        pts = rng.dirichlet(np.ones(3), size=30)
        batch = vf.batch(pts)
        scalar = [vf.value(Belief(p)) for p in pts]
        np.testing.assert_allclose(batch, scalar, atol=1e-12)

    def test_needs_a_common_fine(self):
        with pytest.raises(ValueError):
            UrnDraw(GeneralizedContract(1.0, (1.0, 1.0, 1.0)))


class TestStates:
    def test_game_fixes_its_state_count(self):
        assert UrnDraw(Contract(1.0, 1.0)).states() == 3
        assert SimpleAnnouncement(GeneralizedContract(1.0, (1.0, 2.0))).states(2) == 2
        with pytest.raises(ValueError):
            UrnDraw(Contract(1.0, 1.0)).states(4)

    def test_common_fine_needs_a_count(self):
        game = SimpleAnnouncement(Contract(1.0, 1.0))
        assert game.states(5) == 5
        with pytest.raises(ValueError):
            game.states()
