"""Informed-expert values: optimal learning against menus and flexible costs."""

import numpy as np
import pytest

from cavscreen import (
    Belief,
    Contract,
    FixedMenu,
    GeneralizedContract,
    PosteriorSeparable,
    SimpleAnnouncement,
    belief2,
    default_resolution,
    distribution_cost,
    informed_value,
    informed_value_sweep,
    neg_entropy,
    simplex_grid_array,
    symmetric_binary,
    uniform_belief,
)
from cavscreen.acceptance import worked_contract, worked_menu


class TestMenuValues:
    def test_learning_pays_at_half(self):
        res = informed_value(worked_menu(), SimpleAnnouncement(worked_contract()), belief2(0.5))
        assert res.value == pytest.approx(50.0, abs=1e-9)
        assert res.cost == pytest.approx(50.0)
        support = sorted(b[0] for b in res.plan.support)
        np.testing.assert_allclose(support, [0.25, 0.75], atol=1e-12)

    def test_staying_put_at_quarter(self):
        res = informed_value(worked_menu(), SimpleAnnouncement(worked_contract()), belief2(0.25))
        assert res.value == pytest.approx(100.0, abs=1e-9)
        assert res.plan.is_degenerate()
        assert res.cost == 0.0

    def test_tie_prefers_no_learning(self):
        # at 1/3 both routes pay exactly 50
        res = informed_value(
            worked_menu(), SimpleAnnouncement(worked_contract()), Belief((1 / 3, 2 / 3))
        )
        assert res.value == pytest.approx(50.0, abs=1e-9)
        assert res.plan.is_degenerate()

    def test_vertex_pays_the_full_payment(self):
        contract = worked_contract()
        res = informed_value(worked_menu(), SimpleAnnouncement(contract), belief2(1.0))
        assert res.value == pytest.approx(contract.u, abs=1e-12)

    def test_point_is_one_row_of_the_sweep(self):
        menu = FixedMenu(((symmetric_binary(0.75), 50.0), (symmetric_binary(0.9), 120.0)))
        vf = SimpleAnnouncement(worked_contract())
        for p in (0.0, 0.2, 1 / 3, 0.45, 0.5, 0.8):
            res = informed_value(menu, vf, belief2(p))
            assert res.value == informed_value_sweep(menu, vf, [[p, 1.0 - p]])[0]
            achieved = float(res.plan.weights @ vf.batch(res.plan.support_matrix))
            assert achieved - res.cost == pytest.approx(res.value, abs=1e-9)


class TestSeparableValues:
    def test_vertex_pays_the_full_payment(self):
        model = PosteriorSeparable(0.1, neg_entropy())
        contract = Contract(0.04, 0.08)
        res = informed_value(model, SimpleAnnouncement(contract), belief2(0.0))
        assert res.value == pytest.approx(contract.u, abs=1e-9)

    def test_net_value_decomposition(self):
        model = PosteriorSeparable(0.01, neg_entropy())
        contract = Contract(0.03, 0.08)
        vf = SimpleAnnouncement(contract)
        rng = np.random.default_rng(51)
        for mu in rng.uniform(0.02, 0.98, size=10):
            res = informed_value(model, vf, belief2(mu))
            assert res.value >= vf.value(belief2(mu)) - 1e-9
            expected_gross = sum(
                w * vf.value(b) for b, w in zip(res.plan.support, res.plan.weights)
            )
            cost = distribution_cost(model, res.plan)
            assert res.cost == pytest.approx(cost, abs=1e-9)
            assert res.value == pytest.approx(expected_gross - cost, abs=1e-6)

    def test_three_state_generalized_contract(self):
        model = PosteriorSeparable(0.05, neg_entropy())
        gc = GeneralizedContract(0.5, (2.0, 1.0, 0.7))
        vf = SimpleAnnouncement(gc)
        rng = np.random.default_rng(52)
        for q in rng.dirichlet(np.ones(3), size=6):
            mu = Belief(q)
            res = informed_value(model, vf, mu, resolution=40)
            assert res.value >= vf.value(mu) - 1e-9
            expected_gross = float(
                np.asarray(res.plan.weights) @ vf.batch(res.plan.support_matrix)
            )
            assert res.value == pytest.approx(
                expected_gross - distribution_cost(model, res.plan), abs=1e-6
            )


class TestSweep:
    def test_matches_pointwise_menu_values(self):
        priors = np.linspace(0.0, 1.0, 41)
        pts = np.column_stack([priors, 1.0 - priors])
        vf = SimpleAnnouncement(worked_contract())
        swept = informed_value_sweep(worked_menu(), vf, pts)
        single = [informed_value(worked_menu(), vf, belief2(p)).value for p in priors]
        np.testing.assert_allclose(swept, single, atol=1e-9)

    def test_matches_pointwise_separable_values(self):
        model = PosteriorSeparable(0.01, neg_entropy())
        vf = SimpleAnnouncement(Contract(0.03, 0.08))
        priors = np.linspace(0.05, 0.95, 19)
        pts = np.column_stack([priors, 1.0 - priors])
        swept = informed_value_sweep(model, vf, pts)
        single = [informed_value(model, vf, belief2(p)).value for p in priors]
        np.testing.assert_allclose(swept, single, atol=1e-9)

    def test_matches_pointwise_on_the_two_simplex(self):
        model = PosteriorSeparable(0.05, neg_entropy())
        vf = SimpleAnnouncement(Contract(0.4, 1.1))
        rng = np.random.default_rng(53)
        pts = rng.dirichlet(np.ones(3), size=8)
        swept = informed_value_sweep(model, vf, pts, resolution=40)
        single = [
            informed_value(model, vf, Belief(p), resolution=40).value for p in pts
        ]
        np.testing.assert_allclose(swept, single, atol=1e-9)

    def test_dominates_gross_everywhere(self):
        model = PosteriorSeparable(0.02, neg_entropy())
        contract = Contract(0.05, 0.2)
        grid = simplex_grid_array(2, 500)
        net = informed_value_sweep(model, SimpleAnnouncement(contract), grid)
        stay = contract.u - contract.d * grid.min(axis=1)
        assert (net >= stay - 1e-9).all()

    def test_sweep_is_concave_on_the_line(self):
        # net value is envelope + kappa*c(mu); the envelope part is concave
        model = PosteriorSeparable(0.01, neg_entropy())
        grid = simplex_grid_array(2, 800)
        net = informed_value_sweep(model, SimpleAnnouncement(Contract(0.03, 0.08)), grid)
        order = np.argsort(grid[:, 0])
        kc = model.kappa * neg_entropy().batch(grid[order])
        core = net[order] - kc
        assert (core[1:-1] >= 0.5 * (core[:-2] + core[2:]) - 1e-9).all()


class TestDefaults:
    def test_named_resolutions(self):
        assert default_resolution(2) == 1000
        assert default_resolution(3) == 200

    def test_budgeted_beyond_three_states(self):
        import math

        for n in (4, 5, 6):
            r = default_resolution(n)
            assert math.comb(r + n - 1, n - 1) <= 8000
            assert math.comb(r + n, n - 1) > 8000
