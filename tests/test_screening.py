"""Screening: maximin values, verification, and contract constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavscreen import (
    AssumptionViolated,
    Belief,
    BoundaryPrior,
    Contract,
    FixedMenu,
    GeneralizedContract,
    PosteriorSeparable,
    SearchExhausted,
    SimpleAnnouncement,
    UrnDraw,
    assumption_probe,
    ball_grid,
    belief2,
    binary_rejection_measure,
    construct_screening_contract,
    fully_informative,
    informed_value,
    lp_maximin,
    neg_entropy,
    prop2_contract,
    rejection_measure_mc,
    screens,
    symmetric_binary,
    uniform_belief,
    uninformed_maximin,
    xi_screen_search,
)
from cavscreen.acceptance import worked_contract, worked_menu
from cavscreen.screening import ScreeningReport


def payoff_matrix(u, fines):
    """Announcement-by-state payoffs: u less the fine when the ruled-out
    state realizes."""
    return u - np.diag(np.asarray(fines, dtype=float))


def seu_value(contract, rho):
    """Value to an uninformed expert who holds belief rho and cannot learn."""
    return SimpleAnnouncement(contract).value(rho)


class TestUninformedMaximin:
    def test_worked_contract(self):
        value, strategy = uninformed_maximin(SimpleAnnouncement(worked_contract()), 2)
        assert value == pytest.approx(-50.0)
        np.testing.assert_allclose(strategy, [0.5, 0.5])

    def test_u_equal_to_d_over_n_is_the_acceptance_boundary(self):
        assert uninformed_maximin(SimpleAnnouncement(Contract(2.0, 6.0)), 3).value == 0.0

    def test_unequal_fines(self):
        got = uninformed_maximin(SimpleAnnouncement(GeneralizedContract(1.0, (3.0, 1.0))))
        assert got.value == pytest.approx(0.25)
        np.testing.assert_allclose(got.strategy, [0.25, 0.75])

    def test_matches_lp_oracle_on_random_contracts(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            u = rng.uniform(0.1, 5.0)
            fines = rng.uniform(0.2, 8.0, size=n)
            game = SimpleAnnouncement(GeneralizedContract(u, fines))
            lp = lp_maximin(payoff_matrix(u, fines))
            assert uninformed_maximin(game).value == pytest.approx(lp.value, abs=1e-9)

    def test_equalizer_flattens_expected_fines(self):
        gc = GeneralizedContract(2.0, (5.0, 1.0, 2.0))
        sigma = uninformed_maximin(SimpleAnnouncement(gc)).strategy
        products = sigma * np.asarray(gc.fines())
        assert products.max() - products.min() < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(62)
        fines = rng.uniform(0.5, 4.0, size=4)
        perm = rng.permutation(4)
        a = uninformed_maximin(SimpleAnnouncement(GeneralizedContract(1.0, fines))).value
        b = uninformed_maximin(SimpleAnnouncement(GeneralizedContract(1.0, fines[perm]))).value
        assert a == pytest.approx(b, abs=1e-12)


class TestSeuUninformed:
    def test_uniform_prior_matches_maximin(self):
        assert seu_value(Contract(2.0, 6.0), uniform_belief(3)) == pytest.approx(0.0)

    def test_worked_numbers(self):
        got = seu_value(GeneralizedContract(1.0, (3.0, 1.0)), belief2(0.3))
        assert got == pytest.approx(0.3)

    def test_equalized_contract_is_announcement_proof(self):
        rho = Belief((0.2, 0.3, 0.5))
        gc = prop2_contract(rho, 4.0, 10.0)
        want = 4.0 - 0.5 * 10.0
        assert seu_value(gc, rho) == pytest.approx(want, abs=1e-12)


class TestScreens:
    def test_worked_example_screens(self):
        report = screens(worked_menu(), worked_contract(), 2, resolution=1000)
        assert report.screens
        assert report.informed_min == pytest.approx(50.0, abs=1e-9)
        assert report.uninformed_value == pytest.approx(-50.0)

    def test_generous_payment_fails(self):
        report = screens(worked_menu(), Contract(300.0, 600.0), 2)
        assert report.uninformed_value >= 0.0
        assert not report.screens

    def test_tiny_payment_without_learning_fails(self):
        report = screens(FixedMenu(()), Contract(1e-6, 1.0), 2, resolution=200)
        assert report.informed_min < 0.0
        assert not report.screens

    def test_flag_logic(self):
        base = dict(
            contract=Contract(1.0, 2.0),
            n=2,
            resolution=10,
            uninformed_kind="maximin",
            worst_prior=belief2(0.5),
        )
        assert ScreeningReport(uninformed_value=-0.1, informed_min=0.0, **base).screens
        assert not ScreeningReport(uninformed_value=0.0, informed_min=0.0, **base).screens
        assert not ScreeningReport(uninformed_value=-0.1, informed_min=-1e-9, **base).screens

    def test_monotone_in_the_payment(self):
        reports = [
            screens(worked_menu(), Contract(u, 600.0), 2, resolution=400)
            for u in (150.0, 250.0, 299.0)
        ]
        mins = [r.informed_min for r in reports]
        assert mins == sorted(mins)
        uninformed = [r.uninformed_value for r in reports]
        assert uninformed == sorted(uninformed)

    def test_custom_grid_descriptor(self):
        grid = ball_grid(belief2(0.5), 0.05, 100)
        report = screens(worked_menu(), worked_contract(), 2, grid=grid)
        assert report.prior_set.startswith("custom grid")
        assert report.screens

    def test_report_text_fields(self):
        report = screens(worked_menu(), worked_contract(), 2, resolution=200)
        text = report.to_text()
        assert "screens: yes" in text
        assert "u=250" in text


class TestAssumptionProbe:
    def test_worked_menu_ball(self):
        cert = assumption_probe(worked_menu(), 2, eta=0.1, resolution=1000)
        # worst ball prior on the grid is 0.43, upsilon there is 0.43 - 0.25
        assert cert.epsilon == pytest.approx(0.99 * 0.18, abs=1e-12)
        assert cert.T == 50.0

    def test_null_menu_not_satisfied(self):
        assert assumption_probe(FixedMenu(()), 2, eta=0.1) is None

    def test_fully_informative_menu(self):
        menu = FixedMenu(((fully_informative(2), 7.0),))
        cert = assumption_probe(menu, 2, eta=0.1, resolution=1000)
        assert cert.T == 7.0
        assert cert.epsilon == pytest.approx(0.99 * (0.5 - 0.1 / np.sqrt(2)), abs=2e-3)

    def test_explicit_center(self):
        rho = Belief((0.3, 0.7))
        cert = assumption_probe(
            PosteriorSeparable(0.1, neg_entropy()), center=rho, eta=0.05
        )
        assert cert is not None
        assert cert.center is rho
        assert cert.T > 0.0


class TestConstruction:
    def test_probe_driven_pipeline_on_the_menu(self):
        built = construct_screening_contract(worked_menu(), n=2)
        assert built.report.screens
        assert built.contract.d > 250.0
        assert 0.0 < built.contract.u < built.contract.d / 2.0

    def test_supplied_assumption_is_verified_not_assumed(self):
        cert = assumption_probe(worked_menu(), 2, eta=0.1)
        built = construct_screening_contract(
            worked_menu(), (cert.epsilon, cert.eta, cert.T), n=2
        )
        assert built.report.screens

    def test_overclaimed_assumption_is_rejected(self):
        # epsilon=0.2 overstates the worst-case ball benefit (0.18)
        with pytest.raises(AssumptionViolated) as err:
            construct_screening_contract(worked_menu(), (0.2, 0.1, 50.0), n=2)
        assert err.value.prior is not None

    def test_worked_contract_is_in_the_feasible_family(self):
        report = screens(worked_menu(), worked_contract(), 2, resolution=1000)
        assert report.screens

    def test_null_menu_raises(self):
        with pytest.raises(AssumptionViolated):
            construct_screening_contract(FixedMenu(()), n=2)

    def test_separable_pipeline_via_supplied_triple(self):
        model = PosteriorSeparable(0.1, neg_entropy())
        cert = assumption_probe(model, 2, eta=0.1)
        built = construct_screening_contract(
            model, (cert.epsilon, cert.eta, cert.T), n=2, resolution=1000
        )
        assert built.report.screens
        assert built.contract.d == pytest.approx(1.05 * cert.T / cert.epsilon)


class TestProp2:
    def test_uniform_prior_gives_equal_fines(self):
        gc = prop2_contract(uniform_belief(3), 1.0, 5.0)
        np.testing.assert_allclose(gc.fines(), 5.0, atol=1e-12)

    def test_quarter_three_quarter(self):
        gc = prop2_contract(Belief((0.25, 0.75)), 1.0, 100.0)
        assert gc.fines()[0] == pytest.approx(300.0, abs=1e-12)
        assert gc.fines()[1] == 100.0

    def test_three_state_products(self):
        gc = prop2_contract(Belief((0.2, 0.3, 0.5)), 1.0, 10.0)
        np.testing.assert_allclose(gc.fines(), [25.0, 50.0 / 3.0, 10.0], atol=1e-12)
        products = np.asarray(gc.fines()) * np.array([0.2, 0.3, 0.5])
        assert products.max() - products.min() < 1e-12

    def test_boundary_prior_rejected(self):
        with pytest.raises(BoundaryPrior):
            prop2_contract(Belief((0.0, 1.0)), 1.0, 1.0)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_equalization_spread(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        rho = Belief(0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n)
        d_last = float(rng.uniform(0.5, 6.0))
        gc = prop2_contract(rho, 1.0, d_last)
        products = np.asarray(gc.fines()) * rho.probs
        assert products.max() - products.min() < 1e-12
        assert seu_value(gc, rho) == pytest.approx(
            1.0 - rho[n - 1] * d_last, abs=1e-12
        )


class TestXiScreen:
    def test_half_measure_search(self):
        model = PosteriorSeparable(0.01, neg_entropy())
        found = xi_screen_search(model, 0.5, n=2, samples=20_000, seed=3)
        assert found.rejection - found.half_width >= 0.5
        assert found.informed_min >= 0.0
        assert found.contract.u / found.contract.d <= 0.25 + 0.01

    def test_analytic_measure_within_interval(self):
        model = PosteriorSeparable(0.01, neg_entropy())
        found = xi_screen_search(model, 0.2, n=2, samples=50_000, seed=4)
        analytic = binary_rejection_measure(found.contract)
        assert abs(analytic - found.rejection) <= found.half_width

    def test_trivial_bound(self):
        model = PosteriorSeparable(0.01, neg_entropy())
        found = xi_screen_search(model, 1.0, n=2, samples=2_000, seed=5)
        assert found.informed_min >= 0.0

    def test_xi_zero_rejected(self):
        with pytest.raises(ValueError):
            xi_screen_search(PosteriorSeparable(0.01, neg_entropy()), 0.0)

    def test_exhaustion_without_learning(self):
        # with no experiments for sale the informed type never accepts any
        # lattice payment below d/n, so no pair can certify
        with pytest.raises(SearchExhausted) as err:
            xi_screen_search(
                FixedMenu(()), 0.5, n=2, resolution=100, samples=1_000, seed=6
            )
        assert err.value.best is None

    def test_mc_measure_agrees_with_closed_form(self):
        contract = Contract(0.2, 1.0)
        phat, half = rejection_measure_mc(contract, 2, samples=100_000, seed=7)
        assert abs(phat - binary_rejection_measure(contract)) <= 3.0 * max(half, 1e-4)


class TestUrnVariant:
    def test_opposite_calls_guarantee(self):
        # the zero-sum LP over the two color calls gives u - d/2 at (1/2, 1/2)
        rng = np.random.default_rng(64)
        for u, d in rng.uniform(0.01, 2.0, size=(5, 2)):
            got = uninformed_maximin(UrnDraw(Contract(u, d)))
            assert got.value == pytest.approx(u - d / 2.0, abs=1e-9)
            np.testing.assert_allclose(got.strategy, [0.5, 0.5], atol=1e-9)

    def test_seu_outside_value_plays_the_urn(self):
        rho = Belief((0.5, 0.2, 0.3))
        report = screens(
            PosteriorSeparable(0.01, neg_entropy()), Contract(0.03, 0.1), 3,
            grid=[rho], uninformed="seu", rho=rho, variant="urn",
        )
        # calling red misses 0.2 + 2 * 0.3 = 0.8 times in expectation
        assert report.uninformed_value == pytest.approx(0.03 - 0.05 * 0.8, abs=1e-12)

    def test_ball_restricted_screening(self):
        model = PosteriorSeparable(0.01, neg_entropy())
        contract = Contract(0.0485, 0.1)
        grid = ball_grid(uniform_belief(3), 0.25, 40)
        report = screens(model, contract, grid=grid, resolution=40, variant="urn")
        assert report.uninformed_value == pytest.approx(-0.0015)
        assert report.informed_min > 0.0
        assert report.screens

    def test_mixed_urn_vertex_blocks_full_grid(self):
        # no experiment helps at the degenerate rb belief, so the whole
        # simplex cannot be screened at u < d/2
        model = PosteriorSeparable(0.01, neg_entropy())
        report = screens(model, Contract(0.0485, 0.1), resolution=40, variant="urn")
        assert report.informed_min == pytest.approx(0.0485 - 0.05, abs=1e-9)
        assert not report.screens


class TestPermutationEquivariance:
    def test_informed_values_commute_with_relabeling(self):
        model = PosteriorSeparable(0.05, neg_entropy())
        rng = np.random.default_rng(63)
        fines = np.array([2.0, 0.8, 1.3])
        perm = np.array([2, 0, 1])
        for q in rng.dirichlet(np.ones(3), size=4):
            base = informed_value(
                model, SimpleAnnouncement(GeneralizedContract(1.0, fines)),
                Belief(q), resolution=30,
            ).value
            relabeled = informed_value(
                model, SimpleAnnouncement(GeneralizedContract(1.0, fines[perm])),
                Belief(q[perm]), resolution=30,
            ).value
            assert relabeled == pytest.approx(base, abs=1e-9)
