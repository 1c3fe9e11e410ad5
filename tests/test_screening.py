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
    DecisionProblem,
    DimensionMismatch,
    Experiment,
    FixedMenu,
    PosteriorSeparable,
    SearchExhausted,
    SimpleAnnouncement,
    UrnDraw,
    assumption_probe,
    ball_grid,
    belief2,
    construct_screening_contract,
    default_resolution,
    fully_informative,
    informed_value,
    informed_value_sweep,
    lp_maximin,
    neg_entropy,
    prop2_contract,
    quadratic,
    rejection_measure,
    screens,
    uniform_belief,
    uninformed_maximin,
    upsilon,
    xi_screen_search,
)
import cavscreen.cli as cli
from cavscreen import envelopes, oracle, screening, shannon, simplex
from cavscreen.acceptance import worked_contract, worked_menu
from cavscreen.screening import ScreeningReport
from helpers import assert_same_bits, dirichlet_minima, fold_stacks, rejection_measure_mc


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
        got = uninformed_maximin(SimpleAnnouncement(Contract(1.0, (3.0, 1.0))))
        assert got.value == pytest.approx(0.25)
        np.testing.assert_allclose(got.strategy, [0.25, 0.75])

    def test_matches_lp_oracle_on_random_contracts(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            u = rng.uniform(0.1, 5.0)
            fines = rng.uniform(0.2, 8.0, size=n)
            game = SimpleAnnouncement(Contract(u, fines))
            lp = lp_maximin(payoff_matrix(u, fines))
            assert uninformed_maximin(game).value == pytest.approx(lp.value, abs=1e-9)

    def test_equalizer_flattens_expected_fines(self):
        contract = Contract(2.0, (5.0, 1.0, 2.0))
        sigma = uninformed_maximin(SimpleAnnouncement(contract)).strategy
        products = sigma * np.asarray(contract.fines())
        assert products.max() - products.min() < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(62)
        fines = rng.uniform(0.5, 4.0, size=4)
        perm = rng.permutation(4)
        a = uninformed_maximin(SimpleAnnouncement(Contract(1.0, fines))).value
        b = uninformed_maximin(SimpleAnnouncement(Contract(1.0, fines[perm]))).value
        assert a == pytest.approx(b, abs=1e-12)


def two_action_game(fines) -> DecisionProblem:
    """A game of two calls at payment 0 with the given (2, n) fine matrix."""
    F = np.asarray(fines, dtype=float)
    return DecisionProblem(0.0, lambda n: F, F.shape[1])


def guaranteed(strategy, fines) -> float:
    """The least payoff over states of mixing the calls by ``strategy``."""
    return float((strategy @ -np.asarray(fines, dtype=float)).min())


class TestTwoActionMaximin:
    """Two-call games are priced in closed form; the zero-sum LP is the oracle."""

    def assert_matches_lp(self, fines):
        got = uninformed_maximin(two_action_game(fines))
        lp = lp_maximin(-np.asarray(fines, dtype=float))
        assert abs(got.value - lp.value) <= 1e-9
        np.testing.assert_allclose(got.strategy, lp.strategy, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_games_match_the_lp(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(40):
            self.assert_matches_lp(rng.uniform(0.0, 2.0, (2, n)))

    @pytest.mark.parametrize(
        "fines",
        [
            # parallel lines: every state favours the first call by the same margin
            [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]],
            [[2.0, 3.0], [1.0, 2.0]],
            # a dominant call, first or second
            [[0.1, 0.2, 0.3], [1.0, 1.0, 1.0]],
            [[1.0, 1.0, 1.0], [0.1, 0.2, 0.3]],
            # optimum at sigma = 1 and at sigma = 0 with neither call dominant
            [[1.0, 0.0, 5.0], [0.0, 3.0, 6.0]],
            [[0.0, 3.0, 6.0], [1.0, 0.0, 5.0]],
            # ties: equal ends and an interior peak, three lines through one
            # point, and repeated states
            [[0.0, 2.0], [2.0, 0.0]],
            [[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]],
            [[0.0, 0.0, 2.0, 2.0], [2.0, 2.0, 0.0, 0.0]],
        ],
    )
    def test_edge_games_match_the_lp(self, fines):
        self.assert_matches_lp(fines)

    @pytest.mark.parametrize(
        "fines",
        [[[1.0, 2.0], [1.0, 2.0]], [[0.0, 1.0, 3.0], [3.0, 1.0, 0.0]]],
        ids=["equal calls", "flat top"],
    )
    def test_optimum_on_an_interval_guarantees_the_lp_value(self, fines):
        # every sigma on the flat top is optimal, so only the value is pinned
        got = uninformed_maximin(two_action_game(fines))
        lp = lp_maximin(-np.asarray(fines, dtype=float))
        assert abs(got.value - lp.value) <= 1e-9
        assert got.strategy.min() >= 0.0 and got.strategy.sum() == 1.0
        assert guaranteed(got.strategy, fines) == pytest.approx(lp.value, abs=1e-12)

    def test_urn_is_u_minus_half_d_at_one_half(self):
        rng = np.random.default_rng(71)
        for u, d in 10.0 ** rng.uniform(-4.0, 4.0, size=(200, 2)):
            got = uninformed_maximin(UrnDraw(Contract(u, d)))
            assert abs(got.value - (u - d / 2.0)) <= 4.0 * abs(np.spacing(u - d / 2.0))
            assert got.strategy.tolist() == [0.5, 0.5]

    def test_no_urn_verdict_solves_the_lp(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(oracle, "linprog", refuse)
        monkeypatch.setattr(envelopes, "linprog", refuse)
        model = PosteriorSeparable(0.01, neg_entropy())
        contract = Contract(0.0485, 0.1)
        ball = ball_grid(uniform_belief(3), 0.25, 40)
        assert screens(model, contract, grid=ball, variant="urn").screens
        assert not screens(model, contract, resolution=20, variant="urn").screens
        assert cli.main(["screen", "--config", "configs/urn_color_calls.yaml"]) == 0
        assert "uninformed (maximin): -0.0015" in capsys.readouterr().out

    def test_games_beyond_the_closed_forms_are_refused(self):
        """Three or more calls with a fine matrix that is not diagonal: no
        constructor builds one, and the maximin names the game's shape."""
        with pytest.raises(ValueError, match="3 actions x 2 states"):
            uninformed_maximin(two_action_game(np.ones((3, 2))))
        assert not hasattr(screening, "lp_maximin")


class TestSeuUninformed:
    def test_uniform_prior_matches_maximin(self):
        assert seu_value(Contract(2.0, 6.0), uniform_belief(3)) == pytest.approx(0.0)

    def test_worked_numbers(self):
        got = seu_value(Contract(1.0, (3.0, 1.0)), belief2(0.3))
        assert got == pytest.approx(0.3)

    def test_equalized_contract_is_announcement_proof(self):
        rho = Belief((0.2, 0.3, 0.5))
        contract = prop2_contract(rho, 4.0, 10.0)
        want = 4.0 - 0.5 * 10.0
        assert seu_value(contract, rho) == pytest.approx(want, abs=1e-12)


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
            prior_set="simplex grid, resolution 10",
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

    def test_priors_and_rho_must_match_the_state_count(self):
        model = PosteriorSeparable(0.1, neg_entropy())
        contract = Contract(0.1, 1.0)
        with pytest.raises(DimensionMismatch):
            screens(model, contract, 2, uninformed="seu", rho=Belief((0.5, 0.3, 0.2)))
        with pytest.raises(DimensionMismatch):
            screens(model, contract, 3, grid=np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize(
        "grid",
        [
            [[0.5, 0.6, -0.1], [1 / 3, 1 / 3, 1 / 3]],
            [[0.5, 0.5, 0.3], [1 / 3, 1 / 3, 1 / 3]],
            [[np.nan, 0.5, 0.5]],
            [0.5, 0.25, 0.25],
            [],
        ],
        ids=["negative", "sums-to-1.3", "nan", "one-row-not-a-stack", "empty"],
    )
    def test_custom_grid_rows_must_be_probability_vectors(self, grid):
        model = PosteriorSeparable(0.1, neg_entropy())
        with pytest.raises(ValueError):
            screens(model, Contract(0.3, 1.0), 3, grid=grid)

    def test_menu_experiments_must_match_the_state_count(self):
        three = Experiment([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]])
        menu = FixedMenu(((three, 0.1),))
        with pytest.raises(DimensionMismatch, match=r"n=2.*\[2, 3\]"):
            screens(menu, Contract(0.2, 1.0), 2)
        with pytest.raises(DimensionMismatch, match=r"n=2.*\[2, 3\]"):
            screens(menu, prop2_contract(belief2(0.25), 0.2, 1.0), 2,
                    uninformed="seu", rho=belief2(0.25))
        with pytest.raises(DimensionMismatch, match="n=2"):
            xi_screen_search(menu, 0.5, n=2, resolution=10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(grid=ball_grid(uniform_belief(3), 0.1, 20)),
            dict(uninformed="seu", rho=Belief((0.2, 0.3, 0.5))),
            dict(uninformed="seu", rho=Belief((0.2, 0.3, 0.5)), resolution=20),
        ],
        ids=["custom-grid", "seu-rho-whole-simplex", "seu-rho-lattice"],
    )
    def test_state_count_from_a_custom_grid_or_rho(self, kwargs):
        model, contract = PosteriorSeparable(0.1, neg_entropy()), Contract(0.1, 1.0)
        report = screens(model, contract, **kwargs)
        assert report.n == 3
        assert report.to_text() == screens(model, contract, 3, **kwargs).to_text()

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


class _Swept(Exception):
    pass


def _refuse_sweep(monkeypatch):
    """Make every lattice or custom-grid sweep in ``screens`` raise _Swept."""
    def refuse(*args, **kwargs):
        raise _Swept

    monkeypatch.setattr(screening, "informed_value_sweep", refuse)


class TestWholeSimplex:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_default_shannon_rule_out_verdicts_take_the_closed_form(self, monkeypatch, n):
        _refuse_sweep(monkeypatch)
        model = PosteriorSeparable(0.3, neg_entropy())
        rho = Belief(np.arange(1.0, n + 1.0) / (n * (n + 1) / 2))
        for contract, kind in (
            (Contract(0.2, 1.0), "maximin"),
            (prop2_contract(rho, 0.1, 1.0), "maximin"),
            (prop2_contract(rho, 0.1, 1.0), "seu"),
        ):
            report = screens(model, contract, n, uninformed=kind, rho=rho)
            assert (report.prior_set, report.resolution) == ("whole simplex", 0)
            assert isinstance(report.resolution, int)
            assert f"states: {n}   priors: whole simplex\n" in report.to_text()
            P = contract.u - np.diag(contract.fines(n))
            at_worst = shannon.solve(P, 0.3, report.worst_prior.probs[None, :]).values[0]
            assert report.informed_min == pytest.approx(at_worst, abs=1e-12)

    def test_named_prior_sets_and_other_games_still_sweep(self, monkeypatch):
        _refuse_sweep(monkeypatch)
        entropy = PosteriorSeparable(0.3, neg_entropy())
        contract = Contract(0.2, 1.0)
        calls = [
            lambda: screens(entropy, contract, 3, resolution=20),
            lambda: screens(entropy, contract, 3, grid=uniform_belief(3).probs[None, :]),
            lambda: screens(entropy, Contract(0.0485, 0.1), variant="urn"),
            lambda: screens(PosteriorSeparable(0.3, quadratic()), contract, 3),
            lambda: screens(worked_menu(), worked_contract(), 2),
        ]
        for call in calls:
            with pytest.raises(_Swept):
                call()

    def test_a_contract_between_the_lattice_and_whole_minima(self):
        # The default n = 4 lattice misses the worst prior: it reads +2.7e-3
        # and screens, while the uniform belief nets -2.5e-3.
        model = PosteriorSeparable(3.0, neg_entropy())
        contract = Contract(0.218, 1.0)
        lattice = screens(model, contract, 4, resolution=default_resolution(4))
        assert lattice.screens and lattice.informed_min == pytest.approx(2.7e-3, abs=1e-4)
        whole = screens(model, contract, 4)
        assert not whole.screens
        assert whole.informed_min == pytest.approx(-2.5e-3, abs=1e-4)
        np.testing.assert_allclose(whole.worst_prior.probs, 0.25, rtol=0, atol=1e-15)
        at_worst = informed_value(model, SimpleAnnouncement(contract), whole.worst_prior)
        assert at_worst.value == pytest.approx(whole.informed_min, abs=1e-12)


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

    @pytest.mark.parametrize("n", range(2, 9))
    def test_full_revelation_gain_folds_the_row_minimum(self, n):
        model = PosteriorSeparable(0.3, quadratic())
        for pts in fold_stacks(n).values():
            gain, _ = screening._ball_options(model, pts)
            assert_same_bits(gain[1], pts.min(axis=1))


class TestConstruction:
    def test_center_off_the_state_count_is_a_mismatch(self):
        model = PosteriorSeparable(0.1, neg_entropy())
        with pytest.raises(DimensionMismatch, match=r"n=3.*\[2, 3\]"):
            construct_screening_contract(model, center=belief2(0.3), n=3)
        with pytest.raises(DimensionMismatch, match=r"n=3.*\[2, 3\]"):
            assumption_probe(model, 3, center=belief2(0.3))

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

    def test_one_sweep_prices_the_payment_and_the_report(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return informed_value_sweep(*args, **kwargs)

        monkeypatch.setattr(screening, "informed_value_sweep", counted)
        built = construct_screening_contract(PosteriorSeparable(0.1, neg_entropy()), n=2)
        assert built.report.screens
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "model, n, resolution",
        [(worked_menu(), 2, 1000), (PosteriorSeparable(0.05, neg_entropy()), 2, 400),
         (PosteriorSeparable(0.05, neg_entropy()), 3, 60)],
        ids=["menu-n2", "entropy-n2", "entropy-n3"],
    )
    def test_report_matches_a_fresh_verdict(self, model, n, resolution):
        built = construct_screening_contract(model, n=n, resolution=resolution)
        fresh = screens(model, built.contract, n, resolution=resolution)
        assert built.report.informed_min == pytest.approx(fresh.informed_min, abs=1e-12)
        assert built.report.uninformed_value == pytest.approx(
            fresh.uninformed_value, abs=1e-12
        )
        assert built.report.screens == fresh.screens
        assert (built.report.n, built.report.resolution) == (n, resolution)
        assert built.report.prior_set == fresh.prior_set

    def test_violation_names_the_first_failing_ball_prior(self):
        # The cheap experiment pays on the left of the center, not the right;
        # the dear one pays everywhere.
        cheap = Experiment([[0.4, 0.6], [0.9, 0.1]])
        menu = FixedMenu(((cheap, 1.0), (fully_informative(2), 5.0)))
        ball = ball_grid(uniform_belief(2), 0.1, 1000)
        failing = [
            k for k, row in enumerate(ball)
            if not any(p <= 1.0 and upsilon(E, Belief(row)) > 0.2 for E, p in menu.entries)
        ]
        assert failing and failing[0] > 0
        with pytest.raises(AssumptionViolated) as err:
            construct_screening_contract(menu, (0.2, 0.1, 1.0), n=2, resolution=1000)
        assert isinstance(err.value.prior, Belief)
        np.testing.assert_array_equal(err.value.prior.probs, ball[failing[0]])
        built = construct_screening_contract(menu, (0.2, 0.1, 5.0), n=2, resolution=1000)
        assert built.certificate.T == 5.0

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
        contract = prop2_contract(uniform_belief(3), 1.0, 5.0)
        np.testing.assert_allclose(contract.fines(), 5.0, atol=1e-12)

    def test_quarter_three_quarter(self):
        contract = prop2_contract(Belief((0.25, 0.75)), 1.0, 100.0)
        assert contract.fines()[0] == pytest.approx(300.0, abs=1e-12)
        assert contract.fines()[1] == 100.0

    def test_three_state_products(self):
        contract = prop2_contract(Belief((0.2, 0.3, 0.5)), 1.0, 10.0)
        np.testing.assert_allclose(contract.fines(), [25.0, 50.0 / 3.0, 10.0], atol=1e-12)
        products = np.asarray(contract.fines()) * np.array([0.2, 0.3, 0.5])
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
        contract = prop2_contract(rho, 1.0, d_last)
        products = np.asarray(contract.fines()) * rho.probs
        assert products.max() - products.min() < 1e-12
        assert seu_value(contract, rho) == pytest.approx(
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
        analytic = rejection_measure(found.contract, 2)
        assert abs(analytic - found.rejection) <= found.half_width

    def test_trivial_bound(self):
        model = PosteriorSeparable(0.01, neg_entropy())
        found = xi_screen_search(model, 1.0, n=2, samples=2_000, seed=5)
        assert found.informed_min >= 0.0

    def test_xi_zero_rejected(self):
        with pytest.raises(ValueError):
            xi_screen_search(PosteriorSeparable(0.01, neg_entropy()), 0.0)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_too_few_samples_rejected(self, samples):
        # No draws would price a NaN rejection; fewer would be no array at all.
        with pytest.raises(ValueError, match="samples must be at least 1"):
            xi_screen_search(PosteriorSeparable(0.01, neg_entropy()), 0.2, samples=samples)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_draw_minima_match_dirichlet_rows(self, n):
        for seed, samples in ((0, 3000), (1, 1), (7, 2), (4242, 1001)):
            assert_same_bits(
                screening._flat_dirichlet_minima(samples, n, seed),
                dirichlet_minima(samples, n, seed),
            )

    def test_rejection_counts_the_dirichlet_minima(self):
        # The estimate is the share of flat Dirichlet draws whose smallest
        # coordinate clears u/d, to the bit.
        model = PosteriorSeparable(0.01, neg_entropy())
        found = xi_screen_search(model, 0.2, n=2, samples=20_000, seed=8)
        minima = dirichlet_minima(20_000, 2, 8)
        share = (minima > found.contract.u / found.contract.d).mean()
        assert found.rejection == share and type(found.rejection) is float

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
        assert abs(phat - rejection_measure(contract, 2)) <= 3.0 * max(half, 1e-4)

    def test_informed_worst_case_is_exactly_whole(self):
        # The payment is the smallest one every prior of the search's
        # lattice accepts, so a verdict on that lattice reads zero.
        model = PosteriorSeparable(0.01, neg_entropy())
        found = xi_screen_search(model, 0.2, n=2, samples=20_000, seed=8)
        assert abs(found.informed_min) <= 1e-12
        fresh = screens(model, found.contract, 2, resolution=1000)
        assert fresh.informed_min == pytest.approx(0.0, abs=1e-12)


class TestRejectionMeasure:
    def test_two_states_is_one_minus_twice_the_payment_ratio(self):
        rng = np.random.default_rng(9)
        for u, d in rng.uniform(0.01, 2.0, size=(1000, 2)):
            want = float(np.clip(1.0 - 2.0 * u / d, 0.0, 1.0))
            assert rejection_measure(Contract(u, d), 2) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_per_state_fines_match_monte_carlo(self, n):
        rng = np.random.default_rng(21 + n)
        fines = rng.uniform(1.0, 3.0, size=n)
        contract = Contract(0.4 / np.sum(1.0 / fines), fines)
        phat, half = rejection_measure_mc(contract, samples=400_000, seed=n)
        assert abs(rejection_measure(contract) - phat) <= 1.5 * half

    def test_generous_payment_leaves_nothing_to_reject(self):
        assert rejection_measure(Contract(2.0, 6.0), 3) == 0.0
        assert rejection_measure(Contract(3.0, 6.0), 3) == 0.0


class TestUrnVariant:
    def test_opposite_calls_guarantee(self):
        # opposite color calls guarantee u - d/2 at (1/2, 1/2)
        rng = np.random.default_rng(64)
        for u, d in rng.uniform(0.01, 2.0, size=(5, 2)):
            got = uninformed_maximin(UrnDraw(Contract(u, d)))
            assert got.value == pytest.approx(u - d / 2.0, abs=1e-9)
            np.testing.assert_allclose(got.strategy, [0.5, 0.5], atol=1e-9)

    def test_seu_outside_value_plays_the_urn(self):
        rho = Belief((0.5, 0.2, 0.3))
        report = screens(
            PosteriorSeparable(0.01, neg_entropy()), Contract(0.03, 0.1), 3,
            grid=rho.probs[None, :], uninformed="seu", rho=rho, variant="urn",
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
                model, SimpleAnnouncement(Contract(1.0, fines)), Belief(q)
            ).value
            relabeled = informed_value(
                model, SimpleAnnouncement(Contract(1.0, fines[perm])), Belief(q[perm])
            ).value
            assert relabeled == pytest.approx(base, abs=1e-9)


class TestLatticeSetUp:
    def test_one_state_is_an_error_not_a_hang(self):
        model = PosteriorSeparable(0.3, neg_entropy())
        with pytest.raises(ValueError, match="n >= 2"):
            screens(model, Contract(0.3, 1.0), 1)
        with pytest.raises(ValueError, match="n >= 2"):
            screens(PosteriorSeparable(0.3, quadratic()), Contract(0.3, 1.0), 1)
        with pytest.raises(ValueError, match="n >= 2"):
            xi_screen_search(model, 0.2, n=1)
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match="n >= 2"):
                default_resolution(n)

    def test_whole_simplex_verdicts_build_no_lattice(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a lattice was built")

        monkeypatch.setattr(simplex, "_lattice_counts", refuse)
        monkeypatch.setattr(screening, "simplex_grid_array", refuse)
        model = PosteriorSeparable(0.3, neg_entropy())
        report = screens(model, Contract(0.05, 1.0), 9)
        assert (report.prior_set, report.resolution) == ("whole simplex", 0)
        with pytest.raises(ValueError, match="coordinates"):
            screens(model, Contract(0.3, 1.0), 1000)
