"""Informed-expert values: optimal learning against menus and flexible costs."""

import numpy as np
import pytest

from cavscreen import (
    Belief,
    UrnDraw,
    quadratic,
    Contract,
    DecisionProblem,
    FixedMenu,
    Potential,
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
from cavscreen import envelopes, informed
from cavscreen.envelopes import concavify_lp, concavify_walk
from cavscreen.acceptance import worked_contract, worked_menu
from helpers import barycenter, lattice_samples


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

    def test_three_state_per_state_fines(self):
        model = PosteriorSeparable(0.05, neg_entropy())
        vf = SimpleAnnouncement(Contract(0.5, (2.0, 1.0, 0.7)))
        rng = np.random.default_rng(52)
        for q in rng.dirichlet(np.ones(3), size=6):
            mu = Belief(q)
            res = informed_value(model, vf, mu)
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
        swept = informed_value_sweep(model, vf, pts)
        single = [informed_value(model, vf, Belief(p)).value for p in pts]
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


THREE_STATE_GAMES = {
    "rule-out": (PosteriorSeparable(0.3, neg_entropy()), SimpleAnnouncement(Contract(0.3, 1.0))),
    "per-state-fines": (
        PosteriorSeparable(0.05, neg_entropy()),
        SimpleAnnouncement(Contract(0.5, (2.0, 1.0, 0.7))),
    ),
    "urn": (PosteriorSeparable(0.01, neg_entropy()), UrnDraw(Contract(0.03, 0.1))),
    "quadratic": (PosteriorSeparable(0.5, quadratic()), SimpleAnnouncement(Contract(0.4, 1.1))),
}
TWO_STATE_GAMES = {
    "two-state-rule-out": (
        PosteriorSeparable(0.01, neg_entropy()), SimpleAnnouncement(Contract(0.03, 0.08))
    ),
    "two-state-per-state-fines": (
        PosteriorSeparable(0.02, neg_entropy()), SimpleAnnouncement(Contract(0.1, (0.4, 0.15)))
    ),
    "two-state-quadratic": (
        PosteriorSeparable(2.0, quadratic()), SimpleAnnouncement(Contract(0.4, 1.1))
    ),
}
# Vertices, an edge prior on and off the resolution-40 and default (200)
# lattices, an interior lattice point and two interior priors between
# lattice points.
THREE_STATE_PRIORS = (
    (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.3, 0.7, 0.0), (0.123, 0.0, 0.877),
    (0.25, 0.5, 0.25), (0.2113, 0.3359, 0.4528), (0.6021, 0.1287, 0.2692),
)
# Vertices, lattice priors and priors between lattice points; under the
# quadratic cost 0.275 (on the resolution-40 lattice) and 0.123 (off it) stay put.
TWO_STATE_PRIORS = (
    (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.275, 0.725), (0.123, 0.877), (0.4871, 0.5129),
)
POINT_GAMES = {**THREE_STATE_GAMES, **TWO_STATE_GAMES}


class TestThreeStatePoints:
    @pytest.mark.parametrize("name", POINT_GAMES)
    def test_point_is_one_row_of_the_sweep(self, name):
        model, game = POINT_GAMES[name]
        priors = TWO_STATE_PRIORS if name in TWO_STATE_GAMES else THREE_STATE_PRIORS
        for probs in priors:
            mu = Belief(probs)
            res = informed_value(model, game, mu)
            assert res.value == informed_value_sweep(model, game, mu.probs[None])[0]
            plan = res.plan
            assert len(plan) <= mu.n
            np.testing.assert_allclose(barycenter(plan).probs, mu.probs, atol=1e-12)
            assert res.cost == distribution_cost(model, plan)
            achieved = float(plan.weights @ game.batch(plan.support_matrix)) - res.cost
            assert abs(achieved - res.value) <= 1e-9 * (1.0 + abs(res.value))


# Priors on four and five states, on the resolution-8 lattice (a vertex, the
# centre or a lattice point) and between its points; the point tests price
# them on the default lattice.
LP_PRIORS = (
    (0.0, 0.0, 0.0, 1.0), (0.25, 0.25, 0.25, 0.25), (0.125, 0.375, 0.5, 0.0),
    (0.15, 0.35, 0.5, 0.0), (0.1, 0.2, 0.3, 0.4), (0.31, 0.07, 0.22, 0.4),
    (0.5, 0.0, 0.25, 0.0, 0.25), (0.125, 0.25, 0.125, 0.375, 0.125),
    (0.45, 0.0, 0.3, 0.0, 0.25), (0.11, 0.23, 0.19, 0.3, 0.17),
)


class TestLpPoints:
    @pytest.mark.parametrize("probs", LP_PRIORS)
    def test_point_agrees_with_the_sweep_row_on_the_same_samples(self, probs):
        model, game = THREE_STATE_GAMES["quadratic"]
        mu = Belief(probs)
        res = informed_value(model, game, mu)
        assert res.value == informed_value_sweep(model, game, mu.probs[None])[0]
        plan = res.plan
        assert len(plan) <= mu.n
        np.testing.assert_allclose(barycenter(plan).probs, mu.probs, atol=1e-12)
        achieved = float(plan.weights @ game.batch(plan.support_matrix)) - res.cost
        assert abs(achieved - res.value) <= 1e-9 * (1.0 + abs(res.value))


class TestWalkParity:
    """The walk against the envelope the sweep of many priors builds, and
    against the LP, on the same samples of small lattices."""

    @pytest.mark.parametrize(
        "name, probs, resolution",
        [(name, probs, 40) for name in THREE_STATE_GAMES for probs in THREE_STATE_PRIORS]
        + [(name, probs, 40) for name in TWO_STATE_GAMES for probs in TWO_STATE_PRIORS]
        + [("quadratic", probs, 8) for probs in LP_PRIORS],
    )
    def test_walk_matches_the_hull_and_the_lp(self, name, probs, resolution):
        model, game = POINT_GAMES[name]
        mu = Belief(probs)
        grid, g = lattice_samples(model, game, mu.n, resolution)
        walked, _ = concavify_walk(grid, g, mu)
        if mu.n == 2:
            hull = envelopes.Envelope1d(grid[:, 0], g).values(mu.probs[:1])[0]
        else:
            hull = envelopes.SimplexEnvelope(grid, g).values(mu.probs[None])[0]
        for want in (hull, concavify_lp(grid, g, mu)[0]):
            assert abs(walked - want) <= 1e-12 * (1.0 + abs(want))


class TestRoutes:
    def test_no_single_prior_reaches_the_lp_or_the_hull(self, monkeypatch):
        """Single priors on three to five states are walked, as points and as
        one-row sweeps; a sweep of two priors still builds the hull."""

        def refuse(*args, **kwargs):
            raise AssertionError("the concavification LP or the hull was called")

        monkeypatch.setattr(envelopes, "linprog", refuse)
        monkeypatch.setattr(informed, "SimplexEnvelope", refuse)
        entropy = PosteriorSeparable(0.05, neg_entropy())
        squared = PosteriorSeparable(0.5, quadratic())
        rule_out = SimpleAnnouncement(Contract(0.3, 1.0))
        cases = [
            (entropy, rule_out, (0.2, 0.3, 0.5)),
            (entropy, UrnDraw(Contract(0.03, 0.1)), (0.2, 0.3, 0.5)),
            (squared, rule_out, (0.2, 0.3, 0.5)),
            (squared, rule_out, (0.1, 0.2, 0.3, 0.4)),
            (squared, rule_out, (0.11, 0.23, 0.19, 0.3, 0.17)),
        ]
        for model, game, probs in cases:
            mu = Belief(probs)
            assert not informed_value(model, game, mu).plan.is_degenerate()
            informed_value_sweep(model, game, mu.probs[None])
        with pytest.raises(AssertionError, match="LP or the hull was called"):
            informed_value_sweep(squared, rule_out, simplex_grid_array(3, 8)[:2])


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


RULE_OUT = SimpleAnnouncement(Contract(0.3, 1.0))
ROUTE_GAMES = {
    "neg-entropy-rule-out": (PosteriorSeparable(0.3, neg_entropy()), RULE_OUT),
    "neg-entropy-urn": (PosteriorSeparable(0.01, neg_entropy()), UrnDraw(Contract(0.03, 0.1))),
    "quadratic-rule-out": (PosteriorSeparable(0.5, quadratic()), RULE_OUT),
}


class TestSharedLattice:
    @pytest.mark.parametrize(
        "name, n",
        [(name, n) for name in ROUTE_GAMES for n in (2, 3) if n == 3 or "urn" not in name],
    )
    def test_priors_equal_to_the_lattice_are_sampled_once(self, monkeypatch, name, n):
        """The lattice as priors, or any array equal to it, builds the
        envelope on the lattice's own rows, with equal values bit for bit.
        Priors stacked on the lattice agree with them exactly on two states,
        and on three up to rounding: qhull's facet planes depend on repeated
        input rows (they round differently, and coplanar points are
        triangulated differently)."""
        model, game = ROUTE_GAMES[name]
        built = []
        envelope = envelopes.Envelope1d if n == 2 else envelopes.SimplexEnvelope

        class Recorded(envelope):
            def __init__(self, points, fs):
                built.append(len(fs))
                super().__init__(points, fs)

        monkeypatch.setattr(informed, "Envelope1d" if n == 2 else "SimplexEnvelope", Recorded)
        lattice = simplex_grid_array(n)
        once = informed_value_sweep(model, game, lattice)
        np.testing.assert_array_equal(informed_value_sweep(model, game, lattice.copy()), once)
        stacked = informed_value_sweep(model, game, np.vstack([lattice, lattice[:1]]))[:-1]
        assert built == [len(lattice), len(lattice), 2 * len(lattice) + 1]
        if n == 2:
            np.testing.assert_array_equal(once, stacked)
        else:
            eps = np.finfo(float).eps
            bound = 8.0 * eps * (1.0 + np.abs(stacked))
            np.testing.assert_array_less(np.abs(once - stacked), bound)

    def test_default_lattice_is_shared_and_read_only(self):
        lattice = simplex_grid_array(3)
        assert simplex_grid_array(3, default_resolution(3)) is lattice
        with pytest.raises(ValueError, match="read-only"):
            lattice[0, 0] = 0.5
        assert simplex_grid_array(3, 20) is not simplex_grid_array(3, 20)
        assert simplex_grid_array(3, 20).flags.writeable

    def test_potential_values_are_cached_per_potential_and_state_count(self):
        informed._lattice_potential.cache_clear()
        prior = uniform_belief(3).probs[None]
        for _ in range(3):
            informed_value_sweep(PosteriorSeparable(0.4, quadratic()), RULE_OUT, prior)
        info = informed._lattice_potential.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        np.testing.assert_array_equal(
            informed._lattice_potential(quadratic(), 3), quadratic().batch(simplex_grid_array(3))
        )


class TestSinglePriorRoute:
    """One prior on the grid routes is priced against the cached lattice
    alone, then against its own sample g = V - kappa*c."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_cached_lattice_is_concavified_without_a_stacked_copy(self, monkeypatch, n):
        lattice, seen = simplex_grid_array(n), []

        class Spied(envelopes.Envelope1d):
            def __init__(self, xs, fs):
                seen.append((xs.base, len(fs)))
                super().__init__(xs, fs)

        def walk(points, fs, mu):
            seen.append((points, len(fs)))
            return concavify_walk(points, fs, mu)

        monkeypatch.setattr(informed, "Envelope1d", Spied)
        monkeypatch.setattr(informed, "concavify_walk", walk)
        model, game = ROUTE_GAMES["neg-entropy-rule-out"]
        mu = Belief((0.2113, 0.7887) if n == 2 else (0.2113, 0.3359, 0.4528))
        informed_value(model, game, mu)
        informed_value_sweep(model, game, mu.probs[None])
        assert len(seen) == 2
        for points, samples in seen:
            assert points is lattice and samples == len(lattice)

    @pytest.mark.parametrize(
        "name, probs, gap",
        [
            ("two-state-quadratic", (0.1235, 0.8765), 1e-6),
            ("quadratic", (0.1225, 0.0, 0.8775), 6.25e-6),
        ],
    )
    def test_own_sample_above_the_lattice_envelope_stays_put(self, name, probs, gap):
        """mu halves a lattice step on an edge where the objective is a
        concave quadratic, so its own sample rises above the lattice
        envelope by |g''| h^2 / 8 (h = 1/1000 at n = 2, 1/200 at n = 3)."""
        model, game = POINT_GAMES[name]
        mu = Belief(probs)
        grid, g = lattice_samples(model, game, mu.n, default_resolution(mu.n))
        env = concavify_lp(grid, g, mu)[0]
        kc = model.kappa * model.potential.batch(mu.probs[None])[0]
        own = game.batch(mu.probs[None])[0] - kc
        assert own - env == pytest.approx(gap, rel=1e-6)
        res = informed_value(model, game, mu)
        assert res.value == own + kc
        assert res.plan.is_degenerate() and res.cost == 0.0

    def test_lattice_priors_of_an_affine_objective_stay_put(self):
        """An affine objective is its own envelope, so lattice priors stay
        put; the walk leaves that decision to the prior's own sample."""
        rng = np.random.default_rng(48)
        grid = simplex_grid_array(3)
        on_grid = grid[rng.choice(len(grid), size=6, replace=False)]
        # V - kappa*c = x @ (0.3, -1.2, 0.7) + 0.1, a single action under a zero potential.
        game = DecisionProblem(0.1, lambda n: np.array([[-0.3, 1.2, -0.7]]))
        model = PosteriorSeparable(1.0, Potential("zero", lambda pts: np.zeros(len(pts))))
        for q in on_grid:
            assert informed_value(model, game, Belief(q)).plan.is_degenerate()

    @pytest.mark.parametrize(
        "name, probs",
        [
            ("two-state-rule-out", (0.4871, 0.5129)),
            ("neg-entropy-rule-out", (0.2, 0.3, 0.5)),
            ("neg-entropy-urn", (0.2113, 0.3359, 0.4528)),
        ],
    )
    def test_learning_plan_is_plausible_and_attains_the_value(self, name, probs):
        model, game = {**ROUTE_GAMES, **TWO_STATE_GAMES}[name]
        mu = Belief(probs)
        res = informed_value(model, game, mu)
        plan = res.plan
        assert not plan.is_degenerate() and len(plan) <= mu.n
        np.testing.assert_allclose(barycenter(plan).probs, mu.probs, atol=1e-12)
        achieved = float(plan.weights @ game.batch(plan.support_matrix)) - res.cost
        assert abs(achieved - res.value) <= 1e-9 * (1.0 + abs(res.value))
        assert res.value == informed_value_sweep(model, game, mu.probs[None])[0]
