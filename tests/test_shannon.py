"""Exact Shannon informed values at n >= 4: the closed-form water-fill for
rule-out games and the batched Newton solver for every other game, checked
against their certificate, each other, the grid routes they replaced, and
their plans; and the closed-form minimum of a rule-out game over every
prior, checked against the solver."""

import itertools
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from cavscreen import (
    Belief,
    Contract,
    DecisionProblem,
    NotCertified,
    PosteriorSeparable,
    SimpleAnnouncement,
    SimplexEnvelope,
    concavify_lp,
    default_resolution,
    distribution_cost,
    informed_value,
    informed_value_sweep,
    neg_entropy,
    prop2_contract,
    quadratic,
    screens,
    simplex_grid_array,
)
from cavscreen import shannon
from helpers import shifted, stay_oracle

KAPPAS = (1e-3, 0.3)
# Lattice resolutions for the grid routes, small enough for a quick hull.
GRID = {4: 12, 5: 8, 6: 6}


def rule_out_fines(n, kind):
    """One common fine, or one fine per state drawn in [0.3, 3]."""
    if kind == "common":
        return np.ones(n)
    return np.random.default_rng(30 + n).uniform(0.3, 3.0, size=n)


def games(n):
    """Rule-out with a common fine and with one fine per state,
    Proposition-2 fines, and a hand-built game with n + 2 actions, two of
    them identical."""
    rng = np.random.default_rng(n)
    rho = Belief(0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n)
    fines = rng.uniform(0.0, 1.0, (n + 2, n))
    fines[1] = fines[0]
    return {
        "rule-out": SimpleAnnouncement(Contract(0.2, 1.0)),
        "per-state": SimpleAnnouncement(Contract(0.2, rule_out_fines(n, "per-state"))),
        "prop2": SimpleAnnouncement(prop2_contract(rho, 0.999 * rho[n - 1] * 1.5, 1.5)),
        "hand-built": DecisionProblem(0.3, lambda m: fines),
    }


def priors(n):
    """Vertices, edge points, points on faces with a zero, and interior points."""
    rng = np.random.default_rng(10 + n)
    eye = np.eye(n)
    edges = [t * eye[i] + (1.0 - t) * eye[j]
             for (i, j), t in zip(itertools.combinations(range(n), 2), itertools.cycle((0.5, 0.3)))]
    face = rng.dirichlet(np.ones(n - 1), size=3)
    return np.vstack([eye, edges, np.column_stack([face, np.zeros(3)]),
                      np.full(n, 1.0 / n), rng.dirichlet(np.ones(n), size=4)])


CASES = [
    pytest.param(n, kind, kappa, id=f"n{n}-{kind}-kappa{kappa:g}")
    for n in (4, 5, 6) for kind in ("rule-out", "per-state", "prop2", "hand-built")
    for kappa in KAPPAS
]


def payoffs(game, n):
    return game.u - game.fines(n)


def grid_value(model, game, points):
    """The grid routes' value at each prior: the lifted-hull envelope over a
    lattice joined with the priors, and the concavification LP per prior."""
    n = points.shape[1]
    grid = np.vstack([simplex_grid_array(n, GRID[n]), points])
    g = game.batch(grid) - model.kappa * model.potential.batch(grid)
    hull = SimplexEnvelope(grid, g).values(points)
    lp = np.array([concavify_lp(grid, g, Belief(mu))[0] for mu in points])
    return np.maximum(hull, lp) + model.kappa * model.potential.batch(points)


@pytest.mark.parametrize("n, kind, kappa", CASES)
def test_exact_value_dominates_the_grid_routes(n, kind, kappa):
    model, game, mu = PosteriorSeparable(kappa, neg_entropy()), games(n)[kind], priors(n)
    exact = informed_value_sweep(model, game, mu)
    assert (exact >= grid_value(model, game, mu) - 1e-12).all()
    # Learning never hurts: staying put is one plan.
    assert (exact >= game.batch(mu) - 1e-12).all()


def assert_certified(P, kappa, mu, solution):
    """Every row's weights lie in the simplex, and its Blahut-Arimoto bound,
    recomputed from them in the log domain, certifies its value."""
    scale = 1.0 + np.abs(P).max()
    for row, p, value in zip(mu, solution.weights, solution.values):
        live = row > 0.0
        assert p.min() >= 0.0 and p.sum() == pytest.approx(1.0, abs=1e-12)
        # Recomputed in the log domain, unshifted: log (E^T p)_i and c_a.
        with np.errstate(divide="ignore"):
            log_s = logsumexp(np.log(p)[:, None] + P[:, live] / kappa, axis=0)
        c = np.exp(P[:, live] / kappa - log_s) @ row[live]
        assert kappa * (c.max() - 1.0) <= shannon._GAP * scale + kappa * shannon._ROUNDING
        assert kappa * float(row[live] @ log_s) == pytest.approx(value, abs=1e-12 * scale)


@pytest.mark.parametrize("n, kind, kappa", CASES)
def test_certificate_holds(n, kind, kappa):
    P = payoffs(games(n)[kind], n)
    assert_certified(P, kappa, priors(n), shannon.solve(P, kappa, priors(n)))


def newton_only(monkeypatch):
    """Make the closed form certify no row, so every row goes to Newton."""
    def nothing(E, top, beta, kappa, mu, tol):
        return np.zeros(len(mu)), np.zeros((len(mu), len(beta))), np.zeros(len(mu), dtype=bool)

    monkeypatch.setattr(shannon, "_water_fill", nothing)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ("rule-out", "prop2"))
@pytest.mark.parametrize("kappa", (1e-3, 1e-2, 0.3, 3.0, 1e3))
def test_closed_form_agrees_with_newton(n, kind, kappa, monkeypatch):
    # Interior priors too, some with near-zero coordinates.
    rng = np.random.default_rng(20 + n)
    mu = np.vstack([priors(n), rng.dirichlet(np.ones(n), 32), rng.dirichlet(np.full(n, 0.2), 32)])
    P = payoffs(games(n)[kind], n)
    closed = shannon.solve(P, kappa, mu)
    assert_certified(P, kappa, mu, closed)
    newton_only(monkeypatch)
    newton = shannon.solve(P, kappa, mu)
    scale = 1.0 + np.abs(P).max()
    # Newton stops anywhere within its certified gap, which kappa * _ROUNDING
    # dominates at large kappa; the closed form sits at the optimum.
    gap = closed.values - newton.values
    assert gap.min() >= -1e-12 * scale
    assert gap.max() <= 1e-12 * scale + kappa * shannon._ROUNDING
    np.testing.assert_array_equal(closed.stay, newton.stay)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("kind", ("common", "per-state"))
def test_rule_out_stay_test_matches_the_tensor_oracle(n, kind):
    # The default lattice (faces and vertices included) and Dirichlet(0.2) draws.
    rng = np.random.default_rng(50 + n)
    mu = np.vstack([simplex_grid_array(n, default_resolution(n)),
                    rng.dirichlet(np.full(n, 0.2), 2000)])
    P = 0.2 - np.diag(rule_out_fines(n, kind))
    uncertified = 0
    for kappa in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3):
        solution = shannon.solve(P, kappa, mu)
        stay, values = stay_oracle(P, kappa, mu)
        np.testing.assert_array_equal(solution.stay, stay)
        assert solution.values[stay].tobytes() == values[stay].tobytes()
        # The water-fill would not certify every stay row (those on faces
        # fail its certificate), so the stay test must come first.
        tol = shannon._GAP * (1.0 + np.abs(P).max()) / kappa + shannon._ROUNDING
        top = P.max(axis=0)
        E, beta = np.exp((P - top) / kappa), -np.expm1((np.diag(P) - top) / kappa)
        uncertified += (~shannon._water_fill(E, top, beta, kappa, mu[stay], tol)[2]).sum()
    assert uncertified > 0


def test_newton_values_come_back_when_the_closed_form_certifies_nothing(monkeypatch):
    P, mu = payoffs(games(4)["rule-out"], 4), priors(4)
    closed = shannon.solve(P, 0.3, mu)
    newton_only(monkeypatch)
    newton = shannon.solve(P, 0.3, mu)
    assert newton.steps.max() > 0
    assert_certified(P, 0.3, mu, newton)
    scale = 1.0 + np.abs(P).max()
    np.testing.assert_allclose(newton.values, closed.values, rtol=0.0, atol=1e-12 * scale)


def test_steps_are_zero_on_a_rule_out_lattice_and_count_newton_elsewhere():
    lattice = simplex_grid_array(4, 12)
    assert (shannon.solve(payoffs(games(4)["rule-out"], 4), 0.3, lattice).steps == 0).all()
    solution = shannon.solve(payoffs(games(4)["hand-built"], 4), 0.3, lattice)
    assert (solution.steps[solution.stay] == 0).all() and solution.steps.max() > 0


@pytest.mark.parametrize("n, kind, kappa", CASES)
def test_plan_is_bayes_plausible_and_attains_the_value(n, kind, kappa):
    model, game, mu = PosteriorSeparable(kappa, neg_entropy()), games(n)[kind], priors(n)
    stay = shannon.solve(payoffs(game, n), kappa, mu).stay
    for row, stays in zip(mu, stay):
        res = informed_value(model, game, Belief(row))
        w, X = np.asarray(res.plan.weights), res.plan.support_matrix
        assert np.abs(w @ X - row).max() <= 1e-12
        assert res.plan.is_degenerate() or not stays
        assert res.cost == distribution_cost(model, res.plan)
        achieved = float(w @ game.batch(X)) - res.cost
        assert abs(achieved - res.value) <= 1e-12 * (1.0 + abs(res.value))


@pytest.mark.parametrize("n, kind, kappa", CASES)
def test_sweep_row_equals_the_point_value_bit_for_bit(n, kind, kappa):
    model, game, mu = PosteriorSeparable(kappa, neg_entropy()), games(n)[kind], priors(n)
    swept = informed_value_sweep(model, game, mu)
    for row, value in zip(mu, swept):
        assert informed_value(model, game, Belief(row)).value == value
        assert informed_value_sweep(model, game, row[None])[0] == value


def test_the_announce_action_stays_put_where_learning_cannot_pay():
    # At a vertex the state is known; any learning only costs.
    model = PosteriorSeparable(0.3, neg_entropy())
    game = SimpleAnnouncement(Contract(0.2, 1.0))
    res = informed_value(model, game, Belief(np.eye(4)[2]))
    assert res.plan.is_degenerate() and res.cost == 0.0
    assert res.value == game.value(Belief(np.eye(4)[2]))


def test_uncertified_prior_raises(monkeypatch):
    monkeypatch.setattr(shannon, "_NEWTON_CAP", 1)
    model = PosteriorSeparable(0.3, neg_entropy())
    with pytest.raises(NotCertified):
        informed_value(model, games(4)["hand-built"], Belief((0.4, 0.3, 0.2, 0.1)))
    # Verdicts play rule-out games; with the closed form certifying nothing
    # they reach Newton, and the grid routes do not catch it.
    newton_only(monkeypatch)
    with pytest.raises(NotCertified):
        screens(model, Contract(0.2, 1.0), 4, resolution=6)


def test_other_models_and_three_states_stay_on_the_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Shannon solver was called")

    monkeypatch.setattr(shannon, "solve", refuse)
    game = SimpleAnnouncement(Contract(0.2, 1.0))
    for model, n in (
        (PosteriorSeparable(0.3, neg_entropy()), 3),
        (PosteriorSeparable(0.3, quadratic()), 4),
        (PosteriorSeparable(0.3, shifted(neg_entropy(), 1.0)), 4),
    ):
        informed_value_sweep(model, game, simplex_grid_array(n, 4), resolution=6)
        informed_value(model, game, Belief(np.full(n, 1.0 / n)), resolution=6)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("kind", ("common", "per-state"))
@pytest.mark.parametrize("kappa", (0.01, 0.3, 3.0))
def test_rule_out_minimum_is_the_value_at_its_prior(n, kind, kappa):
    u, fines = 0.2, rule_out_fines(n, kind)
    shortfall, worst = shannon.rule_out_minimum(fines, kappa)
    assert worst.min() > 0.0 and worst.sum() == pytest.approx(1.0, abs=1e-15)
    value = u + shortfall
    at_worst = shannon.solve(u - np.diag(fines), kappa, worst[None, :]).values[0]
    assert abs(at_worst - value) <= 1e-12 * (1.0 + abs(value))


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("kind", ("common", "per-state"))
@pytest.mark.parametrize("kappa", (0.01, 0.3, 3.0))
def test_no_prior_falls_below_the_rule_out_minimum(n, kind, kappa):
    u, fines = 0.2, rule_out_fines(n, kind)
    shortfall, _ = shannon.rule_out_minimum(fines, kappa)
    rng = np.random.default_rng(40 + n)
    mu = np.vstack([
        simplex_grid_array(n, default_resolution(n)),
        rng.dirichlet(np.ones(n), 500),
        rng.dirichlet(np.full(n, 0.2), 500),
    ])
    values = shannon.solve(u - np.diag(fines), kappa, mu).values
    assert values.min() >= u + shortfall - 1e-12


@pytest.mark.parametrize("kappa", (1e-300, 1e300))
@pytest.mark.parametrize("fines", (
    [1e-300, 1e-300], [1e300, 1e300, 1e300], [1e-300, 1e300], [1e-300, 1.0, 1e300, 1e300],
))
def test_rule_out_minimum_stays_finite_at_extremes(kappa, fines):
    fines = np.array(fines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shortfall, worst = shannon.rule_out_minimum(fines, kappa)
    assert np.isfinite(shortfall) and np.isfinite(worst).all()
    assert worst.min() >= 0.0 and worst.sum() == pytest.approx(1.0, abs=1e-15)
    # Learning never hurts, and the uninformed maximin is a floor for it.
    assert -1.0 / np.sum(1.0 / fines) * (1.0 + 1e-12) <= shortfall <= 0.0
