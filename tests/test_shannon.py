"""Exact Shannon informed values at n >= 4: the batched Newton solver, checked
against its own certificate, the grid routes it replaced, and its plans."""

import itertools

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
from helpers import shifted

KAPPAS = (1e-3, 0.3)
# Lattice resolutions for the grid routes, small enough for a quick hull.
GRID = {4: 12, 5: 8}


def games(n):
    """Rule-out with a common fine, Proposition-2 fines, and a hand-built
    game with n + 2 actions, two of them identical."""
    rng = np.random.default_rng(n)
    rho = Belief(0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n)
    fines = rng.uniform(0.0, 1.0, (n + 2, n))
    fines[1] = fines[0]
    return {
        "rule-out": SimpleAnnouncement(Contract(0.2, 1.0)),
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
    for n in (4, 5) for kind in ("rule-out", "prop2", "hand-built") for kappa in KAPPAS
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


@pytest.mark.parametrize("n, kind, kappa", CASES)
def test_certificate_holds(n, kind, kappa):
    game, mu = games(n)[kind], priors(n)
    P = payoffs(game, n)
    solution = shannon.solve(P, kappa, mu)
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
def test_plan_is_bayes_plausible_and_attains_the_value(n, kind, kappa):
    model, game, mu = PosteriorSeparable(kappa, neg_entropy()), games(n)[kind], priors(n)
    scale = 1.0 + np.abs(payoffs(game, n)).max()
    stay = shannon.solve(payoffs(game, n), kappa, mu).stay
    for row, stays in zip(mu, stay):
        res = informed_value(model, game, Belief(row))
        w, X = np.asarray(res.plan.weights), res.plan.support_matrix
        assert np.abs(w @ X - row).max() <= 1e-9
        assert res.plan.is_degenerate() or not stays
        assert res.cost == pytest.approx(distribution_cost(model, res.plan), abs=1e-12 * scale)
        achieved = float(w @ game.batch(X)) - res.cost
        assert achieved == pytest.approx(res.value, abs=1e-9 * scale)


@pytest.mark.parametrize("n, kind, kappa", CASES)
def test_sweep_row_equals_the_point_value_bit_for_bit(n, kind, kappa):
    model, game, mu = PosteriorSeparable(kappa, neg_entropy()), games(n)[kind], priors(n)
    swept = informed_value_sweep(model, game, mu)
    for row, value in zip(mu, swept):
        assert informed_value(model, game, Belief(row)).value == value


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
    contract = Contract(0.2, 1.0)
    with pytest.raises(NotCertified):
        informed_value(model, SimpleAnnouncement(contract), Belief((0.4, 0.3, 0.2, 0.1)))
    # The grid routes do not catch it.
    with pytest.raises(NotCertified):
        screens(model, contract, 4, resolution=6)


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
