"""Value of a contract to an expert who can acquire information first.

Under a fixed menu the expert picks the priced experiment (or none) with the
best expected payoff at the induced posteriors.  Under a posterior-separable
cost the optimal strategy concavifies the net objective V - kappa*c over a
belief grid; the informed value is that envelope plus kappa*c at the prior.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .costs import CostModel, FixedMenu, distribution_cost
from .envelopes import Envelope1d, SimplexEnvelope, concavify_1d, concavify_lp
from .experiments import induced_posterior_distribution
from .simplex import Belief, PosteriorDistribution, degenerate, simplex_grid_array
from .values import DecisionProblem

# Largest point count allowed when picking grid resolutions for n >= 4.
_GRID_BUDGET = 8000


def default_resolution(n: int) -> int:
    """Belief-grid resolution used when the caller does not pin one."""
    if n == 2:
        return 1000
    if n == 3:
        return 200
    r = 2
    while math.comb(r + n, n - 1) <= _GRID_BUDGET:
        r += 1
    return r


class InformedResult(NamedTuple):
    value: float
    plan: PosteriorDistribution
    cost: float


def _grid_with(mu: Belief, resolution: int) -> np.ndarray:
    grid = simplex_grid_array(mu.n, resolution)
    if not (np.abs(grid - mu.probs).max(axis=1) <= 1e-12).any():
        grid = np.vstack([grid, mu.probs])
    return grid


def informed_value(
    model: CostModel,
    game: DecisionProblem,
    mu: Belief,
    resolution: int | None = None,
) -> InformedResult:
    """Optimal net payoff of an informed expert at prior mu, with the
    posterior plan that attains it and the learning cost it incurs.

    Ties between learning and not learning resolve toward not learning.
    """
    if isinstance(model, FixedMenu):
        # One row of the sweep; argmax keeps the first best, so ties stay put.
        net = _menu_candidates(model, game, mu.probs[None, :])[:, 0]
        best = int(net.argmax())
        if best == 0:
            return InformedResult(float(net[0]), degenerate(mu), 0.0)
        experiment, price = model.entries[best - 1]
        plan = induced_posterior_distribution(experiment, mu)
        return InformedResult(float(net[best]), plan, price)
    resolution = resolution or default_resolution(mu.n)
    grid = _grid_with(mu, resolution)
    kappa = model.kappa
    g = game.batch(grid) - kappa * model.potential.batch(grid)
    if mu.n == 2:
        env, plan = concavify_1d(grid[:, 0], g, mu[0])
    else:
        env, plan = concavify_lp(grid, g, mu)
    if plan.is_degenerate():
        # Keep the stay-put plan anchored at the prior itself.
        plan = degenerate(mu)
        cost = 0.0
    else:
        cost = distribution_cost(model, plan)
    return InformedResult(env + kappa * model.potential.value(mu), plan, cost)


def _menu_gross_sweep(game: DecisionProblem, priors: np.ndarray, experiment) -> np.ndarray:
    likelihoods = experiment.likelihoods
    out = np.zeros(priors.shape[0])
    for s in range(likelihoods.shape[1]):
        column = likelihoods[:, s]
        marginal = priors @ column
        live = marginal > 0.0
        if not live.any():
            continue
        posteriors = priors[live] * column / marginal[live, None]
        out[live] += marginal[live] * game.batch(posteriors)
    return out


def _menu_candidates(
    model: FixedMenu, game: DecisionProblem, priors: np.ndarray
) -> np.ndarray:
    """Net value of each menu choice at each prior, (entries + 1, priors):
    staying put first, then every listed experiment less its price."""
    return np.array(
        [game.batch(priors)]
        + [_menu_gross_sweep(game, priors, exp) - price for exp, price in model.entries]
    )


def informed_value_sweep(
    model: CostModel,
    game: DecisionProblem,
    priors,
    resolution: int | None = None,
) -> np.ndarray:
    """Informed net value at every prior row, vectorized.

    Posterior-separable models build one envelope over the grid joined with
    the queried priors and evaluate it in batch; menus score each entry
    against the null in closed form.
    """
    priors = np.asarray(priors, dtype=float)
    if isinstance(model, FixedMenu):
        return _menu_candidates(model, game, priors).max(axis=0)
    n = priors.shape[1]
    resolution = resolution or default_resolution(n)
    grid = np.vstack([simplex_grid_array(n, resolution), priors])
    kappa = model.kappa
    g = game.batch(grid) - kappa * model.potential.batch(grid)
    if n == 2:
        env = Envelope1d(grid[:, 0], g).values(priors[:, 0])
    else:
        env = SimplexEnvelope(grid, g).values(priors)
    return env + kappa * model.potential.batch(priors)
