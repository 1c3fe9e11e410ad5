"""Value of a contract to an expert who can acquire information first.

Under a fixed menu the expert picks the priced experiment (or none) with the
best expected payoff at the induced posteriors.  Under a posterior-separable
cost the optimal strategy concavifies the net objective V - kappa*c; the
informed value is that envelope plus kappa*c at the prior.  A single prior
is the one-row case of a sweep over priors, on one of three routes:

- menus score each entry against staying put in closed form;
- the Shannon cost (negative entropy) on four or more states is solved
  exactly and certified by ``shannon.solve``, with no belief grid;
- every other cost takes the concave envelope of the objective sampled on
  one lattice per state count, the default one, which biases the value
  low.  A sweep of two or more priors stacks them on the lattice (unless
  they are it) and builds a 1-D envelope on two states or a hull on more.
  A single prior is priced against the lattice alone, by the 1-D split or
  the simplex walk (``concavify_walk``), and then against its own sample,
  which decides staying put.  The potential on the lattice is computed
  once per potential.

A single prior's value is its one-row sweep bit for bit on every route; on
three or more states the walk and the hull agree to rounding.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import shannon
from .costs import CostModel, FixedMenu, PosteriorSeparable, distribution_cost, neg_entropy
from .envelopes import _CONTACT_TOL, Envelope1d, SimplexEnvelope, _prune_plan, concavify_walk
from .experiments import induced_posterior_distribution
from .simplex import Belief, PosteriorDistribution, _frozen_array
from .simplex import degenerate, simplex_grid_array
from .values import DecisionProblem


class InformedResult(NamedTuple):
    value: float
    plan: PosteriorDistribution
    cost: float


def _exact(model: CostModel, n: int) -> bool:
    """True where the grid-free Shannon solver prices the model: negative
    entropy on n >= 4 states.  Fewer states stay on the grid routes."""
    return isinstance(model, PosteriorSeparable) and model.potential == neg_entropy() and n >= 4


def _objective(
    model: PosteriorSeparable, game: DecisionProblem, priors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The default lattice, stacked with the queried priors when there are
    two or more and they are not the lattice itself, the objective
    V - kappa*c sampled on those rows, and kappa*c there."""
    n = priors.shape[1]
    grid = simplex_grid_array(n)
    c = _lattice_potential(model.potential, n)
    if len(priors) > 1 and not np.array_equal(priors, grid):
        grid = np.vstack([grid, priors])
        c = np.concatenate([c, model.potential.batch(priors)])
    kc = model.kappa * c
    return grid, game.batch(grid) - kc, kc


def _at_prior(
    model: PosteriorSeparable, game: DecisionProblem, mu: Belief
) -> tuple[float, PosteriorDistribution]:
    """Net value at one prior on the grid routes, with a plan: the lattice
    samples' envelope at mu or mu's own sample g(mu), whichever is larger.
    That is exact, as a plan weighting mu puts its other mass on lattice
    points with barycenter mu; if g(mu) reaches the envelope, mu stays put."""
    grid, g, _ = _objective(model, game, mu.probs[None])
    kc = model.kappa * model.potential.batch(mu.probs[None])[0]
    own = game.batch(mu.probs[None])[0] - kc
    env, plan = Envelope1d(grid[:, 0], g).split(mu) if mu.n == 2 else concavify_walk(grid, g, mu)
    if own >= env - _CONTACT_TOL * (1.0 + abs(env)):
        return float(max(env, own) + kc), degenerate(mu)
    return float(env + kc), plan


@functools.lru_cache(maxsize=8)
def _lattice_potential(potential, n: int) -> np.ndarray:
    """The potential on the shared default lattice of n states, read-only."""
    return _frozen_array(potential.batch(simplex_grid_array(n)))


def informed_value(
    model: CostModel,
    game: DecisionProblem,
    mu: Belief,
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
    if _exact(model, mu.n):
        # One row of the sweep; the plan is read off the action weights.
        P = game.u - game.fines(mu.n)
        solution = shannon.solve(P, model.kappa, mu.probs[None, :])
        value = float(solution.values[0])
        if solution.stay[0]:
            return InformedResult(value, degenerate(mu), 0.0)
        plan = _prune_plan(*shannon.posteriors(P, model.kappa, mu.probs, solution.weights[0]), mu)
    else:
        value, plan = _at_prior(model, game, mu)
    if plan.is_degenerate():
        # Keep the stay-put plan anchored at the prior itself.
        return InformedResult(value, degenerate(mu), 0.0)
    return InformedResult(value, plan, distribution_cost(model, plan))


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
) -> np.ndarray:
    """Informed net value at every prior row, vectorized."""
    priors = np.asarray(priors, dtype=float)
    if isinstance(model, FixedMenu):
        return _menu_candidates(model, game, priors).max(axis=0)
    n = priors.shape[1]
    if _exact(model, n):
        return shannon.solve(game.u - game.fines(n), model.kappa, priors).values
    if len(priors) == 1:
        return np.array([_at_prior(model, game, Belief(priors[0]))[0]])
    grid, g, kc = _objective(model, game, priors)
    envelope = Envelope1d(grid[:, 0], g) if n == 2 else SimplexEnvelope(grid, g)
    return envelope.values(priors[:, 0] if n == 2 else priors) + kc[len(grid) - len(priors) :]
