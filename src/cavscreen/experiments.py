"""Finite statistical experiments, posterior updating, and the learning benefit.

An experiment maps each of n states to a distribution over m signals.  The
learning benefit of an experiment at a prior is the reduction in the expected
minimum joint state-signal probability it achieves; scaled by the fine, this
is the expected-fine reduction an expert obtains by observing the experiment
before announcing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroProbabilitySignal
from .simplex import SUM_TOL, Belief, PosteriorDistribution, _frozen_array


@dataclass(frozen=True, eq=False)
class Experiment:
    """An n x m likelihood matrix; row i is the signal distribution in state
    i, and signal j is column j."""

    likelihoods: np.ndarray

    def __init__(self, likelihoods):
        arr = _frozen_array(likelihoods)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 1:
            raise ValueError(f"likelihoods must be n x m with n >= 2, got {arr.shape}")
        # Written as not (x >= bound) so that NaN and +-inf fail too.
        if not arr.min() >= 0:
            raise ValueError(f"likelihoods must be nonnegative numbers, got {float(arr.min())!r}")
        rowsums = arr.sum(axis=1)
        if not np.abs(rowsums - 1.0).max() <= SUM_TOL:
            raise ValueError(f"rows must sum to 1, got sums {rowsums}")
        object.__setattr__(self, "likelihoods", arr)

    @property
    def n(self) -> int:
        return self.likelihoods.shape[0]

    @property
    def m(self) -> int:
        return self.likelihoods.shape[1]


def null_experiment(n: int) -> Experiment:
    """Single constant signal; observing it never moves the belief."""
    return Experiment(np.ones((n, 1)))


def fully_informative(n: int) -> Experiment:
    """The identity experiment: the signal reveals the state."""
    return Experiment(np.eye(n))


def symmetric_binary(q: float) -> Experiment:
    """Two-state experiment reporting the true state with probability q."""
    if not 0.5 < q <= 1.0:
        raise ValueError(f"accuracy q must lie in (1/2, 1], got {q}")
    return Experiment([[q, 1.0 - q], [1.0 - q, q]])


def _signal_marginal(E: Experiment, mu: Belief) -> np.ndarray:
    """Unconditional signal distribution at prior mu."""
    if E.n != mu.n:
        raise DimensionMismatch(f"experiment has {E.n} states, belief has {mu.n}")
    return mu.probs @ E.likelihoods


def posterior(E: Experiment, mu: Belief, s: int) -> Belief:
    """Bayes update of mu after observing signal index s."""
    marg = _signal_marginal(E, mu)
    if marg[s] <= 0.0:
        raise ZeroProbabilitySignal(f"signal {s} has zero probability at {mu}")
    return Belief(mu.probs * E.likelihoods[:, s] / marg[s])


def induced_posterior_distribution(E: Experiment, mu: Belief) -> PosteriorDistribution:
    """Distribution over posteriors generated by E at mu; zero-probability
    signals are dropped."""
    marg = _signal_marginal(E, mu)
    live = marg > 0.0
    rows = mu.probs * E.likelihoods[:, live].T / marg[live, None]
    return PosteriorDistribution(rows, marg[live], mu)


def upsilon_batch(E: Experiment, priors) -> np.ndarray:
    """Learning benefit of E at every prior row mu: min_i mu_i minus the
    summed per-signal minimum joint probabilities min_i mu_i P_i(s).  Always
    in [0, min_i mu_i]; zero for uninformative experiments."""
    pts = np.asarray(priors, dtype=float)
    if pts.shape[1] != E.n:
        raise DimensionMismatch(f"experiment has {E.n} states, beliefs have {pts.shape[1]}")
    # Joint probabilities mu_i P_i(s) and both minima go one state column at a time.
    joint = (mu[:, None] * lk for mu, lk in zip(pts.T, E.likelihoods))
    return functools.reduce(np.minimum, pts.T) - functools.reduce(np.minimum, joint).sum(axis=1)


def upsilon(E: Experiment, mu: Belief) -> float:
    """Learning benefit of E at mu: one row of ``upsilon_batch``."""
    return float(upsilon_batch(E, mu.probs[None, :])[0])
