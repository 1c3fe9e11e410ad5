"""Independent reference values for checking cavscreen's outputs.

Nothing here imports cavscreen.  Every game is an action-by-state payoff
matrix P, with gross value V(x) = max_a (P x)_a at a belief x:

* rule-out game: P = u - diag(d), action a announces state a impossible;
* urn game (states rr, rb, bb): two color calls with rows
  u - (d/2)(0, 1, 2) and u - (d/2)(2, 1, 0).

For the Shannon (scaled negative entropy) cost the informed value has an
exact grid-free optimum over action weights (Matejka & McKay 2015):

    max_p  kappa * sum_i mu_i log sum_a p_a exp(P_ai / kappa),

which is concave in p.  It is solved here with softmax parameters and BFGS
using the analytic gradient.  The first-order condition also gives an upper
bound on the distance to the true optimum, kappa * (max_a c_a - 1) with
c_a = dF/dp_a / kappa, so each reference value carries its own certificate.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.optimize import minimize


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along axis, shifted by the maximum for stability."""
    top = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return out.item() if axis is None else np.squeeze(out, axis=axis)


def rule_out_matrix(u: float, fines) -> np.ndarray:
    fines = np.asarray(fines, dtype=float)
    return u - np.diag(fines)


def urn_matrix(u: float, d: float) -> np.ndarray:
    misses = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])
    return u - 0.5 * d * misses


def gross(P: np.ndarray, x) -> float:
    """Payoff of the best announcement at belief x."""
    return float((P @ np.asarray(x, dtype=float)).max())


def shannon_value(P: np.ndarray, mu, kappa: float) -> tuple[float, float]:
    """Exact informed value under cost kappa * (E[c(x)] - c(mu)),
    c(x) = sum_i x_i log x_i, and the certified bound on its error.

    Returns (value, bound): the true optimum lies in [value, value + bound].
    """
    P = np.asarray(P, dtype=float)
    mu = np.asarray(mu, dtype=float)
    live = mu > 0.0
    scaled = P[:, live] / kappa
    weights = mu[live]

    def terms(z):
        log_p = z - logsumexp(z)
        joint = log_p[:, None] + scaled
        per_state = logsumexp(joint, axis=0)
        return log_p, joint, per_state

    def negative(z):
        log_p, joint, per_state = terms(z)
        posterior = np.exp(joint - per_state)
        value = kappa * float(weights @ per_state)
        grad = kappa * (posterior @ weights - np.exp(log_p))
        return -value, -grad

    stay = scaled @ weights
    starts = (np.zeros(P.shape[0]), 8.0 * (stay == stay.max()))
    best = None
    for z0 in starts:
        res = minimize(
            negative, z0, jac=True, method="BFGS",
            options={"gtol": 1e-13, "maxiter": 5000},
        )
        if best is None or res.fun < best.fun:
            best = res
    _, _, per_state = terms(best.x)
    slope = np.exp(scaled - per_state) @ weights
    return -float(best.fun), kappa * max(float(slope.max()) - 1.0, 0.0)


def menu_value(P: np.ndarray, mu, entries) -> float:
    """Best of not learning and each priced experiment, in closed form.

    ``entries`` holds (likelihoods, price) pairs, likelihoods n x m with
    row i the signal distribution in state i.  With signal s the posterior
    is proportional to mu * L[:, s], so the expected gross payoff is
    sum_s max_a (P (mu * L[:, s]))_a.
    """
    mu = np.asarray(mu, dtype=float)
    best = gross(P, mu)
    for likelihoods, price in entries:
        joint = mu[:, None] * np.asarray(likelihoods, dtype=float)
        best = max(best, float((P @ joint).max(axis=0).sum()) - price)
    return best


def maximin_value(u: float, fines) -> float:
    """Beliefless rule-out guarantee: equalizing sigma_i ~ 1/d_i."""
    fines = np.asarray(fines, dtype=float)
    return u - 1.0 / float((1.0 / fines).sum())


def urn_maximin_value(u: float, d: float) -> float:
    """Opposite color calls guarantee exactly one miss."""
    return u - 0.5 * d


def seu_value(u: float, fines, rho) -> float:
    """Uninformed expert holding belief rho and announcing its best state."""
    return u - float((np.asarray(fines, dtype=float) * np.asarray(rho, dtype=float)).min())


@functools.lru_cache(maxsize=None)
def lattice(n: int, r: int) -> np.ndarray:
    """Every belief on n states whose coordinates are multiples of 1/r."""
    if n == 1:
        return np.ones((1, 1))
    rows = []
    for k in range(r + 1):
        rest = lattice(n - 1, r - k) * (r - k) if k < r else np.zeros((1, n - 1))
        rows.append(np.column_stack([np.full(rest.shape[0], k), rest]))
    return np.vstack(rows) / r


def upsilon(mu, likelihoods) -> float:
    """Learning benefit min_i mu_i - sum_s min_i mu_i L_is."""
    mu = np.asarray(mu, dtype=float)
    joint = mu[:, None] * np.asarray(likelihoods, dtype=float)
    return float(mu.min() - joint.min(axis=0).sum())


def neg_entropy(x) -> float:
    x = np.asarray(x, dtype=float)
    x = x[x > 0.0]
    return float((x * np.log(x)).sum())
