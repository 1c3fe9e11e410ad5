"""Exact informed values under the Shannon cost, without a belief grid.

Under the cost kappa * (E[c(x)] - c(mu)) with c the negative entropy, some
optimal plan has one posterior per action (Matejka & McKay 2015), and the
informed value at a prior mu is the concave program

    max over action weights p in the simplex of
        kappa * sum_i mu_i log (E^T p)_i,   E_ai = exp(P_ai / kappa),

for the action-by-state payoff matrix P.  Its gradient is kappa * c with
c_a = sum_i mu_i E_ai / (E^T p)_i, and sum_a p_a c_a = 1, so by concavity the
optimum exceeds the value at p by at most kappa * (max_a c_a - 1), the
Blahut-Arimoto bound.  ``solve`` maximizes over a stack of priors at once by
a log-barrier Newton method on p and stops each prior once that bound is at
most ``_GAP * (1 + max |P|)``, plus an allowance for rounding.  A prior it
cannot certify raises.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotCertified

# Certified gap, relative to 1 + max |P|, plus the rounding of c itself,
# which dominates only where kappa dwarfs the payoffs.  A tenth of 1e-12
# keeps values within 1e-12 of any plan a grid finds for max |P| up to 9.
_GAP = 1e-13
_ROUNDING = 64.0 * np.finfo(float).eps
# Newton steps allowed per prior.
_NEWTON_CAP = 100
# The barrier weight t starts at _T0, from uniform action weights, and
# shrinks by _SHRINK once the squared Newton decrement, measured on the
# objective scaled by 1 / t, falls below _CENTERED.  It stops at a level
# whose central point already passes the certificate.
_T0 = 1.0
_SHRINK = 0.001
_CENTERED = 1.0
# Below this squared decrement, relative to the objective, a step skips the
# sufficient-increase test, which rounding would otherwise fail.
_QUADRATIC = 1e-12
# Sufficient-increase fraction, and the most halvings of one step.
_ARMIJO = 0.25
_HALVINGS = 60


class ShannonSolution(NamedTuple):
    values: np.ndarray  # (B,) informed value at each prior
    weights: np.ndarray  # (B, A) action weights p
    stay: np.ndarray  # (B,) True where the announce action alone is certified


def _mix(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M for a stack of rows x, summed term by term in a fixed order, so
    a row rounds the same in a batch of any size (a BLAS product may not)."""
    out = x[:, :1] * M[0]
    for k in range(1, M.shape[0]):
        out = out + x[:, k : k + 1] * M[k]
    return out


def _barrier(E, mu, p, t) -> tuple[np.ndarray, np.ndarray]:
    """(E^T p) rows and the barrier objective sum mu log E^T p + t sum log p."""
    s = _mix(p, E)
    return s, (mu * np.log(s)).sum(axis=1) + t * np.log(p).sum(axis=1)


def solve(P, kappa: float, priors) -> ShannonSolution:
    """Informed value of the game with payoff matrix P (actions x states) at
    each prior row, under the Shannon cost with weight kappa."""
    P = np.asarray(P, dtype=float)
    priors = np.asarray(priors, dtype=float)
    B, A = len(priors), P.shape[0]
    # kappa * (max c - 1) <= _GAP (1 + max|P|), in units of kappa.
    tol = _GAP * (1.0 + np.abs(P).max()) / kappa + _ROUNDING
    stay_pay = _mix(priors, P.T)
    announce = stay_pay.argmax(axis=1)
    # Staying put is certified when every action's slope at the announce
    # action's unit weight, sum_i mu_i exp((P_ai - P_a*i) / kappa), is <= 1.
    rise = np.expm1(np.minimum((P[None] - P[announce][:, None, :]) / kappa, 700.0))
    stay = (priors[:, None, :] * rise).sum(axis=2).max(axis=1) <= tol
    values = stay_pay[np.arange(B), announce]
    weights = np.zeros((B, A))
    weights[np.arange(B), announce] = 1.0
    # Shift each state's payoffs by their maximum so E stays in (0, 1].
    top = P.max(axis=0)
    E = np.exp((P - top) / kappa)
    outer = (E.T[:, :, None] * E.T[:, None, :]).reshape(-1, A * A)
    rows = np.flatnonzero(~stay)
    mu = priors[rows]
    p = np.full((len(rows), A), 1.0 / A)
    t = np.full(len(rows), _T0)
    # On the central path c_a = 1 + t A - t / p_a, so t <= tol / A certifies.
    floor = 0.5 * tol / A
    for _ in range(_NEWTON_CAP + 1):
        s, phi = _barrier(E, mu, p, t)
        ratio = mu / s
        c = _mix(ratio, E.T)
        done = c.max(axis=1) - 1.0 <= tol
        if done.any():
            hit = rows[done]
            values[hit] = ((top + kappa * np.log(s[done])) * mu[done]).sum(axis=1)
            weights[hit] = p[done]
            keep = ~done
            rows, mu, p, t, s, phi, ratio, c = (
                x[keep] for x in (rows, mu, p, t, s, phi, ratio, c)
            )
        if not len(rows):
            break
        # Newton step on the simplex: S = -Hessian, and the multiplier of
        # sum p = 1 comes from S^-1 g and S^-1 1 (the Schur complement).
        g = c + t[:, None] / p
        S = _mix(ratio / s, outer).reshape(-1, A, A)
        S[:, np.arange(A), np.arange(A)] += t[:, None] / p**2
        sol = np.linalg.solve(S, np.stack([g, np.ones_like(g)], axis=2))
        nu = sol[..., 0].sum(axis=1) / sol[..., 1].sum(axis=1)
        step = sol[..., 0] - nu[:, None] * sol[..., 1]
        decrement = (step * g).sum(axis=1)
        # Largest step keeping p > 0, then backtracking on the barrier objective.
        with np.errstate(divide="ignore"):
            reach = np.where(step < 0.0, -p / step, np.inf).min(axis=1)
        alpha = np.minimum(1.0, 0.95 * reach)
        trust = decrement <= _QUADRATIC * (1.0 + np.abs(phi))
        for _ in range(_HALVINGS):
            _, trial = _barrier(E, mu, p + alpha[:, None] * step, t)
            bad = ~trust & (trial < phi + _ARMIJO * alpha * decrement)
            if not bad.any():
                break
            alpha = np.where(bad, 0.5 * alpha, alpha)
        p = p + alpha[:, None] * step
        p /= p.sum(axis=1, keepdims=True)
        t = np.where(decrement < _CENTERED * t, np.maximum(_SHRINK * t, floor), t)
    else:
        raise NotCertified(
            f"{len(rows)} priors not certified within {_NEWTON_CAP} Newton steps, "
            f"first {priors[rows[0]].tolist()}"
        )
    return ShannonSolution(values, weights, stay)


def posteriors(P, kappa: float, mu: np.ndarray, p: np.ndarray):
    """The plan read off action weights p at prior mu: one posterior per
    action, x_a proportional to mu * E_a / (E^T p), with weight p_a c_a
    (p_a at the optimum).  Bayes-plausible by construction."""
    P = np.asarray(P, dtype=float)
    E = np.exp((P - P.max(axis=0)) / kappa)
    joint = p[:, None] * mu * E / (p @ E)
    w = joint.sum(axis=1)
    return joint / w[:, None], w
