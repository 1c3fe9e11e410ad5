"""Exact informed values under the Shannon cost, without a belief grid.

Under the cost kappa * (E[c(x)] - c(mu)) with c the negative entropy, some
optimal plan has one posterior per action (Matejka & McKay 2015), and the
informed value at a prior mu is the concave program

    max over action weights p in the simplex of
        kappa * sum_i mu_i log (E^T p)_i,   E_ai = exp(P_ai / kappa),

for the action-by-state payoff matrix P.  Its gradient is kappa * c with
c_a = sum_i mu_i E_ai / (E^T p)_i, and sum_a p_a c_a = 1, so by concavity the
optimum exceeds the value at p by at most kappa * (max_a c_a - 1), the
Blahut-Arimoto bound.  ``solve`` certifies every value it returns by that
bound: it must be at most ``_GAP * (1 + max |P|)``, plus an allowance for
rounding.

Rule-out games are solved in closed form.  There A = n and, with each
state's payoffs shifted by their maximum, E is all ones off the diagonal and
1 - beta_i on it (P = u - diag(d), one fine or one per state), with
beta_i = 1 - exp(-d_i / kappa), so (E^T p)_i = 1 - beta_i p_i and the program
is separable up to sum p = 1.  Its KKT conditions give, for a multiplier lambda,

    p_i = max(0, 1 / beta_i - mu_i / lambda),   (E^T p)_i = min(1, mu_i beta_i / lambda),

so the actions in use are those with mu_i beta_i < lambda: a prefix of the
states sorted by mu_i beta_i.  On the prefix of length m, sum p = 1 gives

    lambda_m = sum_{k <= m} mu_k / (sum_{k <= m} 1 / beta_k - 1),

and the condition mu_m beta_m < lambda_m holds for every m up to the
active count and for none beyond it, so the prefix is the longest one that
meets it: a water-fill, the shape of a Euclidean projection onto the
simplex (Duchi et al. 2008).  The fill and its certificate
c_a = sum_i mu_i / s_i - beta_a mu_a / s_a are priced from beta, but
s = E^T p is summed term by term, as Newton sums it: 1 - beta_i p_i would
cancel for a state whose own weight is near 1.  The least of these values
over every prior is closed-form too (``rule_out_minimum``).  Every other
game, and every closed-form row whose certificate fails to rounding, goes to
a log-barrier Newton method on p over the stack of remaining priors, which
stops each prior once its bound holds.  A prior it cannot certify raises.
"""

from __future__ import annotations

import functools
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
    steps: np.ndarray  # (B,) Newton steps taken, 0 for stay and closed-form rows


def _mix(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M for a stack of rows x, summed term by term in a fixed order, so
    a row rounds the same in a batch of any size (a BLAS product may not)."""
    out = x[:, :1] * M[0]
    for k in range(1, M.shape[0]):
        out += x[:, k : k + 1] * M[k]
    return out


def _barrier(E, mu, p, t) -> tuple[np.ndarray, np.ndarray]:
    """(E^T p) rows and the barrier objective sum mu log E^T p + t sum log p."""
    s = _mix(p, E)
    return s, (mu * np.log(s)).sum(axis=1) + t * np.log(p).sum(axis=1)


def _water_fill(E, top, beta, kappa: float, mu: np.ndarray, tol: float):
    """Closed-form values and action weights of a rule-out game at each
    prior row, with a mask of the rows whose certificate holds."""
    # Rows the formula cannot price (a zero in the prefix mass) come out
    # non-finite and fail the certificate.
    with np.errstate(all="ignore"):
        # mu_m beta_m < lambda_m, multiplied through by the prefix's
        # sum 1 / beta - 1 >= 0, on each prefix of the states sorted by
        # mu beta; the active set is the longest prefix that meets it.
        a, spread = mu * beta, 1.0 / beta
        order = np.argsort(a, axis=1)
        rows = np.arange(len(mu))[:, None]
        mass = np.cumsum(mu[rows, order], axis=1)
        excess = np.cumsum(spread[order], axis=1) - 1.0
        meets = mass > a[rows, order] * excess
        last = np.maximum(meets.sum(axis=1), 1) - 1
        # 1 / lambda for the active prefix.
        inv = (excess / mass)[rows[:, 0], last]
        p = np.maximum(0.0, spread - mu * inv[:, None])
        p /= p.sum(axis=1, keepdims=True)
        s = _mix(p, E)
        ratio = mu / s
        c = ratio.sum(axis=1, keepdims=True) - beta * ratio
        values = ((top + kappa * np.log(s)) * mu).sum(axis=1)
        certified = functools.reduce(np.maximum, c.T) - 1.0 <= tol
    return values, p, certified


def rule_out_minimum(fines, kappa: float) -> tuple[float, np.ndarray]:
    """The least informed value over every prior of the rule-out game with
    these fines, less the payment, and the prior mu-hat that attains it.

    By Sion's minimax theorem the minimum over priors equals the maximum
    over action weights p of min_i kappa log(1 - beta_i p_i).  Each term
    falls in p_i alone, so the optimum equalizes them at p_i proportional to
    1 / beta_i, which gives kappa log(1 - 1 / sum_i 1 / beta_i), attained at
    mu-hat = p.  It is evaluated on t = kappa beta, taken as d itself where
    d / kappa is below rounding, and on ratios to the smallest t, so no step
    overflows or divides by zero for any positive fines and kappa.
    """
    d = np.asarray(fines, dtype=float)
    # d / kappa, left at inf where exp(-d / kappa) already rounds beta to 1.
    x = np.divide(d, kappa, out=np.full(d.shape, np.inf), where=d / 64.0 < kappa)
    t = np.where(x < np.finfo(float).eps, d, -kappa * np.expm1(-x))
    ratio = t.min() / t
    total = ratio.sum()
    return float(kappa * np.log1p(-t.min() / kappa / total)), ratio / total


def _newton(E, top, kappa: float, mu: np.ndarray, tol: float):
    """Values, action weights and Newton steps taken at each prior row, by
    the log-barrier Newton method; raises where a row is not certified
    within _NEWTON_CAP steps."""
    B, A = mu.shape[0], E.shape[0]
    values, weights, steps = np.zeros(B), np.zeros((B, A)), np.zeros(B, dtype=int)
    outer = (E.T[:, :, None] * E.T[:, None, :]).reshape(-1, A * A)
    rows = np.arange(B)
    p = np.full((B, A), 1.0 / A)
    t = np.full(B, _T0)
    # On the central path c_a = 1 + t A - t / p_a, so t <= tol / A certifies.
    floor = 0.5 * tol / A
    for taken in range(_NEWTON_CAP + 1):
        s, phi = _barrier(E, mu, p, t)
        ratio = mu / s
        c = _mix(ratio, E.T)
        done = c.max(axis=1) - 1.0 <= tol
        if done.any():
            hit = rows[done]
            values[hit] = ((top + kappa * np.log(s[done])) * mu[done]).sum(axis=1)
            weights[hit] = p[done]
            steps[hit] = taken
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
            f"first {mu[0].tolist()}"
        )
    return values, weights, steps


def solve(P, kappa: float, priors) -> ShannonSolution:
    """Informed value of the game with payoff matrix P (actions x states) at
    each prior row, under the Shannon cost with weight kappa: staying put
    where that is certified, else the closed form for rule-out games, else
    Newton."""
    P = np.asarray(P, dtype=float)
    priors = np.asarray(priors, dtype=float)
    B, A = len(priors), P.shape[0]
    # kappa * (max c - 1) <= _GAP (1 + max|P|), in units of kappa.
    tol = _GAP * (1.0 + np.abs(P).max()) / kappa + _ROUNDING
    stay_pay = _mix(priors, P.T)
    announce = stay_pay.argmax(axis=1)
    here = np.arange(B), announce
    # Shift each state's payoffs by their maximum so E stays in (0, 1].
    top = P.max(axis=0)
    # Staying put is certified when every action's slope at the announce
    # action's unit weight, sum_i mu_i exp((P_ai - P_a*i) / kappa), is <= 1.  In a
    # rule-out game (P = top exactly off the diagonal, below it on it) a differs
    # from a* in states a and a* alone, so the steepest a has the least mu_a beta_a.
    rule_out = A == P.shape[1] and ((P == top) != np.eye(A, dtype=bool)).all()
    if rule_out:
        x = (np.diag(P) - top) / kappa
        beta, rise = -np.expm1(x), np.expm1(np.minimum(-x, 700.0))
        drop = priors * beta
        drop[here] = np.inf
        stay = priors[here] * rise[announce] - functools.reduce(np.minimum, drop.T) <= tol
    else:
        rise = np.expm1(np.minimum((P[None] - P[announce][:, None, :]) / kappa, 700.0))
        stay = (priors[:, None, :] * rise).sum(axis=2).max(axis=1) <= tol
    values, weights = stay_pay[here], np.zeros((B, A))
    weights[here] = 1.0
    steps = np.zeros(B, dtype=int)
    rows = np.flatnonzero(~stay)
    if len(rows):
        E = np.exp((P - top) / kappa)
        if rule_out:
            closed, p, certified = _water_fill(E, top, beta, kappa, priors[rows], tol)
            hit = rows[certified]
            values[hit], weights[hit], rows = closed[certified], p[certified], rows[~certified]
    if len(rows):
        values[rows], weights[rows], steps[rows] = _newton(E, top, kappa, priors[rows], tol)
    return ShannonSolution(values, weights, stay, steps)


def posteriors(P, kappa: float, mu: np.ndarray, p: np.ndarray):
    """The plan read off action weights p at prior mu: one posterior per
    action in use, x_a proportional to mu * E_a / (E^T p), with weight
    p_a c_a (p_a at the optimum).  Bayes-plausible by construction."""
    P = np.asarray(P, dtype=float)
    E = np.exp((P - P.max(axis=0)) / kappa)
    joint = p[:, None] * mu * E / (p @ E)
    w = joint.sum(axis=1)
    used = w > 0.0
    return joint[used] / w[used, None], w[used]
