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

so the actions in use are the states of least mu_i beta_i.  On the prefix
of state j, the states k with mu_k beta_k <= mu_j beta_j, sum p = 1 gives

    lambda_j = sum_k mu_k / (sum_k 1 / beta_k - 1),

and along the order each prefix's lambda is a mediant of the last one's and
the added mu_j beta_j, so it falls while the added states are in use and
rises after: the active prefix is the one of least lambda (tied states enter
together), a water-fill shaped like a Euclidean projection onto the simplex
(Duchi et al. 2008).  The fill and its certificate
c_a = sum_i mu_i / s_i - beta_a mu_a / s_a are priced from beta, but
s = E^T p is summed term by term, as Newton sums it: 1 - beta_i p_i would
cancel for a state whose own weight is near 1.  The least of these values
over every prior is closed-form too (``rule_out_minimum``).  Every other
game, and every closed-form row whose certificate fails to rounding, goes to
a log-barrier Newton method on p over the stack of remaining priors, which
stops each prior once its bound holds.  A prior it cannot certify raises.

Inside, stacks are state-major: priors (n, B) and weights (A, B), B = 1 as
(n, 1), so a reduction over states or actions is a pass over whole rows
(numpy reduces a short last axis one row at a time), summed in index order
at any B, and the prefixes come from the (n, n, B) comparison of mu beta,
with no sort.  ``solve`` takes (B, n) priors and returns (B, A) weights.
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
    E: np.ndarray | None  # (A, n) shifted exp(P / kappa); None where every prior stays
    s: np.ndarray  # (B, n) the certified E^T p at each learning prior, NaN where it stays


def _total(x: np.ndarray) -> np.ndarray:
    """Sum over the first axis in index order: numpy adds 8 or more terms on
    a contiguous axis, as in a (k, 1) stack, pairwise; below 8 both agree."""
    return x.sum(axis=0) if len(x) < 8 else functools.reduce(np.add, x)


def _mix(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M^T x for a stack x of columns, summed term by term in a fixed order, so
    a column rounds the same in a batch of any size (a BLAS product may not)."""
    out = M[0][:, None] * x[0]
    for k in range(1, M.shape[0]):
        out += M[k][:, None] * x[k]
    return out


def _barrier(E, mu, p, t) -> tuple[np.ndarray, np.ndarray]:
    """E^T p columns and the barrier objective sum mu log E^T p + t sum log p."""
    s = _mix(E, p)
    return s, _total(mu * np.log(s)) + t * _total(np.log(p))


def _water_fill(E, beta, mu: np.ndarray, tol: float):
    """Closed-form action weights and E^T p of a rule-out game at each prior
    column, with a mask of the columns whose certificate holds."""
    # j's prefix holds the states k with mu_k beta_k <= mu_j beta_j; the active
    # one has the least lambda = mass / excess.  Columns with a zero mass come
    # out non-finite and fail the certificate.
    with np.errstate(all="ignore"):
        key, spread = mu * beta[:, None], 1.0 / beta
        prefix = key[:, None] <= key[None]
        mass = _total(prefix * mu[:, None])
        excess = _total(prefix * spread[:, None, None]) - 1.0
        inv = (excess / mass).max(axis=0)
        p = np.maximum(0.0, spread[:, None] - mu * inv)
        p /= _total(p)
        s = _mix(E, p)
        ratio = mu / s
        c = _total(ratio) - beta[:, None] * ratio
        certified = c.max(axis=0) - 1.0 <= tol
    return p, s, certified


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


def _newton(E, mu: np.ndarray, tol: float):
    """Action weights, E^T p and Newton steps taken at each prior column, by
    the log-barrier Newton method; raises where one is not certified."""
    (n, B), A = mu.shape, E.shape[0]
    weights, shares, steps = np.zeros((A, B)), np.zeros((n, B)), np.zeros(B, dtype=int)
    outer = (E.T[:, :, None] * E.T[:, None, :]).reshape(-1, A * A)
    cols, p, t = np.arange(B), np.full((A, B), 1.0 / A), np.full(B, _T0)
    # On the central path c_a = 1 + t A - t / p_a, so t <= tol / A certifies.
    floor = 0.5 * tol / A
    for taken in range(_NEWTON_CAP + 1):
        s, phi = _barrier(E, mu, p, t)
        ratio = mu / s
        c = _mix(E.T, ratio)
        done = c.max(axis=0) - 1.0 <= tol
        if done.any():
            hit = cols[done]
            weights[:, hit], shares[:, hit], steps[hit] = p[:, done], s[:, done], taken
            keep = ~done
            cols, mu, p, t, s, phi, ratio, c = (
                x.compress(keep, axis=-1) for x in (cols, mu, p, t, s, phi, ratio, c))
        if not len(cols):
            break
        # Newton step on the simplex: S = -Hessian, and the multiplier of
        # sum p = 1 comes from S^-1 g and S^-1 1 (the Schur complement).
        g = c + t / p
        S = _mix(outer, ratio / s)
        S[:: A + 1] += t / p**2
        rhs = np.stack([g.T, np.ones_like(g.T)], axis=2)
        sol, unit = np.linalg.solve(S.T.reshape(-1, A, A), rhs).transpose(2, 1, 0)
        nu = _total(sol) / _total(unit)
        step = sol - nu * unit
        decrement = _total(step * g)
        # Largest step keeping p > 0, then backtracking on the barrier objective.
        with np.errstate(divide="ignore"):
            reach = np.where(step < 0.0, -p / step, np.inf).min(axis=0)
        alpha = np.minimum(1.0, 0.95 * reach)
        trust = decrement <= _QUADRATIC * (1.0 + np.abs(phi))
        for _ in range(_HALVINGS):
            _, trial = _barrier(E, mu, p + alpha * step, t)
            bad = ~trust & (trial < phi + _ARMIJO * alpha * decrement)
            if not bad.any():
                break
            alpha = np.where(bad, 0.5 * alpha, alpha)
        p = p + alpha * step
        p /= _total(p)
        t = np.where(decrement < _CENTERED * t, np.maximum(_SHRINK * t, floor), t)
    else:
        raise NotCertified(f"{len(cols)} priors not certified within {_NEWTON_CAP} Newton "
                           f"steps, first {mu[:, 0].tolist()}")
    return weights, shares, steps


def solve(P, kappa: float, priors) -> ShannonSolution:
    """Informed value of the game with payoff matrix P (actions x states) at each
    prior row, under the Shannon cost with weight kappa: staying put where that
    is certified, else the closed form for rule-out games, else Newton."""
    P = np.asarray(P, dtype=float)
    mu = np.ascontiguousarray(np.asarray(priors, dtype=float).T)
    (n, B), A = mu.shape, P.shape[0]
    # kappa * (max c - 1) <= _GAP (1 + max|P|), in units of kappa.
    tol = _GAP * (1.0 + np.abs(P).max()) / kappa + _ROUNDING
    stay_pay = _mix(P.T, mu)
    announce = stay_pay.argmax(axis=0)
    here = announce, np.arange(B)
    # Shift each state's payoffs by their maximum so E stays in (0, 1].
    top = P.max(axis=0)
    # Staying put is certified when every action's slope at the announce
    # action's unit weight, sum_i mu_i exp((P_ai - P_a*i) / kappa), is <= 1.  In a
    # rule-out game (P = top exactly off the diagonal, below it on it) a differs
    # from a* in states a and a* alone, so the steepest a has the least mu_a beta_a.
    rule_out = A == n and ((P == top) != np.eye(A, dtype=bool)).all()
    if rule_out:
        x = (np.diag(P) - top) / kappa
        beta, rise = -np.expm1(x), np.expm1(np.minimum(-x, 700.0))
        drop = mu * beta[:, None]
        drop[here] = np.inf
        stay = mu[here] * rise[announce] - drop.min(axis=0) <= tol
    else:
        rise = np.expm1(np.minimum((P.T[:, :, None] - P[announce].T[:, None]) / kappa, 700.0))
        stay = _total(mu[:, None] * rise).max(axis=0) <= tol
    values, weights = stay_pay[here], np.zeros((A, B))
    weights[here] = 1.0
    steps, E, s = np.zeros(B, dtype=int), None, np.full((n, B), np.nan)
    cols = np.flatnonzero(~stay)
    if len(cols):
        E = np.exp((P - top) / kappa)
        if rule_out:  # Newton overwrites the columns whose certificate fails
            fill = _water_fill(E, beta, mu.take(cols, axis=1), tol)
            weights[:, cols], s[:, cols], certified = fill
            cols = cols[~certified]
        if len(cols):
            weights[:, cols], s[:, cols], steps[cols] = _newton(E, mu.take(cols, axis=1), tol)
        # NaN in the stay columns, which keep their stay values.
        values = np.where(stay, values, _total((top[:, None] + kappa * np.log(s)) * mu))
    return ShannonSolution(values, weights.T, stay, steps, E, s.T)


def posteriors(solution: ShannonSolution, row: int, mu: np.ndarray):
    """The plan read off a learning row of a solution: one posterior per action
    in use, x_a proportional to mu * E_a / s with the certified s = E^T p, and
    weight p_a c_a (p_a at the optimum).  Bayes-plausible by construction."""
    joint = solution.weights[row][:, None] * mu * solution.E / solution.s[row]
    w = joint.sum(axis=1)
    used = w > 0.0
    return joint[used] / w[used, None], w[used]
