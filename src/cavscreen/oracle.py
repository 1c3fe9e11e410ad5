"""Independent brute-force baselines.

Deliberately naive: exhaustive pair search and a textbook zero-sum LP.  These
share no code with the fast paths they validate and run only in tests and the
acceptance suite, as does ``envelopes.concavify_lp``; no production path
solves an LP.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import linprog


def brute_force_two_point_search(
    f: Callable[[float], float], prior: float, resolution: int
) -> float:
    """Best value at ``prior`` over all splits onto two grid points of [0, 1].

    Scans every pair (a, b) with a <= prior <= b, including the degenerate
    pair at the nearest grid point.  O(resolution^2).
    """
    if not 0.0 <= prior <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {prior}")
    xs = [k / resolution for k in range(resolution + 1)]
    fs = [f(x) for x in xs]
    best = -float("inf")
    lefts = [k for k in range(len(xs)) if xs[k] <= prior]
    rights = [k for k in range(len(xs)) if xs[k] >= prior]
    for a in lefts:
        for b in rights:
            if xs[b] <= xs[a]:
                # A degenerate split is Bayes-plausible only at the prior itself.
                if xs[a] == prior and xs[b] == prior and fs[a] > best:
                    best = fs[a]
                continue
            w = (xs[b] - prior) / (xs[b] - xs[a])
            value = w * fs[a] + (1.0 - w) * fs[b]
            if value > best:
                best = value
    return best


class MaximinSolution(NamedTuple):
    value: float
    strategy: np.ndarray


def lp_maximin(payoffs: np.ndarray) -> MaximinSolution:
    """Zero-sum maximin over an announcements x states payoff matrix.

    Solves max_{sigma, t} t subject to sum_i sigma_i payoff(i, theta) >= t
    for every state theta, with sigma a probability vector.
    """
    P = np.asarray(payoffs, dtype=float)
    if P.ndim != 2:
        raise ValueError(f"payoff matrix required, got shape {P.shape}")
    m, n = P.shape
    # Variables: sigma_1..sigma_m, t.  Minimize -t.
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-P.T, np.ones((n, 1))])  # t - sigma @ P[:, theta] <= 0
    b_ub = np.zeros(n)
    A_eq = np.hstack([np.ones((1, m)), np.zeros((1, 1))])
    b_eq = np.array([1.0])
    bounds = [(0.0, 1.0)] * m + [(None, None)]
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"maximin LP failed: {res.message}")
    return MaximinSolution(float(-res.fun), res.x[:m])
