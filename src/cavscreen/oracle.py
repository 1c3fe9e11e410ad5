"""Independent brute-force baselines.

Deliberately naive: exhaustive pair search and a textbook zero-sum LP.  These
share no code with the fast paths they validate and otherwise run only in
tests and the acceptance suite.  The one production use is ``lp_maximin``:
``uninformed_maximin`` solves it for games whose fine matrix is not diagonal,
such as the urn, where no closed form is coded.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import linprog

from .simplex import simplex_grid_array


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


class ConvexityReport(NamedTuple):
    convex: bool
    strict: bool


def convexity_probe(
    c: Callable[[np.ndarray], float], n: int, resolution: int
) -> ConvexityReport:
    """Midpoint-convexity scan of a potential on the simplex lattice.

    Tests every collinear triple (p - h, p, p + h) along coordinate-difference
    directions.  Convexity requires the midpoint to lie at or below the chord
    within 1e-9; strictness requires a 1e-12 margin on every interior triple.
    """
    fn = c.value if hasattr(c, "value") else c
    pts = simplex_grid_array(n, resolution)
    index = {tuple(np.rint(row * resolution).astype(int)): k for k, row in enumerate(pts)}
    values = np.array([fn(row) for row in pts])
    convex = True
    strict = True
    seen_interior = False
    for k, row in enumerate(pts):
        base = np.rint(row * resolution).astype(int)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                step = np.zeros(n, dtype=int)
                step[i] += 1
                step[j] -= 1
                lo = tuple(base - step)
                hi = tuple(base + step)
                if lo not in index or hi not in index:
                    continue
                chord = 0.5 * (values[index[lo]] + values[index[hi]])
                gap = chord - values[k]
                if gap < -1e-9:
                    convex = False
                interior = (base - step).min() > 0 and (base + step).min() > 0
                if interior:
                    seen_interior = True
                    if gap <= 1e-12:
                        strict = False
    if not seen_interior:
        strict = False
    return ConvexityReport(convex, strict and convex)
