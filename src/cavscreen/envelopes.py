"""Upper concave envelopes of sampled objectives on belief grids.

Two constructions back every optimal-learning computation:

* ``Envelope1d``: an upper-hull scan over sorted (x, f(x)) samples for
  two-state problems.  Exact on the grid, O(N) to build, O(log N) per query.
* ``SimplexEnvelope``: the lifted convex hull of grid samples for n >= 3,
  evaluated as a minimum over upper-facet planes.  Built once per objective,
  it answers whole-grid sweeps in vectorized batches.

``concavify_lp`` solves the defining linear program directly.  It is
dimension-agnostic, returns a basic optimal plan with at most n support
points, and doubles as the independent check on both hull constructions.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from .errors import EmptyGrid, InfeasibleBarycenter
from .simplex import Belief, PosteriorDistribution, belief2

# Weights below this are dropped from returned plans.
_WEIGHT_TOL = 1e-12
# A query this close to a grid point that attains the envelope is treated as
# locally concave: the returned plan degenerates to that point.
_CONTACT_TOL = 1e-9


class Envelope1d:
    """Upper concave envelope of f sampled on a sorted grid over [0, 1]."""

    def __init__(self, xs, fs):
        xs = np.asarray(xs, dtype=float)
        fs = np.asarray(fs, dtype=float)
        if xs.size == 0:
            raise EmptyGrid("empty 1-D envelope grid")
        if xs.size != fs.size:
            raise ValueError("grid and sample arrays must have equal length")
        if xs.size >= 2 and not (np.diff(xs) > 0).all():
            order = np.argsort(xs, kind="stable")
            xs, fs = xs[order], fs[order]
            if not (np.diff(xs) > 0).all():
                # Duplicate abscissae: keep the best sample at each point.
                keep_x, keep_f = [xs[0]], [fs[0]]
                for x, f in zip(xs[1:], fs[1:]):
                    if x == keep_x[-1]:
                        keep_f[-1] = max(keep_f[-1], f)
                    else:
                        keep_x.append(x)
                        keep_f.append(f)
                xs, fs = np.array(keep_x), np.array(keep_f)
        self.xs = xs
        self.fs = fs
        hull = []
        for j in range(xs.size):
            while len(hull) >= 2:
                i, k = hull[-2], hull[-1]
                # Drop k unless it rises strictly above the chord i -> j.
                if (fs[k] - fs[i]) * (xs[j] - xs[i]) <= (fs[j] - fs[i]) * (
                    xs[k] - xs[i]
                ):
                    hull.pop()
                else:
                    break
            hull.append(j)
        self.hull_idx = np.array(hull, dtype=int)
        self.hull_x = xs[self.hull_idx]
        self.hull_f = fs[self.hull_idx]

    def value(self, mu: float) -> float:
        return float(np.interp(mu, self.hull_x, self.hull_f))

    def values(self, mus) -> np.ndarray:
        return np.interp(np.asarray(mus, dtype=float), self.hull_x, self.hull_f)

    def split(self, mu: float) -> tuple[float, list[tuple[float, float]]]:
        """Envelope value at mu plus an optimal plan as [(grid x, weight), ...]
        with at most two entries."""
        if mu < self.hull_x[0] or mu > self.hull_x[-1]:
            raise InfeasibleBarycenter(
                f"query {mu} outside grid range [{self.hull_x[0]}, {self.hull_x[-1]}]"
            )
        j = int(np.searchsorted(self.hull_x, mu, side="left"))
        if j < self.hull_x.size and abs(self.hull_x[j] - mu) <= _WEIGHT_TOL:
            return float(self.hull_f[j]), [(float(self.hull_x[j]), 1.0)]
        a, b = j - 1, j
        xa, xb = self.hull_x[a], self.hull_x[b]
        wa = (xb - mu) / (xb - xa)
        value = wa * self.hull_f[a] + (1.0 - wa) * self.hull_f[b]
        # Locally concave at an on-grid query: stay put.
        k = int(np.searchsorted(self.xs, mu, side="left"))
        if (
            k < self.xs.size
            and abs(self.xs[k] - mu) <= _WEIGHT_TOL
            and self.fs[k] >= value - _CONTACT_TOL * (1.0 + abs(value))
        ):
            return float(self.fs[k]), [(float(self.xs[k]), 1.0)]
        plan = [(float(xa), float(wa)), (float(xb), float(1.0 - wa))]
        plan = [(x, w) for x, w in plan if w > _WEIGHT_TOL]
        total = sum(w for _, w in plan)
        plan = [(x, w / total) for x, w in plan]
        return float(value), plan


def concavify_1d(xs, fs, mu: float) -> tuple[float, PosteriorDistribution]:
    """Upper concave envelope of samples (xs, fs) at mu, with an optimal
    Bayes-plausible plan on at most two grid points.

    The scalar coordinate is the probability of the first of two states.
    """
    env = Envelope1d(xs, fs)
    value, plan = env.split(mu)
    support = [belief2(x) for x, _ in plan]
    weights = np.array([w for _, w in plan])
    if len(plan) == 1:
        # Represent "stay put" at the queried prior itself.
        prior = support[0]
    else:
        prior = belief2(mu)
    return value, PosteriorDistribution(support, weights, prior)


def _prune_plan(points: np.ndarray, weights: np.ndarray, prior: Belief):
    keep = weights > _WEIGHT_TOL
    pts = points[keep]
    w = weights[keep]
    w = w / w.sum()
    support = [Belief(row) for row in pts]
    return PosteriorDistribution(support, w, prior)


def concavify_lp(points, fs, mu: Belief) -> tuple[float, PosteriorDistribution]:
    """Concavification by linear programming.

    Maximizes sum_j p_j f(x_j) over weights p with barycenter mu.  Returns the
    optimum and a basic optimal plan (at most n support points).
    """
    pts = np.asarray(points, dtype=float)
    fvals = np.asarray(fs, dtype=float)
    if pts.size == 0:
        raise EmptyGrid("empty simplex envelope grid")
    if pts.ndim != 2 or pts.shape[0] != fvals.size:
        raise ValueError("points must be (N, n) with one sample per row")
    n = pts.shape[1]
    if mu.n != n:
        raise ValueError(f"query belief has {mu.n} states, grid has {n}")
    # Coordinate rows sum to the normalization row, so drop one coordinate.
    A_eq = np.vstack([pts[:, : n - 1].T, np.ones(pts.shape[0])])
    b_eq = np.append(mu.probs[: n - 1], 1.0)
    res = linprog(
        -fvals,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if res.status == 2:
        raise InfeasibleBarycenter(f"{mu} lies outside the grid's convex hull")
    if not res.success:
        raise RuntimeError(f"concavification LP failed: {res.message}")
    value = float(-res.fun)
    # Prefer the degenerate plan when the query is itself a grid point that
    # attains the optimum (ties broken toward no learning).
    diffs = np.abs(pts - mu.probs).max(axis=1)
    at_query = int(diffs.argmin())
    if diffs[at_query] <= _WEIGHT_TOL and fvals[at_query] >= value - _CONTACT_TOL * (
        1.0 + abs(value)
    ):
        return float(fvals[at_query]), PosteriorDistribution(
            (Belief(pts[at_query]),), np.array([1.0]), mu
        )
    return value, _prune_plan(pts, res.x, mu)


class SimplexEnvelope:
    """Upper concave envelope of f sampled on an (n-1)-simplex grid, n >= 3.

    Lifts each grid point (drop the last, dependent coordinate) by its sample
    value and takes the convex hull; the envelope is the pointwise minimum of
    the upper-facet planes.  An anchor point far below the samples keeps the
    hull full-dimensional even for affine data.
    """

    def __init__(self, points, fs):
        pts = np.asarray(points, dtype=float)
        fvals = np.asarray(fs, dtype=float)
        if pts.size == 0:
            raise EmptyGrid("empty simplex envelope grid")
        if pts.ndim != 2 or pts.shape[0] != fvals.size:
            raise ValueError("points must be (N, n) with one sample per row")
        self.points = pts
        self.fs = fvals
        self.n = pts.shape[1]
        free = pts[:, :-1]
        lifted = np.column_stack([free, fvals])
        spread = float(fvals.max() - fvals.min())
        anchor = np.append(free.mean(axis=0), fvals.min() - 10.0 * (spread + 1.0))
        hull = ConvexHull(np.vstack([lifted, anchor]))
        eq = hull.equations  # rows: [normal | offset], normal @ p + offset <= 0
        up = eq[:, self.n - 1] > 1e-12
        if not up.any():
            raise RuntimeError("degenerate hull: no upward-facing facets")
        # Plane form f(x) = alpha @ x_free + beta per upper facet.
        normals = eq[up]
        self._alpha = -normals[:, : self.n - 1] / normals[:, self.n - 1 : self.n]
        self._beta = -normals[:, -1] / normals[:, self.n - 1]

    def values(self, queries, chunk: int = 512) -> np.ndarray:
        """Envelope at each query belief row; min over facet planes, chunked."""
        q = np.asarray(queries, dtype=float)[:, : self.n - 1]
        out = np.empty(q.shape[0])
        for start in range(0, q.shape[0], chunk):
            block = q[start : start + chunk]
            planes = block @ self._alpha.T + self._beta
            out[start : start + chunk] = planes.min(axis=1)
        return out

    def value(self, mu: Belief) -> float:
        return float(self.values(mu.probs[None, :])[0])
