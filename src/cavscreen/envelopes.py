"""Upper concave envelopes of sampled objectives on belief grids.

Three constructions back every grid-priced informed value:

* ``Envelope1d``: the upper hull of (x, f(x)) samples for two-state
  problems, read off the antitonic regression of the sample slopes and
  cleared of collinear vertices.  Exact on the grid.  ``values`` answers
  sweeps and ``split`` one prior, with a plan.
* ``SimplexEnvelope``: the lifted convex hull of grid samples for n >= 3,
  evaluated as a minimum over the upper-facet planes whose facets lie near
  the queries.  Exact on the hull of the grid.  It answers sweeps.
* ``concavify_walk``: the simplex method on the plan weights at one prior
  on n >= 3 states, with a plan.

Plans hold at most n grid points.  ``split`` and the LP break ties toward
staying put; the walk leaves that to its caller (``informed._at_prior``).
``concavify_lp`` solves the same linear program with HiGHS; it only checks
the other three.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.optimize import isotonic_regression, linprog
from scipy.spatial import ConvexHull

from .errors import EmptyGrid, InfeasibleBarycenter, NotCertified
from .simplex import Belief, PosteriorDistribution, belief2, degenerate

# Weights below this are dropped from returned plans.
_WEIGHT_TOL = 1e-12
# A query this close to a grid point that attains the envelope is treated as
# locally concave: the returned plan degenerates to that point.
_CONTACT_TOL = 1e-9
# concavify_walk stops once no reduced cost exceeds _PRICE_TOL (1 + max|f|).
# After _STALL_PIVOTS pivots of zero length in a row it pivots by Bland's
# rule until one moves, and it gives up after _MAX_PIVOTS pivots in all.
_PRICE_TOL = 1e-13
_STALL_PIVOTS = 50
_MAX_PIVOTS = 10_000
# Query rows per block in SimplexEnvelope.values.  Each block is evaluated
# on the facets whose bounding box meets the block's, so blocks of nearby
# rows (callers pass lattice rows in order) keep that candidate set small.
_CHUNK = 512


class Envelope1d:
    """Upper concave envelope of f sampled at points x of [0, 1], the first
    coordinate of a two-state belief.  Samples may come in any order; of
    samples at one x, the best counts."""

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
            # The first sample of each run of equal x, and the best of the run.
            starts = np.flatnonzero(np.diff(xs, prepend=-np.inf) > 0)
            xs, fs = xs[starts], np.maximum.reduceat(fs, starts)
        self.xs = xs
        self.fs = fs
        self.hull_idx = _upper_hull(xs, fs)
        self.hull_x = xs[self.hull_idx]
        self.hull_f = fs[self.hull_idx]

    def value(self, mu: float) -> float:
        return float(np.interp(mu, self.hull_x, self.hull_f))

    def values(self, mus) -> np.ndarray:
        return np.interp(np.asarray(mus, dtype=float), self.hull_x, self.hull_f)

    def split(self, mu: Belief) -> tuple[float, PosteriorDistribution]:
        """Envelope value at mu and an optimal plan on at most two grid points:
        mu's weights on the hull vertices on either side of it.

        Ties break toward no learning here; ``concavify_walk`` leaves them to
        its caller, ``informed._at_prior``.
        """
        x = mu[0]
        if not self.hull_x[0] <= x <= self.hull_x[-1]:
            raise InfeasibleBarycenter(
                f"query {x} outside grid range [{self.hull_x[0]}, {self.hull_x[-1]}]"
            )
        value = self.value(x)
        if _contact(self.xs, self.fs, x, value) is not None:
            return value, degenerate(mu)
        right = int(np.searchsorted(self.hull_x, x))
        xa, xb = self.hull_x[right - 1], self.hull_x[right]
        wa = (xb - x) / (xb - xa)
        points = np.array([[xa, 1.0 - xa], [xb, 1.0 - xb]])
        return value, _prune_plan(points, np.array([wa, 1.0 - wa]), mu)


def _upper_hull(xs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """Vertex indices of the least concave majorant of samples at strictly
    increasing xs.

    The majorant's slopes are the antitonic regression of the sample slopes,
    weighted by spacing, and each pooled block of slopes is one hull edge,
    so the vertices are the block starts and the last sample.  Vertices that
    do not rise strictly above the chord between their neighbours (collinear
    points, or slopes apart only by rounding) are then dropped, a few at a
    time and never two neighbours at once, until none is left.
    """
    if xs.size <= 2:
        return np.arange(xs.size)
    dx = np.diff(xs)
    hull = isotonic_regression(np.diff(fs) / dx, weights=dx, increasing=False).blocks
    while hull.size > 2:
        i, k, j = hull[:-2], hull[1:-1], hull[2:]
        drop = (fs[k] - fs[i]) * (xs[j] - xs[i]) <= (fs[j] - fs[i]) * (xs[k] - xs[i])
        if not drop.any():
            break
        # Of each run of neighbours to drop, drop every other one, from the first.
        at = np.arange(drop.size)
        run_pos = at - np.maximum.accumulate(np.where(drop, -1, at))
        drop &= run_pos % 2 == 1
        hull = np.delete(hull, 1 + np.flatnonzero(drop))
    return hull


def concavify_1d(xs, fs, mu: float) -> tuple[float, PosteriorDistribution]:
    """Upper concave envelope of samples (xs, fs) at mu, with an optimal
    Bayes-plausible plan on at most two grid points.

    The scalar coordinate is the probability of the first of two states.
    """
    return Envelope1d(xs, fs).split(belief2(mu))


def _contact(points, fs, query, value) -> int | None:
    """Index of the sample at the query (one sample per row of ``points``,
    or per entry if 1-D) when it reaches the envelope ``value`` there, so
    that staying put is optimal; else None.

    Only rows whose first coordinate lies within tolerance of the query's
    can be within it in the max-norm, so the scan starts from those; they
    keep their order, so ties still go to the first row."""
    points = np.asarray(points).reshape(len(points), -1)
    query = np.reshape(query, -1)
    near = np.flatnonzero(np.abs(points[:, 0] - query[0]) <= _WEIGHT_TOL)
    if not near.size:
        return None
    diffs = np.abs(points[near] - query).max(axis=1)
    best = int(diffs.argmin())
    at = int(near[best])
    if diffs[best] <= _WEIGHT_TOL and fs[at] >= value - _CONTACT_TOL * (1.0 + abs(value)):
        return at
    return None


def _prune_plan(points: np.ndarray, weights: np.ndarray, prior: Belief):
    keep = weights > _WEIGHT_TOL
    w = weights[keep]
    return PosteriorDistribution(points[keep], w / w.sum(), prior)


def concavify_lp(points, fs, mu: Belief) -> tuple[float, PosteriorDistribution]:
    """Concavification by linear programming.

    Maximizes sum_j p_j f(x_j) over weights p with barycenter mu.  Returns the
    optimum and a basic optimal plan (at most n support points).  Solved as
    the dual, the lowest affine majorant at mu; the weights are its multipliers.
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
    # The majorant is lam . x[:n-1] + c (coordinates sum to one) and must
    # reach every sample.
    A_ub = -np.hstack([pts[:, : n - 1], np.ones((pts.shape[0], 1))])
    c = np.append(mu.probs[: n - 1], 1.0)
    res = linprog(c, A_ub=A_ub, b_ub=-fvals, bounds=(None, None), method="highs")
    # An unbounded dual is an infeasible primal.
    if res.status == 3:
        raise InfeasibleBarycenter(f"{mu} lies outside the grid's convex hull")
    if not res.success:
        raise RuntimeError(f"concavification LP failed: {res.message}")
    value = float(res.fun)
    # Ties break toward no learning.
    at = _contact(pts, fvals, mu.probs, value)
    if at is not None:
        return float(fvals[at]), degenerate(mu)
    return value, _prune_plan(pts, -res.ineqlin.marginals, mu)


def concavify_walk(points, fs, mu: Belief) -> tuple[float, PosteriorDistribution]:
    """Concavification at one prior by the primal simplex method on the plan
    weights, from the unit vertices of mu's face (which the samples must
    hold) with weights mu; samples off that face are never priced.

    Each pivot inverts the basis once, prices every sample against its plane
    in one product and lets the largest reduced cost enter; of the ratio
    test's ties, the sample whose weight falls fastest leaves.  Past a run of
    zero-length pivots, Bland's smallest-index pair is taken until one
    moves, so a degenerate prior cannot cycle.  Returns the optimum and a
    basic optimal plan (at most n points); the caller settles ties to staying put.
    """
    pts, g = np.asarray(points, dtype=float), np.asarray(fs, dtype=float)
    if pts.shape != (g.size, mu.n):
        raise ValueError(f"points must be (N, {mu.n}) with one sample per row")
    face, on = mu.probs > 0.0, slice(None)
    x, gx, target = pts, g, mu.probs
    if not face.all():
        off = (pts[:, k] == 0.0 for k in np.flatnonzero(~face))
        on = np.flatnonzero(functools.reduce(np.logical_and, off))
        x, gx, target = pts[on][:, face], g[on], mu.probs[face]
    m = len(target)
    hits = np.flatnonzero(x.ravel() == 1.0).tolist()
    basis = [next((h // m for h in hits if h % m == k), None) for k in range(m)]
    if None in basis:
        raise ValueError("the samples must hold the unit vertices of the prior's face")
    tol = _PRICE_TOL * (1.0 + float(np.abs(gx).max()))
    stalled, reduced = 0, np.empty_like(gx)
    for _ in range(_MAX_PIVOTS):
        inverse = np.linalg.inv(x[basis])
        np.matmul(x, inverse @ gx[basis], out=reduced)
        np.subtract(gx, reduced, out=reduced)
        enter = int(reduced.argmax())
        if reduced[enter] <= tol:
            break
        bland = stalled >= _STALL_PIVOTS
        if bland:
            enter = int((reduced > tol).argmax())
        weights, step = (target @ inverse).tolist(), (x[enter] @ inverse).tolist()
        ratios = [
            (w if w > _WEIGHT_TOL else 0.0) / s if s > _WEIGHT_TOL else np.inf
            for w, s in zip(weights, step)
        ]
        ties = [i for i, r in enumerate(ratios) if r == min(ratios)]
        leave = min(ties, key=basis.__getitem__) if bland else max(ties, key=step.__getitem__)
        basis[leave] = enter
        stalled = stalled + 1 if ratios[leave] == 0.0 else 0
    else:
        raise NotCertified(f"the concavification walk at {mu} took over {_MAX_PIVOTS} pivots")
    weights = target @ inverse
    return float(weights @ gx[basis]), _prune_plan(pts[on][basis], weights, mu)


class SimplexEnvelope:
    """Upper concave envelope of f sampled on an (n-1)-simplex grid, n >= 3.

    Lifts each grid point (drop the last, dependent coordinate) by its sample
    value and takes the convex hull; the envelope is the pointwise minimum of
    the upper-facet planes.  An anchor point far below the samples keeps the
    hull full-dimensional even for affine data.

    The envelope is defined on the convex hull of the grid points.  There
    every upper-facet plane lies on or above it and the plane of the facet
    holding a query meets it, so a minimum over any planes that include that
    one is exact.  ``values`` takes it over the facets whose bounding box (in
    the free coordinates) meets the query block's; the holding facet's box
    contains the query, so it is among them.
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
        # Vertex rows of each upper facet; none is the anchor, which lies
        # below the mean of the samples and so below every upper plane.
        self._facets = hull.simplices[up]
        self._alpha = -normals[:, : self.n - 1] / normals[:, self.n - 1 : self.n]
        self._beta = -normals[:, -1] / normals[:, self.n - 1]
        # Facet bounding boxes in the free coordinates, one row per
        # coordinate: (n - 1, facets) keeps each box test a contiguous pass.
        corners = free[self._facets.T]
        self._lo = np.ascontiguousarray(corners.min(axis=0).T)
        self._hi = np.ascontiguousarray(corners.max(axis=0).T)

    def values(self, queries) -> np.ndarray:
        """Envelope at each query belief row, in blocks of rows: the minimum
        over the planes of the facets whose boxes meet the block's box.

        Rows outside the hull of the grid points get no defined value; a
        block that meets no facet box reads +inf.
        """
        q = np.asarray(queries, dtype=float)[:, : self.n - 1]
        out = np.empty(q.shape[0])
        for start in range(0, q.shape[0], _CHUNK):
            block = q[start : start + _CHUNK]
            near = (
                (self._lo <= block.max(axis=0)[:, None]) & (self._hi >= block.min(axis=0)[:, None])
            ).all(axis=0)
            planes = block @ self._alpha[near].T + self._beta[near]
            out[start : start + _CHUNK] = planes.min(axis=1, initial=np.inf)
        return out
