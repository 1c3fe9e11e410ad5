"""Belief-simplex primitives: beliefs, contracts, and distributions over posteriors.

All types are immutable after construction and safe to share between
parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySupport

# Hard invariant tolerance for closed-form arithmetic; grid-approximation
# comparisons elsewhere use 1e-6.
SUM_TOL = 1e-9
COORD_TOL = 1e-12
# Most coordinates (points times states) simplex_grid_array builds: 48 MB of
# floats, or 2,000,000 points at n = 3, where the default grid has 20,301.
GRID_CAP = 6_000_000


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Belief:
    """A point on the (n-1)-simplex: prior or posterior over n >= 2 states."""

    probs: np.ndarray

    def __init__(self, probs):
        arr = _frozen_array(probs)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"belief needs >= 2 states, got shape {arr.shape}")
        if arr.min() < -COORD_TOL:
            raise ValueError(f"negative probability {arr.min()!r} in belief")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"belief coordinates sum to {total!r}, not 1")
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return self.probs.size

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    def __iter__(self):
        return iter(self.probs.tolist())

    def __repr__(self) -> str:
        inner = ", ".join(f"{p:.6g}" for p in self.probs)
        return f"Belief([{inner}])"


def belief2(x: float) -> Belief:
    """Two-state belief (x, 1-x) from the probability of the first state."""
    return Belief([x, 1.0 - x])


def uniform_belief(n: int) -> Belief:
    return Belief(np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class Contract:
    """Payment u > 0 plus fines > 0 for announcements that events contradict.

    ``d`` is one common fine, played on any state count (``n`` is None), or
    one fine per state (``n = len(d)``).
    """

    u: float
    d: float | np.ndarray

    def __init__(self, u: float, d):
        arr = _frozen_array(d)
        if not u > 0:
            raise ValueError(f"payment u must be > 0, got {u}")
        if arr.ndim > 1 or arr.ndim == 1 and arr.size < 2:
            raise ValueError(f"d is one fine or one per state (>= 2), got shape {arr.shape}")
        if not (arr > 0).all():
            raise ValueError(f"fines must be > 0, got {d}")
        object.__setattr__(self, "u", float(u))
        object.__setattr__(self, "d", float(arr) if arr.ndim == 0 else arr)

    @property
    def n(self) -> int | None:
        """The state count the fines fix, or None for a common fine."""
        return None if isinstance(self.d, float) else self.d.size

    def fines(self, n: int | None = None) -> np.ndarray:
        """The fine on each of n states; n may be left out when the contract fixes it."""
        if self.n is None:
            if n is None:
                raise ValueError("state count n required for a common-fine contract")
            return np.full(n, self.d)
        if n is not None and n != self.n:
            raise DimensionMismatch(f"contract has {self.n} fines, asked for {n}")
        return self.d


@dataclass(frozen=True, eq=False)
class PosteriorDistribution:
    """Finitely supported, Bayes-plausible distribution over posterior beliefs."""

    support: tuple[Belief, ...]
    weights: np.ndarray
    prior: Belief

    def __init__(self, support, weights, prior: Belief):
        support = tuple(support)
        if not support:
            raise EmptySupport("posterior distribution needs a nonempty support")
        w = _frozen_array(weights)
        if w.size != len(support):
            raise ValueError("one weight per support point required")
        if w.min() < -COORD_TOL:
            raise ValueError(f"negative weight {w.min()!r}")
        if abs(float(w.sum()) - 1.0) > SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        n = prior.n
        mean = np.zeros(n)
        for b, wj in zip(support, w):
            if b.n != n:
                raise DimensionMismatch("support point dimension differs from prior")
            mean += wj * b.probs
        if np.abs(mean - prior.probs).max() > SUM_TOL:
            raise ValueError(
                f"not Bayes-plausible: mean posterior {mean} != prior {prior.probs}"
            )
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "prior", prior)

    @property
    def support_matrix(self) -> np.ndarray:
        return np.vstack([b.probs for b in self.support])

    def is_degenerate(self) -> bool:
        """True when all mass sits on a single posterior equal to the prior."""
        live = [b for b, w in zip(self.support, self.weights) if w > COORD_TOL]
        return len(live) == 1 and np.abs(live[0].probs - self.prior.probs).max() <= COORD_TOL

    def __len__(self) -> int:
        return len(self.support)


def degenerate(prior: Belief) -> PosteriorDistribution:
    """The no-learning plan: all mass on the prior itself."""
    return PosteriorDistribution((prior,), np.array([1.0]), prior)


def simplex_grid_array(n: int, resolution: int) -> np.ndarray:
    """(N, n) array of all beliefs whose coordinates are multiples of
    1/resolution, enumerated in lexicographic order. N = C(resolution+n-1, n-1).

    Raises ValueError, before allocating, when N * n exceeds ``GRID_CAP``."""
    if n < 2:
        raise ValueError("need n >= 2 states")
    if resolution < 2:
        raise ValueError("need resolution >= 2")
    # N accumulates as C(resolution+k, k), k < n, and stops once past the cap.
    points = 1
    for k in range(1, n):
        points = points * (resolution + k) // k
        if points * n > GRID_CAP:
            raise ValueError(
                f"a grid of resolution {resolution} on {n} states exceeds "
                f"{GRID_CAP:,} coordinates"
            )
    return _lattice_counts(n, resolution) / float(resolution)


def _lattice_counts(n: int, resolution: int) -> np.ndarray:
    """(N, n) integer rows summing to resolution, in lexicographic order: each pass fans
    a partial row out over every count its next coordinate can take; the last is the rest."""
    rows, left = np.zeros((1, 0), dtype=int), np.array([resolution])
    for _ in range(n - 1):
        fan = left + 1
        count = np.arange(fan.sum()) - np.repeat(np.cumsum(fan) - fan, fan)
        rows = np.column_stack([np.repeat(rows, fan, axis=0), count])
        left = np.repeat(left, fan) - count
    return np.column_stack([rows, left])


def distances(points: np.ndarray, center: np.ndarray, norm: str) -> np.ndarray:
    diff = points - center
    if norm == "euclidean":
        return np.sqrt((diff * diff).sum(axis=1))
    if norm == "sup":
        return np.abs(diff).max(axis=1)
    raise ValueError(f"unknown norm {norm!r} (use 'euclidean' or 'sup')")


def ball_grid(
    center: Belief, eta: float, resolution: int, norm: str = "euclidean"
) -> np.ndarray:
    """(k, n) lattice rows within distance eta of center, in lattice order.

    The norm is measured on the full coordinate vector; never empty (the
    nearest lattice point to the center is always included).
    """
    if not eta > 0:
        raise ValueError(f"radius eta must be > 0, got {eta}")
    pts = simplex_grid_array(center.n, resolution)
    dist = distances(pts, center.probs, norm)
    inside = dist <= eta
    if not inside.any():
        inside[int(dist.argmin())] = True
    return pts[inside]
