"""Belief-simplex primitives: beliefs, contracts, and distributions over posteriors.

All types are immutable after construction and safe to share between
parallel workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptySupport

# Hard invariant tolerance for closed-form arithmetic; grid-approximation
# comparisons elsewhere use 1e-6.
SUM_TOL = 1e-9
COORD_TOL = 1e-12


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


@dataclass(frozen=True)
class Contract:
    """Lump-sum payment u > 0 plus a single fine d > 0 levied when the
    announced impossible state realizes."""

    u: float
    d: float

    def __post_init__(self):
        if not self.u > 0:
            raise ValueError(f"payment u must be > 0, got {self.u}")
        if not self.d > 0:
            raise ValueError(f"fine d must be > 0, got {self.d}")

    def fines(self, n: int) -> np.ndarray:
        return np.full(n, float(self.d))


@dataclass(frozen=True, eq=False)
class GeneralizedContract:
    """Payment u > 0 with one fine per state, all > 0."""

    u: float
    fines_vec: np.ndarray

    def __init__(self, u: float, fines):
        arr = _frozen_array(fines)
        if not u > 0:
            raise ValueError(f"payment u must be > 0, got {u}")
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"need one fine per state (>= 2), got shape {arr.shape}")
        if not (arr > 0).all():
            raise ValueError("all fines must be > 0")
        object.__setattr__(self, "u", float(u))
        object.__setattr__(self, "fines_vec", arr)

    @property
    def n(self) -> int:
        return self.fines_vec.size

    def fines(self, n: int | None = None) -> np.ndarray:
        if n is not None and n != self.n:
            raise DimensionMismatch(f"contract has {self.n} fines, asked for {n}")
        return self.fines_vec

    def __repr__(self) -> str:
        inner = ", ".join(f"{d:.6g}" for d in self.fines_vec)
        return f"GeneralizedContract(u={self.u:.6g}, fines=[{inner}])"


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

    def is_degenerate(self, tol: float = COORD_TOL) -> bool:
        """True when all mass sits on a single posterior equal to the prior."""
        live = [b for b, w in zip(self.support, self.weights) if w > tol]
        return len(live) == 1 and np.abs(live[0].probs - self.prior.probs).max() <= tol

    def __len__(self) -> int:
        return len(self.support)


def degenerate(prior: Belief) -> PosteriorDistribution:
    """The no-learning plan: all mass on the prior itself."""
    return PosteriorDistribution((prior,), np.array([1.0]), prior)


def min_prob(b: Belief) -> float:
    """Smallest coordinate of a belief; the best achievable expected-fine rate."""
    return float(b.probs.min())


def barycenter(F: PosteriorDistribution) -> Belief:
    """Mean posterior of F; equals F.prior for any valid distribution."""
    if not F.support:
        raise EmptySupport("empty posterior distribution")
    mean = F.weights @ F.support_matrix
    return Belief(mean)


def simplex_grid_array(n: int, resolution: int) -> np.ndarray:
    """(N, n) array of all beliefs whose coordinates are multiples of
    1/resolution, enumerated in lexicographic order. N = C(resolution+n-1, n-1)."""
    if n < 2:
        raise ValueError("need n >= 2 states")
    if resolution < 2:
        raise ValueError("need resolution >= 2")
    # Stars and bars: divider positions among resolution + n - 1 slots.
    combos = np.array(
        list(itertools.combinations(range(resolution + n - 1), n - 1)), dtype=int
    )
    bounded = np.hstack(
        [
            np.full((combos.shape[0], 1), -1),
            combos,
            np.full((combos.shape[0], 1), resolution + n - 1),
        ]
    )
    counts = np.diff(bounded, axis=1) - 1
    return counts / float(resolution)


def distances(points: np.ndarray, center: np.ndarray, norm: str) -> np.ndarray:
    diff = points - center
    if norm == "euclidean":
        return np.sqrt((diff * diff).sum(axis=1))
    if norm == "sup":
        return np.abs(diff).max(axis=1)
    raise ValueError(f"unknown norm {norm!r} (use 'euclidean' or 'sup')")


def ball_grid(
    center: Belief, eta: float, resolution: int, norm: str = "euclidean"
) -> list[Belief]:
    """Lattice points within distance eta of center.

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
    return [Belief(row) for row in pts[inside]]
