"""Cost-of-information models: priced experiment menus and posterior-separable costs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfinitePotential
from .experiments import Experiment
from .simplex import Belief, PosteriorDistribution


@dataclass(frozen=True)
class Potential:
    """Convex potential on the closed simplex.

    ``batch`` maps an (N, n) coordinate matrix to N values; it must be finite
    wherever the model needs it (both named potentials are finite everywhere
    on the closed simplex).
    """

    name: str
    batch: Callable[[np.ndarray], np.ndarray]

    def value(self, x: Belief | np.ndarray) -> float:
        pts = x.probs if isinstance(x, Belief) else np.asarray(x, dtype=float)
        return float(self.batch(pts[None, :])[0])

    def shifted(self, constant: float) -> "Potential":
        return Potential(
            f"{self.name}+{constant:g}", lambda pts: self.batch(pts) + constant
        )


def _neg_entropy_batch(pts: np.ndarray) -> np.ndarray:
    # 0 * ln 0 = 0 so full revelation stays finite.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pts > 0.0, pts * np.log(np.where(pts > 0.0, pts, 1.0)), 0.0)
    return terms.sum(axis=1)


def neg_entropy() -> Potential:
    """c(x) = sum_i x_i ln x_i, the negative Shannon entropy."""
    return Potential("neg-entropy", _neg_entropy_batch)


def quadratic() -> Potential:
    """c(x) = sum_i x_i^2."""
    return Potential("quadratic", lambda pts: (pts * pts).sum(axis=1))


def potential_by_name(name: str) -> Potential:
    table = {"neg-entropy": neg_entropy, "quadratic": quadratic}
    key = name.strip().lower().replace("_", "-")
    if key not in table:
        raise ValueError(f"unknown potential {name!r} (use neg-entropy or quadratic)")
    return table[key]()


@dataclass(frozen=True)
class FixedMenu:
    """Finite menu of priced experiments.  The null experiment is implicitly
    available at price 0; unlisted informative experiments are unavailable
    (infinite price)."""

    entries: tuple[tuple[Experiment, float], ...]

    def __init__(self, entries):
        entries = tuple((E, float(p)) for E, p in entries)
        for E, price in entries:
            if price < 0:
                raise ValueError(f"menu price must be >= 0, got {price}")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class PosteriorSeparable:
    """Cost kappa * E_F[c(x)] - kappa * c(prior) for a convex potential c."""

    kappa: float
    potential: Potential

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")


CostModel = FixedMenu | PosteriorSeparable


def distribution_cost(model: PosteriorSeparable, F: PosteriorDistribution) -> float:
    """Gamma(F) = kappa * sum_j w_j c(x_j) - kappa * c(prior); >= 0 by Jensen."""
    values = model.potential.batch(F.support_matrix)
    if not np.isfinite(values).all():
        raise InfinitePotential(
            f"potential {model.potential.name!r} is infinite on a support point"
        )
    base = model.potential.value(F.prior)
    if not math.isfinite(base):
        raise InfinitePotential(
            f"potential {model.potential.name!r} is infinite at the prior"
        )
    return model.kappa * float(F.weights @ values) - model.kappa * base
