"""Expert payoff functions induced by announcement contracts.

A contract pays ``u`` up front and fines the expert for announcements that
events later contradict.  Every such game is a ``DecisionProblem``: an
action-by-state matrix of expected fines, against which the expert at a
belief picks the cheapest action.  Its value maps a belief to the expert's
expected payoff under that action, before any learning costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .simplex import Belief, Contract, GeneralizedContract


@dataclass(frozen=True)
class DecisionProblem:
    """Announcement game with payoff u - min_a (F x)_a at belief x.

    ``fines`` maps a state count n to the (A, n) expected-fine matrix F,
    raising DimensionMismatch for a count the game cannot be played on;
    ``n`` is the state count when the game fixes one.
    """

    u: float
    fines: Callable[[int], np.ndarray]
    n: int | None = None

    def states(self, n: int | None = None) -> int:
        """The state count to play on: the game's own, or n when it has none."""
        if self.n is not None:
            if n is not None and n != self.n:
                raise ValueError(f"game fixes n={self.n}, got n={n}")
            return self.n
        if n is None:
            raise ValueError("state count required for a common-fine contract")
        return n

    def value(self, belief: Belief) -> float:
        return float(self.u - (self.fines(belief.n) @ belief.probs).min())

    def batch(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self.u - (pts @ self.fines(pts.shape[1]).T).min(axis=1)

    def announce(self, belief: Belief) -> int:
        """Index of the action the expert takes, ties to the lowest index."""
        return int(np.argmin(self.fines(belief.n) @ belief.probs))


def SimpleAnnouncement(contract: Contract | GeneralizedContract) -> DecisionProblem:
    """Rule-out-one-state game: announcing i costs d_i x_i, F = diag(d)."""
    return DecisionProblem(
        contract.u,
        lambda n: np.diag(contract.fines(n)),
        getattr(contract, "n", None),
    )


_URN_MISSES = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])


def UrnDraw(contract: Contract) -> DecisionProblem:
    """Color-calling game over a two-ball urn.

    States order the urn compositions (rr, rb, bb).  The expert commits to a
    color call for both draws (0 red, 1 black) and forfeits d/2 per miss, so
    F = (d/2) [[0, 1, 2], [2, 1, 0]].  With x = P(rr) and y = P(bb) the
    payoff is u - (d/2) min(1 + y - x, 1 + x - y), kinked along x = y.
    """
    if not isinstance(contract, Contract):
        raise ValueError("the urn game uses a common-fine contract")

    def fines(n: int) -> np.ndarray:
        if n != 3:
            raise DimensionMismatch("urn game requires exactly 3 states")
        return 0.5 * contract.d * _URN_MISSES

    return DecisionProblem(contract.u, fines, 3)
