"""Screening analysis: which contracts only informed experts accept.

A contract screens when every informed type keeps a nonnegative net value
while the uninformed type's value is strictly negative.  This module holds
the closed-form uninformed values, the grid verifier, and three contract
constructions: a certified payment/fine pipeline built from a valuability
probe, fines equalized against a target belief, and a lattice search that
drives the rejection measure of belief-holding uninformed types to 1 - xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .costs import CostModel, FixedMenu, PosteriorSeparable
from .errors import AssumptionViolated, BoundaryPrior, NoFeasibleU, SearchExhausted
from .experiments import upsilon
from .informed import default_resolution, informed_value_sweep
from .oracle import lp_maximin
from .simplex import (
    Belief,
    Contract,
    GeneralizedContract,
    ball_grid,
    distances,
    min_prob,
    simplex_grid_array,
    uniform_belief,
)
from .values import DecisionProblem, SimpleAnnouncement, UrnDraw

_Z95 = 1.96


class MaximinResult(NamedTuple):
    value: float
    strategy: np.ndarray


def uninformed_maximin(game: DecisionProblem, n: int | None = None) -> MaximinResult:
    """Guaranteed value of accepting with no belief and no learning.

    The expert mixes actions against an adversarial state.  In a rule-out
    game (diagonal fine matrix) equalizing sigma_i proportional to 1/d_i
    yields u - 1/sum_i(1/d_i), which is exactly u - d/n under a common fine;
    any other game solves the zero-sum LP.  Returns the value and the mixture.
    """
    F = game.fines(game.states(n))
    fines = np.diag(F)
    if not np.array_equal(F, np.diag(fines)):
        return MaximinResult(*lp_maximin(game.u - F))
    inv = 1.0 / fines
    if (fines == fines[0]).all():
        value = game.u - fines[0] / len(fines)
    else:
        value = game.u - 1.0 / inv.sum()
    return MaximinResult(value, inv / inv.sum())


# Game constructors by ``screens`` variant, and the outside types it prices.
VARIANTS = {"simple": SimpleAnnouncement, "urn": UrnDraw}
UNINFORMED = ("maximin", "seu")


@dataclass(frozen=True)
class ScreeningReport:
    """Grid verification of a contract against one cost model."""

    contract: Contract | GeneralizedContract
    n: int
    resolution: int
    uninformed_kind: str
    uninformed_value: float
    informed_min: float
    worst_prior: Belief
    prior_set: str = ""

    @property
    def screens(self) -> bool:
        return self.informed_min >= 0.0 and self.uninformed_value < 0.0

    def to_text(self) -> str:
        where = self.prior_set or f"simplex grid, resolution {self.resolution}"
        fines = ", ".join(f"{d:.6g}" for d in self.contract.fines(self.n))
        lines = [
            f"states: {self.n}   priors: {where}",
            f"contract: u={self.contract.u:.6g} fines=({fines})",
            f"uninformed ({self.uninformed_kind}): {self.uninformed_value:.6g}",
            f"informed min net: {self.informed_min:.6g} at {self.worst_prior}",
            f"screens: {'yes' if self.screens else 'no'}",
        ]
        return "\n".join(lines)


def screens(
    model: CostModel,
    contract: Contract | GeneralizedContract,
    n: int | None = None,
    *,
    grid: np.ndarray | None = None,
    resolution: int | None = None,
    uninformed: str = "maximin",
    rho: Belief | None = None,
    variant: str = "simple",
) -> ScreeningReport:
    """Verify the screening property on a belief grid.

    ``uninformed`` picks the outside type: "maximin" for a beliefless expert,
    "seu" for one holding belief ``rho``.  ``grid`` replaces the default
    simplex lattice with an explicit stack of priors.  ``variant`` picks the
    game both types play: "simple" rules out one state, "urn" plays color
    calls on three states.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    if uninformed not in UNINFORMED:
        raise ValueError(f"unknown uninformed kind: {uninformed!r}")
    if uninformed == "seu" and rho is None:
        raise ValueError("seu comparison needs the uninformed belief rho")
    game = VARIANTS[variant](contract)
    if isinstance(model, FixedMenu) and n is None and model.entries:
        n = model.entries[0][0].n
    n = game.states(n)
    resolution = resolution or default_resolution(n)
    if grid is None:
        points = simplex_grid_array(n, resolution)
        prior_set = f"simplex grid, resolution {resolution}"
    else:
        points = np.asarray(
            [mu.probs if isinstance(mu, Belief) else mu for mu in grid], dtype=float
        )
        prior_set = f"custom grid, {len(points)} priors"
    net = informed_value_sweep(model, game, points)
    worst = int(net.argmin())
    if uninformed == "maximin":
        outside = uninformed_maximin(game, n).value
    else:
        outside = game.value(rho)
    return ScreeningReport(
        contract=contract,
        n=n,
        resolution=resolution,
        uninformed_kind=uninformed,
        uninformed_value=outside,
        informed_min=float(net[worst]),
        worst_prior=Belief(points[worst]),
        prior_set=prior_set,
    )


@dataclass(frozen=True)
class AssumptionCertificate:
    """Witness that learning stays worthwhile near a prior.

    On the ball of radius eta around center, some affordable plan improves
    the worst announcement probability by more than epsilon at cost at most
    T.  Fines scaled against T/epsilon then make learning pay for itself.
    """

    epsilon: float
    T: float
    center: Belief
    eta: float
    norm: str
    resolution: int


def assumption_probe(
    model: CostModel,
    n: int | None = None,
    *,
    center: Belief | None = None,
    eta: float = 0.1,
    resolution: int | None = None,
    norm: str = "euclidean",
) -> AssumptionCertificate | None:
    """Search for a valuability certificate on a ball of priors.

    The ball sits around ``center`` (the uniform belief on ``n`` states when
    only ``n`` is given).  Menus are probed entry by entry; posterior-
    separable models are probed with the full-revelation plan, whose
    improvement is the smallest prior probability and whose cost is bounded
    on the ball.  Returns None when no strictly positive improvement is
    certifiable.
    """
    if center is None:
        if n is None:
            if isinstance(model, FixedMenu) and model.entries:
                n = model.entries[0][0].n
            else:
                raise ValueError("state count required when no center is given")
        center = uniform_belief(n)
    n = center.n
    resolution = resolution or default_resolution(n)
    ball = ball_grid(center, eta, resolution, norm=norm)
    if isinstance(model, FixedMenu):
        if not model.entries:
            return None
        best_ups = np.full(len(ball), -np.inf)
        best_price = np.zeros(len(ball))
        for experiment, price in model.entries:
            ups = np.array([upsilon(experiment, mu) for mu in ball])
            take = ups > best_ups
            best_ups[take] = ups[take]
            best_price[take] = price
        worst = float(best_ups.min())
        if worst <= 0.0:
            return None
        T = float(best_price.max())
    else:
        pts = np.array([mu.probs for mu in ball])
        vertex_cost = model.potential.batch(np.eye(n))
        cost = model.kappa * (pts @ vertex_cost - model.potential.batch(pts))
        if not np.isfinite(cost).all():
            return None
        worst = float(pts.min(axis=1).min())
        if worst <= 0.0:
            return None
        T = float(cost.max())
    return AssumptionCertificate(
        epsilon=0.99 * worst,
        T=T,
        center=center,
        eta=eta,
        norm=norm,
        resolution=resolution,
    )


class Construction(NamedTuple):
    contract: Contract
    certificate: AssumptionCertificate
    report: ScreeningReport


def _verify_assumption(
    model: CostModel, epsilon: float, T: float, ball: list[Belief]
) -> Belief | None:
    """First ball prior without an affordable plan improving by > epsilon,
    or None when every prior has one."""
    for mu in ball:
        if isinstance(model, FixedMenu):
            ok = any(
                price <= T and upsilon(experiment, mu) > epsilon
                for experiment, price in model.entries
            )
        else:
            vertex_cost = model.potential.batch(np.eye(mu.n))
            cost = model.kappa * float(
                mu.probs @ vertex_cost - model.potential.value(mu.probs)
            )
            ok = np.isfinite(cost) and cost <= T and min_prob(mu) > epsilon
        if not ok:
            return mu
    return None


def construct_screening_contract(
    model: CostModel,
    assumption: tuple[float, float, float] | None = None,
    *,
    center: Belief | None = None,
    eta: float = 0.1,
    margin: float = 0.05,
    resolution: int | None = None,
    norm: str = "euclidean",
    n: int | None = None,
) -> Construction:
    """Build a screening contract from a valuability certificate.

    ``assumption`` supplies (epsilon, eta, T) directly; it is verified on
    the ball grid, not assumed, and AssumptionViolated names the first prior
    where it fails.  Without it the probe computes a certificate.

    The fine is d = (1 + margin) T / epsilon, so certified learning near the
    center beats announcing outright by at least margin*T.  The payment is
    then bisected inside (d * q_out, d/n), where q_out bounds the worst
    announcement probability outside the ball: large enough that informed
    net value is nonnegative on the whole grid and strictly positive on the
    ball, small enough that the beliefless maximin u - d/n stays negative.
    """
    if center is None:
        if n is None:
            if isinstance(model, FixedMenu) and model.entries:
                n = model.entries[0][0].n
            else:
                raise ValueError("state count required when no center is given")
        center = uniform_belief(n)
    n = center.n
    resolution = resolution or default_resolution(n)
    if assumption is not None:
        epsilon, eta, T = (float(v) for v in assumption)
        if epsilon <= 0.0:
            raise AssumptionViolated("epsilon must be positive", prior=center)
        ball = ball_grid(center, eta, resolution, norm=norm)
        bad = _verify_assumption(model, epsilon, T, ball)
        if bad is not None:
            raise AssumptionViolated(
                f"no plan improves by more than {epsilon:.6g} at cost <= {T:.6g}",
                prior=bad,
            )
        certificate = AssumptionCertificate(
            epsilon=epsilon, T=T, center=center, eta=eta, norm=norm,
            resolution=resolution,
        )
    else:
        certificate = assumption_probe(
            model, center=center, eta=eta, resolution=resolution, norm=norm
        )
        if certificate is None:
            raise AssumptionViolated(
                "no valuability certificate on the probe ball", prior=center
            )
    if certificate.T > 0.0:
        d = (1.0 + margin) * certificate.T / certificate.epsilon
    else:
        # Free learning: any fine scale works, pick one matched to epsilon.
        d = (1.0 + margin) / certificate.epsilon
    grid = simplex_grid_array(n, resolution)
    in_ball = distances(grid, center.probs, norm) <= eta
    outside = grid[~in_ball]
    q_out = float(outside.min(axis=1).max()) if outside.size else 0.0
    hi = d / n
    lo = max(0.0, d * q_out)
    if lo >= hi:
        raise NoFeasibleU(f"payment window ({lo:.6g}, {hi:.6g}) is empty")
    # Net value is u plus a u-independent part, so one sweep prices every u.
    base = informed_value_sweep(model, SimpleAnnouncement(Contract(hi, d)), grid) - hi
    m_all = float(base.min())
    m_ball = float(base[in_ball].min()) if in_ball.any() else m_all

    def feasible(u: float) -> bool:
        return u + m_all >= 0.0 and u + m_ball > 0.0

    if not feasible(hi):
        raise NoFeasibleU("informed net value stays negative up to u = d/n")
    if feasible(lo):
        u_star = lo
    else:
        a, b = lo, hi
        for _ in range(80):
            mid = 0.5 * (a + b)
            if feasible(mid):
                b = mid
            else:
                a = mid
        u_star = b
    u = 0.5 * (u_star + hi)
    contract = Contract(u, d)
    report = screens(model, contract, n, resolution=resolution)
    return Construction(contract, certificate, report)


def prop2_contract(rho: Belief, u: float, d_last: float) -> GeneralizedContract:
    """Fines equalized against belief rho: d_i = (rho_n / rho_i) d_n.

    An uninformed expert holding rho is indifferent across announcements and
    nets u - rho_n * d_n; informed types keep slack wherever their belief
    departs from rho.
    """
    probs = rho.probs
    if probs.min() <= 0.0:
        raise BoundaryPrior("fines equalize only against an interior belief")
    fines = d_last * probs[-1] / probs
    return GeneralizedContract(u, fines)


class XiScreenResult(NamedTuple):
    contract: Contract
    rejection: float
    half_width: float
    informed_min: float
    samples: int


def binary_rejection_measure(contract: Contract) -> float:
    """Exact mass of two-state beliefs rho with u - d*min(rho) < 0 under a
    uniform draw of rho."""
    return float(np.clip(1.0 - 2.0 * contract.u / contract.d, 0.0, 1.0))


def rejection_measure_mc(
    contract: Contract | GeneralizedContract,
    n: int | None = None,
    *,
    samples: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo mass of uninformed beliefs that reject, with a 95%
    normal-approximation half-width.  Beliefs draw uniformly (flat Dirichlet)."""
    game = SimpleAnnouncement(contract)
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.ones(game.states(n)), size=samples)
    reject = game.batch(draws) < 0.0
    phat = float(reject.mean())
    half = _Z95 * np.sqrt(phat * (1.0 - phat) / samples)
    return phat, float(half)


def xi_screen_search(
    model: CostModel,
    xi: float,
    *,
    n: int = 2,
    resolution: int | None = None,
    samples: int = 100_000,
    seed: int = 0,
    fine_steps: int = 18,
    payment_steps: int = 48,
) -> XiScreenResult:
    """Find a common-fine contract rejected by all but xi of uninformed
    beliefs while every informed type keeps nonnegative net value.

    Scans log lattices, fines ascending and payments ascending within each
    fine, returning the first pair that passes the grid check and whose
    Monte Carlo rejection estimate clears 1 - xi by a full confidence
    half-width.  Raises SearchExhausted (carrying the best near miss) when
    the lattice holds no such pair.
    """
    if not 0.0 < xi <= 1.0:
        raise ValueError("xi must lie in (0, 1]")
    resolution = resolution or default_resolution(n)
    grid = simplex_grid_array(n, resolution)
    if isinstance(model, FixedMenu):
        scale = max((price for _, price in model.entries), default=0.0) + 1.0
    else:
        scale = model.kappa
    rng = np.random.default_rng(seed)
    min_draw = rng.dirichlet(np.ones(n), size=samples).min(axis=1)
    target = 1.0 - xi
    best: XiScreenResult | None = None
    for d in scale * np.geomspace(0.5, 512.0, fine_steps):
        base = informed_value_sweep(
            model, SimpleAnnouncement(Contract(d / n, d)), grid
        ) - d / n
        worst_base = float(base.min())
        for u in d * np.geomspace(1e-4, 1.0 / n, payment_steps, endpoint=False):
            if u + worst_base < 0.0:
                continue
            reject = min_draw > u / d
            phat = float(reject.mean())
            half = _Z95 * float(np.sqrt(phat * (1.0 - phat) / samples))
            candidate = XiScreenResult(
                Contract(float(u), float(d)), phat, half, u + worst_base, samples
            )
            if best is None or candidate.rejection > best.rejection:
                best = candidate
            if phat - half >= target:
                return candidate
    raise SearchExhausted(
        f"no lattice contract certifies rejection mass {target:.4g}", best=best
    )


def design_binary_contract(
    model: PosteriorSeparable, stay_threshold: float = 0.52
) -> Contract:
    """Two-state screening contract whose learning region ends at the given
    posterior.

    The fine makes the net objective's slope vanish at the threshold, so
    optimal plans split the uniform prior onto (1 - t, t) and priors beyond
    t stay put.  The payment sits midway between the smallest value keeping
    every informed type whole and the d/2 rejection bound.
    """
    if not 0.5 < stay_threshold < 1.0:
        raise ValueError("threshold must lie strictly between 1/2 and 1")
    h = 1e-6
    pts = np.array(
        [[stay_threshold - h, 1.0 - stay_threshold + h],
         [stay_threshold + h, 1.0 - stay_threshold - h]]
    )
    c_lo, c_hi = model.potential.batch(pts)
    d = model.kappa * (c_hi - c_lo) / (2.0 * h)
    if d <= 0.0:
        raise NoFeasibleU("potential slope is not positive at the threshold")
    hi = d / 2.0
    grid = simplex_grid_array(2, default_resolution(2))
    net = informed_value_sweep(model, SimpleAnnouncement(Contract(hi, d)), grid)
    u_min = hi - float(net.min())
    if u_min >= hi:
        raise NoFeasibleU("no payment window below the rejection bound")
    return Contract(0.5 * (max(u_min, 0.0) + hi), d)
