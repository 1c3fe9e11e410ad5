"""Screening analysis: which contracts only informed experts accept.

A contract screens when every informed type keeps a nonnegative net value
while the uninformed type's value is strictly negative.  This module holds
the closed-form uninformed values, the verifier, and three contract
constructions: a certified payment/fine pipeline built from a valuability
probe, fines equalized against a target belief, and a fine search that
drives the rejection measure of belief-holding uninformed types to 1 - xi.

The verifier sweeps a belief lattice, or the stack of priors it is given.
For a rule-out game under the Shannon cost, with no prior set named, it
needs no sweep: the informed minimum over the whole simplex is closed-form.

Under a common fine d the informed net value is the payment u plus a part
that does not depend on u, so one sweep per fine prices every payment and
each construction reads its payment off that sweep in closed form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import shannon
from .costs import CostModel, FixedMenu, PosteriorSeparable, neg_entropy
from .errors import (
    AssumptionViolated,
    BoundaryPrior,
    DimensionMismatch,
    NoFeasibleU,
    SearchExhausted,
)
from .experiments import upsilon_batch
from .informed import informed_value_sweep
from .oracle import MaximinSolution
from .simplex import (
    Belief,
    Contract,
    _distributions,
    ball_grid,
    default_resolution,
    distances,
    grid_size,
    simplex_grid_array,
    uniform_belief,
)
from .values import DecisionProblem, SimpleAnnouncement, UrnDraw

_Z95 = 1.96
# Slack of the construction's fine over the certificate: d = (1 + _MARGIN) T / epsilon.
_MARGIN = 0.05
# Common fines tried by the xi search, log-spaced over [0.5, 512] x scale.
_FINE_STEPS = 18


def uninformed_maximin(game: DecisionProblem, n: int | None = None) -> MaximinSolution:
    """Guaranteed value of accepting with no belief and no learning.

    The expert mixes actions against an adversarial state.  In a rule-out
    game (diagonal fine matrix) equalizing sigma_i proportional to 1/d_i
    yields u - 1/sum_i(1/d_i), which is exactly u - d/n under a common fine.
    Two actions pay u less the upper envelope of n fine lines in sigma, the
    weight on the first, lowest at sigma 0 or 1 or where a falling line meets
    a rising one (the urn: u - d/2 at (1/2, 1/2)).  No other game is built,
    and one raises ValueError.  Returns the value and the mixture.
    """
    F = game.fines(game.n if n is None else n)
    fines = np.diag(F)
    if not np.array_equal(F, np.diag(fines)):
        if len(F) != 2:
            shape = f"{F.shape[0]} actions x {F.shape[1]} states"
            raise ValueError(f"no closed-form maximin for a non-diagonal game of {shape}")
        lo, slope = F[1], F[0] - F[1]
        rise, fall = slope > 0.0, slope < 0.0
        cross = (lo[fall] - lo[rise][:, None]) / (slope[rise][:, None] - slope[fall])
        sigma = np.clip(np.concatenate(([0.0, 1.0], cross.ravel())), 0.0, 1.0)
        fine = (lo + sigma[:, None] * slope).max(axis=1)
        best = int(fine.argmin())
        return MaximinSolution(game.u - float(fine[best]), np.array([sigma[best], 1 - sigma[best]]))
    inv = 1.0 / fines
    if (fines == fines[0]).all():
        value = game.u - fines[0] / len(fines)
    else:
        value = game.u - 1.0 / inv.sum()
    return MaximinSolution(value, inv / inv.sum())


# Game constructors by ``screens`` variant, and the outside types it prices.
VARIANTS = {"simple": SimpleAnnouncement, "urn": UrnDraw}
UNINFORMED = ("maximin", "seu")


def _states(model: CostModel, n: int | None, *widths: int | None, default=None) -> int:
    """The one state count that n, the menu's experiments and the widths
    (of the game, a custom grid, an seu rho, a center; None where unset) fix,
    or ``default`` when none of them fixes one."""
    menu = [E.n for E, _ in model.entries] if isinstance(model, FixedMenu) else []
    counts = {k for k in (n, *widths, *menu) if k is not None} or {default}
    if len(counts) > 1:
        raise DimensionMismatch(
            f"n={n}; the game, priors, rho, center and menu experiments give {sorted(counts)}"
        )
    if None in counts:
        raise ValueError("state count n required for a common-fine contract")
    return counts.pop()


@dataclass(frozen=True)
class ScreeningReport:
    """Verification of a contract against one cost model, over a prior grid
    or, at resolution 0, the whole simplex."""

    contract: Contract
    n: int
    resolution: int
    uninformed_kind: str
    uninformed_value: float
    informed_min: float
    worst_prior: Belief
    prior_set: str

    @property
    def screens(self) -> bool:
        return self.informed_min >= 0.0 and self.uninformed_value < 0.0

    def to_text(self) -> str:
        fines = ", ".join(f"{d:.6g}" for d in self.contract.fines(self.n))
        lines = [
            f"states: {self.n}   priors: {self.prior_set}",
            f"contract: u={self.contract.u:.6g} fines=({fines})",
            f"uninformed ({self.uninformed_kind}): {self.uninformed_value:.6g}",
            f"informed min net: {self.informed_min:.6g} at {self.worst_prior}",
            f"screens: {'yes' if self.screens else 'no'}",
        ]
        return "\n".join(lines)


def _report(
    contract, n, resolution, points, net, outside, kind="maximin", prior_set=None
) -> ScreeningReport:
    """Report of informed net values ``net`` at the prior rows ``points``."""
    worst = int(net.argmin())
    resolution = default_resolution(n) if resolution is None else resolution
    return ScreeningReport(
        contract, n, resolution, kind, outside, float(net[worst]), Belief(points[worst]),
        prior_set or f"simplex grid, resolution {resolution}",
    )


def screens(
    model: CostModel,
    contract: Contract,
    n: int | None = None,
    *,
    grid: np.ndarray | None = None,
    resolution: int | None = None,
    uninformed: str = "maximin",
    rho: Belief | None = None,
    variant: str = "simple",
) -> ScreeningReport:
    """Verify the screening property over a set of priors.

    ``uninformed`` picks the outside type: "maximin" for a beliefless expert,
    "seu" for one holding belief ``rho`` on the game's states.  ``variant``
    picks the game both types play: "simple" rules out one state, "urn"
    plays color calls on three states.  ``n`` may be left out where the
    game, ``grid``, an seu ``rho`` or a menu fixes the state count.

    Naming a prior set asks for a lattice verdict: ``resolution`` sets the
    simplex lattice, and ``grid``, an (N, n) array of prior rows, replaces
    it.  Without either, a Shannon-cost rule-out game is judged exactly
    over the whole simplex by ``shannon.rule_out_minimum`` (resolution 0 in
    the report, whose worst prior may lie off every lattice); every other
    model and game sweeps the default lattice.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    if uninformed not in UNINFORMED:
        raise ValueError(f"unknown uninformed kind: {uninformed!r}")
    if uninformed == "seu" and rho is None:
        raise ValueError("seu comparison needs the uninformed belief rho")
    game = VARIANTS[variant](contract)
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 2 or not len(grid):
            raise ValueError("a custom grid is a nonempty stack of prior rows")
        _distributions(grid, "custom grid row")
    n = _states(
        model, n, game.n, None if grid is None else grid.shape[1],
        rho.n if uninformed == "seu" else None,
    )
    whole = (
        grid is None and resolution is None and variant == "simple"
        and isinstance(model, PosteriorSeparable) and model.potential == neg_entropy()
    )
    prior_set = None if grid is None else f"custom grid, {len(grid)} priors"
    if whole:
        # No lattice, but a state count too large for the default one stays an error.
        grid_size(n, default_resolution(n))
    elif grid is None:
        grid = simplex_grid_array(n, resolution)
    if uninformed == "maximin":
        outside = uninformed_maximin(game, n).value
    else:
        outside = game.value(rho)
    if whole:
        shortfall, worst = shannon.rule_out_minimum(contract.fines(n), model.kappa)
        return ScreeningReport(
            contract, n, 0, uninformed, outside, contract.u + shortfall, Belief(worst),
            "whole simplex",
        )
    net = informed_value_sweep(model, game, grid)
    return _report(contract, n, resolution, grid, net, outside, uninformed, prior_set)


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


def _ball_options(model: CostModel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(options, priors) tables of improvement and price at the ball's prior rows.

    Option 0 is not learning: no improvement, no price.  A menu adds its
    entries.  A posterior-separable model adds full revelation, which improves
    by the smallest prior probability and costs the potential's rise from the
    prior to the vertices.
    """
    if isinstance(model, FixedMenu):
        gain = [upsilon_batch(E, points) for E, _ in model.entries]
        price = [np.full(len(points), p) for _, p in model.entries]
    else:
        vertex_cost = model.potential.batch(np.eye(points.shape[1]))
        gain = [functools.reduce(np.minimum, points.T)]
        price = [model.kappa * (points @ vertex_cost - model.potential.batch(points))]
    zero = np.zeros(len(points))
    return np.array([zero] + gain), np.array([zero] + price)


def assumption_probe(
    model: CostModel,
    n: int | None = None,
    *,
    center: Belief | None = None,
    eta: float = 0.1,
    resolution: int | None = None,
) -> AssumptionCertificate | None:
    """Search for a valuability certificate on a ball of priors.

    The ball sits around ``center`` (the uniform belief on ``n`` states when
    only ``n`` is given).  Each ball prior takes its most improving option
    (menu entry, or full revelation under a posterior-separable cost); the
    certificate is the worst such improvement and the dearest price paid.
    Returns None when no strictly positive improvement is certifiable.
    """
    n = _states(model, n, None if center is None else center.n)
    center = uniform_belief(n) if center is None else center
    ball = ball_grid(center, eta, resolution)
    gain, price = _ball_options(model, ball)
    best = gain.argmax(axis=0), np.arange(len(ball))
    worst, T = float(gain[best].min()), float(price[best].max())
    if worst <= 0.0 or not np.isfinite(T):
        return None
    return AssumptionCertificate(0.99 * worst, T, center, eta)


class Construction(NamedTuple):
    contract: Contract
    certificate: AssumptionCertificate
    report: ScreeningReport


def _net_less_payment(model: CostModel, d: float, grid: np.ndarray) -> np.ndarray:
    """Informed net value less the payment under the common fine d, at every
    grid prior: the part of the net value that does not depend on u."""
    hi = d / grid.shape[1]
    return informed_value_sweep(model, SimpleAnnouncement(Contract(hi, d)), grid) - hi


def construct_screening_contract(
    model: CostModel,
    assumption: tuple[float, float, float] | None = None,
    *,
    center: Belief | None = None,
    eta: float = 0.1,
    resolution: int | None = None,
    n: int | None = None,
) -> Construction:
    """Build a screening contract from a valuability certificate.

    ``assumption`` supplies (epsilon, eta, T) directly; it is verified on
    the ball grid, not assumed, and AssumptionViolated names the first prior
    where it fails.  Without it the probe computes a certificate.

    The fine is d = (1 + _MARGIN) T / epsilon, so certified learning near the
    center beats announcing outright by at least _MARGIN * T.  The payment sits
    midway between d/n, which keeps the beliefless maximin u - d/n negative,
    and the smallest u, at least d * q_out (q_out bounds the worst
    announcement probability outside the ball), whose informed net value is
    nonnegative on the whole grid and positive on the ball.
    """
    n = _states(model, n, None if center is None else center.n)
    center = uniform_belief(n) if center is None else center
    if assumption is not None:
        epsilon, eta, T = (float(v) for v in assumption)
        if epsilon <= 0.0:
            raise AssumptionViolated("epsilon must be positive", prior=center)
        ball = ball_grid(center, eta, resolution)
        gain, price = _ball_options(model, ball)
        ok = ((gain > epsilon) & (price <= T)).any(axis=0)
        if not ok.all():
            raise AssumptionViolated(
                f"no plan improves by more than {epsilon:.6g} at cost <= {T:.6g}",
                prior=Belief(ball[int(ok.argmin())]),
            )
        certificate = AssumptionCertificate(epsilon, T, center, eta)
    else:
        certificate = assumption_probe(model, center=center, eta=eta, resolution=resolution)
        if certificate is None:
            raise AssumptionViolated(
                "no valuability certificate on the probe ball", prior=center
            )
    if certificate.T > 0.0:
        d = (1.0 + _MARGIN) * certificate.T / certificate.epsilon
    else:
        # Free learning: any fine scale works, pick one matched to epsilon.
        d = (1.0 + _MARGIN) / certificate.epsilon
    grid = simplex_grid_array(n, resolution)
    in_ball = distances(grid, center.probs) <= eta
    outside = grid[~in_ball]
    q_out = float(functools.reduce(np.minimum, outside.T).max()) if outside.size else 0.0
    hi = d / n
    lo = max(0.0, d * q_out)
    if lo >= hi:
        raise NoFeasibleU(f"payment window ({lo:.6g}, {hi:.6g}) is empty")
    base = _net_less_payment(model, d, grid)
    m_all = float(base.min())
    m_ball = float(base[in_ball].min()) if in_ball.any() else m_all
    if not (hi + m_all >= 0.0 and hi + m_ball > 0.0):
        raise NoFeasibleU("informed net value stays negative up to u = d/n")
    u = 0.5 * (max(lo, -m_all, -m_ball) + hi)
    contract = Contract(u, d)
    # The beliefless maximin of a common fine is u - d/n.
    report = _report(contract, n, resolution, grid, u + base, u - hi)
    return Construction(contract, certificate, report)


def prop2_contract(rho: Belief, u: float, d_last: float) -> Contract:
    """Fines equalized against belief rho: d_i = (rho_n / rho_i) d_n.

    An uninformed expert holding rho is indifferent across announcements and
    nets u - rho_n * d_n; informed types keep slack wherever their belief
    departs from rho.
    """
    probs = rho.probs
    if probs.min() <= 0.0:
        raise BoundaryPrior("fines equalize only against an interior belief")
    fines = d_last * probs[-1] / probs
    return Contract(u, fines)


class XiScreenResult(NamedTuple):
    contract: Contract
    rejection: float
    half_width: float
    informed_min: float
    samples: int
    n: int


def rejection_measure(contract: Contract, n: int | None = None) -> float:
    """Exact mass of uniformly drawn beliefs rho that reject, u - min_i d_i
    rho_i < 0.  They are the scaled simplex rho_i > u/d_i for all i, of mass
    max(0, 1 - sum_i u/d_i)^(n-1)."""
    fines = contract.fines(n)
    return max(0.0, 1.0 - float(np.sum(contract.u / fines))) ** (len(fines) - 1)


def _flat_dirichlet_minima(samples: int, n: int, seed: int) -> np.ndarray:
    """Row minima of default_rng(seed).dirichlet(np.ones(n), samples), bit for bit: a row is
    these exponentials times 1 / their left-to-right sum, and that rounding keeps their order."""
    draws = np.random.default_rng(seed).standard_exponential((samples, n)).T
    return functools.reduce(np.minimum, draws) * (1.0 / functools.reduce(np.add, draws))


def xi_screen_search(
    model: CostModel,
    xi: float,
    *,
    n: int | None = None,
    resolution: int | None = None,
    samples: int = 100_000,
    seed: int = 0,
) -> XiScreenResult:
    """Find a common-fine contract rejected by all but xi of uninformed
    beliefs while every informed type keeps nonnegative net value.

    Scans a log lattice of fines, ascending, each with the smallest payment
    (at least 1e-4 d) that every informed type on the grid accepts; a fine
    whose payment reaches d/n is skipped.  Returns the first contract whose
    Monte Carlo rejection estimate clears 1 - xi by a full confidence
    half-width, else raises SearchExhausted carrying the best near miss.
    """
    if not 0.0 < xi <= 1.0:
        raise ValueError("xi must lie in (0, 1]")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    n = _states(model, n, default=2)
    grid = simplex_grid_array(n, resolution)
    menu = isinstance(model, FixedMenu)
    scale = max((price for _, price in model.entries), default=0.0) + 1.0 if menu else model.kappa
    min_draw = _flat_dirichlet_minima(samples, n, seed)
    target = 1.0 - xi
    best: XiScreenResult | None = None
    for d in scale * np.geomspace(0.5, 512.0, _FINE_STEPS):
        worst_base = float(_net_less_payment(model, d, grid).min())
        u = max(-worst_base, 1e-4 * d)
        if not u < d / n:
            # No payment below the rejection bound (or none at all).
            continue
        phat = int(np.count_nonzero(min_draw > u / d)) / samples
        half = _Z95 * float(np.sqrt(phat * (1.0 - phat) / samples))
        candidate = XiScreenResult(
            Contract(float(u), float(d)), phat, half, u + worst_base, samples, n
        )
        if best is None or candidate.rejection > best.rejection:
            best = candidate
        if phat - half >= target:
            return candidate
    raise SearchExhausted(
        f"no lattice fine certifies rejection mass {target:.4g}", best=best
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
    grid = simplex_grid_array(2)
    u_min = -float(_net_less_payment(model, d, grid).min())
    if u_min >= hi:
        raise NoFeasibleU("no payment window below the rejection bound")
    return Contract(0.5 * (max(u_min, 0.0) + hi), d)
