"""End-to-end checks the package must pass, one function per criterion.

Each check registers itself with ``@_criterion``, which times it and
returns a small record; ``run_all`` runs them in definition order.  The CLI
and the test suite both consume the records, so the pass/fail lines stay
identical in either harness.
Tolerances are deliberately pinned here, not imported from the modules
under test.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import xlogy

from . import shannon
from .costs import FixedMenu, PosteriorSeparable, neg_entropy
from .envelopes import concavify_1d, concavify_lp
from .experiments import symmetric_binary
from .informed import informed_value, informed_value_sweep
from .oracle import brute_force_two_point_search, lp_maximin
from .screening import (
    assumption_probe,
    construct_screening_contract,
    design_binary_contract,
    prop2_contract,
    rejection_measure,
    screens,
    uninformed_maximin,
    xi_screen_search,
)
from .simplex import Belief, Contract, belief2, simplex_grid_array
from .traces import binary_figure_traces
from .values import SimpleAnnouncement, UrnDraw


class CriterionResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        word = "PASS" if self.ok else "FAIL"
        return f"{word} {self.name} ({self.elapsed:.2f}s) {self.detail}"


def worked_menu() -> FixedMenu:
    """The two-state scenario used throughout: a single experiment of
    precision 3/4 priced at 50, against the contract (u, d) = (250, 600)."""
    return FixedMenu(((symmetric_binary(0.75), 50.0),))


def worked_contract() -> Contract:
    return Contract(250.0, 600.0)


WORKED_MAXIMIN = -50.0


def worked_example() -> tuple[list[tuple[float, bool, float, float, float]], float]:
    """The worked scenario's ten rows (prior, learns, expected informed value,
    stay-put value, informed value), and its uninformed maximin, expected to be
    ``WORKED_MAXIMIN``.  Learning nets 50; a prior that stays put keeps
    u - d min(mu, 1 - mu)."""
    menu, c = worked_menu(), worked_contract()
    game = SimpleAnnouncement(c)
    want = [(mu, True, 50.0) for mu in (0.35, 0.45, 0.5, 0.55, 0.65)]
    want += [(mu, False, c.u - c.d * min(mu, 1.0 - mu)) for mu in (0.1, 0.25, 1 / 3, 2 / 3, 0.9)]
    rows = [
        (mu, learns, value, game.value(belief2(mu)), informed_value(menu, game, belief2(mu)).value)
        for mu, learns, value in want
    ]
    return rows, uninformed_maximin(game, 2).value


ALL_CRITERIA: list[Callable[[], CriterionResult]] = []


def _criterion(name: str, budget: float):
    """Register a check returning (ok, detail) as the criterion ``name``, in
    definition order.  The criterion times the check and fails it when it
    raises or runs for ``budget`` seconds or more."""

    def register(check: Callable[[], tuple[bool, str]]) -> Callable[[], CriterionResult]:
        def criterion() -> CriterionResult:
            start = time.perf_counter()
            try:
                ok, detail = check()
            except Exception as exc:  # a crash is a failure, not an error
                elapsed = time.perf_counter() - start
                return CriterionResult(name, False, f"raised {type(exc).__name__}: {exc}", elapsed)
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                ok = False
                detail += f"; over budget ({elapsed:.2f}s >= {budget:g}s)"
            return CriterionResult(name, ok, detail, elapsed)

        ALL_CRITERIA.append(criterion)
        return criterion

    return register


@_criterion("worked-example-values", budget=1.0)
def criterion_worked_example() -> tuple[bool, str]:
    rows, outside = worked_example()
    bad = [
        f"informed value at {mu:.4g} = {got!r}, expected {want!r}"
        for mu, _, want, _, got in rows
        if abs(got - want) > 1e-9
    ]
    if abs(outside - WORKED_MAXIMIN) > 1e-9:
        bad.append(f"uninformed maximin = {outside!r}")
    if bad:
        return False, "; ".join(bad)
    return True, "learning nets 50, no-learning priors keep u - d min(mu, 1 - mu), uninformed -50"


@_criterion("no-learning-threshold", budget=5.0)
def criterion_acceptance_threshold() -> tuple[bool, str]:
    grids = {2: 1000, 3: 201, 5: 30}
    d = 6.0
    bad = []
    for n, resolution in grids.items():
        grid = simplex_grid_array(n, resolution)
        menu = FixedMenu(())
        for delta in (-0.01, 0.0, 0.01):
            u = d * (1.0 / n + delta)
            game = SimpleAnnouncement(Contract(u, d))
            net = informed_value_sweep(menu, game, grid)
            accepts_all = bool(net.min() >= -1e-6)
            if accepts_all != (delta >= 0.0):
                bad.append(f"n={n} delta={delta:+g}: accepts_all={accepts_all}")
            outside = uninformed_maximin(game, n).value
            if outside != u - d / n:
                bad.append(f"n={n} delta={delta:+g}: maximin {outside!r}")
    if bad:
        return False, "; ".join(bad)
    return True, "acceptance flips exactly at u = d/n for n in {2,3,5}"


@_criterion("certified-construction", budget=60.0)
def criterion_certified_construction() -> tuple[bool, str]:
    scenarios = [("menu-n2", worked_menu())]
    for kappa in (0.01, 0.1):
        for n in (2, 3):
            scenarios.append(
                (f"entropy-k{kappa:g}-n{n}", (PosteriorSeparable(kappa, neg_entropy()), n))
            )
    bad = []
    notes = []
    for label, setup in scenarios:
        if isinstance(setup, FixedMenu):
            model, n = setup, 2
        else:
            model, n = setup
        built = construct_screening_contract(model, eta=0.1, n=n)
        cert, report = built.certificate, built.report
        if not (cert.epsilon > 0.0 and np.isfinite(cert.T)):
            bad.append(f"{label}: certificate ({cert.epsilon}, {cert.T})")
        if not report.screens:
            bad.append(
                f"{label}: informed_min={report.informed_min:.3g} "
                f"uninformed={report.uninformed_value:.3g}"
            )
        notes.append(f"{label} u={built.contract.u:.4g} d={built.contract.d:.4g}")
    if bad:
        return False, "; ".join(bad)
    return True, "screens on all 5 scenarios: " + ", ".join(notes)


def _random_objective(rng):
    k = int(rng.integers(2, 5))
    slopes = rng.uniform(-2.0, 2.0, size=k)
    icepts = rng.uniform(-2.0, 2.0, size=k)
    scale = float(rng.uniform(-1.5, 1.5))
    use_quad = bool(rng.random() < 0.5)

    def f(x):
        x = np.asarray(x, dtype=float)
        lines = np.minimum.reduce([a * x + b for a, b in zip(slopes, icepts)])
        if use_quad:
            pot = x * x + (1.0 - x) * (1.0 - x)
        else:
            pot = xlogy(x, x) + xlogy(1.0 - x, 1.0 - x)
        return lines + scale * pot

    return f


@_criterion("envelope-oracle-agreement", budget=60.0)
def criterion_envelope_oracles() -> tuple[bool, str]:
    rng = np.random.default_rng(20240817)
    resolution = 120
    xs = np.arange(resolution + 1) / resolution
    pts = np.column_stack([xs, 1.0 - xs])
    worst = 0.0
    for _ in range(100):
        f = _random_objective(rng)
        fs = f(xs)
        mu = float(rng.uniform(0.01, 0.99))
        v1, plan1 = concavify_1d(xs, fs, mu)
        v2, plan2 = concavify_lp(pts, fs, Belief([mu, 1.0 - mu]))
        v3 = brute_force_two_point_search(lambda t: float(f(t)), mu, resolution)
        spread = max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3))
        worst = max(worst, spread)
        if spread > 1e-6:
            return False, f"values disagree by {spread:.3g} at mu={mu:.6g}"
        for plan, v in ((plan1, v1), (plan2, v2)):
            support_x = np.array([b[0] for b in plan.support])
            drift = abs(float(plan.weights @ support_x) - mu)
            if drift > 1e-9:
                return False, f"plan barycenter off by {drift:.3g} at mu={mu:.6g}"
            achieved = float(plan.weights @ f(support_x))
            if abs(achieved - v) > 1e-6:
                return False, f"plan achieves {achieved!r}, envelope {v!r}"
    return True, f"three routes agree on 100 objectives (worst spread {worst:.2g})"


@_criterion("kink-avoidance", budget=60.0)
def criterion_kink_avoidance() -> tuple[bool, str]:
    bad = []
    resolution = 1000  # of the default two-state lattice
    half = belief2(0.5)
    cases = []
    for kappa in (0.01, 0.1):
        model = PosteriorSeparable(kappa, neg_entropy())
        cases.append((model, construct_screening_contract(model, eta=0.1, n=2).contract))
    model_one = PosteriorSeparable(1.0, neg_entropy())
    cases.append((model_one, design_binary_contract(model_one)))
    for model, contract in cases:
        plan = informed_value(model, SimpleAnnouncement(contract), half).plan
        xs = sorted(b[0] for b in plan.support)
        if len(xs) != 2:
            bad.append(f"kappa={model.kappa:g}: {len(xs)} support points")
        elif xs[1] - xs[0] < 10.0 / resolution:
            bad.append(f"kappa={model.kappa:g}: gap {xs[1] - xs[0]:.4g}")
    urn_model = PosteriorSeparable(0.01, neg_entropy())
    urn_contract = Contract(0.03, 0.1)
    urn_value = UrnDraw(urn_contract)
    urn_res = 200  # of the default three-state lattice
    for probs in ((0.3, 0.4, 0.3), (0.25, 0.5, 0.25), (0.45, 0.1, 0.45)):
        plan = informed_value(urn_model, urn_value, Belief(probs)).plan
        if plan.is_degenerate():
            bad.append(f"urn prior {probs}: learning degenerate")
            continue
        for b in plan.support:
            gap = abs(b[0] - b[2]) / np.sqrt(2.0)
            if gap <= 2.0 / urn_res:
                bad.append(f"urn prior {probs}: support {tuple(b)} near the fold")
    if bad:
        return False, "; ".join(bad)
    return True, "binary splits clear the fold by >= 10/1000; urn supports stay off x=y"


@_criterion("fine-equalization-screens", budget=30.0)
def criterion_equalized_fines() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    resolutions = {2: 400, 3: 60, 4: 24}
    worst_spread = 0.0
    for trial in range(50):
        n = (2, 3, 4)[trial % 3]
        rho = Belief(0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n)
        d_last = float(rng.uniform(0.5, 5.0))
        u = 0.999 * rho[n - 1] * d_last
        contract = prop2_contract(rho, u, d_last)
        expected = np.asarray(contract.fines()) * rho.probs
        spread = float(expected.max() - expected.min())
        worst_spread = max(worst_spread, spread)
        if spread >= 1e-12:
            return False, f"fine equalization spread {spread:.3g} (n={n})"
        model = PosteriorSeparable(u / (2.0 * np.log(n)), neg_entropy())
        cert = assumption_probe(
            model, center=rho, eta=0.5 * float(rho.probs.min()),
            resolution=resolutions[n],
        )
        if cert is None:
            return False, f"probe failed at rho={tuple(rho)}"
        report = screens(
            model, contract, n, resolution=resolutions[n],
            uninformed="seu", rho=rho,
        )
        if not report.screens:
            return False, (
                f"n={n} rho={tuple(round(v, 3) for v in rho)}: "
                f"informed_min={report.informed_min:.3g} "
                f"seu={report.uninformed_value:.3g}"
            )
    return True, f"50 equalized contracts screen (worst spread {worst_spread:.2g})"


@_criterion("rejection-measure-search", budget=60.0)
def criterion_rejection_search() -> tuple[bool, str]:
    model = PosteriorSeparable(0.01, neg_entropy())
    grid = simplex_grid_array(2, 1000)
    notes = []
    for xi in (0.5, 0.2, 0.1):
        found = xi_screen_search(model, xi, n=2, seed=0)
        if found.rejection < (1.0 - xi) - found.half_width:
            return False, f"xi={xi}: rejection {found.rejection:.4f}"
        net = informed_value_sweep(
            model, SimpleAnnouncement(found.contract), grid
        )
        if net.min() < -1e-9:
            return False, f"xi={xi}: informed dips to {net.min():.3g}"
        analytic = rejection_measure(found.contract, 2)
        if abs(analytic - found.rejection) > found.half_width:
            return False, (
                f"xi={xi}: analytic {analytic:.4f} vs "
                f"mc {found.rejection:.4f} +/- {found.half_width:.4f}"
            )
        notes.append(f"xi={xi}: mass {found.rejection:.3f}")
    return True, "; ".join(notes)


@_criterion("maximin-closed-form", budget=60.0)
def criterion_maximin_closed_form() -> tuple[bool, str]:
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        d = rng.uniform(0.2, 8.0, size=n)
        u = float(rng.uniform(0.1, 5.0))
        closed = uninformed_maximin(SimpleAnnouncement(Contract(u, d))).value
        payoffs = u - np.diag(d)
        lp = lp_maximin(payoffs).value
        worst = max(worst, abs(closed - lp))
        if abs(closed - lp) > 1e-9:
            return False, f"closed {closed!r} vs LP {lp!r} (n={n})"
    return True, f"closed form matches LP on 200 games (worst gap {worst:.2g})"


@_criterion("figure-ordering", budget=60.0)
def criterion_figure_ordering() -> tuple[bool, str]:
    model = PosteriorSeparable(1.0, neg_entropy())
    contract = design_binary_contract(model)
    traces = binary_figure_traces(model, contract, priors=(0.47, 0.50, 0.53))
    center = traces.priors.index(0.50)
    flanks = [k for k in range(3) if k != center]
    for k in flanks:
        if not (traces.curve(k) > traces.curve(center)).all():
            return False, f"curve for {traces.priors[k]} not above center"
    center_plan = traces.plans[center]
    if center_plan.is_degenerate():
        return False, "center prior fails to learn"
    for k in flanks:
        if not traces.plans[k].is_degenerate():
            return False, f"prior {traces.priors[k]} learns but should stay put"
    return True, (
        f"curves rise away from 1/2; plans: 0.47 stays, "
        f"0.50 splits onto {len(center_plan)} points, 0.53 stays"
    )


@_criterion("shannon-screening-window", budget=10.0)
def criterion_shannon_window() -> tuple[bool, str]:
    """Under the Shannon cost and a common fine d, a contract screens exactly
    when -kappa log(1 - beta / n) <= u < d / n, beta = 1 - exp(-d / kappa).
    The window is never empty: falsifiability screens once the expert can
    buy information."""
    rng = np.random.default_rng(15)
    step = 1e-6
    for _ in range(40):
        n = int(rng.integers(2, 7))
        kappa = float(np.exp(rng.uniform(np.log(0.01), np.log(3.0))))
        d = float(rng.uniform(0.2, 5.0))
        edge = -kappa * float(np.log1p(np.expm1(-d / kappa) / n))
        where = f"n={n} kappa={kappa:.4g} d={d:.4g}"
        if not edge * (1.0 + step) < d / n:
            return False, f"{where}: window [{edge:.6g}, {d / n:.6g}) too narrow"
        model = PosteriorSeparable(kappa, neg_entropy())
        for u, want in ((edge * (1.0 + step), True), (edge * (1.0 - step), False)):
            report = screens(model, Contract(u, d), n)
            worst = report.worst_prior.probs[None, :]
            at_worst = float(shannon.solve(u - d * np.eye(n), kappa, worst).values[0])
            if report.screens != want or (at_worst >= 0.0) != want:
                return False, (
                    f"{where} u={u:.9g}: screens={report.screens}, "
                    f"solver {at_worst:.3g} at the worst prior, want screens={want}"
                )
    return True, "40 games screen just above -kappa log(1 - beta/n) and not just below"


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
