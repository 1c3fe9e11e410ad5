"""Seeded workloads: cycles of cavscreen operations with their checks.

An operation is one call a user makes and waits for.  ``run`` performs it
and returns its output; ``check`` compares that output with the independent
references in ``reference.py`` and runs outside the timed region.  Every
input comes from ``numpy.random.default_rng(seed)``, so one seed always
gives the same inputs.  A cycle is a fixed mix of operation kinds; each
cycle draws fresh parameters, so the cycles of one run differ only in their
numbers.

Tolerances: a program value may sit below the exact reference by at most
TOLERANCE[n] times the largest fine (the grid route is biased low), and
above it by no more than the reference's own certified error plus
rounding.  Values the CLI prints with 6 significant digits get a rounding
allowance and are left out of the gap metric.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np
import yaml

import cavscreen
import cavscreen.cli

import reference as ref

TOLERANCE = {2: 1e-4, 3: 2e-3, 4: 2e-2, 5: 2e-2}
PRINTED_REL = 5e-6


class Check(NamedTuple):
    ok: bool
    checked: bool  # False when no exact reference exists for the value
    gap: float  # largest |program - reference| at full precision, or nan
    note: str


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Check]
    priors: int  # priors the caller asked about


class Gaps:
    """Accumulates comparisons of program values with references."""

    def __init__(self):
        self.gap = math.nan
        self.problems: list[str] = []

    def value(self, what, program, reference, *, n, scale, bound=0.0, printed=False):
        diff = reference - program
        slack = 1e-9 * (1.0 + abs(reference)) + bound
        if printed:
            slack += PRINTED_REL * (abs(program) + scale)
        else:
            self.gap = np.fmax(self.gap, abs(diff))
        if not -slack <= diff <= TOLERANCE[n] * scale + slack:
            self.problems.append(f"{what}: program {program!r} reference {reference!r}")

    def require(self, cond: bool, what: str):
        if not cond:
            self.problems.append(what)

    def result(self, checked=True) -> Check:
        return Check(not self.problems, checked, float(self.gap), "; ".join(self.problems))


def _fail(note: str) -> Check:
    return Check(False, True, math.nan, note)


# ----- shared checks ---------------------------------------------------------


_REFERENCE_CACHE: dict = {}


def _entropy_at(P, mu, kappa):
    """Shannon reference, computed once per input: cycles repeat their inputs."""
    key = (np.asarray(P, dtype=float).tobytes(), np.asarray(mu, dtype=float).tobytes(), kappa)
    if key not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[key] = ref.shannon_value(P, mu, kappa)
    return _REFERENCE_CACHE[key]


def _lattice_point(p, r: int) -> np.ndarray:
    """A belief on the resolution-r lattice next to p (largest remainders)."""
    scaled = np.asarray(p, dtype=float) * r
    counts = np.floor(scaled)
    counts[np.argsort(counts - scaled)[: int(round(r - counts.sum()))]] += 1.0
    return counts / r


def _nearest(points, p) -> np.ndarray:
    return points[int(((points - np.asarray(p)) ** 2).sum(axis=1).argmin())]


def _require_below(g: Gaps, informed_min, screens, value_at, probes, tol, slack=0.0):
    """The reported minimum over the prior grid may not exceed the reference
    at any grid prior in ``probes``, and a prior whose reference value is
    clearly negative rules out a positive verdict."""
    for mu in probes:
        value, bound = value_at(mu)
        g.require(
            informed_min <= value + bound + tol + slack,
            f"reported minimum {informed_min!r} above reference {value!r} at {list(mu)}",
        )
        if value + bound < -tol - slack:
            g.require(not screens, f"screens, but reference {value!r} < 0 at {list(mu)}")


def _check_report(report, P, kappa, outside_ref, *, probes=()):
    """Verdict, uninformed value and informed minimum of a ScreeningReport.

    ``probes`` are grid priors checked against the reported minimum: the
    known-critical one (the uniform belief, rho, or the ball prior nearest
    it) first, then random draws."""
    g = Gaps()
    n = report.n
    scale = float(np.abs(P).max())
    tol = TOLERANCE[n] * scale
    g.value("uninformed", report.uninformed_value, outside_ref, n=n, scale=scale)
    worst = np.asarray(report.worst_prior.probs)
    value, bound = _entropy_at(P, worst, kappa)
    g.value("informed min", report.informed_min, value, n=n, scale=scale, bound=bound)
    _require_below(g, report.informed_min, report.screens,
                   lambda mu: _entropy_at(P, mu, kappa), probes, tol)
    if abs(value) > tol:
        want = value >= 0.0 and outside_ref < 0.0
        g.require(report.screens == want, f"verdict {report.screens}, reference {want}")
    return g.result()


def _check_plan(g: Gaps, result, mu, gross_fn, cost_fn, scale):
    plan = result.plan
    support = np.vstack([b.probs for b in plan.support])
    w = np.asarray(plan.weights)
    g.require(abs(w.sum() - 1.0) <= 1e-9 and w.min() >= -1e-12, "plan weights")
    g.require(np.abs(w @ support - mu).max() <= 1e-9, "plan is not Bayes-plausible")
    achieved = sum(wj * gross_fn(x) for wj, x in zip(w, support)) - cost_fn(w, support)
    g.require(
        abs(achieved - result.value) <= 1e-9 * (1.0 + scale),
        f"plan achieves {achieved!r}, value {result.value!r}",
    )


# ----- command line (binary-design) --------------------------------------------


def _cli(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cavscreen.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return run


_NUM = r"(-?[0-9.]+(?:e[-+]?[0-9]+)?|-?inf|nan)"


def _find(pattern: str, text: str):
    m = re.search(pattern.replace("NUM", _NUM), text)
    if m is None:
        raise ValueError(f"output lacks {pattern!r}")
    return m


def _floats(text: str) -> list[float]:
    return [float(v) for v in re.findall(_NUM, text)]


def _report_from_text(text: str, resolution: int):
    uninformed = float(_find(r"uninformed \(\w+\): NUM", text).group(1))
    m = _find(r"informed min net: NUM at Belief\(\[([^\]]*)\]\)", text)
    worst = np.round(np.array(_floats(m.group(2))) * resolution) / resolution
    screens = _find(r"screens: (yes|no)", text).group(1) == "yes"
    return uninformed, float(m.group(1)), worst, screens


def _check_cli_report(code, text, P, kappa, outside_ref, resolution, *, entropy=True, menu=None,
                      critical=None):
    """A printed verdict; ``critical`` is a known-critical prior (default
    the uniform belief), checked on the lattice next to it."""
    g = Gaps()
    n = P.shape[1]
    scale = float(np.abs(P).max())
    uninformed, informed, worst, screens = _report_from_text(text, resolution)
    g.value("uninformed", uninformed, outside_ref, n=n, scale=scale, printed=True)
    g.require(screens == (informed >= 0.0 and uninformed < 0.0), "printed verdict")
    g.require(code == (0 if screens else 2), f"exit code {code} for screens={screens}")
    if menu is not None:
        def value_at(mu):
            return ref.menu_value(P, mu, menu), 0.0
    elif entropy:
        def value_at(mu):
            return _entropy_at(P, mu, kappa)
    else:
        return g.result(checked=False)
    value, bound = value_at(worst)
    g.value("informed min", informed, value, n=n, scale=scale, bound=bound, printed=True)
    critical = np.full(n, 1.0 / n) if critical is None else critical
    _require_below(g, informed, screens, value_at, [_lattice_point(critical, resolution)],
                   TOLERANCE[n] * scale, PRINTED_REL * (abs(informed) + scale))
    if abs(value) > TOLERANCE[n] * scale:
        want = value >= 0.0 and outside_ref < 0.0
        g.require(screens == want, f"verdict {screens}, reference {want}")
    return g.result()


def _write_yaml(path: str, cfg: dict) -> str:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return path


def _binary_cycle(rng, work: str, tag: str) -> list[Op]:
    def path(name):
        return os.path.join(work, f"{tag}-{name}")

    ops = []

    # screen, fixed menu: one or two symmetric experiments.
    d = float(rng.uniform(0.9, 1.1))
    u = d * float(rng.uniform(0.3, 0.45))
    menu = []
    for _ in range(int(rng.integers(1, 3))):
        q = float(rng.uniform(0.65, 0.9))
        menu.append(([[q, 1.0 - q], [1.0 - q, q]], float(rng.uniform(0.01, 0.05))))
    cfg = {
        "model": {"kind": "fixed-menu",
                  "menu": [{"price": p, "likelihoods": lk} for lk, p in menu]},
        "contract": {"u": u, "d": d},
        "n": 2,
    }
    P = ref.rule_out_matrix(u, [d, d])
    ops.append(Op(
        "screen-menu",
        _cli(["screen", "--config", _write_yaml(path("menu.yaml"), cfg)]),
        lambda out, P=P, menu=menu, o=ref.maximin_value(u, [d, d]): _check_cli_report(
            out[0], out[1], P, None, o, 1000, menu=menu),
        1001,
    ))

    # screen, neg-entropy and quadratic posterior-separable costs.
    for potential in ("neg-entropy", "quadratic"):
        kappa = float(rng.uniform(0.095, 0.105))
        d = float(rng.uniform(0.95, 1.05))
        u = d * float(rng.uniform(0.25, 0.45))
        cfg = {
            "model": {"kind": "posterior-separable", "kappa": kappa, "potential": potential},
            "contract": {"u": u, "d": d},
            "n": 2,
        }
        P = ref.rule_out_matrix(u, [d, d])
        ops.append(Op(
            f"screen-{potential}",
            _cli(["screen", "--config", _write_yaml(path(f"{potential}.yaml"), cfg)]),
            lambda out, P=P, k=kappa, o=ref.maximin_value(u, [d, d]), e=potential == "neg-entropy":
                _check_cli_report(out[0], out[1], P, k, o, 1000, entropy=e),
            1001,
        ))

    # screen with `contract: search`: certified construction at n = 2.
    kappa = float(rng.uniform(0.02, 0.1))
    cfg = {
        "model": {"kind": "posterior-separable", "kappa": kappa, "potential": "neg-entropy"},
        "contract": "search",
        "n": 2,
        "eta": float(rng.uniform(0.08, 0.12)),
    }
    ops.append(Op(
        "screen-search",
        _cli(["screen", "--config", _write_yaml(path("search.yaml"), cfg)]),
        lambda out, k=kappa: _check_search(out, k),
        1001,
    ))

    # figure traces, CSV and CSV plus SVG.
    for fmt in ("csv", "both"):
        kappa = float(rng.uniform(0.95, 1.05))
        t = float(rng.uniform(0.55, 0.7))
        d = kappa * math.log(t / (1.0 - t)) * float(rng.uniform(0.95, 1.05))
        u = d * float(rng.uniform(0.3, 0.45))
        priors = sorted(float(p) for p in np.round(rng.uniform(0.3, 0.7, size=3), 4))
        cfg = {
            "model": {"kind": "posterior-separable", "kappa": kappa, "potential": "neg-entropy"},
            "contract": {"u": u, "d": d},
            "priors": priors,
        }
        out_dir = path(f"figure-{fmt}")
        rows = [int(v) for v in rng.integers(1, 1000, size=8)]
        ops.append(Op(
            f"figure-{fmt}",
            _cli(["figure", "--config", _write_yaml(path(f"figure-{fmt}.yaml"), cfg),
                  "--out", out_dir, "--format", fmt]),
            lambda out, P=ref.rule_out_matrix(u, [d, d]), k=kappa, pr=priors, o=out_dir, fmt=fmt,
            rows=rows: _check_figure(out, P, k, pr, o, fmt, rows),
            len(priors),
        ))

    # xi-screen: smallest-u contract rejected by >= 1 - xi of beliefs.  The
    # number of lattice sweeps depends on xi and kappa; narrow ranges keep it
    # the same for every seed.
    xi = float(rng.uniform(0.19, 0.21))
    cfg = {
        "model": {"kind": "posterior-separable", "kappa": float(rng.uniform(0.0095, 0.0105)),
                  "potential": "neg-entropy"},
        "xi": xi,
        "n": 2,
    }
    ops.append(Op(
        "xi-screen",
        _cli(["xi-screen", "--config", _write_yaml(path("xi.yaml"), cfg),
              "--seed", str(int(rng.integers(0, 2**31)))]),
        lambda out, xi=xi: _check_xi(out, xi),
        1001,
    ))

    # prop2: fines equalized against a belief, verified against seu types.
    rho = [float(v) for v in 0.8 * rng.dirichlet(np.ones(2)) + 0.1]
    rho[1] = 1.0 - rho[0]
    d_last = float(rng.uniform(0.5, 2.0))
    u = 0.999 * rho[1] * d_last
    cfg = {
        "rho": rho,
        "d_last": d_last,
        "u": u,
        "model": {"kind": "posterior-separable", "kappa": u / (2.0 * math.log(2.0)),
                  "potential": "neg-entropy"},
    }
    ops.append(Op(
        "prop2",
        _cli(["prop2", "--config", _write_yaml(path("prop2.yaml"), cfg)]),
        lambda out, rho=rho, d_last=d_last, u=u, k=cfg["model"]["kappa"]:
            _check_prop2(out, rho, d_last, u, k),
        1001,
    ))

    # example-one: the worked two-state menu scenario.
    out_dir = path("example")
    ops.append(Op(
        "example-one",
        _cli(["example-one", "--out", out_dir]),
        lambda out, o=out_dir: _check_example(out, o),
        10,
    ))
    return ops


def _check_search(out, kappa):
    code, text, _ = out
    m = _find(r"constructed contract u=NUM d=NUM", text)
    u, d = float(m.group(1)), float(m.group(2))
    P = ref.rule_out_matrix(u, [d, d])
    check = _check_cli_report(code, text, P, kappa, ref.maximin_value(u, [d, d]), 1000)
    if code != 0:
        return check._replace(ok=False, note=f"construction does not screen; {check.note}")
    return check


def _check_figure(out, P, kappa, priors, out_dir, fmt, rows):
    code, text, _ = out
    g = Gaps()
    g.require(code == 0, f"exit code {code}")
    with open(os.path.join(out_dir, "figure.csv")) as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",")
    x = table[:, 0]
    envelope = table[:, header.index("envelope")]
    scale = float(np.abs(P).max())
    for k in rows:
        g.value("gross", table[k, 1], ref.gross(P, [x[k], 1.0 - x[k]]), n=2, scale=scale)
    for k, p in enumerate(priors):
        row = int(np.abs(x - p).argmin())
        value, bound = _entropy_at(P, [p, 1.0 - p], kappa)
        column = table[row, header.index(f"envelope[{p:g}]")]
        g.value(f"informed at {p}", column, value, n=2, scale=scale, bound=bound)
        printed = float(_find(rf"prior {p:g}: value NUM", text).group(1))
        g.value(f"printed at {p}", printed, value, n=2, scale=scale, bound=bound, printed=True)
    for k in rows:
        mu = [x[k], 1.0 - x[k]]
        value, bound = _entropy_at(P, mu, kappa)
        informed = envelope[k] + kappa * ref.neg_entropy(mu)
        g.value(f"informed at {x[k]}", informed, value, n=2, scale=scale, bound=bound)
    if fmt == "both":
        with open(os.path.join(out_dir, "figure.svg")) as fh:
            g.require(fh.read().count("<polyline") == 3 + len(priors), "svg series")
    return g.result()


def _check_xi(out, xi):
    code, text, _ = out
    g = Gaps()
    g.require(code == 0, f"exit code {code}")
    m = _find(r"contract: u=NUM d=NUM", text)
    u, d = float(m.group(1)), float(m.group(2))
    m = _find(r"rejection mass: NUM \+/- NUM", text)
    mass, half = float(m.group(1)), float(m.group(2))
    worst = float(_find(r"informed worst net value: NUM", text).group(1))
    # Uniform two-state beliefs reject when min(rho) > u/d: mass 1 - 2u/d.
    exact = 1.0 - 2.0 * u / d
    g.require(mass - half >= 1.0 - xi - 1e-4, f"rejection {mass} - {half} below {1 - xi}")
    # half is 1.96 standard errors; five standard errors make a false alarm
    # improbable over every run of the benchmark.
    g.require(abs(exact - mass) <= 2.55 * half + 1e-4, f"mc {mass} vs exact {exact}")
    g.require(worst >= -PRINTED_REL * d, f"informed worst {worst} negative")
    return g.result()


def _check_prop2(out, rho, d_last, u, kappa):
    code, text, _ = out
    g = Gaps()
    fines = [d_last * rho[-1] / r for r in rho]
    printed = _floats(_find(r"contract: u=NUM fines=\(([^)]*)\)", text).group(2))
    for a, b in zip(printed, fines):
        g.value("fine", a, b, n=2, scale=max(fines), printed=True)
    seu = float(_find(r"uninformed value at rho: NUM", text).group(1))
    outside = ref.seu_value(u, fines, rho)
    g.value("seu value", seu, outside, n=2, scale=max(fines), printed=True)
    P = ref.rule_out_matrix(u, fines)
    check = _check_cli_report(code, text, P, kappa, outside, 1000, critical=rho)
    g.problems += [check.note] if not check.ok else []
    return g.result()


def _check_example(out, out_dir):
    code, text, _ = out
    g = Gaps()
    g.require(code == 0, f"exit code {code}")
    g.require("MISMATCH" not in text, "example-one reported a mismatch")
    P = ref.rule_out_matrix(250.0, [600.0, 600.0])
    menu = [([[0.75, 0.25], [0.25, 0.75]], 50.0)]
    with open(os.path.join(out_dir, "example_one.csv")) as fh:
        fh.readline()
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    g.require(table.shape[0] == 10, "example-one rows")
    for prior, stay, informed in table:
        mu = [prior, 1.0 - prior]
        g.value("stay-put", stay, ref.gross(P, mu), n=2, scale=600.0)
        g.value("informed", informed, ref.menu_value(P, mu, menu), n=2, scale=600.0)
    maximin = float(_find(r"uninformed maximin: NUM", text).group(1))
    g.value("maximin", maximin, ref.maximin_value(250.0, [600.0, 600.0]), n=2, scale=600.0,
            printed=True)
    return g.result()


# ----- simplex verdicts (simplex-sweep) ----------------------------------------


def _interior(rng, n, floor=0.1):
    x = (1.0 - n * floor) * rng.dirichlet(np.ones(n)) + floor
    x[-1] = 1.0 - x[:-1].sum()
    return x


def _sample_priors(rng, n, resolution, k=2):
    counts = rng.multinomial(resolution, np.ones(n) / n, size=k)
    return [c / resolution for c in counts]


def _ball(center, eta, resolution):
    """Lattice priors within Euclidean distance eta of center."""
    pts = ref.lattice(len(center), resolution)
    return pts[np.sqrt(((pts - center) ** 2).sum(axis=1)) <= eta]


def _screen_op(kind, n, kappa, contract, outside, P, probes, priors, **kwargs):
    def run():
        model = cavscreen.PosteriorSeparable(kappa, cavscreen.neg_entropy())
        return cavscreen.screens(model, contract, n, **kwargs)

    return Op(kind, run, lambda rep: _check_report(rep, P, kappa, outside, probes=probes), priors)


def _rule_out_screen(rng, n, resolution=None):
    # kappa/d sets how many grid points stay on the hull, so the facet count
    # and the cost of an operation; a narrow band keeps the cost steady.
    d = float(rng.uniform(0.98, 1.02))
    kappa = d * float(rng.uniform(0.295, 0.305))
    u = d * float(rng.uniform(0.1, 0.3))
    r = resolution or cavscreen.default_resolution(n)
    extra = {"resolution": resolution} if resolution else {}
    return _screen_op(
        f"screens-n{n}" + (f"-r{resolution}" if resolution else ""), n, kappa,
        cavscreen.Contract(u, d), ref.maximin_value(u, [d] * n), ref.rule_out_matrix(u, [d] * n),
        [_lattice_point(np.full(n, 1.0 / n), r)] + _sample_priors(rng, n, r),
        math.comb(r + n - 1, n - 1), **extra,
    )


def _ball_screen(rng):
    d = float(rng.uniform(0.95, 1.05))
    kappa = d * float(rng.uniform(0.29, 0.31))
    u = d * float(rng.uniform(0.1, 0.3))
    ball = _ball(_interior(rng, 3, 0.2), 0.15, 200)
    probes = [_nearest(ball, np.full(3, 1.0 / 3.0))] + list(ball[rng.choice(len(ball), size=2)])
    return _screen_op(
        "screens-n3-ball", 3, kappa, cavscreen.Contract(u, d), ref.maximin_value(u, [d] * 3),
        ref.rule_out_matrix(u, [d] * 3), probes, len(ball), grid=ball,
    )


def _urn_screen(rng):
    # The urn game on a ball around the uniform belief, as in the shipped
    # urn config: near the mixed-urn vertex learning cannot help.
    d = float(rng.uniform(0.09, 0.11))
    u = d * float(rng.uniform(0.45, 0.49))
    kappa = d * float(rng.uniform(0.08, 0.12))
    ball = _ball(np.full(3, 1.0 / 3.0), 0.25, 60)
    probes = [_nearest(ball, np.full(3, 1.0 / 3.0))] + list(ball[rng.choice(len(ball), size=2)])
    return _screen_op(
        "screens-urn", 3, kappa, cavscreen.Contract(u, d), ref.urn_maximin_value(u, d),
        ref.urn_matrix(u, d), probes, len(ball), grid=ball, variant="urn",
    )


def _prop2_screen(rng, n, resolution):
    # Proposition-2 fines against a belief, judged by the seu criterion.
    rho = _interior(rng, n, 0.2)
    d_last = float(rng.uniform(0.5, 2.0))
    u = 0.999 * rho[-1] * d_last
    contract = cavscreen.prop2_contract(cavscreen.Belief(rho), u, d_last)
    fines = d_last * rho[-1] / rho
    return _screen_op(
        f"screens-prop2-n{n}", n, u / (2.0 * math.log(n)), contract,
        ref.seu_value(u, fines, rho), ref.rule_out_matrix(u, fines),
        [_lattice_point(rho, resolution)] + _sample_priors(rng, n, resolution),
        math.comb(resolution + n - 1, n - 1),
        resolution=resolution, uninformed="seu", rho=cavscreen.Belief(rho),
    )


def _construct(rng):
    kappa = float(rng.uniform(0.01, 0.1))
    eta = float(rng.uniform(0.08, 0.12))
    samples = _sample_priors(rng, 3, 200)

    def run():
        model = cavscreen.PosteriorSeparable(kappa, cavscreen.neg_entropy())
        return cavscreen.construct_screening_contract(model, eta=eta, n=3)

    def check(built):
        c = built.contract
        P = ref.rule_out_matrix(c.u, [c.d] * 3)
        uniform = _lattice_point(np.full(3, 1.0 / 3.0), built.report.resolution)
        result = _check_report(built.report, P, kappa, ref.maximin_value(c.u, [c.d] * 3),
                               probes=[uniform] + samples)
        if not built.report.screens:
            return result._replace(ok=False, note="constructed contract does not screen")
        return result

    return Op("construct-n3", run, check, math.comb(202, 2))


# One simplex-sweep cycle fills a run: 24 fast verdicts (the first is the
# warm-up), 16 of about 0.2 s at n = 3, 16 of about 0.5 s at n = 4 and one
# n = 5 verdict at the default resolution, the qhull hot spot.  Of the 57
# operations the median falls among the twelve n = 3 `screens` and the
# tail (ten operations beyond it) among the n = 4 ones, both away from the
# edges between kinds.
SIMPLEX_MIX = (
    (_ball_screen, 8),
    (_urn_screen, 8),
    (lambda rng: _prop2_screen(rng, 3, 60), 8),
    (lambda rng: _rule_out_screen(rng, 3), 12),
    (_construct, 4),
    (lambda rng: _rule_out_screen(rng, 4), 8),
    (lambda rng: _rule_out_screen(rng, 4, 20), 4),
    (lambda rng: _prop2_screen(rng, 4, 24), 4),
    (lambda rng: _rule_out_screen(rng, 5), 1),
)


def _simplex_cycle(rng, work: str, tag: str) -> list[Op]:
    return [make(rng) for make, count in SIMPLEX_MIX for _ in range(count)]


# ----- single-prior plans (pointwise-plans) ------------------------------------


def _point_op(kind, model_fn, value_fn, mu, P, kappa):
    n = len(mu)

    def run():
        return cavscreen.informed_value(model_fn(), value_fn(), cavscreen.Belief(mu))

    def check(result):
        g = Gaps()
        scale = float(np.abs(P).max())
        value, bound = _entropy_at(P, mu, kappa)
        g.value("informed", result.value, value, n=n, scale=scale, bound=bound)
        _check_plan(
            g, result, mu, lambda x: ref.gross(P, x),
            lambda w, s: kappa * (sum(wj * ref.neg_entropy(x) for wj, x in zip(w, s))
                                  - ref.neg_entropy(mu)),
            scale,
        )
        return g.result()

    return Op(kind, run, check, 1)


def _menu_op(kind, entries, u, d, mu):
    n = len(mu)
    P = ref.rule_out_matrix(u, [d] * n)

    def run():
        menu = cavscreen.FixedMenu(
            [(cavscreen.Experiment(lk), price) for lk, price in entries]
        )
        return cavscreen.informed_value(
            menu, cavscreen.SimpleAnnouncement(cavscreen.Contract(u, d)), cavscreen.Belief(mu)
        )

    def check(result):
        g = Gaps()
        g.value("menu value", result.value, ref.menu_value(P, mu, entries), n=n, scale=d)
        _check_plan(g, result, mu, lambda x: ref.gross(P, x), lambda w, s: result.cost, d)
        prices = [0.0] + [p for _, p in entries]
        g.require(min(abs(result.cost - p) for p in prices) <= 1e-12, "menu cost")
        return g.result()

    return Op(kind, run, check, 1)


def _entropy_point(rng, n):
    d = float(rng.uniform(0.95, 1.05))
    kappa = d * float(rng.uniform(0.29, 0.31))
    u = d * float(rng.uniform(0.2, 0.4))
    return _point_op(
        f"informed-n{n}", lambda: cavscreen.PosteriorSeparable(kappa, cavscreen.neg_entropy()),
        lambda: cavscreen.SimpleAnnouncement(cavscreen.Contract(u, d)),
        _interior(rng, n, 0.05), ref.rule_out_matrix(u, [d] * n), kappa,
    )


def _urn_point(rng):
    d = float(rng.uniform(0.09, 0.11))
    u = d * float(rng.uniform(0.25, 0.35))
    kappa = d * float(rng.uniform(0.08, 0.12))
    return _point_op(
        "informed-urn", lambda: cavscreen.PosteriorSeparable(kappa, cavscreen.neg_entropy()),
        lambda: cavscreen.UrnDraw(cavscreen.Contract(u, d)),
        _interior(rng, 3, 0.2), ref.urn_matrix(u, d), kappa,
    )


def _menu_point(rng, n):
    entries = []
    for _ in range(int(rng.integers(1, 4))):
        m = int(rng.integers(2, 4))
        entries.append((rng.dirichlet(np.ones(m) * 0.7, size=n).tolist(),
                        float(rng.uniform(0.0, 0.1))))
    d = float(rng.uniform(0.9, 1.1))
    return _menu_op(f"menu-n{n}", entries, d * float(rng.uniform(0.2, 0.4)), d,
                    _interior(rng, n, 0.05))


def _menu_probe(rng):
    # The experiment stays valuable while both coordinates exceed 1 - q.
    q = float(rng.uniform(0.75, 0.9))
    entries = [([[q, 1.0 - q], [1.0 - q, q]], float(rng.uniform(0.01, 0.1)))]
    return _probe_op("probe-menu-n2", entries, None, _interior(rng, 2, 0.4),
                     float(rng.uniform(0.05, 0.1)), 1000)


def _entropy_probe(rng):
    return _probe_op("probe-entropy-n3", None, float(rng.uniform(0.05, 0.2)),
                     _interior(rng, 3, 0.25), 0.1, 200)


def _design(rng):
    return _design_op(float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.52, 0.6)))


def _traces(rng):
    kappa = float(rng.uniform(0.8, 1.2))
    t = float(rng.uniform(0.52, 0.6))
    d = kappa * math.log(t / (1.0 - t)) * float(rng.uniform(0.9, 1.1))
    u = d * float(rng.uniform(0.3, 0.45))
    priors = tuple(float(p) for p in np.sort(rng.uniform(0.3, 0.7, size=3)))
    return _traces_op(kappa, u, d, priors)


# Seven fast single-prior calls, then fifteen through the concavification
# LP.  The median falls a quarter of the way into the twelve n = 4 calls.
# With about 14 cycles a run, the tail (ten operations beyond it) lands
# near the middle of the n = 3 calls over 20,301 grid points, where short
# slow spells of a shared host move it least.
POINTWISE_MIX = (
    (lambda rng: _entropy_point(rng, 2), 1),
    (lambda rng: _menu_point(rng, 2), 1),
    (lambda rng: _menu_point(rng, 3), 1),
    (_menu_probe, 1),
    (_entropy_probe, 1),
    (_design, 1),
    (_traces, 1),
    (_urn_point, 1),
    (lambda rng: _entropy_point(rng, 4), 12),
    (lambda rng: _entropy_point(rng, 3), 2),
)


def _pointwise_cycle(rng, work: str, tag: str) -> list[Op]:
    return [make(rng) for make, count in POINTWISE_MIX for _ in range(count)]


def _probe_op(kind, entries, kappa, center, eta, resolution):
    n = len(center)

    def run():
        if entries is not None:
            model = cavscreen.FixedMenu(
                [(cavscreen.Experiment(lk), price) for lk, price in entries]
            )
        else:
            model = cavscreen.PosteriorSeparable(kappa, cavscreen.neg_entropy())
        return cavscreen.assumption_probe(
            model, center=cavscreen.Belief(center), eta=eta, resolution=resolution
        )

    def check(cert):
        g = Gaps()
        if cert is None:
            return _fail("probe found no certificate")
        pts = ref.lattice(n, resolution)
        inside = np.sqrt(((pts - center) ** 2).sum(axis=1)) <= eta
        ball = pts[inside] if inside.any() else pts[[np.abs(pts - center).sum(axis=1).argmin()]]
        if entries is not None:
            ups = np.array([max(ref.upsilon(mu, lk) for lk, _ in entries) for mu in ball])
            worst, T = float(ups.min()), max(p for _, p in entries)
        else:
            worst = float(ball.min())
            T = kappa * max(-ref.neg_entropy(mu) for mu in ball)
        g.value("epsilon", cert.epsilon, 0.99 * worst, n=2, scale=1.0)
        g.value("T", cert.T, T, n=2, scale=1.0)
        return g.result()

    return Op(kind, run, check, 0)


def _design_op(kappa, t):
    def run():
        model = cavscreen.PosteriorSeparable(kappa, cavscreen.neg_entropy())
        return cavscreen.design_binary_contract(model, t)

    def check(contract):
        g = Gaps()
        # The fine zeroes the objective's slope at t: d = kappa * log(t / (1 - t)).
        d = kappa * math.log(t / (1.0 - t))
        g.require(abs(contract.d - d) <= 1e-6 * d, f"fine {contract.d!r}, expected {d!r}")
        g.require(contract.u < contract.d / 2.0, "payment not below the rejection bound d/2")
        P = ref.rule_out_matrix(contract.u, [contract.d] * 2)
        for p in (0.5, t):
            value, _ = _entropy_at(P, [p, 1.0 - p], kappa)
            g.require(value >= -TOLERANCE[2] * contract.d, f"informed {value!r} < 0 at {p}")
        return g.result()

    return Op("design-n2", run, check, 0)


def _traces_op(kappa, u, d, priors):
    P = ref.rule_out_matrix(u, [d, d])

    def run():
        model = cavscreen.PosteriorSeparable(kappa, cavscreen.neg_entropy())
        return cavscreen.binary_figure_traces(model, cavscreen.Contract(u, d), priors=priors)

    def check(traces):
        g = Gaps()
        for k, p in enumerate(priors):
            mu = [p, 1.0 - p]
            value, bound = _entropy_at(P, mu, kappa)
            g.value(f"trace value at {p}", traces.values[k], value, n=2, scale=d, bound=bound)
            plan = traces.plans[k]
            support = np.vstack([b.probs for b in plan.support])
            g.require(np.abs(np.asarray(plan.weights) @ support - mu).max() <= 1e-9,
                      "trace plan is not Bayes-plausible")
        return g.result()

    return Op("figure-traces", run, check, len(priors))


# ----- registry ------------------------------------------------------------------

CYCLES = {
    "binary-design": _binary_cycle,
    "simplex-sweep": _simplex_cycle,
    "pointwise-plans": _pointwise_cycle,
}

# Distinct cycles per run; later cycles repeat them in order.
# binary-design draws more, because its gap comes from the figure
# contracts alone and the largest of few draws varies from seed to seed.
POOL = {"binary-design": 20, "simplex-sweep": 6, "pointwise-plans": 6}


class Pool:
    """The run's cycles, generated from the seed alone.

    Cycle k is cycle k mod ``size``.  Cycles are generated in order when
    first asked for, so set-up generates only the first, and the sequence
    is the same however far a run gets.
    """

    def __init__(self, workload: str, seed: int, work: str):
        self.size = POOL[workload]
        self._rng = np.random.default_rng([seed, sorted(CYCLES).index(workload)])
        self._make = CYCLES[workload]
        self._work = work
        self._cycles: list[list[Op]] = []

    def __getitem__(self, k: int) -> list[Op]:
        k %= self.size
        while len(self._cycles) <= k:
            tag = f"c{len(self._cycles)}"
            self._cycles.append(_interleave(self._make(self._rng, self._work, tag)))
        return self._cycles[k]


def _interleave(ops: list[Op]) -> list[Op]:
    """Spread each kind over the cycle: the j-th of a kind's c operations
    goes to position j/c, ties in generated order.  A kind's latencies then
    sample the whole cycle rather than one stretch of it, so a slow spell of
    the host does not land on one kind alone; the first operation generated
    stays first."""
    total = Counter(op.kind for op in ops)
    seen: Counter = Counter()
    keys = []
    for i, op in enumerate(ops):
        keys.append((seen[op.kind] / total[op.kind], i))
        seen[op.kind] += 1
    return [ops[i] for _, i in sorted(keys)]


def build(workload: str, seed: int, work: str) -> Pool:
    return Pool(workload, seed, work)
