"""Command-line front end.

Each command takes only the options it reads (``_COMMANDS``), and ``main``
is the one place that maps failures to exit codes: 0 on success, 1 on a
value mismatch (including failed acceptance criteria), 2 when a
construction is infeasible or a contract fails to screen, 3 on a config or
command-line error, a flag the command does not take included.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import acceptance as acceptance_mod
from .config import (
    assumption_from,
    ball_from,
    belief_from,
    choice_from,
    contract_from,
    cost_model_from,
    load_config,
    number_from,
    priors_from,
    resolution_from,
    states_from,
)
from .costs import PosteriorSeparable, neg_entropy
from .errors import (
    AssumptionViolated,
    BoundaryPrior,
    CavscreenError,
    ConfigError,
    DimensionMismatch,
    NoFeasibleU,
    SearchExhausted,
)
from .screening import (
    UNINFORMED,
    VARIANTS,
    construct_screening_contract,
    design_binary_contract,
    prop2_contract,
    rejection_measure,
    screens,
    xi_screen_search,
)
from .traces import (
    binary_figure_traces,
    figure_table,
    learning_regions,
    write_csv,
    write_svg,
)
from .values import SimpleAnnouncement

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3


def _load(args) -> dict:
    return load_config(args.config) if args.config else {}


def _cmd_example_one(args) -> int:
    rows, outside = acceptance_mod.worked_example()
    ok = True
    for mu, learns, want, _, got in rows:
        flag = abs(got - want) <= 1e-9
        ok &= flag
        verdict = "ok" if flag else f"MISMATCH: expected {want:g}"
        label = "informed" if learns else "stay-put"
        print(f"prior {mu:4.2f}: {label} {got:10.4f}  {'(learning pays) ' if learns else ''}{verdict}")
    flag = abs(outside - acceptance_mod.WORKED_MAXIMIN) <= 1e-9
    ok &= flag
    print(f"uninformed maximin: {outside:.4f} {'ok' if flag else 'MISMATCH'}")
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "example_one.csv")
    write_csv(path, ["prior", "stay_put", "informed"],
              [",".join(format(v, ".12g") for v in (mu, stay, got)) for mu, _, _, stay, got in rows])
    print(f"wrote {path}")
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_figure(args) -> int:
    cfg = _load(args)
    if "model" in cfg:
        model = cost_model_from(cfg)
        if not isinstance(model, PosteriorSeparable):
            raise ConfigError("figure traces need a posterior-separable model")
    else:
        model = PosteriorSeparable(1.0, neg_entropy())
    contract = contract_from(cfg)
    if contract is None:
        contract = design_binary_contract(model)
        print(f"designed contract: u={contract.u:.6g} d={contract.d:.6g}")
    priors = priors_from(cfg, (0.47, 0.50, 0.53))
    resolution = resolution_from(cfg) or 1000
    traces = binary_figure_traces(model, contract, priors=priors, resolution=resolution)
    for k, p in enumerate(traces.priors):
        plan = traces.plans[k]
        how = (
            "stays put"
            if plan.is_degenerate()
            else "splits onto " + ", ".join(f"{b[0]:.4g}" for b in plan.support)
        )
        print(f"prior {p:g}: value {traces.values[k]:.6g}, {how}")
    regions = learning_regions(traces)
    print("learning regions: " + (", ".join(f"[{a:g}, {b:g}]" for a, b in regions) or "none"))
    os.makedirs(args.out, exist_ok=True)
    if args.fmt in ("csv", "both"):
        header, rows = figure_table(traces)
        path = os.path.join(args.out, "figure.csv")
        write_csv(path, header, rows)
        print(f"wrote {path}")
    if args.fmt in ("svg", "both"):
        series = [
            ("payoff", traces.gross),
            ("objective", traces.objective),
            ("envelope", traces.envelope),
        ] + [(f"curve mu={p:g}", traces.curve(k)) for k, p in enumerate(traces.priors)]
        path = os.path.join(args.out, "figure.svg")
        write_svg(path, traces.x, series, title="value of information traces")
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_screen(args) -> int:
    cfg = _load(args)
    model = cost_model_from(cfg)
    contract = None if cfg.get("contract") == "search" else contract_from(cfg)
    rho = belief_from(cfg["rho"], "rho") if "rho" in cfg else None
    kind = choice_from(cfg, "uninformed", UNINFORMED, "maximin")
    variant = choice_from(cfg, "variant", VARIANTS, "simple")
    n = states_from(cfg)
    resolution = resolution_from(cfg)
    if contract is None:
        built = construct_screening_contract(
            model, assumption_from(cfg), center=rho, n=n, resolution=resolution,
            eta=number_from(cfg, "eta", 0.1, low=0.0),
        )
        print(
            f"constructed contract u={built.contract.u:.6g} d={built.contract.d:.6g} "
            f"from certificate (epsilon={built.certificate.epsilon:.6g}, "
            f"T={built.certificate.T:.6g})"
        )
        report = built.report
    else:
        report = screens(
            model, contract, n, grid=ball_from(cfg, resolution), resolution=resolution,
            uninformed=kind, rho=rho, variant=variant,
        )
    print(report.to_text())
    return EXIT_OK if report.screens else EXIT_INFEASIBLE


def _cmd_prop2(args) -> int:
    cfg = _load(args)
    if "rho" not in cfg:
        raise ConfigError("prop2 needs rho: the belief to equalize against")
    rho = belief_from(cfg["rho"], "rho")
    d_last = number_from(cfg, "d_last", 1.0, low=0.0)
    u = number_from(cfg, "u", 0.999 * rho[rho.n - 1] * d_last, low=0.0)
    contract = prop2_contract(rho, u, d_last)
    fines = ", ".join(f"{d:.6g}" for d in contract.fines())
    print(f"contract: u={contract.u:.6g} fines=({fines})")
    expected = np.asarray(contract.fines()) * rho.probs
    print(
        f"expected fines at rho: {expected[0]:.6g} "
        f"(spread {expected.max() - expected.min():.3g})"
    )
    print(f"uninformed value at rho: {SimpleAnnouncement(contract).value(rho):.6g}")
    if "model" in cfg:
        model = cost_model_from(cfg)
        resolution = resolution_from(cfg)
        report = screens(model, contract, rho.n, resolution=resolution, uninformed="seu", rho=rho)
        print(report.to_text())
        return EXIT_OK if report.screens else EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_xi_screen(args) -> int:
    cfg = _load(args)
    model = cost_model_from(cfg) if "model" in cfg else PosteriorSeparable(
        0.01, neg_entropy()
    )
    xi = number_from(cfg, "xi", 0.1, low=0.0, high=1.0)
    n = states_from(cfg) or 2
    resolution = resolution_from(cfg)
    found = xi_screen_search(model, xi, n=n, resolution=resolution, seed=args.seed)
    print(f"contract: u={found.contract.u:.6g} d={found.contract.d:.6g}")
    print(
        f"rejection mass: {found.rejection:.4f} +/- {found.half_width:.4f} "
        f"({found.samples} samples), target >= {1.0 - xi:.4f}"
    )
    print(f"informed worst net value: {found.informed_min:.6g}")
    print(f"analytic rejection mass: {rejection_measure(found.contract, n):.6f}")
    return EXIT_OK


def _cmd_acceptance(args) -> int:
    results = acceptance_mod.run_all()
    for result in results:
        print(result.line())
    failed = sum(not r.ok for r in results)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


# The argparse settings of every option.
_OPTIONS = {
    "--config": dict(metavar="PATH", help="YAML run configuration"),
    "--seed": dict(type=int, default=0, metavar="N"),
    "--out": dict(metavar="DIR", default=".", help="output directory"),
    "--format": dict(choices=("csv", "svg", "both"), default="csv", dest="fmt"),
}

# name: (handler, the options it reads and so takes, help)
_COMMANDS = {
    "example-one": (_cmd_example_one, ("--out",), "verify the worked two-state menu scenario"),
    "figure": (_cmd_figure, ("--config", "--out", "--format"),
               "emit payoff/objective/envelope traces for a two-state contract"),
    "screen": (_cmd_screen, ("--config",), "verify that a configured contract screens"),
    "prop2": (_cmd_prop2, ("--config",),
              "build a contract with fines equalized against a belief"),
    "xi-screen": (_cmd_xi_screen, ("--config", "--seed"),
                  "search for a contract rejected by most uninformed beliefs"),
    "acceptance": (_cmd_acceptance, (), "run the acceptance criteria"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors; the
    subcommand parsers are built from this class too."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="cavscreen",
        description="Contract screening with endogenous information acquisition.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, help_) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_)
        for option in options:
            sub.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (ConfigError, ValueError, DimensionMismatch) as exc:
        # A bad command line, config field, or grid, or a state count that the
        # config's n, rho, contract and model disagree on.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AssumptionViolated, NoFeasibleU, BoundaryPrior) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        if exc.best is not None:
            print(
                f"best near miss: u={exc.best.contract.u:.6g} "
                f"d={exc.best.contract.d:.6g} rejection {exc.best.rejection:.4f}",
                file=sys.stderr,
            )
        return EXIT_INFEASIBLE
    except CavscreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    raise SystemExit(main())
