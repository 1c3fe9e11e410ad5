"""Trace computation and plain-file emitters (CSV, SVG) for the CLI.

Two-state traces sample the contract payoff, the cost-adjusted objective,
and its concave envelope on one grid.  Curves for different priors differ
from the common objective only by the potential offset kappa*c(mu), so one
envelope serves every prior.
"""

from __future__ import annotations

import csv
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .costs import PosteriorSeparable
from .envelopes import Envelope1d, concavify_1d
from .simplex import Contract, PosteriorDistribution, belief2, simplex_grid_array
from .values import SimpleAnnouncement

_GAP_TOL = 1e-11


class FigureTraces(NamedTuple):
    x: np.ndarray
    gross: np.ndarray
    objective: np.ndarray
    envelope: np.ndarray
    priors: tuple[float, ...]
    offsets: tuple[float, ...]
    values: tuple[float, ...]
    plans: tuple[PosteriorDistribution, ...]

    def curve(self, k: int) -> np.ndarray:
        return self.objective + self.offsets[k]


def binary_figure_traces(
    model: PosteriorSeparable,
    contract: Contract,
    priors: Sequence[float] = (0.47, 0.50, 0.53),
    resolution: int = 1000,
) -> FigureTraces:
    """Payoff, objective, and envelope traces for a two-state contract,
    with the optimal plan at each requested prior."""
    xs = np.unique(
        np.concatenate([simplex_grid_array(2, resolution)[:, 0], np.asarray(priors)])
    )
    pts = np.column_stack([xs, 1.0 - xs])
    value = SimpleAnnouncement(contract)
    gross = value.batch(pts)
    potential = model.potential.batch(pts)
    objective = gross - model.kappa * potential
    env = Envelope1d(xs, objective)
    offsets = tuple(
        float(model.kappa * model.potential.value(belief2(p))) for p in priors
    )
    values = []
    plans = []
    for p, off in zip(priors, offsets):
        v, plan = concavify_1d(xs, objective, p)
        values.append(v + off)
        plans.append(plan)
    return FigureTraces(
        x=xs,
        gross=gross,
        objective=objective,
        envelope=env.values(xs),
        priors=tuple(float(p) for p in priors),
        offsets=offsets,
        values=tuple(values),
        plans=tuple(plans),
    )


def learning_regions(traces: FigureTraces) -> list[tuple[float, float]]:
    """Intervals of priors where the envelope sits strictly above the
    objective, so optimal learning is non-degenerate."""
    scale = 1.0 + float(np.abs(traces.objective).max())
    gap = traces.envelope - traces.objective > _GAP_TOL * scale
    regions = []
    start = None
    for k, inside in enumerate(gap):
        if inside and start is None:
            start = k
        elif not inside and start is not None:
            regions.append((float(traces.x[start]), float(traces.x[k - 1])))
            start = None
    if start is not None:
        regions.append((float(traces.x[start]), float(traces.x[-1])))
    return regions


def figure_table(traces: FigureTraces) -> tuple[list[str], list[list[str]]]:
    """Header and formatted rows covering the shared traces and the shifted
    curve plus envelope for every prior."""
    header = ["x", "gross", "objective", "envelope"]
    for p in traces.priors:
        header += [f"curve[{p:g}]", f"envelope[{p:g}]"]
    rows = []
    for i in range(traces.x.size):
        row = [
            traces.x[i],
            traces.gross[i],
            traces.objective[i],
            traces.envelope[i],
        ]
        for off in traces.offsets:
            row += [traces.objective[i] + off, traces.envelope[i] + off]
        rows.append([_fmt(v) for v in row])
    return header, rows


def _fmt(v) -> str:
    return format(float(v), ".12g")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg(
    path,
    x: np.ndarray,
    series: Sequence[tuple[str, np.ndarray]],
    title: str = "",
    width: int = 720,
    height: int = 460,
) -> None:
    """Minimal line plot: axes, ticks, one polyline per labeled series."""
    left, right, top, bottom = 60.0, width - 20.0, 30.0, height - 40.0
    x = np.asarray(x, dtype=float)
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in series])
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(v):
        return bottom - (v - y_lo) / (y_hi - y_lo) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{0.5 * (left + right):.1f}" y="18" text-anchor="middle">{title}</text>'
        )
    for k in range(5):
        xv = x_lo + k * (x_hi - x_lo) / 4
        yv = y_lo + k * (y_hi - y_lo) / 4
        parts.append(
            f'<line x1="{sx(xv):.1f}" y1="{bottom}" x2="{sx(xv):.1f}" y2="{bottom + 4}" stroke="black"/>'
            f'<text x="{sx(xv):.1f}" y="{bottom + 16}" text-anchor="middle">{xv:g}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{sy(yv):.1f}" x2="{left}" y2="{sy(yv):.1f}" stroke="black"/>'
            f'<text x="{left - 7}" y="{sy(yv) + 4:.1f}" text-anchor="end">{yv:.4g}</text>'
        )
    for k, (label, y) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{right - 8}" y="{top + 14 + 14 * k}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
