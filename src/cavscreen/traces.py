"""Trace computation and plain-file emitters (CSV, SVG) for the CLI.

Two-state traces sample the contract payoff, the cost-adjusted objective,
and its concave envelope on one grid.  Curves for different priors differ
from the common objective only by the potential offset kappa*c(mu), so one
envelope serves every prior.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .costs import PosteriorSeparable
from .envelopes import Envelope1d
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
    splits = [env.split(belief2(p)) for p in priors]
    return FigureTraces(
        x=xs,
        gross=gross,
        objective=objective,
        envelope=env.values(xs),
        priors=tuple(float(p) for p in priors),
        offsets=offsets,
        values=tuple(v + off for (v, _), off in zip(splits, offsets)),
        plans=tuple(plan for _, plan in splits),
    )


def learning_regions(traces: FigureTraces) -> list[tuple[float, float]]:
    """Intervals of priors where the envelope sits strictly above the
    objective, so optimal learning is non-degenerate."""
    scale = 1.0 + float(np.abs(traces.objective).max())
    gap = traces.envelope - traces.objective > _GAP_TOL * scale
    # Padded with False, the mask changes at each region's first index and
    # one past its last.
    edges = np.flatnonzero(np.diff(np.concatenate(([False], gap, [False]))))
    x = traces.x.tolist()
    return [(x[a], x[b - 1]) for a, b in zip(edges[::2].tolist(), edges[1::2].tolist())]


def figure_table(traces: FigureTraces) -> tuple[list[str], list[list[str]]]:
    """Header and formatted rows covering the shared traces and the shifted
    curve plus envelope for every prior."""
    header = ["x", "gross", "objective", "envelope"]
    for p in traces.priors:
        header += [f"curve[{p:g}]", f"envelope[{p:g}]"]
    columns = [traces.x, traces.gross, traces.objective, traces.envelope]
    for off in traces.offsets:
        columns += [traces.objective + off, traces.envelope + off]
    template = ",".join(["%.12g"] * len(columns))
    rows = [(template % row).split(",") for row in zip(*(c.tolist() for c in columns))]
    return header, rows


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """CSV with CRLF line ends, as the csv module writes it, for fields that
    need no quoting (numbers and plain labels)."""
    lines = [",".join(header)] + [",".join(row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# SVG canvas size in pixels.
_WIDTH, _HEIGHT = 720, 460


def write_svg(
    path, x: np.ndarray, series: Sequence[tuple[str, np.ndarray]], title: str = ""
) -> None:
    """Minimal line plot: axes, ticks, one polyline per labeled series."""
    left, right, top, bottom = 60.0, _WIDTH - 20.0, 30.0, _HEIGHT - 40.0
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
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
    px = sx(x)
    template = " ".join(["%.2f,%.2f"] * x.size)
    for k, (label, y) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pairs = np.column_stack([px, sy(np.asarray(y, dtype=float))]).ravel()
        coords = template % tuple(pairs.tolist())
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
