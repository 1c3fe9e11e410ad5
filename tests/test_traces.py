"""Figure traces: curves, learning regions, CSV and SVG emission."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cavscreen import (
    Contract,
    Envelope1d,
    PosteriorSeparable,
    Potential,
    binary_figure_traces,
    design_binary_contract,
    figure_table,
    learning_regions,
    neg_entropy,
    quadratic,
    write_csv,
    write_svg,
)
from cavscreen.traces import FigureTraces


def table_oracle(traces):
    """figure_table's lines, one field at a time."""
    columns = [traces.x, traces.gross, traces.objective, traces.envelope]
    for off in traces.offsets:
        columns += [traces.objective + off, traces.envelope + off]
    return [",".join(format(v, ".12g") for v in row) for row in zip(*(c.tolist() for c in columns))]


def points_oracle(x, series):
    """write_svg's polyline points, one "%.2f,%.2f" pair at a time, on its
    720 x 460 canvas with 5% vertical padding."""
    left, right, top, bottom = 60.0, 700.0, 30.0, 420.0
    ys = np.concatenate([y for _, y in series])
    y_lo, y_hi = ys.min(), ys.max()
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    px = left + (x - x.min()) / (x.max() - x.min()) * (right - left)
    pys = [bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top) for _, y in series]
    return [" ".join("%.2f,%.2f" % pair for pair in zip(px, py)) for py in pys]


# Traces whose fields take negative, signed-zero and exponent forms.
EDGE_VALUES = np.array(
    [-0.0, 0.0, 5e-324, 1e-300, -2.5e-7, 1.0 / 3.0, 0.1, 123456789012.5, 1e16, -1e22]
)
EDGE_TRACES = {
    "crafted": FigureTraces(
        x=EDGE_VALUES, gross=-EDGE_VALUES, objective=EDGE_VALUES[::-1],
        envelope=EDGE_VALUES * 1e-5, priors=(0.47, 0.5), offsets=(-0.0, 1e-17),
        values=(), plans=(),
    ),
    **{
        name: binary_figure_traces(PosteriorSeparable(kappa, potential), contract, resolution=60)
        for name, kappa, potential, contract in (
            ("tiny", 1e-9, neg_entropy(), Contract(2e-12, 5e-12)),
            ("huge", 1e9, neg_entropy(), Contract(1e14, 3e14)),
            ("negative", 3.0, quadratic(), Contract(0.2, 1.0)),
        )
    },
}


@pytest.fixture(scope="module")
def designed():
    model = PosteriorSeparable(1.0, neg_entropy())
    contract = design_binary_contract(model)
    traces = binary_figure_traces(model, contract)
    return model, contract, traces


class TestTraceShapes:
    def test_envelope_dominates_objective(self, designed):
        _, _, traces = designed
        assert (traces.envelope >= traces.objective - 1e-9).all()

    def test_center_curve_is_pointwise_lowest(self, designed):
        _, _, traces = designed
        center = traces.curve(1)
        for k in (0, 2):
            flank = traces.curve(k)
            assert (flank >= center - 1e-12).all()
            assert flank.max() > center.max()

    def test_flanks_mirror_each_other(self, designed):
        # priors 0.47 and 0.53 sit symmetrically around 1/2, and so do their
        # curves once the x axis is reflected
        _, _, traces = designed
        x = traces.x
        left = traces.curve(0)
        right_reflected = np.interp(x, x, traces.curve(2)[::-1])
        sym = np.allclose(x, 1.0 - x[::-1], atol=1e-12)
        assert sym
        np.testing.assert_allclose(left, right_reflected, atol=1e-9)

    def test_center_splits_flanks_stay(self, designed):
        _, _, traces = designed
        assert not traces.plans[1].is_degenerate()
        assert traces.plans[0].is_degenerate()
        assert traces.plans[2].is_degenerate()

    def test_learning_region_brackets_the_center(self, designed):
        _, _, traces = designed
        regions = learning_regions(traces)
        assert len(regions) == 1
        lo, hi = regions[0]
        assert lo < 0.5 < hi
        assert 0.47 < lo and hi < 0.53

    def test_learning_regions_match_a_loop_over_the_gap_mask(self, designed):
        _, _, traces = designed

        def loop(traces):
            scale = 1.0 + float(np.abs(traces.objective).max())
            gap = traces.envelope - traces.objective > 1e-11 * scale
            regions, start = [], None
            for k, inside in enumerate(gap):
                if inside and start is None:
                    start = k
                elif not inside and start is not None:
                    regions.append((float(traces.x[start]), float(traces.x[k - 1])))
                    start = None
            if start is not None:
                regions.append((float(traces.x[start]), float(traces.x[-1])))
            return regions

        rng = np.random.default_rng(70)
        size = traces.x.size
        masks = [np.zeros(size, bool), np.ones(size, bool), np.arange(size) % 2 == 0]
        masks += [rng.uniform(size=size) < p for p in (0.01, 0.3, 0.5, 0.97)]
        for mask in masks:
            bumped = traces._replace(envelope=traces.objective + 1e-3 * mask)
            assert learning_regions(bumped) == loop(bumped)
        assert learning_regions(traces) == loop(traces)

    def test_offsets_shift_curves_by_prior_potential(self, designed):
        model, _, traces = designed
        for k, p in enumerate(traces.priors):
            want = model.kappa * neg_entropy().value(np.array([p, 1.0 - p]))
            assert traces.offsets[k] == pytest.approx(want, abs=1e-12)


class TestOneEnvelope:
    def test_every_prior_splits_the_same_envelope(self, monkeypatch):
        builds = []
        real = Envelope1d.__init__

        def counting(self, xs, fs):
            builds.append(len(xs))
            real(self, xs, fs)

        monkeypatch.setattr(Envelope1d, "__init__", counting)
        model = PosteriorSeparable(1.0, neg_entropy())
        traces = binary_figure_traces(
            model, Contract(0.2, 1.0), priors=(0.3, 0.47, 0.5, 0.53, 0.7)
        )
        assert builds == [traces.x.size]


class TestFreeLearning:
    def test_zero_potential_envelope_is_the_chord(self):
        model = PosteriorSeparable(1.0, Potential("zero", lambda pts: np.zeros(len(pts))))
        contract = Contract(1.0, 4.0)
        traces = binary_figure_traces(model, contract, resolution=400)
        np.testing.assert_allclose(traces.envelope, 1.0, atol=1e-12)
        for plan in traces.plans:
            support = sorted(b[0] for b in plan.support)
            np.testing.assert_allclose(support, [0.0, 1.0], atol=1e-12)


class TestEmission:
    def test_csv_is_byte_stable(self, designed, tmp_path):
        _, _, traces = designed
        header, rows = figure_table(traces)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(first, header, rows)
        write_csv(second, header, rows)
        assert first.read_bytes() == second.read_bytes()

    def test_csv_layout(self, designed, tmp_path):
        _, _, traces = designed
        header, lines = figure_table(traces)
        assert header[:4] == ["x", "gross", "objective", "envelope"]
        assert [len(line.split(",")) for line in lines] == [len(header)] * len(traces.x)

    @pytest.mark.parametrize("case", ["designed", *EDGE_TRACES])
    def test_csv_lines_match_per_field_formatting(self, case, designed, tmp_path):
        traces = designed[2] if case == "designed" else EDGE_TRACES[case]
        header, lines = figure_table(traces)
        want = table_oracle(traces)
        assert lines == want
        write_csv(tmp_path / "t.csv", header, lines)
        assert (tmp_path / "t.csv").read_bytes() == ",".join(header).encode() + b"".join(
            b"\r\n" + line.encode() for line in want
        ) + b"\r\n"

    def test_csv_edge_fields_take_every_form(self):
        fields = {f for line in figure_table(EDGE_TRACES["crafted"])[1] for f in line.split(",")}
        forms = {"-0", "0", "4.94065645841e-324", "1e-300", "-2.5e-07", "123456789012", "-1e+22"}
        assert forms <= fields

    @pytest.mark.parametrize("case", ["designed", *EDGE_TRACES])
    def test_svg_points_match_per_pair_formatting(self, case, designed, tmp_path):
        traces = designed[2] if case == "designed" else EDGE_TRACES[case]
        series = [("gross", traces.gross), ("objective", traces.objective),
                  ("envelope", traces.envelope)]
        path = tmp_path / "figure.svg"
        write_svg(path, traces.x, series, title="traces")
        root = ET.parse(path).getroot()
        got = [e.get("points") for e in root.iter() if e.tag.endswith("polyline")]
        assert got == points_oracle(traces.x, series)

    def test_svg_is_wellformed(self, designed, tmp_path):
        _, _, traces = designed
        path = tmp_path / "figure.svg"
        write_svg(
            path,
            traces.x,
            [("objective", traces.objective), ("envelope", traces.envelope)],
            title="traces",
        )
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2
