"""Every row of tools/bench_layers.py builds and runs on this tree, so a
renamed or re-signed layer fails here instead of reading null in the next
timing run."""

import importlib.util
from pathlib import Path

import pytest

import cavscreen.cli

_spec = importlib.util.spec_from_file_location(
    "bench_layers", Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"
)
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)


@pytest.mark.parametrize(
    "row", bench_layers.ROWS, ids=[f"{layer}, n = {n}" for layer, n, *_ in bench_layers.ROWS]
)
def test_row_builds_and_runs(row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the CSV, SVG and figure rows write files
    build = row[-1]
    build(cavscreen)()


def test_compare_reads_null_rows_and_zero_medians():
    runs = {"old": [[None, 0.0], [None, 0.0]], "new": [[4.0, 0.0], [2.0, 0.0]]}
    new = {"median": 3.0, "q1": 2.5, "q3": 3.5}
    assert bench_layers.compare(runs, 0) == {"old": None, "new": new}
    zeros = bench_layers.compare(runs, 1)
    assert zeros["change_pct"] is None and zeros["new_wins"] == "0/2"
    faster = bench_layers.compare({"a": [[2.0], [4.0]], "b": [[1.0], [5.0]]}, 0)
    assert faster["change_pct"] == 0.0 and faster["b_wins"] == "1/2"
