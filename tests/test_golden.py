"""Byte-stable CLI outputs: the exit code, stdout, stderr and written files of
fixed commands, compared byte for byte (line terminators included) with the
files under ``tests/golden/``.

Golden files change only on purpose, with the reason recorded in CHANGES.md.
To rewrite them after such a change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

import cavscreen.cli as cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
FIGURE_FILES = ("figure.csv", "figure.svg")

# case name: (argv, files the command writes to --out).  A case that writes
# files gets --out; the commands that write none do not take it.
CASES = {
    **{f"screen-{path.stem}": (["screen", "--config", str(path)], ()) for path in CONFIGS},
    "xi-screen-default": (["xi-screen"], ()),
    "example-one": (["example-one"], ("example_one.csv",)),
    "figure-default": (["figure", "--format", "both"], FIGURE_FILES),
    "figure-free-learning": (
        ["figure", "--config", str(ROOT / "configs" / "figure_free_learning.yaml"),
         "--format", "both"],
        FIGURE_FILES,
    ),
}


def run_case(name: str, out: Path) -> dict[str, bytes]:
    """Golden file name -> content bytes for one case, with the --out path
    replaced by ``OUT``."""
    argv, files = CASES[name]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + (["--out", str(out)] if files else []))
    text = f"exit: {code}\n[stdout]\n{stdout.getvalue()}[stderr]\n{stderr.getvalue()}"
    result = {f"{name}.txt": text.replace(str(out), "OUT").encode()}
    for file in files:
        result[f"{name}.{file}"] = (out / file).read_bytes()
    return result


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(tmp_path, name):
    for file, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / file).read_bytes(), f"{file} differs from its golden copy"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for file, data in run_case(name, Path(tmp)).items():
                (GOLDEN / file).write_bytes(data)
