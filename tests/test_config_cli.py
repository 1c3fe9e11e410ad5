"""Configuration parsing and the command-line front end."""

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import cavscreen.cli as cli
import cavscreen.simplex as simplex
from cavscreen import ConfigError, FixedMenu, PosteriorSeparable, degenerate, belief2
from cavscreen.config import belief_from, contract_from, cost_model_from, load_config
from cavscreen.costs import distribution_cost
from cavscreen.simplex import PosteriorDistribution

CONFIG_DIR = Path(__file__).parent.parent / "configs"
MENU_MODEL = """\
model:
  kind: fixed-menu
  menu:
    - price: 50.0
      likelihoods:
        - [0.75, 0.25]
        - [0.25, 0.75]
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def out(command, tmp_path):
    """--out into tmp_path for the commands that take it, else nothing."""
    return ["--out", str(tmp_path)] if "--out" in OPTIONS[command] else []


class TestLoadConfig:
    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.yaml")

    def test_unparseable_yaml(self, tmp_path):
        path = write(tmp_path, "bad.yaml", "model: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_mapping_root(self, tmp_path):
        path = write(tmp_path, "list.yaml", "- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_empty_file_is_empty_config(self, tmp_path):
        assert load_config(write(tmp_path, "empty.yaml", "")) == {}

    @pytest.mark.parametrize(
        "text, value",
        [("1e-3", 1e-3), ("2E+1", 20.0), (".5e-2", 0.005), ("-1e-9", -1e-9), ("+3e0", 3.0),
         ("1.5e3", 1500.0), ("1.e5", 1e5), ("1e400", math.inf)],
    )
    def test_yaml_1_2_exponents_without_a_dot_are_floats(self, tmp_path, text, value):
        cfg = load_config(write(tmp_path, "float.yaml", f"x: {text}\n"))
        assert type(cfg["x"]) is float and cfg["x"] == value

    def test_quoted_exponents_stay_strings_and_the_python_loader_is_untouched(self, tmp_path):
        text = 'x: "1e-3"\ny: 1e\nz: e5\nw: 1_000\n'
        assert load_config(write(tmp_path, "strings.yaml", text)) == {
            "x": "1e-3", "y": "1e", "z": "e5", "w": 1000
        }
        # The extra resolver lives on cavscreen's loader only.
        assert yaml.load("x: 1e-3\n", Loader=yaml.SafeLoader) == {"x": "1e-3"}


class TestModelSection:
    def test_posterior_separable(self):
        model = cost_model_from({"model": {"kappa": 0.3, "potential": "quadratic"}})
        assert isinstance(model, PosteriorSeparable)
        assert model.kappa == 0.3
        assert model.potential.name == "quadratic"

    def test_zero_kappa_means_free_learning(self):
        model = cost_model_from({"model": {"kappa": 0.0}})
        full = PosteriorDistribution(
            support=[belief2(0.0), belief2(1.0)], weights=[0.5, 0.5], prior=belief2(0.5)
        )
        assert distribution_cost(model, full) == 0.0
        assert distribution_cost(model, degenerate(belief2(0.3))) == 0.0

    def test_menu_model(self, tmp_path):
        cfg = load_config(write(tmp_path, "m.yaml", MENU_MODEL))
        model = cost_model_from(cfg)
        assert isinstance(model, FixedMenu)
        assert model.entries[0][1] == 50.0

    def test_missing_kappa(self):
        with pytest.raises(ConfigError):
            cost_model_from({"model": {"potential": "neg-entropy"}})

    def test_unknown_potential(self):
        with pytest.raises(ConfigError):
            cost_model_from({"model": {"kappa": 1.0, "potential": "cubic"}})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            cost_model_from({"model": {"kind": "mystery"}})

    def test_model_section_required(self):
        with pytest.raises(ConfigError):
            cost_model_from({})


class TestContractSection:
    def test_common_fine(self):
        c = contract_from({"contract": {"u": 250.0, "d": 600.0}})
        assert (c.u, c.d) == (250.0, 600.0)

    def test_fine_vector(self):
        gc = contract_from({"contract": {"u": 1.0, "fines": [3.0, 1.0]}})
        np.testing.assert_allclose(gc.fines(), [3.0, 1.0])

    def test_absent_contract(self):
        assert contract_from({}) is None

    def test_invalid_values_become_config_errors(self):
        with pytest.raises(ConfigError):
            contract_from({"contract": {"u": -1.0, "d": 2.0}})

    def test_belief_validation(self):
        assert belief_from([0.25, 0.75]).n == 2
        with pytest.raises(ConfigError):
            belief_from("not-a-list")
        with pytest.raises(ConfigError):
            belief_from([0.5, 0.6], "rho")


class TestExampleOneCommand:
    def test_passes_and_reports(self, capsys, tmp_path):
        code = cli.main(["example-one", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "uninformed maximin: -50.0000 ok" in out
        assert (tmp_path / "example_one.csv").exists()

    def test_csv_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["example-one", "--out", str(a)]) == 0
        assert cli.main(["example-one", "--out", str(b)]) == 0
        capsys.readouterr()
        assert (a / "example_one.csv").read_bytes() == (b / "example_one.csv").read_bytes()


class TestScreenCommand:
    def test_worked_example_config(self, capsys):
        code = cli.main(["screen", "--config", "configs/example_one.yaml"])
        out = capsys.readouterr().out
        assert code == 0
        assert "screens: yes" in out

    def test_null_menu_boundary_payment(self, capsys):
        code = cli.main(["screen", "--config", "configs/null_menu_boundary.yaml"])
        out = capsys.readouterr().out
        assert code == 2
        assert "screens: no" in out
        assert "uninformed (maximin): 0" in out

    def test_urn_ball_config(self, capsys):
        code = cli.main(["screen", "--config", "configs/urn_color_calls.yaml"])
        out = capsys.readouterr().out
        assert code == 0
        assert "screens: yes" in out
        assert "-0.0015" in out

    def test_search_mode(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "search.yaml",
            MENU_MODEL + "contract: search\nn: 2\n",
        )
        code = cli.main(["screen", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "constructed contract" in out
        assert "screens: yes" in out

    def test_overclaimed_assumption_exits_infeasible(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "claim.yaml",
            MENU_MODEL
            + "n: 2\nassumption:\n  epsilon: 0.2\n  eta: 0.1\n  T: 50.0\n",
        )
        code = cli.main(["screen", "--config", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "infeasible" in err

    def test_resolution_key_controls_lattice(self, capsys, tmp_path):
        text = (CONFIG_DIR / "example_one.yaml").read_text() + "resolution: 200\n"
        code = cli.main(["screen", "--config", write(tmp_path, "r200.yaml", text)])
        out = capsys.readouterr().out
        assert code == 0
        assert "resolution 200" in out

    def test_ball_fixes_the_state_count(self, capsys, tmp_path):
        text = ENTROPY_SCREEN + "ball:\n  center: [0.2, 0.3, 0.5]\nresolution: 20\n"
        code = cli.main(["screen", "--config", write(tmp_path, "ball3.yaml", text)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("states: 3   priors: custom grid")
        assert "screens: yes" in out

    @pytest.mark.parametrize(
        "base, key, value",
        [
            pytest.param(MENU_MODEL + "contract: search\nn: 2\n", "norm", "sup", id="norm"),
            pytest.param(MENU_MODEL + "contract: search\nn: 2\n", "margin", 0.5, id="margin"),
            pytest.param((CONFIG_DIR / "urn_color_calls.yaml").read_text(), "ball.norm", "sup",
                         id="ball-norm"),
            pytest.param((CONFIG_DIR / "example_one.yaml").read_text(), "model.menu.0.signals",
                         ["h"], id="signals"),
        ],
    )
    def test_unread_keys_leave_the_verdict_alone(self, capsys, tmp_path, base, key, value):
        # Each value would change the output or fail, were the key read.
        cfg = yaml.safe_load(base)
        *parents, leaf = key.split(".")
        node = cfg
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        node[leaf] = value
        without = cli.main(["screen", "--config", write(tmp_path, "without.yaml", base)])
        want = capsys.readouterr()
        path = write(tmp_path, "with.yaml", yaml.safe_dump(cfg))
        assert cli.main(["screen", "--config", path]) == without == 0
        assert capsys.readouterr() == want


class TestFigureCommand:
    def test_default_design_writes_files(self, capsys, tmp_path):
        code = cli.main(["figure", "--out", str(tmp_path), "--format", "both"])
        out = capsys.readouterr().out
        assert code == 0
        assert "designed contract" in out
        assert (tmp_path / "figure.csv").exists()
        assert (tmp_path / "figure.svg").exists()

    def test_free_learning_config(self, capsys, tmp_path):
        code = cli.main(
            [
                "figure",
                "--config",
                "configs/figure_free_learning.yaml",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "splits onto 0, 1" in out


class TestProp2Command:
    def test_quarter_prior(self, capsys, tmp_path):
        path = write(tmp_path, "p2.yaml", "rho: [0.25, 0.75]\nd_last: 100.0\nu: 1.0\n")
        code = cli.main(["prop2", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "fines=(300, 100)" in out
        assert "spread" in out

    def test_missing_rho_is_a_config_error(self, capsys, tmp_path):
        path = write(tmp_path, "norho.yaml", "d_last: 1.0\n")
        assert cli.main(["prop2", "--config", path]) == 3


class TestXiScreenCommand:
    def test_null_fields_take_their_defaults(self, capsys, tmp_path):
        path = write(tmp_path, "xi.yaml", "xi: null\nn: null\nresolution: 20\n")
        assert cli.main(["xi-screen", "--config", path]) == 0
        assert "target >= 0.9000" in capsys.readouterr().out

    def test_default_model_search(self, capsys, tmp_path):
        path = write(tmp_path, "xi.yaml", "xi: 0.5\n")
        code = cli.main(["xi-screen", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "rejection mass" in out
        assert "analytic rejection mass" in out


# The options each command takes: the ones it reads.  Adding one shows up here.
OPTIONS = {
    "example-one": ["--out"],
    "figure": ["--config", "--out", "--format"],
    "screen": ["--config"],
    "prop2": ["--config"],
    "xi-screen": ["--config", "--seed"],
    "acceptance": [],
}


class TestCommandLine:
    def test_each_command_takes_only_the_options_it_reads(self):
        (subs,) = (
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        taken = {
            name: [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, sub in subs.choices.items()
        }
        assert taken == OPTIONS
        assert sum(map(len, taken.values())) == 8

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["xi-screen", "--seed", "1.5"], id="seed-not-an-int"),
            pytest.param(["figure", "--format", "pdf"], id="unknown-format"),
            pytest.param(["example-one", "--format", "svg"], id="example-one-format"),
            pytest.param(["figure", "--config"], id="config-without-path"),
            pytest.param(["screen", "--bogus"], id="unknown-flag"),
            pytest.param(["screen", "--config", "configs/example_one.yaml", "--out", "d"],
                         id="screen-out"),
            pytest.param(["screen", "--config", "configs/example_one.yaml", "--seed", "5"],
                         id="screen-seed"),
            pytest.param(["acceptance", "--config", "x"], id="acceptance-config"),
            pytest.param(["example-one", "--grid", "5"], id="example-one-grid"),
            # The lattice is named by YAML resolution alone: no command takes --grid.
            pytest.param(["figure", "--out", "{tmp}", "--grid", "40"], id="figure-grid"),
            pytest.param(["screen", "--config", str(CONFIG_DIR / "shannon_window.yaml"),
                          "--grid", "40"], id="screen-grid"),
            pytest.param(["prop2", "--config", "{tmp}/rho.yaml", "--grid", "40"], id="prop2-grid"),
            pytest.param(["xi-screen", "--grid", "40"], id="xi-screen-grid"),
            pytest.param([], id="no-command"),
            pytest.param(["bogus"], id="unknown-command"),
        ],
    )
    def test_rejected_command_lines_are_config_errors(self, capsys, tmp_path, argv):
        # {tmp} is a scratch directory holding rho.yaml, a config prop2 runs on.
        write(tmp_path, "rho.yaml", "rho: [0.25, 0.75]\n")
        assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [[], ["screen", "--bogus"]], ids=["no-command", "unknown-flag"])
    def test_rejected_command_lines_exit_3_from_the_process(self, argv):
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-m", "cavscreen.cli", *argv], capture_output=True, text=True, env=env
        )
        assert run.returncode == 3
        assert run.stderr.startswith("config error: ") and "Traceback" not in run.stderr

    @pytest.mark.parametrize("command", [None, *OPTIONS])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "-h"] if command else ["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cavscreen")


SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.yaml"))
ENTROPY_SCREEN = "model:\n  kappa: 0.1\ncontract:\n  u: 0.1\n  d: 1.0\n"


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        assert cli.main(["screen", "--config", "/does/not/exist.yaml"]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [b"model: [unclosed\n", b"a: b: c\n", b"\x07a: 1\n", b"a: 1\n\tb: 2\n", b"a: \xff\xfe 1\n"],
        ids=["unclosed-flow", "nested-mapping", "control-character", "tab-indent", "not-utf8"],
    )
    @pytest.mark.parametrize("command", ["screen", "figure", "prop2", "xi-screen"])
    def test_unparseable_yaml_is_a_config_error(self, capsys, tmp_path, command, data):
        path = tmp_path / "bad.yaml"
        path.write_bytes(data)
        assert cli.main([command, "--config", str(path)] + out(command, tmp_path)) == 3
        assert capsys.readouterr().err.startswith(f"config error: cannot parse config {path}: ")

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_shipped_configs_read_as_with_the_python_parser(self, path):
        assert load_config(str(path)) == yaml.load(path.read_text(), Loader=yaml.SafeLoader)

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param(
                "screen",
                "model:\n  kappa: 0.1\ncontract: search\nn: 2\nassumption:\n  epsilon: 0.1\n",
                id="assumption-without-eta",
            ),
            pytest.param("screen", ENTROPY_SCREEN + "n: 2\nball: 3\n", id="ball-not-a-mapping"),
            pytest.param("screen", ENTROPY_SCREEN + "n: two\n", id="n-not-a-count"),
            pytest.param("screen", ENTROPY_SCREEN + "n: 3\nvariant: bogus\n", id="unknown-variant"),
            pytest.param(
                "screen", ENTROPY_SCREEN + "n: 3\nuninformed: bogus\n", id="unknown-uninformed"
            ),
            pytest.param(
                "screen", ENTROPY_SCREEN + "n: 2\nresolution: fine\n", id="resolution-not-a-count"
            ),
            pytest.param(
                "screen", "model:\n  kappa: 0.1\ncontract: search\nn: 2\neta: wide\n",
                id="eta-not-a-number",
            ),
            pytest.param(
                "screen", ENTROPY_SCREEN + "n: 2\nrho: [0.5, 0.3, 0.2]\nuninformed: seu\n",
                id="rho-off-the-state-count",
            ),
            pytest.param(
                "screen", ENTROPY_SCREEN + "n: 3\nball:\n  center: [0.5, 0.5]\n",
                id="ball-off-the-state-count",
            ),
            pytest.param(
                "screen", "model:\n  kappa: 0.1\ncontract: search\nn: 3\nrho: [0.5, 0.5]\n",
                id="search-center-off-the-state-count",
            ),
            pytest.param("screen", ENTROPY_SCREEN + "n: 2\nuninformed: seu\n", id="seu-without-rho"),
            pytest.param("xi-screen", "xi: lots\n", id="xi-not-a-number"),
            pytest.param("xi-screen", "xi: 1.5\n", id="xi-above-one"),
            pytest.param("prop2", "rho: [0.25, 0.75]\nd_last: heavy\n", id="d-last-not-a-number"),
            pytest.param("prop2", "rho: [0.25, 0.75]\nu: -1.0\n", id="negative-payment"),
            pytest.param("figure", "priors: 0.5\n", id="priors-not-a-list"),
            pytest.param(
                "figure", "contract:\n  u: 0.1\n  fines: [1, 2, 3]\n",
                id="figure-fines-off-two-states",
            ),
            pytest.param(
                "screen", "model:\n  kappa: .inf\ncontract:\n  u: 0.1\n  d: 1.0\nn: 2\n",
                id="kappa-infinite",
            ),
            pytest.param(
                "xi-screen", "model:\n  kappa: " + "9" * 400 + "\n", id="kappa-beyond-float-range"
            ),
            pytest.param(
                "screen", "model:\n  kappa: 0.1\ncontract:\n  u: 0.1\n  fines: [1.0, .nan]\n",
                id="fine-not-a-number",
            ),
            pytest.param(
                "screen", 'model:\n  kappa: "1e-3"\ncontract:\n  u: 0.1\n  d: 1.0\nn: 2\n',
                id="kappa-quoted-exponent",
            ),
            pytest.param(
                "screen", "model:\n  kappa: 1e400\ncontract:\n  u: 0.1\n  d: 1.0\nn: 2\n",
                id="kappa-exponent-beyond-float-range",
            ),
        ],
    )
    def test_malformed_screen_configs_are_config_errors(
        self, capsys, tmp_path, command, text
    ):
        path = write(tmp_path, "bad.yaml", text)
        assert cli.main([command, "--config", path] + out(command, tmp_path)) == 3
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "command, text, code",
        [
            pytest.param("screen", "model:\n  kappa: 1e-9\ncontract:\n  u: 0.1\n  d: 1.0\nn: 3\n",
                         0, id="screen-kappa-1e-9"),
            pytest.param("screen", "model:\n  kappa: 1e300\ncontract:\n  u: 0.1\n  d: 1.0\nn: 3\n",
                         2, id="screen-kappa-1e300"),
            pytest.param("screen", "model:\n  kappa: 0.1\ncontract:\n  u: 0.1\n  d: 1e308\nn: 3\n",
                         0, id="screen-d-1e308"),
            pytest.param("screen", "model:\n  kappa: 0.1\ncontract:\n  u: 1e-320\n  d: 1.0\nn: 3\n",
                         2, id="screen-u-1e-320"),
            pytest.param("screen", "model:\n  kappa: 3e-1\ncontract:\n  u: 2e-1\n  d: 1e0\nn: 4\n",
                         0, id="screen-n4-all-exponents"),
            pytest.param("prop2", "model:\n  kappa: 0.1\nrho: [0.25, 0.75]\nd_last: 2E+0\nu: 5e-2\n",
                         2, id="prop2-d-last-and-u"),
            pytest.param("xi-screen", "model:\n  kappa: 1e-1\nxi: 2e-1\n", 0, id="xi-screen-xi-2e-1"),
            pytest.param("xi-screen", "xi: 1e-9\n", 2, id="xi-screen-xi-1e-9"),
        ],
    )
    def test_dotless_exponents_are_read_as_numbers(self, capsys, tmp_path, command, text, code):
        assert cli.main([command, "--config", write(tmp_path, "exp.yaml", text)]) == code
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["prop2", "screen"])
    def test_menu_off_the_state_count_is_a_config_error(self, capsys, tmp_path, command):
        # A menu of three-state experiments against a two-state rho and n.
        menu = (
            "model:\n  kind: fixed-menu\n  menu:\n    - price: 0.1\n      likelihoods:\n"
            "        - [0.8, 0.2]\n        - [0.5, 0.5]\n        - [0.2, 0.8]\n"
        )
        path = write(tmp_path, "menu3.yaml", menu + "contract:\n  u: 0.2\n  d: 1.0\n"
                     "rho: [0.25, 0.75]\nn: 2\n")
        assert cli.main([command, "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "n=2" in err and "3" in err

    def test_missing_state_count_is_named(self, capsys):
        code = cli.main(["screen", "--config", str(CONFIG_DIR / "figure_free_learning.yaml")])
        assert code == 3
        assert " n " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["screen", "figure", "prop2", "xi-screen"])
    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_every_shipped_config_keeps_the_exit_code_contract(
        self, capsys, tmp_path, command, config
    ):
        code = cli.main([command, "--config", str(config)] + out(command, tmp_path))
        assert code in (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param(
                "screen", ENTROPY_SCREEN + "n: 3\nresolution: 100000\n", id="grid-1e5-at-n3"
            ),
            pytest.param("screen", ENTROPY_SCREEN + "n: 1000\n", id="n-1000"),
            pytest.param("xi-screen", "n: 3\nresolution: 100000\n", id="xi-screen-grid-1e5"),
            pytest.param(
                "prop2", "model:\n  kappa: 0.1\nrho: [0.2, 0.3, 0.5]\nresolution: 100000\n",
                id="prop2-grid-1e5",
            ),
            pytest.param("figure", "resolution: 10000000\n", id="figure-grid-1e7"),
        ],
    )
    def test_grid_too_large_to_build_is_a_config_error(
        self, capsys, monkeypatch, tmp_path, command, text
    ):
        # Lattices are enumerated through simplex._lattice_counts; a call on
        # the oversized one would mean the size check came too late.
        counts = simplex._lattice_counts

        def refuse(n, resolution):
            rows = math.comb(resolution + n - 1, n - 1)
            assert rows <= 10_000, "oversized grid enumeration started"
            return counts(n, resolution)

        monkeypatch.setattr(simplex, "_lattice_counts", refuse)
        argv = [command, "--config", write(tmp_path, "big.yaml", text)] + out(command, tmp_path)
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "coordinates" in err

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param("screen", ENTROPY_SCREEN + "n: 2\n", id="screen"),
            pytest.param("prop2", "model:\n  kappa: 0.1\nrho: [0.25, 0.75]\n", id="prop2"),
            pytest.param("xi-screen", "", id="xi-screen"),
            pytest.param("figure", "", id="figure"),
        ],
    )
    def test_grid_zero_is_a_config_error(self, capsys, tmp_path, command, text):
        # resolution: 0 sets a resolution of 0; it must not fall back to the default.
        path = write(tmp_path, "cfg.yaml", text + "resolution: 0\n")
        assert cli.main([command, "--config", path] + out(command, tmp_path)) == 3
        assert capsys.readouterr().err.startswith("config error: ")

    def test_acceptance_exit_codes(self, capsys, monkeypatch):
        from cavscreen.acceptance import CriterionResult

        ok = CriterionResult("stub-pass", True, "fine", 0.0)
        bad = CriterionResult("stub-fail", False, "broken", 0.0)
        monkeypatch.setattr(cli.acceptance_mod, "run_all", lambda: [ok])
        assert cli.main(["acceptance"]) == 0
        monkeypatch.setattr(cli.acceptance_mod, "run_all", lambda: [ok, bad])
        assert cli.main(["acceptance"]) == 1
        out = capsys.readouterr().out
        assert "1/2 criteria passed" in out
