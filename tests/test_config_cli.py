"""Configuration parsing and the command-line front end."""

import numpy as np
import pytest

import cavscreen.cli as cli
from cavscreen import ConfigError, FixedMenu, PosteriorSeparable, degenerate, belief2
from cavscreen.config import belief_from, contract_from, cost_model_from, load_config
from cavscreen.costs import distribution_cost
from cavscreen.simplex import Belief, PosteriorDistribution

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

    def test_grid_flag_controls_resolution(self, capsys):
        code = cli.main(
            ["screen", "--config", "configs/example_one.yaml", "--grid", "200"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resolution 200" in out


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
    def test_default_model_search(self, capsys, tmp_path):
        path = write(tmp_path, "xi.yaml", "xi: 0.5\n")
        code = cli.main(["xi-screen", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "rejection mass" in out
        assert "analytic rejection mass" in out


ENTROPY_SCREEN = "model:\n  kappa: 0.1\ncontract:\n  u: 0.1\n  d: 1.0\n"


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        assert cli.main(["screen", "--config", "/does/not/exist.yaml"]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "model:\n  kappa: 0.1\ncontract: search\nn: 2\nassumption:\n  epsilon: 0.1\n",
            ENTROPY_SCREEN + "n: 2\nball: 3\n",
            ENTROPY_SCREEN + "n: two\n",
            ENTROPY_SCREEN + "n: 3\nvariant: bogus\n",
            ENTROPY_SCREEN + "n: 3\nuninformed: bogus\n",
        ],
        ids=["assumption-without-eta", "ball-not-a-mapping", "n-not-a-count",
             "unknown-variant", "unknown-uninformed"],
    )
    def test_malformed_screen_configs_are_config_errors(self, capsys, tmp_path, text):
        path = write(tmp_path, "bad.yaml", text)
        assert cli.main(["screen", "--config", path]) == 3
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
