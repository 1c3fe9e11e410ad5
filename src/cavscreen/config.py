"""YAML run configuration for the command line.

Every malformed field raises ConfigError with the offending key, which the
CLI maps to its configuration exit code.
"""

from __future__ import annotations

import yaml

import numpy as np

from .costs import CostModel, FixedMenu, Potential, PosteriorSeparable, potential_by_name
from .errors import ConfigError
from .experiments import Experiment
from .informed import default_resolution
from .simplex import Belief, Contract, GeneralizedContract, ball_grid


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _require(cfg: dict, key: str, kind, where: str):
    if key not in cfg:
        raise ConfigError(f"missing {where}.{key}")
    value = cfg[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key} has wrong type: {value!r}")
    return value


def cost_model_from(cfg: dict) -> CostModel:
    """Build a cost model from the ``model`` section."""
    section = cfg.get("model")
    if not isinstance(section, dict):
        raise ConfigError("config needs a model: mapping")
    kind = section.get("kind", "posterior-separable")
    if kind == "posterior-separable":
        kappa = _require(section, "kappa", float, "model")
        if kappa == 0.0:
            # Free learning: model it as a unit weight on a flat potential.
            zero = Potential("zero", lambda pts: np.zeros(len(np.atleast_2d(pts))))
            return PosteriorSeparable(1.0, zero)
        name = section.get("potential", "neg-entropy")
        try:
            potential = potential_by_name(name)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"unknown model.potential {name!r}") from exc
        try:
            return PosteriorSeparable(kappa, potential)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "fixed-menu":
        menu = _require(section, "menu", list, "model")
        entries = []
        for k, item in enumerate(menu):
            if not isinstance(item, dict):
                raise ConfigError(f"model.menu[{k}] must be a mapping")
            price = _require(item, "price", float, f"model.menu[{k}]")
            rows = _require(item, "likelihoods", list, f"model.menu[{k}]")
            try:
                experiment = Experiment(rows, signals=item.get("signals"))
            except Exception as exc:
                raise ConfigError(f"model.menu[{k}].likelihoods: {exc}") from exc
            entries.append((experiment, price))
        try:
            return FixedMenu(tuple(entries))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown model.kind {kind!r}")


def contract_from(cfg: dict) -> Contract | GeneralizedContract | None:
    """Build a contract from the optional ``contract`` section."""
    section = cfg.get("contract")
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigError("contract must be a mapping")
    u = _require(section, "u", float, "contract")
    try:
        if "fines" in section:
            fines = _require(section, "fines", list, "contract")
            return GeneralizedContract(u, fines)
        d = _require(section, "d", float, "contract")
        return Contract(u, d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def belief_from(values, where: str = "belief") -> Belief:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where} must be a list of probabilities")
    try:
        return Belief(values)
    except Exception as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def states_from(cfg: dict) -> int | None:
    """The optional state count ``n``: an integer of at least 2."""
    n = cfg.get("n")
    if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 2):
        raise ConfigError(f"n must be an integer >= 2, got {n!r}")
    return n


def choice_from(cfg: dict, key: str, choices, default: str) -> str:
    value = cfg.get(key, default)
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
    return value


def assumption_from(cfg: dict) -> tuple[float, float, float] | None:
    """The optional (epsilon, eta, T) triple of the ``assumption`` section."""
    section = cfg.get("assumption")
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigError("assumption must be a mapping")
    keys = ("epsilon", "eta", "T")
    return tuple(_require(section, key, float, "assumption") for key in keys)


def ball_from(cfg: dict, resolution: int | None) -> list[Belief] | None:
    """Lattice priors of the optional ``ball`` section around its center."""
    section = cfg.get("ball")
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigError("ball must be a mapping")
    center = belief_from(section.get("center"), "ball.center")
    eta = _require(section, "eta", float, "ball") if "eta" in section else 0.1
    try:
        return ball_grid(
            center, eta, resolution or default_resolution(center.n),
            norm=section.get("norm", "euclidean"),
        )
    except ValueError as exc:
        raise ConfigError(f"ball: {exc}") from exc
