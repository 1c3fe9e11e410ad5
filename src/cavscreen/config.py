"""YAML run configuration for the command line.

Every malformed field raises ConfigError with the offending key, which the
CLI maps to its configuration exit code.
"""

from __future__ import annotations

import re
import sys

import numpy as np
import yaml

from .costs import CostModel, FixedMenu, Potential, PosteriorSeparable, potential_by_name
from .errors import ConfigError
from .experiments import Experiment
from .simplex import Belief, Contract, ball_grid


# libyaml's parser where PyYAML was built with it: the same documents,
# several times faster; only its error wording differs.  It also reads the
# YAML 1.2 floats that have no dot (1e-3, 2E+1), which YAML 1.1 leaves strings.
_LOADER = type("_LOADER", (getattr(yaml, "CSafeLoader", yaml.SafeLoader),), {})
_LOADER.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _finite(value) -> bool:
    """A real number (not a bool) within float range."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _require(cfg: dict, key: str, kind, where: str):
    if key not in cfg:
        raise ConfigError(f"missing {where}.{key}")
    value = cfg[key]
    if kind is float:
        if not _finite(value):
            raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
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
                experiment = Experiment(rows)
            except Exception as exc:
                raise ConfigError(f"model.menu[{k}].likelihoods: {exc}") from exc
            entries.append((experiment, price))
        try:
            return FixedMenu(tuple(entries))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown model.kind {kind!r}")


def contract_from(cfg: dict) -> Contract | None:
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
            if not all(_finite(d) for d in fines):
                raise ConfigError(f"contract.fines must be finite, got {fines!r}")
            return Contract(u, fines)
        return Contract(u, _require(section, "d", float, "contract"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def belief_from(values, where: str = "belief") -> Belief:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where} must be a list of probabilities")
    try:
        return Belief(values)
    except Exception as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def number_from(cfg: dict, key: str, default, low=-np.inf, high=np.inf, kind=float):
    """The optional number ``key`` (``default`` if absent or null): a finite
    ``kind`` in (low, high]."""
    value = cfg.get(key)
    if value is None:
        value = default
    if value is not None and not (
        _finite(value) and isinstance(value, (int, kind)) and low < value <= high
    ):
        raise ConfigError(f"{key} must be {kind.__name__} in ({low:g}, {high:g}], got {value!r}")
    return value if value is None else kind(value)


def states_from(cfg: dict) -> int | None:
    """The optional state count ``n``: an integer of at least 2."""
    return number_from(cfg, "n", None, low=1, kind=int)


def resolution_from(cfg: dict) -> int | None:
    """The optional grid resolution ``resolution``."""
    return number_from(cfg, "resolution", None, low=1, kind=int)


def priors_from(cfg: dict, default: tuple[float, ...]) -> tuple[float, ...]:
    """The optional list ``priors`` of first-state probabilities."""
    values = cfg.get("priors", default)
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(p, (int, float)) and not isinstance(p, bool) and 0.0 <= p <= 1.0
        for p in values
    ):
        raise ConfigError(f"priors must be a list of probabilities, got {values!r}")
    return tuple(values)


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


def ball_from(cfg: dict, resolution: int | None) -> np.ndarray | None:
    """(k, n) lattice priors of the optional ``ball`` section around its center."""
    section = cfg.get("ball")
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigError("ball must be a mapping")
    center = belief_from(section.get("center"), "ball.center")
    eta = _require(section, "eta", float, "ball") if "eta" in section else 0.1
    try:
        return ball_grid(center, eta, resolution)
    except ValueError as exc:
        raise ConfigError(f"ball: {exc}") from exc
