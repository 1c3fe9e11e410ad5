"""Property test of the CLI's exit-code contract: any YAML mapping over the
keys the commands read, with any --grid value, exits 0, 1, 2 or 3 and never
lets an exception escape.  Each command gets the options it reads, plus at
times one more of the five; one it does not take exits 3.

``acceptance`` is left out: it reads no config and runs every criterion.
Values are kept small (n <= 4, resolution <= 12) so that each example runs
in milliseconds.
"""

import contextlib
import io
import os
import tempfile

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cavscreen.cli as cli

# The options each command reads.
READS = {
    "example-one": {"--out", "--format"},
    "figure": {"--config", "--grid", "--out", "--format"},
    "screen": {"--config", "--grid"},
    "prop2": {"--config", "--grid"},
    "xi-screen": {"--config", "--seed", "--grid"},
}
FLAGS = ("--config", "--seed", "--grid", "--out", "--format")

junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 5),
    st.sampled_from([10**400, -(10**400)]),
)


def mostly(valid):
    """Valid values three times in four, so that runs get past the parser."""
    return st.one_of(valid, valid, valid, junk)


small = st.one_of(st.floats(-0.5, 2.0), st.integers(-1, 4))
positive = st.one_of(st.floats(0.01, 2.0), st.sampled_from([1e-300, 1e300]))
probs = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)
beliefs = st.one_of(probs, probs.map(lambda v: [x / sum(v) for x in v] if sum(v) > 0 else v))
likelihoods = st.lists(beliefs, min_size=1, max_size=4)
menu = st.lists(
    st.fixed_dictionaries({"price": mostly(small), "likelihoods": mostly(likelihoods)}),
    max_size=2,
)
model = mostly(st.one_of(
    st.fixed_dictionaries(
        {"kappa": mostly(st.one_of(positive, small))},
        optional={"potential": st.sampled_from(["neg-entropy", "quadratic", "cubic"]),
                  "kind": st.sampled_from(["posterior-separable", "mystery"])},
    ),
    st.fixed_dictionaries({"kind": st.just("fixed-menu"), "menu": mostly(menu)}),
))
contract = mostly(st.one_of(
    st.just("search"),
    st.fixed_dictionaries({"u": mostly(positive)},
                          optional={"d": mostly(positive),
                                    "fines": mostly(st.lists(positive, max_size=4))}),
))
epsilon_eta_T = st.fixed_dictionaries(
    {}, optional={k: mostly(small) for k in ("epsilon", "eta", "T")}
)
ball = mostly(st.fixed_dictionaries(
    {}, optional={"center": mostly(beliefs), "eta": mostly(small),
                  "norm": st.sampled_from(["euclidean", "sup", "taxicab"])},
))
fields = {
    "model": model,
    "contract": contract,
    "n": mostly(st.integers(-1, 4)),
    "resolution": mostly(st.integers(-1, 12)),
    "rho": mostly(beliefs),
    "eta": mostly(small),
    "margin": mostly(small),
    "norm": mostly(st.sampled_from(["euclidean", "sup", "taxicab"])),
    "ball": ball,
    "assumption": mostly(epsilon_eta_T),
    "priors": mostly(st.lists(st.floats(-0.5, 1.5), max_size=3)),
    "xi": mostly(small),
    "u": mostly(small),
    "d_last": mostly(small),
    "variant": mostly(st.sampled_from(["simple", "urn", "bogus"])),
    "uninformed": mostly(st.sampled_from(["maximin", "seu", "bogus"])),
}
configs = st.fixed_dictionaries({}, optional=fields)
grids = st.one_of(st.none(), st.integers(-2, 12))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(sorted(READS)), cfg=configs, grid=grids,
    extra=st.one_of(st.none(), st.sampled_from(FLAGS)),
)
def test_any_config_keeps_the_exit_code_contract(command, cfg, grid, extra):
    # Without --grid the config's resolution is read; keep it small then too.
    if not grid and cfg.get("resolution") is None:
        cfg = dict(cfg, resolution=8)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        values = {"--config": path, "--out": tmp, "--seed": "1", "--format": "csv",
                  "--grid": str(8 if grid is None else grid)}
        flags = {flag for flag in READS[command] if flag != "--grid" or grid is not None}
        if extra is not None:
            flags.add(extra)
        argv = [command] + [a for flag in sorted(flags) for a in (flag, values[flag])]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    if extra is None or extra in READS[command]:
        assert code in (0, 1, 2, 3)
    else:
        assert code == 3
