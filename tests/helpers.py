"""Oracles and input helpers shared by the tests; not part of the package."""

import numpy as np

from cavscreen import (
    Belief,
    Experiment,
    Potential,
    PosteriorDistribution,
    SimpleAnnouncement,
    simplex_grid_array,
)
from cavscreen import shannon


def barycenter(F: PosteriorDistribution) -> Belief:
    """Mean posterior of F; equals F.prior for any valid distribution."""
    return Belief(F.weights @ F.support_matrix)


def lattice_samples(model, game, n: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The resolution-r lattice of n states and the objective V - kappa*c of a
    posterior-separable model sampled on it, for envelope tests on small lattices."""
    grid = simplex_grid_array(n, resolution)
    return grid, game.batch(grid) - model.kappa * model.potential.batch(grid)


def scan_hull(xs, fs) -> np.ndarray:
    """Vertex indices of the upper concave envelope of samples at strictly
    increasing xs, by the monotone upper-hull scan: each new sample pops
    the last vertex while that vertex does not rise strictly above the chord
    from the vertex before it."""
    hull = []
    for j in range(len(xs)):
        while len(hull) >= 2:
            i, k = hull[-2], hull[-1]
            if (fs[k] - fs[i]) * (xs[j] - xs[i]) <= (fs[j] - fs[i]) * (xs[k] - xs[i]):
                hull.pop()
            else:
                break
        hull.append(j)
    return np.array(hull, dtype=int)


def facet_minimum(env, queries) -> np.ndarray:
    """Envelope of a ``SimplexEnvelope`` at each query belief row as the
    minimum over every upper-facet plane, in dense blocks of rows."""
    q = np.asarray(queries, dtype=float)[:, : env.n - 1]
    out = np.empty(q.shape[0])
    for start in range(0, q.shape[0], 512):
        block = q[start : start + 512]
        out[start : start + 512] = (block @ env._alpha.T + env._beta).min(axis=1)
    return out


def garble(E: Experiment, mixing) -> Experiment:
    """Post-process E's signals through a stochastic (m x m') matrix: a
    Blackwell-dominated experiment."""
    return Experiment(E.likelihoods @ np.asarray(mixing, dtype=float))


def shifted(potential: Potential, constant: float) -> Potential:
    """The potential plus a constant, which leaves every learning cost as it is."""
    return Potential(
        f"{potential.name}+{constant:g}", lambda pts: potential.batch(pts) + constant
    )


def rejection_measure_mc(contract, n=None, *, samples=100_000, seed=0):
    """Monte Carlo mass of uniformly drawn (flat Dirichlet) uninformed
    beliefs that reject the contract, with a 95% normal-approximation
    half-width."""
    game = SimpleAnnouncement(contract)
    draws = np.random.default_rng(seed).dirichlet(np.ones(len(contract.fines(n))), size=samples)
    phat = float((game.batch(draws) < 0.0).mean())
    return phat, 1.96 * float(np.sqrt(phat * (1.0 - phat) / samples))


def dirichlet_minima(samples: int, n: int, seed: int) -> np.ndarray:
    """Row minima of ``samples`` flat Dirichlet draws on n states from the
    generator seeded ``seed``, as numpy draws them."""
    return np.random.default_rng(seed).dirichlet(np.ones(n), size=samples).min(axis=1)


def stay_oracle(P, kappa: float, priors) -> tuple[np.ndarray, np.ndarray]:
    """Stay flags and stay values of ``shannon.solve`` by its general test,
    for any game: staying put with the announce action a* (the first best)
    is certified where every action's slope at a*'s unit weight,
    sum_i mu_i (exp((P_ai - P_a*i) / kappa) - 1), taken over the full
    (priors, actions, states) tensor, is within the solver's tolerance."""
    P, priors = np.asarray(P, dtype=float), np.asarray(priors, dtype=float)
    tol = shannon._GAP * (1.0 + np.abs(P).max()) / kappa + shannon._ROUNDING
    stay_pay = shannon._mix(P.T, priors.T).T
    announce = stay_pay.argmax(axis=1)
    rise = np.expm1(np.minimum((P[None] - P[announce][:, None, :]) / kappa, 700.0))
    stay = (priors[:, None, :] * rise).sum(axis=2).max(axis=1) <= tol
    return stay, stay_pay[np.arange(len(priors)), announce]


def fold_stacks(n: int) -> dict[str, np.ndarray]:
    """Prior stacks on n states for the column-fold parity tests: the default
    lattice, Dirichlet(0.2) and Dirichlet(1) draws, one row, no rows, and
    rows holding NaN (one in each position, and a row of nothing else)."""
    rng = np.random.default_rng(900 + n)
    nan = rng.dirichlet(np.ones(n), size=n + 1)
    nan[np.arange(n), np.arange(n)] = np.nan
    nan[n] = np.nan
    return {
        "lattice": simplex_grid_array(n),
        "dirichlet(0.2)": rng.dirichlet(np.full(n, 0.2), size=400),
        "dirichlet(1)": rng.dirichlet(np.ones(n), size=400),
        "one row": rng.dirichlet(np.ones(n), size=1),
        "no rows": np.empty((0, n)),
        "nan rows": nan,
    }


def assert_same_bits(got, want) -> None:
    """Equal shape, dtype and bit pattern, NaN payloads and signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
