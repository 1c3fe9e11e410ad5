"""Upper concave envelopes: 1-D hull, simplex LP and walk, and batch facets."""

import numpy as np
import pytest
from scipy.special import xlogy

from cavscreen import (
    Belief,
    CavscreenError,
    Contract,
    Envelope1d,
    InfeasibleBarycenter,
    NotCertified,
    SimpleAnnouncement,
    SimplexEnvelope,
    UrnDraw,
    ball_grid,
    belief2,
    concavify_1d,
    concavify_lp,
    prop2_contract,
    simplex_grid_array,
    uniform_belief,
)
from cavscreen import envelopes
from cavscreen.costs import neg_entropy, quadratic
from cavscreen.envelopes import _CONTACT_TOL, _WEIGHT_TOL, _contact, concavify_walk
from helpers import barycenter, facet_minimum, scan_hull

EPS = np.finfo(float).eps


def piecewise_objective(rng, xs):
    """Min of a few random lines plus a scaled entropy term, like the
    objectives the informed expert concavifies."""
    k = rng.integers(2, 5)
    slopes = rng.uniform(-4.0, 4.0, size=k)
    offsets = rng.uniform(-1.0, 1.0, size=k)
    lines = np.min(slopes[None, :] * xs[:, None] + offsets[None, :], axis=1)
    scale = rng.uniform(0.0, 0.5)
    return lines - scale * (xlogy(xs, xs) + xlogy(1.0 - xs, 1.0 - xs))


class TestConcavify1d:
    def test_affine_is_its_own_envelope(self):
        xs = np.linspace(0.0, 1.0, 101)
        fs = 2.0 * xs - 0.3
        value, plan = concavify_1d(xs, fs, 0.37)
        assert value == pytest.approx(2.0 * 0.37 - 0.3, abs=1e-12)
        assert plan.is_degenerate()

    def test_kinked_min_splits_to_endpoints(self):
        xs = np.linspace(0.0, 1.0, 101)
        fs = -np.minimum(xs, 1.0 - xs)
        value, plan = concavify_1d(xs, fs, 0.5)
        assert value == pytest.approx(0.0, abs=1e-12)
        support = sorted(b[0] for b in plan.support)
        np.testing.assert_allclose(support, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(plan.weights, [0.5, 0.5], atol=1e-12)

    def test_dominates_the_sampled_function(self):
        rng = np.random.default_rng(41)
        xs = np.linspace(0.0, 1.0, 201)
        for _ in range(20):
            fs = piecewise_objective(rng, xs)
            for mu in rng.uniform(0.0, 1.0, size=5):
                value, _ = concavify_1d(xs, fs, mu)
                assert value >= np.interp(mu, xs, fs) - 1e-12

    def test_support_at_most_two_and_bayes_plausible(self):
        rng = np.random.default_rng(42)
        xs = np.linspace(0.0, 1.0, 201)
        for _ in range(20):
            fs = piecewise_objective(rng, xs)
            mu = rng.uniform(0.05, 0.95)
            value, plan = concavify_1d(xs, fs, mu)
            assert len(plan) <= 2
            assert barycenter(plan)[0] == pytest.approx(mu, abs=1e-9)
            achieved = sum(
                w * np.interp(b[0], xs, fs) for b, w in zip(plan.support, plan.weights)
            )
            assert achieved == pytest.approx(value, abs=1e-6)

    def test_envelope_is_concave_on_the_grid(self):
        rng = np.random.default_rng(43)
        xs = np.linspace(0.0, 1.0, 301)
        fs = piecewise_objective(rng, xs)
        env = Envelope1d(xs, fs).values(xs)
        mids = 0.5 * (env[:-2] + env[2:])
        assert (env[1:-1] >= mids - 1e-9).all()

    def test_symmetric_objective_splits_symmetrically(self):
        xs = np.linspace(0.0, 1.0, 1001)
        fs = 0.04 - 0.08 * np.minimum(xs, 1.0 - xs) - 0.01 * (
            xlogy(xs, xs) + xlogy(1.0 - xs, 1.0 - xs)
        )
        _, plan = concavify_1d(xs, fs, 0.5)
        assert len(plan) == 2
        lo, hi = sorted(b[0] for b in plan.support)
        assert lo == pytest.approx(1.0 - hi, abs=1e-9)
        assert hi - lo > 0.01

    def test_query_outside_grid_range(self):
        xs = np.linspace(0.2, 0.8, 61)
        fs = np.zeros_like(xs)
        with pytest.raises(InfeasibleBarycenter):
            concavify_1d(xs, fs, 0.1)


class TestEnvelope1d:
    def test_repeated_abscissae_keep_the_best_sample(self):
        xs = [0.5, 0.0, 1.0, 0.5, 0.25, 0.0, 0.5]
        fs = [0.1, -1.0, 0.0, 0.3, -2.0, 0.2, -0.4]
        env = Envelope1d(xs, fs)
        assert env.xs.tolist() == [0.0, 0.25, 0.5, 1.0]
        assert env.fs.tolist() == [0.2, -2.0, 0.3, 0.0]

    def test_repeats_match_a_pointwise_maximum(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            xs = rng.integers(0, 30, size=200) / 29.0
            fs = rng.normal(size=200)
            best = {}
            for x, f in zip(xs, fs):
                best[x] = max(best.get(x, -np.inf), f)
            env = Envelope1d(xs, fs)
            assert env.xs.tolist() == sorted(best)
            assert env.fs.tolist() == [best[x] for x in sorted(best)]

    def test_split_value_is_the_envelope_at_the_prior(self):
        rng = np.random.default_rng(49)
        xs = np.linspace(0.0, 1.0, 201)
        for _ in range(10):
            env = Envelope1d(xs, piecewise_objective(rng, xs))
            for x in np.append(rng.uniform(size=5), xs[rng.choice(201, size=5)]):
                mu = belief2(x)
                value, plan = env.split(mu)
                assert value == env.values([x])[0]
                assert plan.prior is mu and len(plan) <= 2
                np.testing.assert_allclose(barycenter(plan).probs, mu.probs, atol=1e-12)


class TestUpperHull:
    """The hull read off the antitonic regression against the upper-hull
    scan in ``helpers.scan_hull``."""

    @pytest.mark.parametrize("potential", [neg_entropy(), quadratic()], ids=["entropy", "quadratic"])
    @pytest.mark.parametrize("per_state", [False, True], ids=["common-fine", "per-state-fines"])
    def test_same_vertices_as_the_scan_on_two_state_objectives(self, potential, per_state):
        rng = np.random.default_rng(60 + 2 * per_state + (potential.name == "quadratic"))
        lattice = simplex_grid_array(2, 1000)
        for kappa in np.geomspace(0.01, 5.0, 40):
            d = rng.uniform(0.02, 2.0, size=2 if per_state else None)
            game = SimpleAnnouncement(Contract(rng.uniform(0.001, 0.5 * np.min(d)), d))
            grid = np.vstack([lattice, rng.dirichlet(np.ones(2), size=rng.integers(1, 20))])
            env = Envelope1d(grid[:, 0], game.batch(grid) - kappa * potential.batch(grid))
            np.testing.assert_array_equal(env.hull_idx, scan_hull(env.xs, env.fs))

    def test_exactly_collinear_samples_leave_only_the_ends(self):
        xs = np.arange(17) / 16.0
        for fs in (3.0 * xs - 1.0, np.zeros(17), np.minimum(2.0 * xs, 1.0)):
            env = Envelope1d(xs, fs)
            assert env.hull_idx.tolist() == scan_hull(xs, fs).tolist()
        assert Envelope1d(xs, 3.0 * xs - 1.0).hull_idx.tolist() == [0, 16]
        assert Envelope1d(xs, np.minimum(2.0 * xs, 1.0)).hull_idx.tolist() == [0, 8, 16]

    def test_collinear_and_tied_samples_within_rounding_of_the_scan(self):
        # Rounded decimals with repeated abscissae, and samples on a line up
        # to rounding.  Where chords tie within rounding, the regression may
        # pool a vertex the scan keeps, or the reverse; the envelopes then
        # differ by rounding alone.
        rng = np.random.default_rng(61)
        differ = 0
        for trial in range(3000):
            m = int(rng.integers(2, 40))
            xs = np.round(rng.uniform(0.0, 1.0, m), int(rng.integers(1, 4)))
            if trial % 3:
                fs = np.round(rng.uniform(-1.0, 1.0, m), int(rng.integers(1, 3)))
            else:
                slope, offset = rng.uniform(-1.0, 1.0, 2)
                fs = np.round(slope * xs + offset, 2)
            env = Envelope1d(xs, fs)
            ref = scan_hull(env.xs, env.fs)
            differ += not np.array_equal(env.hull_idx, ref)
            tol = 4.0 * EPS * (1.0 + np.abs(env.fs).max())
            # No vertex left that fails to rise strictly above its neighbours' chord.
            h = env.hull_idx
            i, k, j = h[:-2], h[1:-1], h[2:]
            x, f = env.xs, env.fs
            assert ((f[k] - f[i]) * (x[j] - x[i]) > (f[j] - f[i]) * (x[k] - x[i])).all()
            assert h[0] == 0 and h[-1] == x.size - 1
            values = env.values(x)
            np.testing.assert_allclose(values, np.interp(x, x[ref], f[ref]), rtol=0, atol=tol)
            assert (f <= values + tol).all()
        # The rounding-level cases are in the sample, so the tolerance is exercised.
        assert differ > 0


class TestConcavifyLp:
    def test_constant_function_stays_degenerate_on_grid_points(self):
        grid = simplex_grid_array(2, 50)
        fs = np.full(len(grid), 3.25)
        value, plan = concavify_lp(grid, fs, belief2(0.42))
        assert value == pytest.approx(3.25, abs=1e-9)
        assert plan.is_degenerate()
        assert plan.support[0][0] == pytest.approx(0.42, abs=1e-12)

    def test_agrees_with_hull_scan_on_the_line(self):
        rng = np.random.default_rng(44)
        xs = np.linspace(0.0, 1.0, 101)
        grid = np.column_stack([xs, 1.0 - xs])
        for _ in range(15):
            fs = piecewise_objective(rng, xs)
            mu = rng.uniform(0.0, 1.0)
            v_scan, _ = concavify_1d(xs, fs, mu)
            v_lp, plan = concavify_lp(grid, fs, belief2(mu))
            assert v_lp == pytest.approx(v_scan, abs=1e-9)
            np.testing.assert_allclose(
                barycenter(plan).probs, [mu, 1.0 - mu], atol=1e-9
            )

    def test_urn_kink_split_beats_staying(self):
        contract = Contract(1.0, 1.2)
        vf = UrnDraw(contract)
        grid = simplex_grid_array(3, 20)
        fs = vf.batch(grid)
        value, plan = concavify_lp(grid, fs, uniform_belief(3))
        stay = contract.u - 0.5 * contract.d
        assert value > stay + 0.1
        assert value >= contract.u - contract.d / 6.0 - 1e-9
        assert len(plan) <= 3
        achieved = float(plan.weights @ vf.batch(plan.support_matrix))
        assert achieved == pytest.approx(value, abs=1e-6)

    def test_basic_plan_attains_hull_value_at_n4(self):
        rng = np.random.default_rng(46)
        grid = simplex_grid_array(4, 8)
        fs = rng.uniform(-1.0, 1.0, size=len(grid))
        env = SimplexEnvelope(grid, fs)
        for q in rng.dirichlet(np.ones(4), size=6):
            value, plan = concavify_lp(grid, fs, Belief(q))
            assert value == pytest.approx(env.values([q])[0], abs=1e-9)
            assert len(plan) <= 4
            np.testing.assert_allclose(barycenter(plan).probs, q, atol=1e-12)
            rows = [int(np.abs(grid - b.probs).max(axis=1).argmin()) for b in plan.support]
            assert float(plan.weights @ fs[rows]) == pytest.approx(value, abs=1e-12)

    def test_infeasible_outside_hull(self):
        grid = simplex_grid_array(2, 10)
        inner = grid[(grid[:, 0] >= 0.3) & (grid[:, 0] <= 0.7)]
        with pytest.raises(InfeasibleBarycenter):
            concavify_lp(inner, np.zeros(len(inner)), belief2(0.1))


def _contact_scan(points, fs, query, value):
    """The stay-put test by the max-norm distance of every sample row."""
    diffs = np.abs(points - query).reshape(len(points), -1).max(axis=1)
    at = int(diffs.argmin())
    if diffs[at] <= _WEIGHT_TOL and fs[at] >= value - _CONTACT_TOL * (1.0 + abs(value)):
        return at
    return None


class TestContact:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_matches_the_full_scan(self, width):
        """Coarse random rows, so duplicates and ties are common, queried at
        a row (exactly, or off it by less or more than the tolerance) and
        at random points, against values the sample meets or falls short of."""
        rng = np.random.default_rng(50 + width)
        seen = {"match": 0, "none": 0, "too-low": 0, "tie": 0}
        for _ in range(400):
            shape = (int(rng.integers(1, 40)),) + ((width,) if width > 1 else ())
            points = rng.integers(0, 4, size=shape) / 4.0
            fs = rng.uniform(-1.0, 1.0, size=shape[0])
            row = points[int(rng.integers(shape[0]))]
            query = rng.choice([
                row,
                row + rng.choice([-1.0, 1.0], size=row.shape) * 0.5 * _WEIGHT_TOL,
                row + 2.0 * _WEIGHT_TOL,
                rng.uniform(0.0, 1.0, size=row.shape),
            ])
            value = float(rng.choice(fs)) + rng.choice([0.0, 0.5, -0.5, 1e-11])
            got = _contact(points, fs, query, value)
            assert got == _contact_scan(points, fs, query, value)
            flat = points.reshape(len(points), -1)
            near = np.abs(flat - query).max(axis=1) <= _WEIGHT_TOL
            if got is not None:
                seen["match"] += 1
            elif near.any():
                seen["too-low"] += 1
            else:
                seen["none"] += 1
            seen["tie"] += near.sum() > 1
        assert min(seen.values()) >= 10, seen


def _net(game, kappa, potential):
    return lambda grid: game.batch(grid) - kappa * potential.batch(grid)


# Envelope inputs as the sweep builds them, a lattice stacked with the
# queried priors in lattice order: (lattice, priors, objective).
_ENVELOPE_CASES = {
    "rule-out-r200": lambda rng: (
        simplex_grid_array(3, 200),
        np.vstack([simplex_grid_array(3, 200), rng.dirichlet(np.ones(3), size=20)]),
        _net(SimpleAnnouncement(Contract(0.3, 1.0)), 0.3, neg_entropy()),
    ),
    "urn-ball-r60": lambda rng: (
        simplex_grid_array(3, 60),
        ball_grid(uniform_belief(3), 0.25, 60),
        _net(UrnDraw(Contract(0.03, 0.1)), 0.3, neg_entropy()),
    ),
    "prop2-r60-priors": lambda rng: (
        simplex_grid_array(3, 200),
        simplex_grid_array(3, 60),
        _net(
            SimpleAnnouncement(prop2_contract(Belief([0.2, 0.3, 0.5]), 0.1, 0.5)),
            0.3,
            neg_entropy(),
        ),
    ),
    "random-r12": lambda rng: (
        simplex_grid_array(3, 12),
        rng.dirichlet(np.ones(3), size=40),
        lambda grid: rng.uniform(-1.0, 1.0, size=len(grid)),
    ),
    "affine-r12": lambda rng: (
        simplex_grid_array(3, 12),
        rng.dirichlet(np.ones(3), size=40),
        lambda grid: grid @ np.array([0.3, -1.2, 0.7]) + 0.1,
    ),
    "quadratic-n4-r20": lambda rng: (
        simplex_grid_array(4, 20),
        simplex_grid_array(4, 20),
        _net(SimpleAnnouncement(Contract(0.3, 1.0)), 0.5, quadratic()),
    ),
}


class TestSimplexEnvelope:
    @pytest.mark.parametrize("case", list(_ENVELOPE_CASES))
    def test_values_equal_the_facet_minimum(self, case):
        """The box-filtered query against the minimum over every upper-facet
        plane in ``helpers.facet_minimum``, on rows in lattice order,
        shuffled, at the simplex's vertices and edges, and one at a time."""
        rng = np.random.default_rng(49)
        lattice, priors, objective = _ENVELOPE_CASES[case](rng)
        grid = np.vstack([lattice, priors])
        env = SimplexEnvelope(grid, objective(grid))
        n = grid.shape[1]
        corners = np.eye(n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = np.array(
            [t * corners[i] + (1.0 - t) * corners[j] for i, j in pairs for t in (0.5, 0.3)]
        )

        def check(queries, got):
            want = facet_minimum(env, queries)
            np.testing.assert_array_less(np.abs(got - want), 4.0 * EPS * (1.0 + np.abs(want)))
            assert got.argmin() == want.argmin()

        shuffled = priors[rng.permutation(len(priors))]
        for queries in (priors, shuffled, np.vstack([corners, edges])):
            check(queries, env.values(queries))
        rows = np.vstack([corners, edges, priors[rng.choice(len(priors), size=30)]])
        check(rows, np.array([env.values(row[None, :])[0] for row in rows]))

    def test_batch_matches_lp_pointwise(self):
        rng = np.random.default_rng(45)
        grid = simplex_grid_array(3, 12)
        fs = rng.uniform(-1.0, 1.0, size=len(grid))
        env = SimplexEnvelope(grid, fs)
        queries = rng.dirichlet(np.ones(3), size=12)
        batch = env.values(queries)
        for q, got in zip(queries, batch):
            want, _ = concavify_lp(grid, fs, Belief(q))
            assert got == pytest.approx(want, abs=1e-9)

    def test_dominates_samples(self):
        rng = np.random.default_rng(47)
        grid = simplex_grid_array(3, 10)
        fs = rng.uniform(-1.0, 1.0, size=len(grid))
        env = SimplexEnvelope(grid, fs)
        np.testing.assert_array_less(fs - 1e-9, env.values(grid))

    def test_values_outside_the_grid_hull(self):
        grid = simplex_grid_array(3, 10)
        inner = grid[grid.min(axis=1) >= 0.2]
        env = SimplexEnvelope(inner, np.zeros(len(inner)))
        # No facet lies near the query: values returns, undefined there.
        assert env.values([[1.0, 0.0, 0.0]]).shape == (1,)


def _check_walk(grid, fs, q, tol):
    """The walk at q against the LP on the same samples, within tol of the
    larger of 1 and |value|, with its plan: at most n points,
    Bayes-plausible, and attaining the value."""
    mu = Belief(q)
    value, plan = concavify_walk(grid, fs, mu)
    want, _ = concavify_lp(grid, fs, mu)
    assert abs(value - want) <= tol * max(1.0, abs(want)), (q, value, want)
    assert len(plan) <= mu.n
    np.testing.assert_allclose(barycenter(plan).probs, mu.probs, atol=1e-12)
    rows = [int(np.abs(grid - b.probs).max(axis=1).argmin()) for b in plan.support]
    assert abs(float(plan.weights @ fs[rows]) - value) <= tol * max(1.0, abs(value))
    return value, plan


def _face_priors(n, resolution):
    """Each vertex, edge priors on and off the lattice, priors with one zero
    coordinate on and off it, and interior lattice points."""
    corners = np.eye(n)
    edges = [t * corners[0] + (1.0 - t) * corners[k] for k in range(1, n) for t in (0.5, 0.3137)]
    faces = []
    for k in range(n):
        for inner in (np.full(n - 1, 1.0 / (n - 1)), np.arange(1.0, n) / (n * (n - 1) / 2.0)):
            faces.append(np.insert(inner, k, 0.0))
    lattice = simplex_grid_array(n, resolution)
    interior = lattice[lattice.min(axis=1) > 0.0][:: max(1, (resolution - n) // 2)]
    return np.vstack([corners, edges, faces, interior])


class TestConcavifyWalk:
    def test_matches_lp_and_attains_its_value(self):
        rng = np.random.default_rng(48)
        grid = simplex_grid_array(3, 12)
        on_grid = grid[rng.choice(len(grid), size=6, replace=False)]
        queries = np.vstack(
            [rng.dirichlet(np.ones(3), size=10), on_grid, [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]]
        )
        random_fs = rng.uniform(-1.0, 1.0, size=len(grid))
        affine_fs = grid @ np.array([0.3, -1.2, 0.7]) + 0.1
        for fs in (random_fs, affine_fs):
            for q in queries:
                _check_walk(grid, fs, q, 1e-12)

    @pytest.mark.parametrize(
        "game, kappa",
        [(SimpleAnnouncement(Contract(0.3, 1.0)), 1e3), (UrnDraw(Contract(0.03, 0.1)), 0.3)],
        ids=["rule-out-kappa-1e3", "urn-kappa-0.3"],
    )
    def test_strongly_curved_objectives(self, game, kappa):
        """Objectives under which nearly every lattice point is a hull vertex,
        on the default n = 3 lattice stacked with the prior, as informed
        values sample them."""
        rng = np.random.default_rng(61)
        objective = _net(game, kappa, neg_entropy())
        for q in np.vstack([uniform_belief(3).probs, rng.dirichlet(np.ones(3), size=3)]):
            grid = np.vstack([simplex_grid_array(3), q])
            fs = objective(grid)
            _check_walk(grid, fs, q, 1e-12)

    @pytest.mark.parametrize("stall", [None, 0], ids=["dantzig", "bland"])
    @pytest.mark.parametrize("n, resolution", [(3, 12), (4, 8), (5, 6)])
    def test_degenerate_priors_match_the_lp(self, monkeypatch, n, resolution, stall):
        """Priors on vertices, edges, faces and lattice points, where the
        start and many pivots have zero length.  With a stall budget of 0,
        every zero-length pivot takes Bland's rule."""
        if stall is not None:
            monkeypatch.setattr(envelopes, "_STALL_PIVOTS", stall)
        rng = np.random.default_rng(62 + n)
        grid = simplex_grid_array(n, resolution)
        objectives = (
            rng.uniform(-1.0, 1.0, size=len(grid)),
            _net(SimpleAnnouncement(Contract(0.3, 1.0)), 0.5, quadratic())(grid),
            _net(SimpleAnnouncement(Contract(0.3, 1.0)), 0.3, neg_entropy())(grid),
        )
        for fs in objectives:
            for q in _face_priors(n, resolution):
                _check_walk(grid, fs, q, 1e-12)

    def test_pivot_cap_raises_instead_of_hanging(self, monkeypatch):
        rng = np.random.default_rng(63)
        grid = simplex_grid_array(3, 20)
        fs = rng.uniform(-1.0, 1.0, size=len(grid))
        mu = uniform_belief(3)
        concavify_walk(grid, fs, mu)
        monkeypatch.setattr(envelopes, "_MAX_PIVOTS", 2)
        with pytest.raises(NotCertified, match="over 2 pivots"):
            concavify_walk(grid, fs, mu)
        assert issubclass(NotCertified, CavscreenError)

    def test_samples_must_hold_the_face_vertices(self):
        grid = simplex_grid_array(3, 10)
        inner = grid[grid.min(axis=1) >= 0.2]
        with pytest.raises(ValueError, match="unit vertices"):
            concavify_walk(inner, np.zeros(len(inner)), uniform_belief(3))
        # On an edge only that edge's two vertices are needed.
        edge = grid[grid[:, 2] == 0.0]
        value, plan = concavify_walk(edge, -np.abs(edge[:, 0] - 0.5), Belief([0.5, 0.5, 0.0]))
        assert value == 0.0 and plan.is_degenerate()
