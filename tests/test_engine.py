"""Engine tests: drivers, path integration, coupling, Monte Carlo."""

import hashlib
import math
import os

import numpy as np
import pytest

from jumpcompare import engine
from jumpcompare.engine import (
    InvalidStep,
    NonFiniteState,
    mc_comparison,
    sample_drivers,
    sample_terminal_states,
    simulate_coupled,
    simulate_path,
    uniform_grid,
    violation_stat,
    wilson_interval,
)
from jumpcompare.model import (
    AffineCoefficients,
    CoefficientTriple,
    ComparisonProblem,
    MarkMeasure,
    RegularityBudget,
    SdeModel,
    Tolerances,
)

from suitegen import dense_jump_problem, random_problem, strip_affine


def affine_model(B, c, V, U, G, g, marks, mu=1.0):
    aff = AffineCoefficients(B=B, c=c, V=V, U=U, G=G, g=g)
    rho = np.array([np.linalg.norm(Gj, 2) for Gj in aff.G])
    return SdeModel(
        coefficients=CoefficientTriple.from_affine(aff),
        marks=marks,
        budget=RegularityBudget(mu=mu, rho=rho),
    )


def scalar_model(b=0.0, bslope=0.0, sigma=0.0, marks=None, jumps=None):
    marks = marks if marks is not None else MarkMeasure.from_atoms([], dimension=1)
    n = marks.n_atoms
    if jumps is None:
        G = np.zeros((n, 1, 1))
        g = np.zeros((n, 1))
    else:
        G = np.array([[[jg]] for jg, _ in jumps])
        g = np.array([[jc] for _, jc in jumps])
    return affine_model(
        B=[[bslope]], c=[b], V=np.zeros((1, 1, 1)), U=[[sigma]], G=G, g=g, marks=marks
    )


def pair_problem(m1, m2, x1, x2, eps_path=None):
    return ComparisonProblem(
        model1=m1, model2=m2, t0=0.0, T=1.0,
        x1=np.atleast_1d(np.asarray(x1, float)),
        x2=np.atleast_1d(np.asarray(x2, float)),
        tolerances=Tolerances(eps_path=eps_path),
    )


ONE_ATOM = MarkMeasure.from_atoms([([1.0], 1.0)])


class TestGrid:
    def test_dyadic_grid(self):
        g = uniform_grid(0.0, 1.0, 0.25)
        assert np.array_equal(g, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_non_dividing_step_appends_T(self):
        g = uniform_grid(0.0, 1.0, 0.3)
        assert g[-1] == 1.0
        assert np.all(np.diff(g) > 0)

    def test_invalid_step(self):
        with pytest.raises(InvalidStep):
            uniform_grid(0.0, 1.0, 0.0)
        with pytest.raises(InvalidStep):
            uniform_grid(0.0, 1.0, 1.5)


class TestDrivers:
    def test_no_atoms_pure_diffusion(self):
        marks = MarkMeasure.from_atoms([], dimension=1)
        drv = sample_drivers(marks, (0.0, 1.0), 0.25, seed=1, path_index=0, d=2)
        assert drv.jump_count == 0
        assert np.array_equal(drv.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert drv.dW.shape == (4, 2)

    def test_deterministic_per_key(self):
        marks = ONE_ATOM
        a = sample_drivers(marks, (0.0, 1.0), 2.0**-5, seed=42, path_index=7, d=1)
        b = sample_drivers(marks, (0.0, 1.0), 2.0**-5, seed=42, path_index=7, d=1)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.dW, b.dW)
        assert np.array_equal(a.jump_atoms, b.jump_atoms)

    def test_distinct_paths_distinct_noise(self):
        marks = MarkMeasure.from_atoms([], dimension=1)
        a = sample_drivers(marks, (0.0, 1.0), 2.0**-5, seed=42, path_index=0, d=1)
        b = sample_drivers(marks, (0.0, 1.0), 2.0**-5, seed=42, path_index=1, d=1)
        assert not np.array_equal(a.dW, b.dW)

    def test_poisson_mean(self):
        # rate 2 over unit horizon: sample mean within 3*sqrt(2/n) of 2
        marks = MarkMeasure.from_atoms([([1.0], 1.5), ([-1.0], 0.5)])
        n = 10_000
        counts = [
            sample_drivers(marks, (0.0, 1.0), 2.0**-3, seed=5, path_index=p, d=1).jump_count
            for p in range(n)
        ]
        mean = float(np.mean(counts))
        assert abs(mean - 2.0) <= 3.0 * math.sqrt(2.0 / n)

    def test_atom_frequencies(self):
        marks = MarkMeasure.from_atoms([([1.0], 1.5), ([-1.0], 0.5)])
        n = 4000
        c0 = c1 = 0
        for p in range(n):
            drv = sample_drivers(marks, (0.0, 1.0), 0.5, seed=9, path_index=p, d=1)
            atoms = drv.jump_atoms[drv.jump_atoms >= 0]
            c0 += int(np.sum(atoms == 0))
            c1 += int(np.sum(atoms == 1))
        frac0 = c0 / (c0 + c1)
        se = math.sqrt(0.75 * 0.25 / (c0 + c1))
        assert abs(frac0 - 0.75) <= 4 * se

    def test_jump_times_merged_once(self):
        marks = MarkMeasure.from_atoms([([1.0], 3.0)])
        drv = sample_drivers(marks, (0.0, 1.0), 0.25, seed=11, path_index=3, d=1)
        assert np.all(np.diff(drv.times) > 0)
        assert drv.times[0] == 0.0 and drv.times[-1] == 1.0
        for tau, _ in drv.jump_events():
            assert tau in drv.times

    @pytest.mark.parametrize("atoms,h,seed,path,d,digests", [
        ([([0.5], 6.0), ([-0.7], 10.0)], 2.0**-4, 7, 3, 2, (
            "d025ac53b185b4e2f63d5ebbcd09869731b8563959fc37838e637cfb684c4d1b",
            "3a93b94a94135df27660f09983ece580d63bce3292fb19ff0c954f535555f89c",
            "3f782fb523683c02fd46d92d64942cbf0e79f56e63c7a56a6199b12eba08f7c8",
            "d095ac433b73222c59f161d21302c76cd8564060dc65347f885b993881c43608")),
        ([([1.0], 1.0)], 2.0**-9, 20260, 2047, 1, (
            "5a6bcfa82089323816953be40995d9b090a06590b0b1ef2e2c71040333cbd59b",
            "d05af3ef4c5451c7ba877e8600150300f15dad935f9c96e994601125e8a5143f",
            "499777c7164881f293351ae94fcf150885d0d71f18d9b3a822120ece5f44cb2b",
            "9716e4fd3f4951dcf841c06cba94451579d8fb5a65e43309185362b49ce21d58")),
    ], ids=["mass16", "gallery-mass1"])
    def test_stream_is_pinned(self, atoms, h, seed, path, d, digests):
        # sha256 of what the Philox stream of one (seed, path) key yields; a
        # change to the draw order or to how a draw is turned into times,
        # atoms or increments changes every report
        drv = sample_drivers(MarkMeasure.from_atoms(atoms), (0.0, 1.0), h, seed, path, d=d)
        got = (
            drv.times.tobytes(),
            drv.dW.tobytes(),
            drv.jump_atoms.astype(np.int64).tobytes(),
            repr(drv.jump_events()).encode(),
        )
        assert tuple(hashlib.sha256(b).hexdigest() for b in got) == digests

    def test_brownian_variance_scaling(self):
        marks = MarkMeasure.from_atoms([([1.0], 1.0)])
        total_sq = 0.0
        total_dt = 0.0
        d = 2
        for p in range(400):
            drv = sample_drivers(marks, (0.0, 1.0), 2.0**-4, seed=21, path_index=p, d=d)
            total_sq += float(np.sum(drv.dW**2))
            total_dt += float(np.sum(np.diff(drv.times))) * d
        ratio = total_sq / total_dt
        n_eff = 400 * 17 * d
        assert abs(ratio - 1.0) <= 4.0 * math.sqrt(2.0 / n_eff)


class TestSimulatePath:
    def test_constant_when_all_zero(self):
        model = scalar_model(marks=ONE_ATOM, jumps=[(0.0, 0.0)])
        drv = sample_drivers(ONE_ATOM, (0.0, 1.0), 0.25, seed=1, path_index=0, d=1)
        traj = simulate_path(model, [1.5], 0.0, drv)
        assert np.all(traj.states == 1.5)

    def test_ou_mean_sanity(self):
        # mean-reverting drift, constant diffusion: E X_T = exp(-1) * x0
        model = scalar_model(bslope=-1.0, sigma=0.5)
        terminals = sample_terminal_states(model, [1.0], 0.0, 1.0, 4000, 2.0**-7, seed=3)
        mean = float(np.mean(terminals))
        se = float(np.std(terminals, ddof=1)) / math.sqrt(len(terminals))
        assert abs(mean - math.exp(-1.0)) <= 3.5 * se + 0.01  # includes O(h) bias slack

    def test_compound_poisson_count(self):
        # drift equals the mark integral of gamma, so jumps accumulate raw:
        # X_T - x0 counts the Poisson arrivals (unit amplitude, rate 2)
        marks = MarkMeasure.from_atoms([([1.0], 2.0)])
        model = scalar_model(b=2.0, marks=marks, jumps=[(0.0, 1.0)])
        terminals = sample_terminal_states(model, [0.5], 0.0, 1.0, 4000, 2.0**-6, seed=8)
        increments = terminals[:, 0] - 0.5
        mean = float(np.mean(increments))
        se = math.sqrt(2.0 / len(increments))
        assert abs(mean - 2.0) <= 3.0 * se

    def test_jump_times_are_trajectory_points(self):
        marks = MarkMeasure.from_atoms([([1.0], 2.0)])
        model = scalar_model(b=0.1, sigma=0.2, marks=marks, jumps=[(0.0, 0.3)])
        drv = sample_drivers(marks, (0.0, 1.0), 0.125, seed=17, path_index=5, d=1)
        traj = simulate_path(model, [0.0], 0.0, drv)
        assert np.array_equal(traj.times, drv.times)
        for tau, _ in drv.jump_events():
            assert tau in traj.times

    def test_nonfinite_raises_with_time(self):
        # cubically exploding drift overflows quickly
        marks = MarkMeasure.from_atoms([], dimension=1)
        triple = CoefficientTriple(
            m=1, d=1,
            drift=lambda t, x: x**3,
            diffusion=lambda t, x: np.zeros((1, 1)),
            jump=lambda t, x, j: np.zeros(1),
        )
        model = SdeModel(coefficients=triple, marks=marks,
                         budget=RegularityBudget(mu=1.0, rho=np.zeros(0)))
        drv = sample_drivers(marks, (0.0, 1.0), 2.0**-4, seed=2, path_index=0, d=1)
        with pytest.raises(NonFiniteState) as err:
            simulate_path(model, [1e4], 0.0, drv)
        assert 0.0 < err.value.time <= 1.0


class TestCoupled:
    def test_identical_models_identical_paths(self):
        marks = MarkMeasure.from_atoms([([1.0], 1.0)])
        model = scalar_model(b=0.3, bslope=-0.2, sigma=0.4, marks=marks, jumps=[(0.1, 0.2)])
        problem = pair_problem(model, model, [0.7], [0.7])
        drv = sample_drivers(marks, (0.0, 1.0), 2.0**-5, seed=4, path_index=0, d=1)
        t1, t2 = simulate_coupled(problem, drv)
        assert np.array_equal(t1.states, t2.states)
        assert violation_stat((t1, t2)) == 0.0

    def test_coupling_replays_same_drivers(self):
        # coupled integration consumes exactly the per-model replay of the
        # same driver realization
        problem, _ = random_problem(21, failing=False)
        drv = sample_drivers(problem.marks, problem.horizon, 2.0**-5, seed=10,
                             path_index=2, d=problem.d)
        t1, t2 = simulate_coupled(problem, drv)
        r1 = simulate_path(problem.model1, problem.x1, problem.t0, drv)
        r2 = simulate_path(problem.model2, problem.x2, problem.t0, drv)
        assert np.array_equal(t1.states, r1.states)
        assert np.array_equal(t2.states, r2.states)

    def test_deterministic_drift_gap_difference(self):
        # b1 - b2 = 1, everything else equal: difference grows linearly, exactly
        m1 = scalar_model(b=1.0, sigma=0.3)
        m2 = scalar_model(b=0.0, sigma=0.3)
        problem = pair_problem(m1, m2, [0.0], [0.0])
        drv = sample_drivers(problem.marks, (0.0, 1.0), 2.0**-5, seed=6, path_index=0, d=1)
        t1, t2 = simulate_coupled(problem, drv)
        diff = t1.states[:, 0] - t2.states[:, 0]
        assert np.allclose(diff, drv.times, atol=1e-12)

    def test_violation_stat_cases(self):
        times = np.array([0.0, 0.5, 1.0])
        zeros = engine.Trajectory(times=times, states=np.zeros((3, 1)))
        ones = engine.Trajectory(times=times, states=np.ones((3, 1)))
        assert violation_stat((zeros, zeros)) == 0.0
        assert violation_stat((zeros, ones)) == 1.0
        # negative drift gap: difference is -t, terminal violation T - t0
        m1 = scalar_model(b=-1.0)
        m2 = scalar_model(b=0.0)
        problem = pair_problem(m1, m2, [0.0], [0.0])
        drv = sample_drivers(problem.marks, (0.0, 1.0), 2.0**-5, seed=6, path_index=0, d=1)
        pair = simulate_coupled(problem, drv)
        assert violation_stat(pair) == pytest.approx(1.0, abs=1e-12)


class TestMonteCarlo:
    def test_wilson_interval_edges(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and 0.95 < lo < 1.0
        lo, hi = wilson_interval(50, 100)
        assert 0.40 < lo < 0.5 < hi < 0.60

    def test_deterministic_gap_fraction_one(self):
        m1 = scalar_model(b=-1.0)
        m2 = scalar_model(b=0.0)
        problem = pair_problem(m1, m2, [0.0], [0.0])
        rep = mc_comparison(problem, 200, 2.0**-6, seed=1)
        assert rep.violation_fraction == 1.0
        assert rep.failed == 0
        assert rep.wilson_low > 0.9

    def test_ordered_pair_fraction_zero(self):
        m1 = scalar_model(b=1.0, sigma=0.3)
        m2 = scalar_model(b=0.0, sigma=0.3)
        problem = pair_problem(m1, m2, [0.5], [0.0])
        rep = mc_comparison(problem, 500, 2.0**-6, seed=2)
        assert rep.violation_fraction == 0.0
        assert rep.max_violation == 0.0

    def test_chunked_matches_reference(self):
        problem, _ = random_problem(33, failing=False)
        h = 2.0**-5
        rep = mc_comparison(problem, 48, h, seed=77, keep_paths=True)
        for p in range(48):
            drv = sample_drivers(problem.marks, problem.horizon, h, 77, p, d=problem.d)
            ref = violation_stat(simulate_coupled(problem, drv))
            assert rep.per_path.violation[p] == pytest.approx(ref, abs=1e-10)

    def test_thread_count_invariance(self):
        problem, _ = random_problem(34, failing=True)
        old = os.environ.get("JUMPCOMPARE_THREADS")
        try:
            os.environ["JUMPCOMPARE_THREADS"] = "1"
            rep1 = mc_comparison(problem, 5000, 2.0**-5, seed=9)
            os.environ["JUMPCOMPARE_THREADS"] = "4"
            rep2 = mc_comparison(problem, 5000, 2.0**-5, seed=9)
        finally:
            if old is None:
                os.environ.pop("JUMPCOMPARE_THREADS", None)
            else:
                os.environ["JUMPCOMPARE_THREADS"] = old
        assert rep1 == rep2

    def test_eps_path_default_formula(self):
        m1 = scalar_model(b=0.0)
        problem = pair_problem(m1, m1, [1.0], [0.5])
        h = 2.0**-6
        rep = mc_comparison(problem, 10, h, seed=0)
        assert rep.eps_path == pytest.approx(5.0 * math.sqrt(h) * (1.0 + 1.0 + 0.5))

    def test_eps_path_override(self):
        m1 = scalar_model(b=0.0)
        problem = pair_problem(m1, m1, [1.0], [0.5], eps_path=0.123)
        rep = mc_comparison(problem, 10, 2.0**-6, seed=0)
        assert rep.eps_path == 0.123

    def test_failed_paths_counted_separately(self):
        marks = MarkMeasure.from_atoms([], dimension=1)
        triple = CoefficientTriple(
            m=1, d=1,
            drift=lambda t, x: x**3,
            diffusion=lambda t, x: np.zeros((1, 1)),
            jump=lambda t, x, j: np.zeros(1),
        )
        bad = SdeModel(coefficients=triple, marks=marks,
                       budget=RegularityBudget(mu=1.0, rho=np.zeros(0)))
        problem = pair_problem(bad, bad, [1e4], [1e4])
        rep = mc_comparison(problem, 16, 2.0**-4, seed=0)
        assert rep.failed == 16
        assert rep.violating == 0

    def test_terminal_states_reject_zero_paths(self):
        model = scalar_model(bslope=-1.0, sigma=0.5)
        with pytest.raises(ValueError, match="paths must be >= 1"):
            sample_terminal_states(model, [1.0], 0.0, 1.0, 0, 2.0**-4, seed=1)

    def test_martingale_of_compensated_jumps(self):
        # no drift, no diffusion, constant jump amplitude: compensated form
        # makes X_T - x0 mean-zero
        marks = MarkMeasure.from_atoms([([1.0], 1.5)])
        model = scalar_model(marks=marks, jumps=[(0.0, 0.7)])
        terms = sample_terminal_states(model, [0.0], 0.0, 1.0, 4000, 2.0**-6, seed=13)
        mean = float(np.mean(terms))
        se = float(np.std(terms, ddof=1)) / math.sqrt(len(terms))
        assert abs(mean) <= 3.0 * se + 1e-3


class TestPerPathRecords:
    def test_first_violation_time_recorded(self):
        m1 = scalar_model(b=-1.0)
        m2 = scalar_model(b=0.0)
        problem = pair_problem(m1, m2, [0.0], [0.0])
        rep = mc_comparison(problem, 8, 2.0**-6, seed=3, keep_paths=True)
        eps = rep.eps_path
        assert np.all(rep.per_path.violation > eps)
        # difference is exactly -t: first crossing happens just after eps
        for ft in rep.per_path.first_violation_time:
            assert eps <= ft <= eps + 2.0**-5


def _run_pair_chunk(problem, drivers, grid, stat_fn=engine.componentwise_stat):
    batches = tuple(engine._BatchCoefficients(m) for m in (problem.model1, problem.model2))
    return engine._run_chunk(batches, (problem.x1, problem.x2), drivers, grid, stat_fn, 0.1)


class TestEventRounds:
    @pytest.mark.parametrize("blackbox", [False, True], ids=["affine", "blackbox"])
    def test_dense_jumps_match_reference(self, blackbox):
        problem = dense_jump_problem(8, kind="jump-row-gap")
        if blackbox:
            problem = strip_affine(problem)
        h = 2.0**-4
        grid = uniform_grid(problem.t0, problem.T, h)
        drivers = [sample_drivers(problem.marks, problem.horizon, h, 5, p, d=problem.d)
                   for p in range(24)]
        # some path has three jumps in one step, so rounds r >= 2 run
        per_step = [np.bincount(np.searchsorted(grid, drv.jump_times) - 1) for drv in drivers]
        assert max(c.max(initial=0) for c in per_step) >= 3

        viol, _, failed, terminals = _run_pair_chunk(problem, drivers, grid)
        assert not failed.any()
        assert viol.max() > 0.0
        for p, drv in enumerate(drivers):
            t1, t2 = simulate_coupled(problem, drv)
            assert viol[p] == pytest.approx(violation_stat((t1, t2)), abs=1e-10)
            assert np.allclose(terminals[0][p], t1.terminal(), rtol=0.0, atol=1e-10)
            assert np.allclose(terminals[1][p], t2.terminal(), rtol=0.0, atol=1e-10)

    def test_jump_on_grid_point_is_merged(self):
        marks = MarkMeasure.from_atoms([([1.0], 2.0)])
        m1 = scalar_model(b=0.3, bslope=-0.5, sigma=0.4, marks=marks, jumps=[(0.5, 0.3)])
        m2 = scalar_model(b=0.1, bslope=-0.5, sigma=0.4, marks=marks, jumps=[(0.5, -0.2)])
        problem = pair_problem(m1, m2, [0.2], [0.0])
        grid = uniform_grid(0.0, 1.0, 0.25)
        # jumps on the grid point 0.5, inside (0.5, 0.75] and on T: the time
        # list is 0, 0.25, 0.5, 0.6, 0.75, 1 and has five segments
        drv = engine.DriverRealization(
            t0=0.0, T=1.0, h=0.25, jump_times=np.array([0.5, 0.6, 1.0]),
            jump_marks=np.zeros(3, dtype=np.int64), dW=np.arange(1.0, 6.0)[:, None] / 4.0,
        )
        assert np.array_equal(drv.times, [0.0, 0.25, 0.5, 0.6, 0.75, 1.0])
        assert drv.n_segments == drv.times.shape[0] - 1 == 5
        assert drv.jump_atoms.tolist() == [-1, 0, 0, -1, 0]

        rows = []

        def stat(diff):
            rows.append(diff.shape[0])
            return engine.componentwise_stat(diff)

        # one path: a sixth dW row would be out of range, and a skipped last
        # row would leave the terminal state off the reference
        viol, _, _, terminals = _run_pair_chunk(problem, [drv], grid, stat)
        t1, t2 = simulate_coupled(problem, drv)
        assert viol[0] == pytest.approx(violation_stat((t1, t2)), abs=1e-12)
        assert terminals[0][0] == pytest.approx(t1.terminal(), abs=1e-12)
        assert terminals[1][0] == pytest.approx(t2.terminal(), abs=1e-12)
        # a row at the start and after each of the 4 steps, plus one per
        # sub-step: one in each step ending on a jump, two in (0.5, 0.75]
        assert sum(rows) == 5 + 4
