"""Engine tests: drivers, path integration, coupling, Monte Carlo."""

import contextlib
import hashlib
import itertools
import math
import signal
import tracemalloc

import numpy as np
import pytest

from jumpcompare import engine, psdcone
from jumpcompare.cli import build_problem, gallery_configs
from jumpcompare.engine import (
    InvalidStep,
    mc_comparison,
    sample_drivers,
    sample_terminal_states,
    uniform_grid,
    wilson_interval,
)
from jumpcompare.model import (
    AffineCoefficients,
    CoefficientTriple,
    ComparisonProblem,
    MarkMeasure,
    ModelError,
    RegularityBudget,
    SdeModel,
    Tolerances,
)
from jumpcompare.psdcone import mc_matrix_comparison, svec

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


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the body once ``seconds`` have passed (a run
    that does not return fails instead of hanging the suite)."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _events_repr(drv):
    """The (time, atom) pairs of a realization's jumps, as bytes to hash."""
    return repr(list(zip(drv.jump_times.tolist(), drv.jump_marks.tolist()))).encode()


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
        assert drv.jump_times.size == 0
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
            sample_drivers(marks, (0.0, 1.0), 2.0**-3, seed=5, path_index=p, d=1).jump_times.size
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
        for tau in drv.jump_times:
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
            _events_repr(drv),
        )
        assert tuple(hashlib.sha256(b).hexdigest() for b in got) == digests

    def test_repeated_and_grid_point_jump_times_are_merged(self):
        # near t = 2^53 the spacing of doubles is 2, so most interarrivals
        # leave t unchanged (one jump kept, with the later atom) and some
        # land on the grid points 2^53 + 16 k (merged with them)
        marks = MarkMeasure.from_atoms([([1.0], 0.7), ([2.0], 0.4)])
        t0 = 2.0**53
        drv = sample_drivers(marks, (t0, t0 + 64.0), 16.0, seed=5, path_index=0, d=2)
        grid = uniform_grid(t0, t0 + 64.0, 16.0)
        assert t0 < drv.jump_times[0] and np.all(np.diff(drv.jump_times) > 0)
        assert np.isin(drv.jump_times, grid).sum() == 4
        # 4 grid steps, split once more by each of the jumps off the grid
        assert drv.n_segments == drv.times.shape[0] - 1 == 4 + (drv.jump_times.size - 4)
        got = (drv.times.tobytes(), drv.dW.tobytes(),
               drv.jump_atoms.astype(np.int64).tobytes(), _events_repr(drv))
        assert tuple(hashlib.sha256(b).hexdigest() for b in got) == (
            "56b42677a3c13d1935372f8b6f96de1e473f2a99ffbad6896a62dfacb8e53e63",
            "4168b3138f86993c5c7ed9d2b175996909c05bc97fdbbcedfc9c366a8918f162",
            "27a10cb525a5c3ef330797c8721a407ba5d11fabed7372f2ddec1657967ffaaa",
            "dd3af2e795758d358d5730bd49fcac78810a9e0f3c5ab3fff885b2082acee26d",
        )

    @pytest.mark.parametrize("case", ["grid-point-and-two-in-a-step", "mass16", "mass1",
                                      "near-2^53"])
    def test_one_normal_draw_per_segment(self, case, monkeypatch):
        # the sampler draws its normals in one call of shape (n_steps + the
        # jumps off the grid, d) and keeps them unscaled; a jump on a grid
        # point and a repeated time add no segment
        draws = []

        class Recorder:
            """The path's generator, with scripted interarrivals if given."""

            def __init__(self, rng, arrivals):
                self.rng, self.arrivals, self.n_arrivals = rng, arrivals, 0

            def standard_exponential(self):
                self.n_arrivals += 1
                if self.arrivals is None:
                    return self.rng.standard_exponential()
                return self.arrivals.pop(0)

            def random(self):
                return self.rng.random()

            def standard_normal(self, shape):
                draws.append((shape, self.rng.standard_normal(shape)))
                return draws[-1][1].copy()

        path_rng = engine._path_rng
        recorders = []

        def recording(s, p):
            recorders.append(Recorder(path_rng(s, p), None if arrivals is None else list(arrivals)))
            return recorders[-1]

        horizon, seed, arrivals = (0.0, 1.0), 3, None
        if case == "grid-point-and-two-in-a-step":
            # unit mass: t = 0.5 (a grid point), 0.625 and 0.6875 (one step),
            # 0.8125, then past T
            marks, h, d, paths = ONE_ATOM, 0.25, 2, 1
            arrivals = [0.5, 0.125, 0.0625, 0.125, 1.0]
        elif case == "mass16":
            marks = MarkMeasure.from_atoms([([0.5], 6.0), ([-0.7], 7.0), ([0.2], 3.0)])
            h, d, paths = 2.0**-5, 2, 60
        elif case == "mass1":
            marks, h, d, paths = ONE_ATOM, 2.0**-9, 1, 60
        else:
            # the path of test_repeated_and_grid_point_jump_times_are_merged
            marks = MarkMeasure.from_atoms([([1.0], 0.7), ([2.0], 0.4)])
            horizon, h, d, paths, seed = (2.0**53, 2.0**53 + 64.0), 16.0, 2, 1, 5
        monkeypatch.setattr(engine, "_path_rng", recording)
        grid = uniform_grid(*horizon, h)
        on_grid = shared_step = 0
        for p in range(paths):
            drv = sample_drivers(marks, horizon, h, seed=seed, path_index=p, d=d)
            (shape, z), = draws
            draws.clear()
            off_grid = int(np.count_nonzero(~np.isin(drv.jump_times, grid)))
            assert shape == (grid.shape[0] - 1 + off_grid, d) == drv.normals.shape
            assert drv.normals.tobytes() == z.tobytes()
            on_grid += np.isin(drv.jump_times, grid).sum()
            shared_step += (np.diff(np.searchsorted(grid, drv.jump_times)) == 0).sum()
        if case == "grid-point-and-two-in-a-step":
            assert drv.jump_times.tolist() == [0.5, 0.625, 0.6875, 0.8125]
            assert drv.times.tolist() == [0.0, 0.25, 0.5, 0.625, 0.6875, 0.75, 0.8125, 1.0]
            assert on_grid == 1 and shared_step == 1
        if case == "mass16":
            assert shared_step > paths
        if case == "near-2^53":
            # four jumps on grid points, and arrivals that repeated a time
            assert on_grid == 4
            assert recorders[-1].n_arrivals > drv.jump_times.size + 1

    def test_no_jump_lands_on_t0(self):
        # near t0 = 2^53 a first interarrival below 1 leaves t at t0; that
        # jump goes to the next double, t0 + 2, and the later ones follow it
        marks = MarkMeasure.from_atoms([([1.0], 0.7), ([2.0], 0.4)])
        t0 = 2.0**53
        horizon = (t0, t0 + 64.0)
        for p in range(50):
            drv = sample_drivers(marks, horizon, 16.0, seed=5, path_index=p, d=1)
            assert drv.jump_times[0] > t0
            assert drv.n_segments == drv.times.shape[0] - 1
        # unit jumps, no diffusion, net drift -1.1: X_T is -1.1 * 64 plus one
        # per jump; a jump left on t0 would not be applied, and every later
        # Brownian row of its path would be read one segment off
        model = scalar_model(marks=marks, jumps=[(0.0, 1.0), (0.0, 1.0)])
        drv = sample_drivers(marks, horizon, 16.0, seed=14, path_index=0, d=1)
        assert drv.jump_times[0] == t0 + 2.0 and drv.jump_times.size == 28
        x_T = sample_terminal_states(model, [0.0], *horizon, 1, 16.0, seed=14)
        assert x_T[0, 0] == pytest.approx(-1.1 * 64.0 + 28, abs=1e-9)

    def test_rekeyed_generator_keeps_no_state(self, monkeypatch):
        # one generator is re-keyed per path; what it drew for an earlier
        # key, including a half-used 32-bit buffer, must not leak into the
        # next key's stream
        def sample(rng):
            # 64-bit draws as sample_drivers makes them, then 32-bit ones,
            # which read the generator's half-word buffer
            return (rng.standard_exponential(), rng.random(),
                    rng.standard_normal((3, 2)).tobytes(),
                    rng.random(3, dtype=np.float32).tobytes())

        def draws(seed, path):
            return sample(engine._path_rng(seed, path))

        def fresh(seed, path):
            key = np.array([seed & engine._MASK64, path & engine._MASK64], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key))

        first = draws(42, 5)
        draws(7, 9)
        assert draws(42, 5) == first
        # leftovers of another key: a used counter, a part-read buffer and a
        # pending half word
        left = fresh(3, 3)
        left.random(dtype=np.float32)
        left.random()
        for seed, path in ((42, 5), (7, 9), (2**63 + 11, 2**40)):
            engine._path_rng(1, 1).bit_generator.state = left.bit_generator.state
            assert draws(seed, path) == sample(fresh(seed, path))

        # the same through sample_drivers, with and without jumps
        cases = [(ONE_ATOM, 2.0**-5), (MarkMeasure.from_atoms([], dimension=1), 2.0**-4)]
        keys = ((42, 5), (7, 9), (42, 5), (2**63 + 11, 2**40))

        def realize(marks, h):
            out = []
            for seed, path in keys:
                drv = sample_drivers(marks, (0.0, 1.0), h, seed, path, d=2)
                out.append((drv.jump_times.tobytes(), drv.jump_marks.tobytes(),
                            drv.dW.tobytes()))
            return out

        rekeyed = [realize(*case) for case in cases]
        assert all(r[0] == r[2] for r in rekeyed)
        # under ONE_ATOM the first three keys jump and the last does not
        assert [len(jt) > 0 for jt, _, _ in rekeyed[0]] == [True, True, True, False]
        monkeypatch.setattr(engine, "_path_rng", fresh)
        assert [realize(*case) for case in cases] == rekeyed

    def test_rekeyed_generator_at_the_top_of_the_key_range(self):
        # the key is held as Python ints: keys of 2^63 and above, up to
        # 2^64 - 1, give the stream of a generator built with that key
        for seed, path in ((2**64 - 3, 0), (0, 2**64 - 3), (2**64 - 1, 2**64 - 1), (2**63, 7)):
            rng = engine._path_rng(seed, path)
            want = np.random.Generator(np.random.Philox(
                key=np.array([seed, path], dtype=np.uint64)))
            assert rng.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
            assert rng.random() == want.random()

    def test_a_path_without_jumps_has_read_only_empty_jumps(self):
        # no atoms, and an atom on a key whose path does not jump (see
        # test_rekeyed_generator_keeps_no_state): the empty jump arrays are
        # shared, so no caller may write them
        no_atoms = MarkMeasure.from_atoms([], dimension=1)
        got = [sample_drivers(no_atoms, (0.0, 1.0), 2.0**-4, 42, 5, d=2),
               sample_drivers(ONE_ATOM, (0.0, 1.0), 2.0**-5, 2**63 + 11, 2**40, d=2)]
        for drv in got:
            assert drv.jump_times.shape == drv.jump_marks.shape == (0,)
            assert drv.jump_times.dtype == np.float64 and drv.jump_marks.dtype == np.int64
            for arr in (drv.jump_times, drv.jump_marks):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0
            assert drv.jump_atoms.tolist() == [-1] * drv.n_segments
        assert got[0].normals.shape == (16, 2) and got[1].normals.shape == (32, 2)

    @pytest.mark.parametrize("mass, T", [(1e308, 1.0), (5000.001, 2.0), (1.0, 2.0**14)],
                             ids=["1e308", "just-over", "long-horizon"])
    def test_too_many_expected_jumps_are_refused_before_any_draw(self, mass, T,
                                                                 monkeypatch):
        # total mark mass * (T - t0) above _MAX_EXPECTED_JUMPS = 1e4: the
        # sampler would draw that many jumps a path, one a loop turn
        def no_draw(seed, path):
            raise AssertionError("a draw before the refusal")

        marks = MarkMeasure.from_atoms([([1.0], mass)])
        monkeypatch.setattr(engine, "_path_rng", no_draw)
        with _time_limit(10.0), pytest.raises(ModelError, match="exceed the limit of 10000$"):
            sample_drivers(marks, (0.0, T), T / 4, 1, 0, d=1)

    def test_the_expected_jump_limit_is_inclusive(self):
        # mass 5000 over a horizon of 2 expects 1e4 jumps a path, the limit
        marks = MarkMeasure.from_atoms([([1.0], 5000.0)])
        with _time_limit(10.0):
            drv = sample_drivers(marks, (0.0, 2.0), 0.5, 1, 0, d=1)
        assert abs(drv.jump_times.size - 1e4) < 500  # 5 standard deviations

    def test_a_huge_mark_mass_fails_the_run_at_once(self):
        # one atom of finite weight 1e308 made every Monte Carlo run hang
        marks = MarkMeasure.from_atoms([([1.0], 1e308)])
        model = scalar_model(marks=marks, jumps=[(0.0, 0.0)])
        problem = pair_problem(model, model, [0.0], [0.0])
        with _time_limit(10.0):
            with pytest.raises(ModelError, match="= 1e\\+308, exceed the limit of 10000$"):
                mc_comparison(problem, 4, 0.25, seed=1)
            with pytest.raises(ModelError, match="exceed the limit"):
                sample_terminal_states(model, [0.0], 0.0, 1.0, 4, 0.25, seed=1)

    def test_total_mass_is_summed_once(self, monkeypatch):
        marks = MarkMeasure.from_atoms([([1.0], 0.1), ([-1.0], 0.2), ([2.0], 0.7)])
        mass = marks.total_mass
        assert mass == float(np.sum(marks.weights))

        def no_sum(*args, **kwargs):
            raise AssertionError("total_mass summed the weights again")

        monkeypatch.setattr(np, "sum", no_sum)
        assert marks.total_mass == mass

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


class TestRowReductions:
    # every row over {nan, +-inf, +-0, 1.5}^m: the column-wise folds must
    # give the bits of the row-axis reductions they replace
    VALUES = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_componentwise_stat_is_row_max(self, m):
        rows = np.array(list(itertools.product(self.VALUES, repeat=m)))
        got = engine.componentwise_stat(rows)
        assert got.tobytes() == rows.max(axis=1).tobytes()
        assert not np.shares_memory(got, rows)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_finite_rows_is_row_all(self, m):
        rows = np.array(list(itertools.product(self.VALUES, repeat=m)))
        assert np.array_equal(engine._finite_rows(rows), np.isfinite(rows).all(axis=1))


def _run_pair_chunk(problem, drivers, grid, stat_fn=engine.componentwise_stat):
    return engine._run_chunk((problem.model1, problem.model2), (problem.x1, problem.x2),
                             drivers, grid, stat_fn, 0.1)


def _recording(rows):
    """The componentwise statistic, keeping a copy of every block it judges."""
    def stat(diff):
        rows.append(diff.copy())
        return engine.componentwise_stat(diff)
    return stat


def _row_times(drv, grid):
    """The time of each statistic row of a one-path kernel run: the start,
    then in each grid step its sub-steps' ends (each jump, and the grid point
    after a last jump off it) and the grid point."""
    out = [grid[0]]
    step = np.searchsorted(grid, drv.jump_times, side="left") - 1
    for i in range(grid.shape[0] - 1):
        ends = drv.jump_times[step == i].tolist()
        if ends and ends[-1] < grid[i + 1]:
            ends.append(grid[i + 1])
        out += ends + [grid[i + 1]]
    return np.array(out)


def _trace(model, x0, drv, grid):
    """(times, states) of one path of ``model``, from a one-path kernel run
    coupled to a model that stays at 0: each statistic row is X - 0 = X."""
    m, d, n = model.m, model.d, model.marks.n_atoms
    still = affine_model(np.zeros((m, m)), np.zeros(m), np.zeros((m, d, m)), np.zeros((m, d)),
                         np.zeros((n, m, m)), np.zeros((n, m)), model.marks)
    rows = []
    engine._run_chunk((still, model), (np.zeros(m), x0), [drv], grid, _recording(rows), 0.1)
    return _row_times(drv, grid), np.concatenate(rows)


class TestOnePath:
    """One path through the kernel, against states known in closed form."""

    def test_constant_when_all_zero(self):
        model = scalar_model(marks=ONE_ATOM, jumps=[(0.0, 0.0)])
        drv = sample_drivers(ONE_ATOM, (0.0, 1.0), 0.25, seed=1, path_index=0, d=1)
        times, states = _trace(model, [1.5], drv, uniform_grid(0.0, 1.0, 0.25))
        assert drv.jump_times.size > 0
        assert states.shape == (times.shape[0], 1) and np.all(states == 1.5)

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

    def test_jump_only_linear_model_has_its_closed_form(self):
        # each jump maps x to 2x + 1/2; the drift 2x + 1 is the compensator
        # of that jump at rate 2, so the net drift is 0 and, without
        # diffusion, X_t = 2^N(t) (x0 + 1/2) - 1/2 exactly, N(t) the number
        # of jumps up to t: the state moves at each jump time and only there
        marks = MarkMeasure.from_atoms([([1.0], 2.0)])
        model = scalar_model(b=1.0, bslope=2.0, marks=marks, jumps=[(1.0, 0.5)])
        M, dvec = model.coefficients.affine.net_drift_blocks(marks)
        assert M.tolist() == [[0.0]] and dvec.tolist() == [0.0]
        grid = uniform_grid(0.0, 1.0, 0.25)
        drv = sample_drivers(marks, (0.0, 1.0), 0.25, seed=17, path_index=7, d=1)
        # four jumps, the last two in the last grid step
        assert (np.searchsorted(grid, drv.jump_times) - 1).tolist() == [1, 2, 3, 3]
        times, states = _trace(model, [0.75], drv, grid)
        n = np.searchsorted(drv.jump_times, times, side="right")
        assert states[:, 0].tolist() == (2.0**n * 1.25 - 0.5).tolist()
        assert states[-1, 0] == 19.5

    def test_overflow_fails_the_path_from_its_first_bad_time(self):
        # x' = x^3 from 1e4 at h = 1/16 overflows on its fifth step:
        # 6.25e10, 1.5e31, 2.1e92, 5.9e275, then inf at t = 5/16
        marks = MarkMeasure.from_atoms([], dimension=1)
        triple = CoefficientTriple(
            m=1, d=1,
            drift=lambda t, x: x**3,
            diffusion=lambda t, x: np.zeros((1, 1)),
            jump=lambda t, x, j: np.zeros(1),
        )
        model = SdeModel(coefficients=triple, marks=marks,
                         budget=RegularityBudget(mu=1.0, rho=np.zeros(0)))
        grid = uniform_grid(0.0, 1.0, 2.0**-4)
        drv = sample_drivers(marks, (0.0, 1.0), 2.0**-4, seed=2, path_index=0, d=1)
        times, states = _trace(model, [1e4], drv, grid)
        bad = ~np.isfinite(states[:, 0])
        assert times[bad][0] == 5 * 2.0**-4 and bad[np.argmax(bad):].all()
        viol, _, failed, _ = _run_pair_chunk(pair_problem(model, model, [1e4], [1e4]), [drv],
                                             grid)
        assert failed[0] and math.isnan(viol[0])


class TestCoupled:
    def test_identical_models_identical_paths(self):
        marks = MarkMeasure.from_atoms([([1.0], 1.0)])
        model = scalar_model(b=0.3, bslope=-0.2, sigma=0.4, marks=marks, jumps=[(0.1, 0.2)])
        problem = pair_problem(model, model, [0.7], [0.7])
        drv = sample_drivers(marks, (0.0, 1.0), 2.0**-5, seed=4, path_index=0, d=1)
        grid = uniform_grid(0.0, 1.0, 2.0**-5)
        rows = []
        viol, _, failed, (X1, X2) = _run_pair_chunk(problem, [drv], grid, _recording(rows))
        assert drv.jump_times.size > 0
        assert X1.tobytes() == X2.tobytes()
        assert viol[0] == 0.0 and not failed[0]
        assert not np.concatenate(rows).any()

    def test_coupling_replays_same_drivers(self):
        # coupled integration consumes exactly the per-model replay of the
        # same driver realization
        problem, _ = random_problem(21, failing=False)
        h = 2.0**-5
        grid = uniform_grid(problem.t0, problem.T, h)
        drv = sample_drivers(problem.marks, problem.horizon, h, seed=10, path_index=2,
                             d=problem.d)
        *_, coupled = _run_pair_chunk(problem, [drv], grid)
        for model, x0, X in zip((problem.model1, problem.model2), (problem.x1, problem.x2),
                                coupled):
            alone = engine._run_chunk((model,), (x0,), [drv], grid, None, 0.0)[3]
            assert X.tobytes() == alone[0].tobytes()

    def test_deterministic_drift_gap_difference(self):
        # b1 - b2 = 1, everything else equal: X2 - X1 = -t at every row;
        # the dyadic steps make it exact without diffusion, and rounding in
        # the shared noise sums is all that moves it with diffusion
        grid = uniform_grid(0.0, 1.0, 2.0**-5)
        for sigma in (0.0, 0.3):
            m1, m2 = scalar_model(b=1.0, sigma=sigma), scalar_model(b=0.0, sigma=sigma)
            drv = sample_drivers(m1.marks, (0.0, 1.0), 2.0**-5, seed=6, path_index=0, d=1)
            rows = []
            viol, first_t, _, _ = _run_pair_chunk(pair_problem(m1, m2, [0.0], [0.0]), [drv],
                                                  grid, _recording(rows))
            diff = np.concatenate(rows)[:, 0]
            if sigma == 0.0:
                assert diff.tolist() == (-grid).tolist()
            else:
                assert np.allclose(diff, -grid, rtol=0.0, atol=1e-12)
            assert viol[0] == 0.0 and math.isnan(first_t[0])
        # the gap the other way: X2 - X1 = t, so the violation is T - t0 and
        # first exceeds eps_path = 0.1 at the grid point 0.125
        m1, m2 = scalar_model(b=-1.0), scalar_model(b=0.0)
        viol, first_t, _, _ = _run_pair_chunk(pair_problem(m1, m2, [0.0], [0.0]), [drv], grid)
        assert viol[0] == 1.0 and first_t[0] == 0.125


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

    def test_one_path_kernel_calls_match_the_chunk(self):
        # each path of an m = 3 pair with jumps, run alone through the
        # kernel, gets the per-path records it gets in one chunk of 48
        problem, _ = random_problem(33, failing=False)
        h = 2.0**-5
        rep = mc_comparison(problem, 48, h, seed=77, keep_paths=True)
        grid = uniform_grid(problem.t0, problem.T, h)
        alone = [engine._run_chunk(
            (problem.model1, problem.model2), (problem.x1, problem.x2),
            [sample_drivers(problem.marks, problem.horizon, h, 77, p, d=problem.d)], grid,
            engine.componentwise_stat, rep.eps_path) for p in range(48)]
        assert problem.m == 3 and problem.marks.total_mass > 0.0
        for i, field in enumerate(("violation", "first_violation_time", "failed")):
            got = np.concatenate([a[i] for a in alone])
            assert got.tobytes() == getattr(rep.per_path, field).tobytes(), field

    def test_chunk_size_invariance(self, monkeypatch):
        problem, _ = random_problem(34, failing=True)
        h, seed, paths = 2.0**-5, 9, 5000
        calls = []
        run_chunk = engine._run_chunk

        def counting_run_chunk(*args):
            calls.append(len(args[2]))
            return run_chunk(*args)

        def run():
            rep = mc_comparison(problem, paths, h, seed, keep_paths=True)
            terminal = sample_terminal_states(
                problem.model1, problem.x1, problem.t0, problem.T, paths, h, seed
            )
            return rep, terminal

        monkeypatch.setattr(engine, "_run_chunk", counting_run_chunk)
        rep1, term1 = run()
        monkeypatch.setattr(engine, "_CHUNK", 1000)
        rep2, term2 = run()
        # 2048 + 2048 + 904 paths per run, then 5 chunks of 1000
        assert calls == [2048, 2048, 904] * 2 + [1000] * 10
        for field in ("violation", "first_violation_time", "failed"):
            a, b = getattr(rep1.per_path, field), getattr(rep2.per_path, field)
            assert a.tobytes() == b.tobytes(), field
        assert rep1.violating > 0
        assert term1.tobytes() == term2.tobytes()

    def test_small_chunks_match_one_chunk(self, monkeypatch):
        # with 2 or 3 paths a chunk, some grid step jumps every path but one,
        # and with 1 every block and round is a lone row: each row takes the
        # bits it takes in one chunk of all 7
        problem = dense_jump_problem(3, kind="jump-row-gap")
        h, seed, paths = 2.0**-5, 3, 7

        def run():
            rep = mc_comparison(problem, paths, h, seed, keep_paths=True)
            rows = [rep.per_path.violation, rep.per_path.first_violation_time,
                    rep.per_path.failed]
            rows += [sample_terminal_states(model, x0, problem.t0, problem.T, paths, h, seed)
                     for model, x0 in ((problem.model1, problem.x1),
                                       (problem.model2, problem.x2))]
            return [r.tobytes() for r in rows]

        whole = run()
        for chunk in (1, 2, 3):
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            assert run() == whole, chunk

    @pytest.mark.parametrize("scenario", ["corollary33-pass", "corollary34-pass", "example36",
                                          "jump-monotone-fail", "drift-order-fail",
                                          "sigma-coupling-fail", "matrix-pass"])
    def test_one_path_chunks_match(self, scenario, monkeypatch):
        # a lone row gets the bits it gets in any block: the m = 1 drift is
        # a product, and at m >= 2 the row goes into gemm as the first of two
        cfg = next(c for c in gallery_configs() if c.id == scenario)
        problem = build_problem(cfg)
        h, seed, paths = 2.0**-7, 11, 40
        if cfg.kind == "matrix":
            mc = mc_matrix_comparison
            starts = [(psdcone._vector_model(model), svec(x0)) for model, x0 in
                      ((problem.model1, problem.x1), (problem.model2, problem.x2))]
        else:
            mc = mc_comparison
            starts = [(problem.model1, problem.x1), (problem.model2, problem.x2)]

        def run():
            rep = mc(problem, paths, h, seed, keep_paths=True)
            rows = [rep.per_path.violation, rep.per_path.first_violation_time,
                    rep.per_path.failed]
            rows += [sample_terminal_states(model, x0, problem.t0, problem.T, paths, h, seed)
                     for model, x0 in starts]
            return rep, [r.tobytes() for r in rows]

        rep, whole = run()
        if problem.m == 1:
            drivers = [sample_drivers(problem.marks, problem.horizon, h, seed, p, d=problem.d)
                       for p in range(paths)]
            assert sum(drv.jump_times.size for drv in drivers) > paths // 2
        assert (rep.violating > 0) == scenario.endswith("-fail")
        for chunk in (1, 3):
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            assert run()[1] == whole, chunk

    @pytest.mark.parametrize("seed", [-3, 2**64])
    def test_seeds_outside_the_key_range_are_rejected(self, seed):
        model = scalar_model(bslope=-1.0, sigma=0.5)
        problem = pair_problem(model, model, [1.0], [0.5])
        msg = rf"seed: must be an integer in \[0, 2\^64\), got {seed}"
        with pytest.raises(ValueError, match=msg):
            mc_comparison(problem, 8, 0.25, seed)
        with pytest.raises(ValueError, match=msg):
            sample_terminal_states(model, [1.0], 0.0, 1.0, 8, 0.25, seed)

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

    @pytest.mark.parametrize("x0", [[1.0, 2.0], [], [[1.0]]], ids=["long", "empty", "2-d"])
    def test_terminal_states_reject_a_start_of_the_wrong_shape(self, x0):
        model = scalar_model(bslope=-1.0, sigma=0.5)
        with pytest.raises(ValueError, match="x0 must be a vector of length 1"):
            sample_terminal_states(model, x0, 0.0, 1.0, 4, 2.0**-4, seed=1)

    def test_terminal_states_take_a_scalar_start_for_m_1(self):
        model = scalar_model(bslope=-1.0, sigma=0.5)
        a = sample_terminal_states(model, 1.0, 0.0, 1.0, 4, 2.0**-4, seed=1)
        assert a.tobytes() == sample_terminal_states(model, [1.0], 0.0, 1.0, 4, 2.0**-4,
                                                     seed=1).tobytes()

    def test_martingale_of_compensated_jumps(self):
        # no drift, no diffusion, constant jump amplitude: compensated form
        # makes X_T - x0 mean-zero
        marks = MarkMeasure.from_atoms([([1.0], 1.5)])
        model = scalar_model(marks=marks, jumps=[(0.0, 0.7)])
        terms = sample_terminal_states(model, [0.0], 0.0, 1.0, 4000, 2.0**-6, seed=13)
        mean = float(np.mean(terms))
        se = float(np.std(terms, ddof=1)) / math.sqrt(len(terms))
        assert abs(mean) <= 3.0 * se + 1e-3


def _evaluated_diffusion(self, t, X, U_rows=None):
    """The affine diffusion as its formula, evaluated at every row."""
    return np.einsum("kaj,pj->pka", self.V, X) + self.U


class TestConstantDiffusion:
    """With V = 0 the affine diffusion is U for every row instead of
    einsum(V, X) + U; the results must be those of the evaluation."""

    @staticmethod
    def _models(d, U):
        # x -> 1e80 x on a jump: a path with four or more jumps overflows;
        # B cancels the compensator of G, so the net drift stays small
        marks = MarkMeasure.from_atoms([([1.0], 2.5)])
        G, g = 1e80 * np.eye(2)[None], np.array([[0.2, -0.1]])
        B = 2.5 * G[0] + [[-0.3, 0.1], [0.05, -0.2]]
        V = np.zeros((2, d, 2))
        m1 = affine_model(B, [0.4, 0.1], V, U, G, g, marks)
        m2 = affine_model(B, [0.2, 0.3], V, U, G, g, marks)
        return m1, m2

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("neg_zero", [False, True], ids=["U", "U-negzero"])
    def test_matches_the_evaluated_diffusion(self, d, neg_zero, monkeypatch):
        U = np.random.default_rng(d).standard_normal((2, d))
        U[1, 0] = -0.0 if neg_zero else 0.0
        m1, m2 = self._models(d, U)
        problem = pair_problem(m1, m2, [0.5, 0.5], [0.0, 0.2])
        h, paths = 2.0**-5, 300

        X = np.random.default_rng(7).standard_normal((50, 2))
        aff = m1.coefficients.affine
        sig = aff.diffusion_rows(0.0, X)
        assert sig.tobytes() == _evaluated_diffusion(aff, 0.0, X).tobytes()
        # the shared U is a read-only view; a -0.0 in U keeps the evaluation
        assert sig.flags.writeable == neg_zero

        def run():
            rep = mc_comparison(problem, paths, h, seed=3, keep_paths=True)
            terms = sample_terminal_states(m1, problem.x1, 0.0, 1.0, paths, h, seed=3)
            return rep, terms

        fast, fast_terms = run()
        monkeypatch.setattr(AffineCoefficients, "diffusion_rows", _evaluated_diffusion)
        ref, ref_terms = run()
        assert 0 < fast.failed < paths
        for field in ("violation", "first_violation_time", "failed"):
            a, b = getattr(fast.per_path, field), getattr(ref.per_path, field)
            assert a.tobytes() == b.tobytes(), field
        # an overflowed row may hold inf where the evaluation made NaN
        finite = np.isfinite(ref_terms).all(axis=1)
        assert np.array_equal(np.isfinite(fast_terms).all(axis=1), finite)
        assert 0 < finite.sum() < paths
        assert fast_terms[finite].tobytes() == ref_terms[finite].tobytes()


SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e-300,
           1e300, -1.0, 0.75]


def _special_rows(rng, K, m):
    """K rows of m states: normal draws with about half the entries
    replaced by -0.0, +-inf, NaN, subnormals and extremes."""
    X = rng.standard_normal((K, m))
    pick = rng.random((K, m)) < 0.5
    X[pick] = rng.choice(SPECIAL, int(pick.sum()))
    return X


def _special_model(rng, m, d):
    """An affine model with -0.0 and subnormal entries in every block."""
    def block(*shape):
        a = rng.standard_normal(shape)
        flat = a.reshape(-1)  # a view: a is new and contiguous
        flat[::3] = rng.choice([-0.0, 0.0, 5e-324, -1e-310], flat[::3].size)
        return a
    marks = MarkMeasure.from_atoms([([1.0], 0.7), ([-0.5], 1.3)])
    return affine_model(block(m, m), block(m), block(m, d, m), block(m, d),
                        block(2, m, m), block(2, m), marks)


class TestBitwiseStep:
    """The block Euler step, its drift and its diffusion give the bits of
    the formulas ``X + drift * dt + einsum("pkd,pd->pk", sigma, dW)``,
    ``X @ M.T + d`` (one gemm) and ``einsum("kaj,pj->pka", V, X) + U``, on
    special values too, and any rows of a block, a lone row included, get
    the bits they get in the block."""

    ROWS = 2048  # the tile of a full chunk

    @pytest.fixture(autouse=True)
    def _quiet(self):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            yield

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_step_drift_and_diffusion_match_the_formulas(self, m, d):
        rng = np.random.default_rng(100 * m + d)
        model = _special_model(rng, m, d)
        aff = model.coefficients.affine
        M, dvec = aff.net_drift_blocks(model.marks)
        bat = engine._BatchCoefficients(model, self.ROWS)
        for K in (1, 2, 7, self.ROWS):
            X = _special_rows(rng, K, m)
            dW = rng.standard_normal((K, d))
            dW[rng.random((K, d)) < 0.1] = rng.choice(SPECIAL, 1)
            sig_ref = np.einsum("kaj,pj->pka", aff.V, X) + aff.U
            sig = bat.sigma_rows(0.0, X)
            assert sig.tobytes() == sig_ref.tobytes()
            assert aff.diffusion_rows(0.0, X).tobytes() == sig_ref.tobytes()
            assert engine._noise_rows(sig, dW).tobytes() == \
                np.einsum("pkd,pd->pk", sig, dW).tobytes()

            # one gemm, of at least two rows (BLAS runs a lone row as gemv)
            drift = (np.concatenate((X, X)) @ M.T)[:K] + dvec
            assert bat.net_drift_rows(0.0, X).tobytes() == drift.tobytes()
            dt_col = rng.uniform(0.0, 2.0**-9, (K, 1))
            dt_col[0] = 0.0
            for dt, dt_ref in ((2.0**-9, 2.0**-9), (np.repeat(dt_col, m, axis=1), dt_col),
                               (dt_col, dt_col)):
                got = engine._step_rows(bat, 0.0, X, dt, dW)
                ref = X + drift * dt_ref + np.einsum("pkd,pd->pk", sig_ref, dW)
                assert got.tobytes() == ref.tobytes(), K

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_any_rows_get_their_bits_in_the_tile(self, m, d):
        # K rows picked anywhere in the tile, a lone row and the whole tile
        # shuffled included: the drift, the diffusion, the noise and the
        # step of those rows are those rows of the tile's, bit for bit; only
        # a step's NaN may differ in sign, since IEEE 754 leaves open which
        # NaN a sum of two NaNs returns and numpy's loops differ by code path
        rng = np.random.default_rng(1000 + 100 * m + d)
        bat = engine._BatchCoefficients(_special_model(rng, m, d), self.ROWS)
        X = _special_rows(rng, self.ROWS, m)
        dW = rng.standard_normal((self.ROWS, d))
        dW[rng.random((self.ROWS, d)) < 0.1] = rng.choice(SPECIAL, 1)
        dt_col = rng.uniform(0.0, 2.0**-9, (self.ROWS, 1))
        dt_col[0] = 0.0
        dt = np.repeat(dt_col, m, axis=1)

        def parts(rows):
            sig = bat.sigma_rows(0.0, X[rows])
            return (bat.net_drift_rows(0.0, X[rows]), sig, engine._noise_rows(sig, dW[rows]),
                    engine._step_rows(bat, 0.0, X[rows], dt[rows], dW[rows]),
                    engine._step_rows(bat, 0.0, X[rows], dt_col[rows], dW[rows]))

        def same_bits_but_nan_signs(a, b):
            nan = np.isnan(a)
            return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()

        tile = parts(slice(None))
        for K in (1, 2, 3, 7, self.ROWS):
            for _ in range(8 if K < self.ROWS else 1):
                rows = rng.permutation(self.ROWS)[:K]
                drift, sig, noise, *steps = parts(rows)
                assert drift.tobytes() == tile[0][rows].tobytes(), K
                assert sig.tobytes() == tile[1][rows].tobytes(), K
                assert noise.tobytes() == tile[2][rows].tobytes(), K
                for got, whole in zip(steps, tile[3:]):
                    assert same_bits_but_nan_signs(got, whole[rows]), K

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_noise_of_a_constant_diffusion_matches_einsum(self, m):
        # V = 0 and U without -0.0: sigma is U broadcast to every row
        rng = np.random.default_rng(m)
        model = affine_model(-np.eye(m), np.zeros(m), np.zeros((m, 1, m)),
                             rng.standard_normal((m, 1)), np.zeros((0, m, m)),
                             np.zeros((0, m)), MarkMeasure.from_atoms([], dimension=1))
        sig = engine._BatchCoefficients(model, 16).sigma_rows(0.0, np.zeros((7, m)))
        assert sig.strides[0] == 0
        dW = rng.standard_normal((7, 1))
        dW[3:5, 0] = (math.nan, -0.0)
        assert engine._noise_rows(sig, dW).tobytes() == \
            np.einsum("pkd,pd->pk", sig, dW).tobytes()

    M1_SCALES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308, 2.5, -3.7e-300,
                 2.2250738585072014e-308, 1e200, 1e-200]
    M1_ROWS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, -1e-300, 1e300, -1.7976931348623157e308, -1.0,
               0.75, 3.0, -2.5e-310, 1e-200]

    @pytest.mark.parametrize("const", [0.0, -0.0, 1.5, -5e-324], ids=repr)
    def test_m1_drift_is_a_product_on_special_values(self, const):
        # at m = 1 the drift x*M + (d + 0.0) gives the bits of gemm and of
        # gemv, on every finite scale and 16 special states at every
        # position of blocks of 1, 2, 3, 7 and 2048 rows
        marks = MarkMeasure.from_atoms([], dimension=1)
        for scale in self.M1_SCALES:
            model = affine_model([[scale]], [const], np.zeros((1, 1, 1)), [[0.0]],
                                 np.zeros((0, 1, 1)), np.zeros((0, 1)), marks)
            M, dvec = model.coefficients.affine.net_drift_blocks(marks)
            bat = engine._BatchCoefficients(model, self.ROWS)
            for K in (1, 2, 3, 7, self.ROWS):
                for shift in range(len(self.M1_ROWS)):
                    X = np.resize(np.roll(self.M1_ROWS, shift), (K, 1))
                    gemm = X @ M.T + dvec
                    assert (X[:, None, :] @ M.T)[:, 0].tobytes() + dvec.tobytes() == \
                        (X @ M.T).tobytes() + dvec.tobytes()
                    got = bat.net_drift_rows(0.0, X)
                    assert got.tobytes() == gemm.tobytes(), (scale, K, shift)

    def test_m1_drift_folds_the_plus_zero_into_the_constant(self):
        # BLAS gives 0 + x*M, so a -0.0 product becomes +0.0 before d is
        # added; with d = -0.0 the bare product plus d would keep -0.0
        model = affine_model([[-1.0]], [-0.0], np.zeros((1, 1, 1)), [[0.0]],
                             np.zeros((0, 1, 1)), np.zeros((0, 1)),
                             MarkMeasure.from_atoms([], dimension=1))
        M, dvec = model.coefficients.affine.net_drift_blocks(model.marks)
        X = np.array([[0.0], [-0.0], [2.0]])
        gemm = X @ M.T + dvec
        assert np.signbit(gemm[:, 0]).tolist() == [False, False, True]
        assert np.signbit(X * -1.0 + dvec)[0, 0]  # the product alone keeps -0.0
        bat = engine._BatchCoefficients(model, 8)
        assert bat.net_drift_rows(0.0, X).tobytes() == gemm.tobytes()

    def test_one_term_products_are_einsum_on_special_values(self):
        # every pair of special values, as the d = 1 noise and the m = 1
        # diffusion (V must be finite): einsum's one-term sum is 0 + a*b
        a, b = (v.reshape(-1, 1) for v in np.meshgrid(SPECIAL, SPECIAL))
        noise = engine._noise_rows(a[:, :, None], b)
        assert noise.tobytes() == np.einsum("pkd,pd->pk", a[:, :, None], b).tobytes()
        X = np.array(SPECIAL)[:, None]
        for v in filter(math.isfinite, SPECIAL):
            aff = AffineCoefficients(B=[[0.0]], c=[0.0], V=[[[v]]], U=[[-0.0]], G=[], g=[])
            assert aff.diffusion_rows(0.0, X).tobytes() == \
                (np.einsum("kaj,pj->pka", aff.V, X) + aff.U).tobytes(), v


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


class TestWaves:
    def test_a_chunk_holds_its_normals_once(self):
        # one 2048-path chunk of corollary35-pass at step 2^-9, d = 1: its
        # time-major normals take 512 x 2048 doubles, 8 MiB, and the run's
        # traced peak stays well below a second copy of them
        cfg = next(c for c in gallery_configs() if c.id == "corollary35-pass")
        problem = build_problem(cfg)
        h = 2.0**-9
        n_steps = uniform_grid(problem.t0, problem.T, h).shape[0] - 1
        assert (n_steps, problem.d, engine._CHUNK) == (512, 1, 2048)
        mc_comparison(problem, 8, h, cfg.mc.seed)  # first-use set-up, untraced
        normals = n_steps * engine._CHUNK * problem.d * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            mc_comparison(problem, engine._CHUNK, h, cfg.mc.seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 1.3 * normals, (peak - start) / normals

    @pytest.mark.parametrize("h", [2.0**-4, 0.1], ids=["dyadic", "uneven"])
    @pytest.mark.parametrize("blackbox", [False, True], ids=["affine", "blackbox"])
    def test_dense_jumps_one_path_calls_match_the_block(self, blackbox, h):
        # at h = 0.1 the grid's step lengths differ in their last bits, so
        # the rows of one wave, in different grid steps, take different ones
        problem = dense_jump_problem(8, kind="jump-row-gap")
        if blackbox:
            problem = strip_affine(problem)
        grid = uniform_grid(problem.t0, problem.T, h)
        drivers = [sample_drivers(problem.marks, problem.horizon, h, 5, p, d=problem.d)
                   for p in range(24)]
        # and a path with jumps on a grid point, just after it and on T
        jt = np.array([grid[3], np.nextafter(grid[3], 2.0), 0.55, grid[-1]])
        drivers.insert(5, engine.DriverRealization(
            t0=0.0, T=1.0, h=h, jump_times=jt, jump_marks=np.array([2, 0, 1, 2]),
            normals=np.random.default_rng(0).standard_normal((grid.shape[0] + 1, problem.d))))
        # some path has three jumps in one step, and the paths' segment
        # counts differ by 5 or more, so the last waves run on ever fewer rows
        per_step = [np.bincount(np.searchsorted(grid, drv.jump_times) - 1) for drv in drivers]
        assert max(c.max(initial=0) for c in per_step) >= 3
        n_segments = [drv.n_segments for drv in drivers]
        assert max(n_segments) - min(n_segments) >= 5

        viol, first_t, failed, terminals = _run_pair_chunk(problem, drivers, grid)
        assert not failed.any()
        assert viol.max() > 0.0 and np.isfinite(first_t).any()
        # each path run alone: every record and terminal state, bit for bit
        alone = [_run_pair_chunk(problem, [drv], grid) for drv in drivers]
        for i, block in enumerate((viol, first_t, failed, *terminals)):
            got = np.concatenate([a[i] if i < 3 else a[3][i - 3] for a in alone])
            assert got.tobytes() == block.tobytes(), i

    @pytest.mark.parametrize("chunk", [1, 7, 33, engine._CHUNK])
    @pytest.mark.parametrize("h", [2.0**-4, 0.1, 0.3], ids=["dyadic", "uneven", "non-dividing"])
    def test_kernel_noise_is_the_public_increments(self, h, chunk, monkeypatch):
        # zero net drift, unit diffusion and zero jumps at m = d = 1: X_T is
        # x0 plus the path's dW, added segment by segment, so every wave must
        # scale each row's normals by the root of that row's own segment
        marks = MarkMeasure.from_atoms([([1.0], 10.0), ([-1.0], 6.0)])
        model = scalar_model(sigma=1.0, marks=marks, jumps=[(0.0, 0.0), (0.0, 0.0)])
        grid = uniform_grid(0.0, 1.0, h)
        # path 5 jumps inside a step, on its grid point, just after it, at
        # 0.55, inside the last step and on T
        jt = np.unique([(grid[2] + grid[3]) / 2, grid[3], np.nextafter(grid[3], 2.0), 0.55,
                        (grid[-2] + grid[-1]) / 2, grid[-1]])
        scripted = engine.DriverRealization(
            t0=0.0, T=1.0, h=h, jump_times=jt, jump_marks=np.arange(6) % 2,
            normals=np.random.default_rng(5).standard_normal((grid.shape[0] + 3, 1)))
        assert np.isin(jt, grid).sum() == 2

        def drivers(marks, horizon, h, seed, p, *, d):
            return scripted if p == 5 else sample_drivers(marks, horizon, h, seed, p, d=d)

        monkeypatch.setattr(engine, "sample_drivers", drivers)
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        x_T = sample_terminal_states(model, [0.5], 0.0, 1.0, 20, h, seed=9)
        want = []
        for p in range(20):
            x = 0.5
            for dw in drivers(marks, (0.0, 1.0), h, 9, p, d=1).dW[:, 0].tolist():
                x = x + dw
            want.append(x)
        assert x_T[:, 0].tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 33, engine._CHUNK])
    @pytest.mark.parametrize("h", [2.0**-4, 0.3], ids=["dyadic", "non-dividing"])
    def test_end_times_are_the_drivers_times(self, h, chunk):
        # mark mass 16, and a path with jumps on grid points, inside a step,
        # just after a grid point and on T: for every row of a chunk, segment
        # k ends at the path's time k + 1
        marks = MarkMeasure.from_atoms([([1.0], 10.0), ([-1.0], 6.0)])
        grid = uniform_grid(0.0, 1.0, h)
        drivers = [sample_drivers(marks, (0.0, 1.0), h, 3, p, d=1) for p in range(30)]
        jt = np.array([grid[1], (grid[1] + grid[2]) / 2, grid[2], np.nextafter(grid[2], 2.0),
                       grid[-1]])
        drivers.insert(5, engine.DriverRealization(
            t0=0.0, T=1.0, h=h, jump_times=jt, jump_marks=np.zeros(5, dtype=np.int64),
            normals=np.zeros((grid.shape[0] + 1, 1))))
        assert np.isin(jt, grid).sum() == 3
        for lo in range(0, len(drivers), chunk):
            part = drivers[lo : lo + chunk]
            wv = engine._waves(part, grid)
            for p, drv in enumerate(part):
                k = np.arange(drv.n_segments)
                got = wv.end_times(grid, np.full(k.shape, p), k)  # row p holds path p
                assert got.tobytes() == drv.times[1:].tobytes(), (lo, p)

    @pytest.mark.parametrize("chunk", [1, 7, 33, engine._CHUNK])
    @pytest.mark.parametrize("m", [1, 3])
    def test_jump_plan_is_gamma_rows(self, m, chunk):
        # each wave's jumps through the chunk's plan are X + gamma_rows(t, X,
        # atom) bit for bit, with t and the atom read from the drivers' time
        # lists, for an affine and a black-box model: on rows holding NaN,
        # +-inf and -0.0, on a lone jump row and on jumps at grid points; the
        # entries that close a step apply no atom
        rng = np.random.default_rng(40 + m)
        model = _special_model(rng, m, 2)
        aff = model.coefficients.affine
        blackbox = SdeModel(
            coefficients=CoefficientTriple(m=m, d=2, drift=aff.drift, diffusion=aff.diffusion,
                                           jump=aff.jump),
            marks=model.marks, budget=model.budget)
        marks = MarkMeasure.from_atoms([([1.0], 10.0), ([-1.0], 6.0)])
        h = 2.0**-4
        grid = uniform_grid(0.0, 1.0, h)
        drivers = [sample_drivers(marks, (0.0, 1.0), h, 3, p, d=2) for p in range(30)]
        # jumps on grid points, inside a step, just after a grid point and on T
        jt = np.array([grid[1], (grid[1] + grid[2]) / 2, grid[2], np.nextafter(grid[2], 2.0),
                       grid[-1]])
        drivers.insert(5, engine.DriverRealization(
            t0=0.0, T=1.0, h=h, jump_times=jt, jump_marks=np.array([0, 1, 1, 0, 1]),
            normals=np.zeros((grid.shape[0] + 1, 2))))
        lone = on_grid = 0
        for lo in range(0, len(drivers), chunk):
            part = drivers[lo : lo + chunk]
            wv = engine._waves(part, grid)
            bats = [engine._BatchCoefficients(mdl, len(part), wv.jump_t, wv.jump_atom)
                    for mdl in (model, blackbox)]
            for k in range(len(wv.live)):
                a, e1, e2, b = wv.bounds[3 * k : 3 * k + 4]
                paths = [part[p] for p in wv.row[a:b]]  # row p holds path p
                atoms = np.array([drv.jump_atoms[k] for drv in paths], dtype=np.int64)
                t = np.array([drv.times[k + 1] for drv in paths])
                assert (atoms[: e2 - a] >= 0).all() and (atoms[e2 - a :] == -1).all()
                if e2 == a:
                    continue
                lone += e2 - a == 1
                on_grid += e2 - e1
                X = _special_rows(rng, e2 - a, m)
                with np.errstate(all="ignore"):
                    for bat in bats:
                        want = X + bat.coeffs.gamma_rows(t[: e2 - a], X, atoms[: e2 - a])
                        got = bat.jump_rows(*wv.jump_bounds[k : k + 2], X)
                        assert got.tobytes() == want.tobytes(), (lo, k)
        assert lone and on_grid

    @pytest.mark.parametrize("chunk", [1, 7, 33, engine._CHUNK])
    @pytest.mark.parametrize("blackbox", [False, True], ids=["affine", "blackbox"])
    def test_kernel_jumps_are_gamma_rows_at_the_drivers_times(self, blackbox, chunk,
                                                              monkeypatch):
        # terminal states of a chunk run, path by path: a lone-row Euler step
        # per segment of the driver's time list, then X + gamma_rows(t, X,
        # atom) where the segment ends at a jump
        rng = np.random.default_rng(7)
        model = _special_model(rng, 3, 2)
        if blackbox:
            aff = model.coefficients.affine
            model = SdeModel(coefficients=CoefficientTriple(
                m=3, d=2, drift=aff.drift, diffusion=aff.diffusion, jump=aff.jump),
                marks=model.marks, budget=model.budget)
        marks = MarkMeasure.from_atoms([([1.0], 10.0), ([-1.0], 6.0)])
        h = 2.0**-4
        grid = uniform_grid(0.0, 1.0, h)
        jt = np.array([grid[1], (grid[1] + grid[2]) / 2, grid[2], np.nextafter(grid[2], 2.0),
                       grid[-1]])
        scripted = engine.DriverRealization(
            t0=0.0, T=1.0, h=h, jump_times=jt, jump_marks=np.array([0, 1, 1, 0, 1]),
            normals=rng.standard_normal((grid.shape[0] + 1, 2)))

        def drivers(model_marks, horizon, h, seed, p, *, d):  # mark mass 16
            return scripted if p == 5 else sample_drivers(marks, horizon, h, seed, p, d=d)

        monkeypatch.setattr(engine, "sample_drivers", drivers)
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        x0 = np.array([0.5, -0.25, 1.0])
        with np.errstate(all="ignore"):
            got = sample_terminal_states(model, x0, 0.0, 1.0, 24, h, seed=3)
            want = []
            for p in range(24):
                drv = drivers(None, (0.0, 1.0), h, 3, p, d=2)
                bat = engine._BatchCoefficients(model, 1)
                X, times, atoms, dW = x0[None, :], drv.times, drv.jump_atoms, drv.dW
                for i in range(drv.n_segments):
                    X = engine._step_rows(bat, times[i], X, times[i + 1] - times[i],
                                          dW[i : i + 1])
                    if atoms[i] >= 0:
                        X = X + model.coefficients.gamma_rows(times[i + 1 : i + 2], X,
                                                              atoms[i : i + 1])
                want.append(X[0])
        want = np.array(want)
        want[np.isnan(want)] = np.nan
        assert got.tobytes() == want.tobytes()

    def test_jump_on_grid_point_is_merged(self):
        # net drift -3/2 x + d, diffusion 1/2 and jump x -> 3/2 x + g, with
        # (d, g) = (5/8, -1/4) for model 1 and (-1/4, 1/4) for model 2
        marks = MarkMeasure.from_atoms([([1.0], 2.0)])
        m1 = scalar_model(b=0.125, bslope=-0.5, sigma=0.5, marks=marks, jumps=[(0.5, -0.25)])
        m2 = scalar_model(b=0.25, bslope=-0.5, sigma=0.5, marks=marks, jumps=[(0.5, 0.25)])
        problem = pair_problem(m1, m2, [1.0], [0.5])
        grid = uniform_grid(0.0, 1.0, 0.25)
        # jumps on the grid point 0.5, inside (0.5, 0.75] and on T: the time
        # list is 0, 0.25, 0.5, 0.625, 0.75, 1 and has five segments; the
        # normals are dW / sqrt(dt), and the two of the 1/8 segments scale
        # back to 3/4 and 1 exactly
        root8 = math.sqrt(0.125)
        drv = engine.DriverRealization(
            t0=0.0, T=1.0, h=0.25, jump_times=np.array([0.5, 0.625, 1.0]),
            jump_marks=np.zeros(3, dtype=np.int64),
            normals=np.array([0.5, 1.0, 0.75 / root8, 1.0 / root8, 2.5])[:, None],
        )
        assert np.array_equal(drv.times, [0.0, 0.25, 0.5, 0.625, 0.75, 1.0])
        assert drv.n_segments == drv.times.shape[0] - 1 == 5
        assert drv.dW.tolist() == [[0.25], [0.5], [0.75], [1.0], [1.25]]
        assert drv.jump_atoms.tolist() == [-1, 0, 0, -1, 0]

        # x + (-3/2 x + d) dt + dW/2 on each segment, then the jump, by hand
        # (every value is dyadic, so exact):
        #   t     dt    dW    model 1 (from 1)       model 2 (from 1/2)
        #   1/4   1/4   1/4   29/32                  3/8
        #   1/2   1/4   1/2   619/512 (jumped)       113/128 (jumped)
        #   5/8   1/8   3/4   31181/2^14 (jumped)    7543/2^12 (jumped)
        #   3/4   1/8   1     556905/2^18            128779/2^16
        #   1     1/4   5/4   12220199/2^22 (jumped) 3078565/2^20 (jumped)
        rows = []
        viol, _, _, terminals = _run_pair_chunk(problem, [drv], grid, _recording(rows))
        assert terminals[0][0, 0] == 12220199 / 2**22
        assert terminals[1][0, 0] == 3078565 / 2**20
        # a call at the start, then one on the block of all five waves: each
        # wave's row, and after each wave that ends at the grid point of a
        # step holding a jump (1/2, 3/4 and 1) that row again, as the step's
        # sub-step row; a sixth dW row would be out of range, and a skipped
        # last wave would leave the terminal state off
        assert _substeps_per_step(drv, grid).tolist() == [0, 1, 2, 1]
        assert [r.shape[0] for r in rows] == [1, 8]
        # X2 - X1 at 0, 1/4, 1/2, 5/8, 3/4 and 1: positive only at T
        gaps = [-1 / 2, -17 / 32, -167 / 512, -1009 / 2**14, -41789 / 2**18, 94061 / 2**22]
        assert np.concatenate(rows)[:, 0].tolist() == [
            gaps[0], gaps[1], gaps[2], gaps[2], gaps[3], gaps[4], gaps[4], gaps[5], gaps[5]]
        assert viol[0] == 94061 / 2**22


def _substeps_per_step(drv, grid):
    """The jump-adapted sub-steps of one path in each uniform step, counted
    segment by segment from its time list: every segment of a step that
    holds a jump is one sub-step."""
    times, atoms = drv.times, drv.jump_atoms
    steps = np.searchsorted(grid, times[1:], side="left") - 1
    out = np.zeros(grid.shape[0] - 1, dtype=int)
    for i in np.unique(steps[atoms >= 0]):
        out[i] = np.count_nonzero(steps == i)
    return out


# Scripted paths for the statistic's bookkeeping: scalar models whose state
# moves only at jumps (no diffusion, and a drift that cancels the
# compensator exactly), on the grid 0, 0.25, ..., 1, with eps_path = 0.1.
# Atom k shifts model 2 by SHIFTS[k] (atom 1 also scales both by 1 + 2^500),
# so X2 - X1 moves by the shift; _stat reads a gap over 50 as inf.
SHIFTS = [1.0, 0.0, 100.0, -100.5]
SCRIPTED = {
    "A": ([0.3], [0]),  # gap 1 from its jump on: violates at 0.3
    "B": ([0.3, 0.4], [0, 0]),  # gap 1, then 2, in one step
    "C": ([0.3, 0.35, 0.4, 0.45], [0, 1, 1, 1]),  # violates at 0.3, overflows at 0.45
    "D": ([0.3, 0.35, 0.4], [0, 2, 3]),  # gap 1, then one whose statistic is inf, then 0.5
}


def _stat(diff):
    return np.where(diff[:, 0] > 50.0, np.inf, diff[:, 0])


def _scripted_run():
    marks = MarkMeasure.from_atoms([([k + 1.0], 1.0) for k in range(len(SHIFTS))])
    scale = [2.0**500 if k == 1 else 0.0 for k in range(len(SHIFTS))]
    m1 = scalar_model(b=0.0, bslope=2.0**500, marks=marks,
                      jumps=[(G, 0.0) for G in scale])
    m2 = scalar_model(b=sum(SHIFTS), bslope=2.0**500, marks=marks,
                      jumps=list(zip(scale, SHIFTS)))
    for model in (m1, m2):
        M, d = model.coefficients.affine.net_drift_blocks(marks)
        assert M.tolist() == [[0.0]] and d.tolist() == [0.0]
    problem = pair_problem(m1, m2, [1.0], [1.0])
    grid = uniform_grid(0.0, 1.0, 0.25)
    drivers = []
    for times, atoms in SCRIPTED.values():
        jt = np.array(times)
        n_seg = 4 + int(np.count_nonzero(~np.isin(jt, grid)))
        drivers.append(engine.DriverRealization(
            t0=0.0, T=1.0, h=0.25, jump_times=jt, jump_marks=np.array(atoms, dtype=np.int64),
            normals=np.zeros((n_seg, 1))))
    viol, first_t, failed, _ = _run_pair_chunk(problem, drivers, grid, _stat)
    return {name: (viol[p], first_t[p], failed[p]) for p, name in enumerate(SCRIPTED)}


def _closing_segments(drv, grid):
    """Per segment of one path: 0 if it does not end at the grid point of
    a step holding a jump, else 1 if a jump sits on that point and 2 if
    not (the segment after the step's last jump)."""
    times, jumped = drv.times[1:], drv.jump_atoms >= 0
    steps = np.searchsorted(grid, times, side="left") - 1
    closes = np.isin(times, grid) & np.isin(steps, steps[jumped])
    return np.where(closes, np.where(jumped, 1, 2), 0)


def _wave_calls(drivers, grid):
    """The statistic rows of one chunk in groups, counted from the drivers'
    time lists: the start, then for each wave k every path with more than k
    segments and, if any, the paths whose segment k ends at the grid point
    of a step holding a jump."""
    closing = [_closing_segments(drv, grid) for drv in drivers]
    calls = [len(drivers)]
    for k in range(max(c.shape[0] for c in closing)):
        calls.append(sum(k < c.shape[0] for c in closing))
        n_dup = sum(int(c[k] > 0) for c in closing if k < c.shape[0])
        calls += [n_dup] if n_dup else []
    return calls


def _wave_rows(drivers, grid, traces):
    """The rows of ``_wave_calls``' groups, from each path's trace (the
    statistic rows of a one-path run: its start, then each segment's row,
    repeated where the segment closes a step holding a jump).  The chunk
    holds its paths in path order; a wave's repeats follow its rows, those
    at a jump on a grid point before those after a step's last jump."""
    closing = [_closing_segments(drv, grid) for drv in drivers]
    order = range(len(drivers))
    where = []  # per path: the trace index of each segment's row
    for c in closing:
        where.append(1 + np.arange(c.shape[0]) + np.concatenate([[0], np.cumsum(c > 0)[:-1]]))
    calls = [[traces[p][0] for p in order]]
    for k in range(max(c.shape[0] for c in closing)):
        live = [p for p in order if k < closing[p].shape[0]]
        calls.append([traces[p][where[p][k]] for p in live])
        dup = [traces[p][where[p][k] + 1] for kind in (1, 2) for p in live
               if closing[p][k] == kind]
        calls += [dup] if dup else []
    return [np.array(c) for c in calls]


def _raise_reference(run, waves):
    """One row at a time, in wave order (each wave the values of its first
    rows): a value replaces the run maximum only if greater."""
    run = run.copy()
    for val in waves:
        for p, value in enumerate(val.tolist()):
            if value > run[p]:
                run[p] = value
    return run


def _raise_blocks(run, waves, sizes):
    """``run`` after the kernel's block update folds in ``waves`` (each a
    wave's live values), ``sizes[i]`` waves a block, each block in call
    order."""
    run = run.copy()
    for lo, hi in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
        block = waves[lo:hi]
        starts = np.cumsum([0] + [w.shape[0] for w in block[:-1]]).tolist()
        engine._raise_block(run, np.concatenate(block), starts,
                            [np.arange(w.shape[0]) for w in block])
    return run


class TestWaveStatistic:
    """The violation statistic is taken once per block of waves, on each
    wave's live rows and then, again, its rows that close a grid step
    holding a jump.  Every row counts where its statistic is finite, that
    of a failed path too, the earliest violating row gives the first
    violation time, and a value equal to the run maximum changes no
    reported value."""

    def test_block_calls_see_every_row_of_the_wave_calls(self, monkeypatch):
        problem = dense_jump_problem(2)
        h, seed, paths = 2.0**-4, 4, 12
        grid = uniform_grid(problem.t0, problem.T, h)
        n_steps = grid.shape[0] - 1
        calls = []

        def recording(diff):
            calls.append(diff.copy())
            return engine.componentwise_stat(diff)

        monkeypatch.setattr(engine, "_CHUNK", 5)
        monkeypatch.setattr(engine, "_BLOCK_ROWS", 15)  # 3 waves a block, 7 at 2 paths
        rep = mc_comparison(problem, paths, h, seed, stat_fn=recording)
        assert rep.failed == 0
        drivers = [sample_drivers(problem.marks, problem.horizon, h, seed, p, d=problem.d)
                   for p in range(paths)]
        traces = []
        for drv in drivers:
            rows = []
            _run_pair_chunk(problem, [drv], grid, _recording(rows))
            traces.append(np.concatenate(rows))
        per_step = [_substeps_per_step(drv, grid) for drv in drivers]
        assert max(s.max() for s in per_step) >= 3
        assert 0 not in [c.shape[0] for c in calls]
        for lo in range(0, paths, 5):
            K = min(5, paths - lo)
            sizes = _wave_calls(drivers[lo : lo + K], grid)
            want = _wave_rows(drivers[lo : lo + K], grid, traces[lo : lo + K])
            assert [w.shape[0] for w in want] == sizes
            got = [calls.pop(0)]  # the start
            while sum(g.shape[0] for g in got) < sum(sizes):
                got.append(calls.pop(0))
            assert got[0].shape[0] == K
            # at most one call per block of 15 // K waves
            n_waves = max(drv.n_segments for drv in drivers[lo : lo + K])
            assert len(got) - 1 <= -(-n_waves // (15 // K))
            assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()
            # a row per path at the start and at each grid point, and one
            # per sub-step
            assert sum(sizes) == K * (n_steps + 1) + np.sum(per_step[lo : lo + K])
        assert calls == []

    def test_first_violation_time_is_the_earliest_sub_step(self):
        got = _scripted_run()
        # over eps at its jump and again at the grid point: the jump time
        assert got["A"] == (1.0, 0.3, False)
        # over eps at both jumps of one step: the earlier
        assert got["B"] == (2.0, 0.3, False)

    def test_overflow_within_a_step(self):
        got = _scripted_run()
        # the state overflows at 0.45, after its row at 0.3 violates: the
        # path fails, with that first violation time
        viol, first_t, failed = got["C"]
        assert math.isnan(viol) and first_t == 0.3 and failed
        # a statistic row that is not finite is skipped: the run maximum
        # stays that of the earlier sub-step row
        assert got["D"] == (1.0, 0.3, False)

    def test_rows_after_a_failure_count(self):
        # a black-box m = 2 pair whose states move only at jumps: atom 0
        # overflows model 1's first coordinate at 0.25, atom 1 moves model
        # 2's second by 1 at 0.75.  X2 - X1 reads (-inf, 1) from then on,
        # whose componentwise value is finite and over eps: it sets the
        # failed path's first violation time, and its violation stays NaN
        marks = MarkMeasure.from_atoms([([1.0], 1.0), ([2.0], 1.0)])

        def model(jump):
            def drift(t, x):  # cancels the compensator exactly
                return np.add(jump(t, x, 0), jump(t, x, 1))

            triple = CoefficientTriple(m=2, d=1, drift=drift, jump=jump,
                                       diffusion=lambda t, x: np.zeros((2, 1)))
            return SdeModel(coefficients=triple, marks=marks,
                            budget=RegularityBudget(mu=1.0, rho=np.ones(2)))

        m1 = model(lambda t, x, j: (1e308 if j == 0 and np.isfinite(x[0]) else 0.0, 0.0))
        m2 = model(lambda t, x, j: (0.0, float(j == 1)))
        problem = pair_problem(m1, m2, [1e308, 0.0], [0.0, 0.0])
        drv = engine.DriverRealization(t0=0.0, T=1.0, h=0.25, jump_times=np.array([0.25, 0.75]),
                                       jump_marks=np.array([0, 1]), normals=np.zeros((4, 1)))
        viol, first_t, failed, X = _run_pair_chunk(problem, [drv], uniform_grid(0.0, 1.0, 0.25))
        assert X[0].tolist() == [[np.inf, 0.0]] and X[1].tolist() == [[0.0, 1.0]]
        assert failed[0] and math.isnan(viol[0]) and first_t[0] == 0.75

    @pytest.mark.parametrize("start", [np.inf, np.nan])
    def test_a_start_value_not_finite_does_not_count(self, start):
        # the start row's value is dropped when it is not finite, as every
        # later row's is: the run matches one whose start value is -inf
        cfg = next(c for c in gallery_configs() if c.id == "corollary35-pass")
        problem = build_problem(cfg)

        def run(value):
            calls = []

            def stat(diff):
                calls.append(diff.shape[0])
                val = engine.componentwise_stat(diff)
                return np.full(val.shape, value) if len(calls) == 1 else val

            return mc_comparison(problem, 8, cfg.mc.step, cfg.mc.seed, stat_fn=stat,
                                 keep_paths=True)

        rep, want = run(start), run(-np.inf)
        assert rep.violating == want.violating == 0
        assert rep.max_violation == want.max_violation
        for field in ("violation", "first_violation_time", "failed"):
            assert getattr(rep.per_path, field).tobytes() == getattr(want.per_path, field).tobytes()

    def test_ties_with_the_run_maximum_change_no_violation(self):
        # final violations read max(run, 0.0), which is +0.0 for both zeros
        run = np.array([0.0, -0.0, -1.0, np.nan, 1.0, 1.0])
        waves = [
            np.array([-0.0, 0.0, -0.0, 5.0, 3.0, -np.inf]),  # -inf: not counted
            np.array([-0.0, 0.0, 0.0]),
        ]
        want = np.array([0.0, 0.0, 0.0, np.nan, 3.0, 1.0])
        assert np.maximum(_raise_reference(run, waves), 0.0).tobytes() == want.tobytes()
        for sizes in ([1, 1], [2]):
            assert np.maximum(_raise_blocks(run, waves, sizes), 0.0).tobytes() == want.tobytes()

    def test_block_ties_match_row_by_row_on_signed_zeros(self):
        rng, split = np.random.default_rng(5), np.random.default_rng(6)
        values = np.array([-0.0, 0.0, -1.0, 1.0, 2.0, -np.inf])
        for K in (1, 3, 8):
            for _ in range(200):
                run = rng.choice(values[:-1], K)
                waves = [rng.choice(values, n)  # each wave's live rows
                         for n in sorted(rng.integers(1, K + 1, 4).tolist(), reverse=True)]
                sizes = []  # the waves in blocks of random sizes
                while sum(sizes) < len(waves):
                    sizes.append(int(split.integers(1, len(waves) - sum(sizes) + 1)))
                got = _raise_blocks(run, waves, sizes)
                want = _raise_reference(run, waves)
                assert np.maximum(got, 0.0).tobytes() == np.maximum(want, 0.0).tobytes()

    @pytest.mark.parametrize("bad", [lambda v: v[:, None], lambda v: v[0], lambda v: v[:-1]],
                             ids=["column", "scalar", "one-short"])
    def test_a_statistic_of_the_wrong_shape_is_refused(self, bad):
        problem = dense_jump_problem(2)
        rows = []

        def stat(diff):  # right at the start, wrong on the first block
            rows.append(diff.shape[0])
            val = engine.componentwise_stat(diff)
            return bad(val) if len(rows) > 1 else val

        with pytest.raises(ValueError) as err:
            mc_comparison(problem, 5, 2.0**-4, 4, stat_fn=stat)
        want, got = (rows[-1],), np.shape(bad(np.zeros(rows[-1])))
        assert f"shape {want}" in str(err.value) and f"not {got}" in str(err.value)
