"""Jump-adapted Euler scheme for coupled jump-diffusion SDEs.

The scheme integrates the compensator-adjusted form: between events the Euler
step uses the net drift b - sum_j w_j gamma(.,.,e_j), and every simulated jump
time is an exact grid point where the amplitude gamma is applied to the
pre-jump state.  Exact jump placement removes the O(h) jump-location bias.

Randomness is drawn from counter-based Philox streams keyed by
(seed, path_index), so a path's driver realization never depends on how many
paths run, in what order, or on how many workers are active.  A realization
is stored sparsely: its jump times, their mark atoms and one Brownian
increment per segment; the merged time list and the per-segment atoms are
derived on access.

The Monte Carlo kernel advances a chunk of paths through the uniform grid in
event rounds.  In step i, round 0 advances every path, each to its first
jump time in the step or to the grid point; round r >= 1 advances, as one
batch, every path with at least r jumps in the step, from its r-th jump to
the next jump or the grid point.  Monte Carlo reductions (counts, maxima)
are commutative and accumulated in fixed chunk order, which makes reports
bit-identical across worker counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .model import ComparisonProblem, MarkMeasure, SdeModel

__all__ = [
    "InvalidStep",
    "NonFiniteState",
    "DriverRealization",
    "Trajectory",
    "McReport",
    "PathRecords",
    "uniform_grid",
    "sample_drivers",
    "simulate_path",
    "simulate_coupled",
    "violation_stat",
    "mc_comparison",
    "sample_terminal_states",
    "default_eps_path",
    "wilson_interval",
    "worker_count",
]

_MASK64 = (1 << 64) - 1
_CHUNK = 2048  # fixed: chunk boundaries must not depend on worker count


class InvalidStep(ValueError):
    """Step size is nonpositive or exceeds the horizon length."""


class NonFiniteState(RuntimeError):
    """Integration produced an overflow or NaN; carries the first bad time."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state first encountered at t={time!r}")
        self.time = float(time)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def uniform_grid(t0: float, T: float, h: float) -> np.ndarray:
    """Deterministic time grid t0, t0+h, ..., T (last point snapped to T)."""
    span = T - t0
    if not (h > 0.0) or h > span * (1.0 + 1e-12):
        raise InvalidStep(f"step h={h} invalid for horizon ({t0}, {T})")
    n = max(int(math.floor(span / h + 1e-9)), 1)
    grid = t0 + h * np.arange(n + 1, dtype=float)
    if (T - grid[-1]) > 1e-9 * h:
        grid = np.append(grid, T)
    else:
        grid[-1] = T
    return grid


@dataclass(frozen=True)
class DriverRealization:
    """One realization of the shared noise for one path, stored sparsely.

    ``jump_times`` are strictly increasing times in (t0, T] and
    ``jump_marks`` their mark-atom indices.  The path's time list is the
    sorted union of the uniform grid and the jump times (a jump time that
    falls on a grid point is merged with it), and ``dW[i]`` is the
    d-dimensional Brownian increment over its segment i.  ``times`` and
    ``jump_atoms`` (the atom applied at each segment end, -1 at a plain grid
    point) are derived on access.
    """

    t0: float
    T: float
    h: float
    jump_times: np.ndarray
    jump_marks: np.ndarray
    dW: np.ndarray

    @property
    def times(self) -> np.ndarray:
        grid = uniform_grid(self.t0, self.T, self.h)
        return np.union1d(grid, self.jump_times) if self.jump_times.size else grid

    @property
    def jump_atoms(self) -> np.ndarray:
        times = self.times
        atoms = np.full(times.shape[0] - 1, -1, dtype=np.int64)
        atoms[np.searchsorted(times, self.jump_times) - 1] = self.jump_marks
        return atoms

    @property
    def n_segments(self) -> int:
        return self.dW.shape[0]

    @property
    def d(self) -> int:
        return self.dW.shape[1]

    def jump_events(self) -> List[Tuple[float, int]]:
        return list(zip(self.jump_times.tolist(), self.jump_marks.tolist()))

    @property
    def jump_count(self) -> int:
        return int(self.jump_times.shape[0])


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([int(seed) & _MASK64, int(path_index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_drivers(
    marks: MarkMeasure,
    horizon: Tuple[float, float],
    h: float,
    seed: int,
    path_index: int,
    *,
    d: int,
) -> DriverRealization:
    """Draw one path's noise: jump times, mark atoms, Brownian increments.

    Jump times form a Poisson process of rate equal to the total mark mass
    (exponential interarrivals); atoms are categorical with probability
    proportional to their weights.  The stream is keyed by (seed, path_index),
    so two calls with the same key are bit-identical and distinct paths never
    share randomness regardless of evaluation order.
    """
    t0, T = float(horizon[0]), float(horizon[1])
    grid = uniform_grid(t0, T, h)
    rng = _path_rng(seed, path_index)

    lam = marks.total_mass
    jump_times: List[float] = []
    uniforms: List[float] = []
    if lam > 0.0 and marks.n_atoms > 0:
        t = t0
        while True:
            # clamp away the measure-zero chance of a zero interarrival,
            # which would alias a jump onto an existing grid point
            t = t + max(rng.standard_exponential(), 5e-324) / lam
            if t > T:
                break
            jump_times.append(t)
            uniforms.append(rng.random())

    jt = np.asarray(jump_times, dtype=float)
    if jt.size:
        cum = np.cumsum(marks.weights) / lam
        jm = np.searchsorted(cum, np.asarray(uniforms), side="right")
        # an interarrival too small to move t in floating point repeats a
        # time; the merged time list keeps one jump there, with the later atom
        keep = np.diff(jt, append=np.inf) > 0.0
        jt, jm = jt[keep], jm[keep]
        times = np.union1d(grid, jt)
    else:
        jm = np.zeros(0, dtype=np.int64)
        times = grid
    dW = rng.standard_normal((times.shape[0] - 1, d)) * np.sqrt(np.diff(times))[:, None]
    return DriverRealization(t0=t0, T=T, h=float(h), jump_times=jt, jump_marks=jm, dW=dW)


# ---------------------------------------------------------------------------
# Trajectories (per-path reference integrator)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Times and post-event states of one path (cadlag convention:
    the stored value at a jump time is the post-jump state; the pre-jump
    value is the previous entry evolved to the jump time)."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]

    def terminal(self) -> np.ndarray:
        return self.states[-1]


def _net_drift(model: SdeModel, t: float, x: np.ndarray) -> np.ndarray:
    coeffs = model.coefficients
    out = coeffs.b(t, x)
    marks = model.marks
    for j in range(marks.n_atoms):
        w = marks.weights[j]
        if w != 0.0:
            out = out - w * coeffs.gamma(t, x, j)
    return out


def simulate_path(
    model: SdeModel, x0, t0: float, drivers: DriverRealization
) -> Trajectory:
    """Integrate one SDE against a fixed driver realization.

    Raises NonFiniteState at the first time the state overflows.
    """
    if drivers.t0 != float(t0):
        raise ValueError(f"drivers start at t0={drivers.t0}, path starts at {t0}")
    if drivers.d != model.d:
        raise ValueError(f"drivers carry d={drivers.d} increments, model has d={model.d}")
    coeffs = model.coefficients
    times = drivers.times
    jump_atoms = drivers.jump_atoms
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.shape != (model.m,):
        raise ValueError(f"x0 must be a vector of length {model.m}")
    states = np.empty((times.shape[0], model.m))
    states[0] = x
    # overflow is reported through NonFiniteState, not per-element warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(times.shape[0] - 1):
            tl = times[i]
            dt = times[i + 1] - tl
            x = x + _net_drift(model, tl, x) * dt + coeffs.sigma(tl, x) @ drivers.dW[i]
            atom = int(jump_atoms[i])
            if atom >= 0:
                x = x + coeffs.gamma(times[i + 1], x, atom)
            if not np.all(np.isfinite(x)):
                raise NonFiniteState(times[i + 1])
            states[i + 1] = x
    return Trajectory(times=times, states=states)


def simulate_coupled(
    problem: ComparisonProblem, drivers: DriverRealization
) -> Tuple[Trajectory, Trajectory]:
    """Integrate both models of a problem against the identical drivers."""
    traj1 = simulate_path(problem.model1, problem.x1, problem.t0, drivers)
    traj2 = simulate_path(problem.model2, problem.x2, problem.t0, drivers)
    return traj1, traj2


def violation_stat(pair: Tuple[Trajectory, Trajectory]) -> float:
    """Worst ordering violation over the shared time list.

    Returns max over times and coordinates of the positive part of X2 - X1;
    zero means the ordering held on this path.
    """
    traj1, traj2 = pair
    if not np.array_equal(traj1.times, traj2.times):
        raise ValueError("trajectories must share the same time list")
    diff = traj2.states - traj1.states
    return float(max(0.0, float(diff.max())))


# ---------------------------------------------------------------------------
# Monte Carlo (vectorized chunk integrator)
# ---------------------------------------------------------------------------


def default_eps_path(h: float, x1, x2) -> float:
    """Discretization allowance 5*sqrt(h)*(1+|x1|+|x2|) for the Euler scheme."""
    n1 = float(np.linalg.norm(np.asarray(x1, dtype=float)))
    n2 = float(np.linalg.norm(np.asarray(x2, dtype=float)))
    return 5.0 * math.sqrt(h) * (1.0 + n1 + n2)


def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> Tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    phat = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)  # exact at the boundaries
    hi = 1.0 if k == n else min(1.0, center + half)
    return (lo, hi)


def worker_count() -> int:
    """Worker cap from JUMPCOMPARE_THREADS (default 1). Never affects results."""
    raw = os.environ.get("JUMPCOMPARE_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, min(int(raw), 64))
    except ValueError:
        return 1


@dataclass(frozen=True)
class PathRecords:
    """Per-path outcomes, aligned with path index order."""

    violation: np.ndarray
    first_violation_time: np.ndarray
    failed: np.ndarray


@dataclass(frozen=True)
class McReport:
    """Aggregate of one coupled Monte Carlo run."""

    paths: int
    violating: int
    violation_fraction: float
    max_violation: float
    wilson_low: float
    wilson_high: float
    seed: int
    h: float
    eps_path: float
    failed: int
    per_path: Optional[PathRecords] = None


class _BatchCoefficients:
    """Row-vectorized coefficient evaluation for one model.

    Affine models evaluate in closed form on (paths, m) blocks; black-box
    models fall back to a row loop with identical semantics, calling the
    coefficients at each row's own time.
    """

    def __init__(self, model: SdeModel):
        self.model = model
        self.coeffs = model.coefficients
        aff = model.coefficients.affine
        self.affine = aff
        if aff is not None:
            self._M, self._dvec = aff.net_drift_blocks(model.marks)

    def net_drift_rows(self, t, X: np.ndarray, per_path: bool) -> np.ndarray:
        if self.affine is not None:
            if per_path:
                # one matrix-vector product per row: BLAS rounds a lone row
                # (gemv) differently from a block (gemm), and a jump path's
                # state must not depend on which paths share its round
                return (X[:, None, :] @ self._M.T)[:, 0] + self._dvec
            return X @ self._M.T + self._dvec
        return np.stack([_net_drift(self.model, ti, x) for ti, x in zip(_row_times(t, X), X)])

    def sigma_rows(self, t, X: np.ndarray) -> np.ndarray:
        if self.affine is not None:
            return self.affine.diffusion_rows(t, X)
        return np.stack([self.coeffs.sigma(ti, x) for ti, x in zip(_row_times(t, X), X)])

    def jump_rows(self, t: np.ndarray, X: np.ndarray, atoms: np.ndarray) -> np.ndarray:
        """Post-jump states X + gamma(t, X, atom), row by row."""
        if self.affine is not None:
            G, g = self.affine.G, self.affine.g
            return X + ((G[atoms] @ X[..., None])[..., 0] + g[atoms])
        return np.stack([
            x + self.coeffs.gamma(ti, x, j)
            for ti, x, j in zip(t.tolist(), X, atoms.tolist())
        ])


def _row_times(t, X: np.ndarray) -> list:
    """A scalar time or one time per row, as one float per row of X."""
    return np.broadcast_to(t, X.shape[:1]).tolist()


def componentwise_stat(diff_rows: np.ndarray) -> np.ndarray:
    """Per-path signed violation measure: max coordinate of X2 - X1."""
    return diff_rows.max(axis=1)


def _step_rows(
    bat: _BatchCoefficients, t, X: np.ndarray, dt, dW: np.ndarray, per_path: bool
) -> np.ndarray:
    """One Euler step of the rows of X from time(s) t over step(s) dt."""
    drift = bat.net_drift_rows(t, X, per_path)
    sig = bat.sigma_rows(t, X)
    return X + drift * dt + np.einsum("pkd,pd->pk", sig, dW)


@dataclass(frozen=True)
class _Rounds:
    """The jump sub-steps of a chunk, grouped into event rounds.

    Sub-step q of path ``path[q]`` runs from ``t_left[q]`` to ``t_end[q]``
    and then applies atom ``atom[q]`` (-1: none, the sub-step ends at the
    grid point).  Sub-steps are sorted by (uniform step, round, path); round
    g covers ``start[g]:start[g + 1]`` and lies in uniform step ``step[g]``.
    """

    path: np.ndarray
    t_left: np.ndarray
    t_end: np.ndarray
    atom: np.ndarray
    step: np.ndarray
    start: np.ndarray


def _event_rounds(drivers: Sequence[DriverRealization], grid: np.ndarray) -> _Rounds:
    """Split every path's jump steps into sub-steps between consecutive events.

    A step of path p with c jumps takes c + 1 sub-steps: one ending at each
    jump and a last one ending at the grid point, which is dropped when the
    last jump falls on the grid point itself.  Round r of the step holds the
    r-th sub-step of every path that has one.
    """
    n_jumps = np.array([drv.jump_times.shape[0] for drv in drivers])
    jt = np.concatenate([drv.jump_times for drv in drivers])
    atom = np.concatenate([drv.jump_marks for drv in drivers])
    path = np.repeat(np.arange(len(drivers)), n_jumps)
    step = np.searchsorted(grid, jt, side="left") - 1
    right = grid[step + 1]
    # first / last jump of its path in its step
    pos = np.arange(jt.shape[0])
    first = np.ones(jt.shape[0], dtype=bool)
    first[1:] = (path[1:] != path[:-1]) | (step[1:] != step[:-1])
    last = np.ones(jt.shape[0], dtype=bool)
    last[:-1] = first[1:]
    # the sub-step ending at a jump starts at the previous jump of the step,
    # or at the grid point for the first, and runs in round rnd
    rnd = pos - np.maximum.accumulate(np.where(first, pos, 0))
    prev = np.where(first, grid[step], np.roll(jt, 1))
    # the closing sub-step from the last jump to the grid point
    close = last & (jt < right)

    path = np.concatenate([path, path[close]])
    step = np.concatenate([step, step[close]])
    rnd = np.concatenate([rnd, rnd[close] + 1])
    order = np.lexsort((path, rnd, step))
    key = (step * (int(rnd.max(initial=0)) + 1) + rnd)[order]
    _, start = np.unique(key, return_index=True)
    return _Rounds(
        path=path[order],
        t_left=np.concatenate([prev, jt[close]])[order],
        t_end=np.concatenate([jt, right[close]])[order],
        atom=np.concatenate([atom, np.full(int(close.sum()), -1)])[order],
        step=step[order][start],
        start=np.append(start, order.shape[0]),
    )


def _run_chunk(
    batches: Sequence[_BatchCoefficients],
    starts: Sequence[np.ndarray],
    drivers: Sequence[DriverRealization],
    grid: np.ndarray,
    stat_fn: Optional[Callable[[np.ndarray], np.ndarray]],
    eps_path: float,
):
    K = len(drivers)
    X = [np.tile(np.asarray(x0, dtype=float), (K, 1)) for x0 in starts]
    coupled = len(batches) == 2 and stat_fn is not None

    dW_flat = np.concatenate([drv.dW for drv in drivers], axis=0)
    seg_counts = np.array([drv.dW.shape[0] for drv in drivers])
    nxt = np.cumsum(seg_counts) - seg_counts  # next dW row of each path
    ev = _event_rounds(drivers, grid)
    # rounds of uniform step i: first_round[i] up to first_round[i + 1]
    first_round = np.searchsorted(ev.step, np.arange(grid.shape[0])).tolist()

    failed = np.zeros(K, dtype=bool)
    first_t = np.full(K, np.nan)
    if coupled:
        run_signed = stat_fn(X[1] - X[0])
        first_t[run_signed > eps_path] = grid[0]
    else:
        run_signed = np.zeros(K)

    all_idx = np.arange(K)
    # overflow / NaN on exploding paths is expected and handled through the
    # failed flag, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.shape[0] - 1):
            tl = float(grid[i])
            tr = float(grid[i + 1])
            rounds = range(first_round[i], first_round[i + 1])
            idx = all_idx
            if rounds:
                # a path that jumps in this step takes its first sub-step in
                # the step's first round; the others take one block step
                plain = np.ones(K, dtype=bool)
                plain[ev.path[ev.start[rounds[0]]:ev.start[rounds[0] + 1]]] = False
                idx = np.flatnonzero(plain)
            if idx.size:
                dWi = dW_flat[nxt[idx]]
                for mi, bat in enumerate(batches):
                    X[mi][idx] = _step_rows(bat, tl, X[mi][idx], tr - tl, dWi, False)
                nxt[idx] += 1
            for q in rounds:
                sl = slice(ev.start[q], ev.start[q + 1])
                p, t_left, t_end, atom = ev.path[sl], ev.t_left[sl], ev.t_end[sl], ev.atom[sl]
                dWr = dW_flat[nxt[p]]
                dt = (t_end - t_left)[:, None]
                jumps = atom >= 0
                any_jump = bool(jumps.any())
                for mi, bat in enumerate(batches):
                    Xr = _step_rows(bat, t_left, X[mi][p], dt, dWr, True)
                    if any_jump:
                        Xr[jumps] = bat.jump_rows(t_end[jumps], Xr[jumps], atom[jumps])
                    X[mi][p] = Xr
                nxt[p] += 1
                if coupled:
                    live = ~failed[p]
                    p, t_end = p[live], t_end[live]
                    if p.size:
                        val = stat_fn(X[1][p] - X[0][p])
                        ok = np.isfinite(val)
                        run_signed[p] = np.where(ok & (val > run_signed[p]), val, run_signed[p])
                        newly = ok & (val > eps_path) & np.isnan(first_t[p])
                        first_t[p[newly]] = t_end[newly]
            # end-of-step bookkeeping
            fin = np.ones(K, dtype=bool)
            for XM in X:
                fin &= np.isfinite(XM).all(axis=1)
            failed |= ~fin
            if coupled:
                s = stat_fn(X[1] - X[0])
                ok = np.isfinite(s) & ~failed
                run_signed = np.where(ok, np.maximum(run_signed, s), run_signed)
                newly = ok & (s > eps_path) & np.isnan(first_t)
                first_t[newly] = tr

    viol = np.maximum(run_signed, 0.0)
    viol[failed] = np.nan
    return viol, first_t, failed, X


def _chunk_ranges(n: int) -> List[range]:
    return [range(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]


def mc_comparison(
    problem: ComparisonProblem,
    paths: int,
    h: float,
    seed: int,
    *,
    stat_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    keep_paths: bool = False,
) -> McReport:
    """Coupled Monte Carlo over per-path driver streams.

    A path violates iff its violation statistic exceeds eps_path (default
    5*sqrt(h)*(1+|x1|+|x2|)); non-finite paths are counted as failed, not as
    violations.  The report includes the Wilson 95% interval for the
    violation probability and is deterministic in (problem, paths, h, seed)
    regardless of worker count.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    grid = uniform_grid(problem.t0, problem.T, h)
    if problem.tolerances.eps_path is not None:
        eps_path = float(problem.tolerances.eps_path)
    else:
        eps_path = default_eps_path(h, problem.x1, problem.x2)
    stat = stat_fn if stat_fn is not None else componentwise_stat
    batches = (_BatchCoefficients(problem.model1), _BatchCoefficients(problem.model2))
    starts = (problem.x1, problem.x2)
    marks = problem.marks

    def run(rng_block: range):
        drivers = [
            sample_drivers(marks, problem.horizon, h, seed, p, d=problem.d)
            for p in rng_block
        ]
        viol, first_t, failed, _ = _run_chunk(batches, starts, drivers, grid, stat, eps_path)
        return viol, first_t, failed

    blocks = _chunk_ranges(paths)
    workers = worker_count()
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(b) for b in blocks]

    viol = np.concatenate([r[0] for r in results])
    first_t = np.concatenate([r[1] for r in results])
    failed = np.concatenate([r[2] for r in results])

    ok = ~failed
    violating = int(np.sum(ok & (viol > eps_path)))
    n_failed = int(np.sum(failed))
    max_violation = float(np.max(viol[ok])) if np.any(ok) else 0.0
    lo, hi = wilson_interval(violating, paths)
    per_path = (
        PathRecords(violation=viol, first_violation_time=first_t, failed=failed)
        if keep_paths
        else None
    )
    return McReport(
        paths=paths,
        violating=violating,
        violation_fraction=violating / paths,
        max_violation=max_violation,
        wilson_low=lo,
        wilson_high=hi,
        seed=int(seed),
        h=float(h),
        eps_path=eps_path,
        failed=n_failed,
        per_path=per_path,
    )


def sample_terminal_states(
    model: SdeModel, x0, t0: float, T: float, paths: int, h: float, seed: int
) -> np.ndarray:
    """Terminal states X_T of independent paths, for distributional checks."""
    if paths < 1:
        raise ValueError("paths must be >= 1")
    grid = uniform_grid(t0, T, h)
    bat = (_BatchCoefficients(model),)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def run(rng_block: range):
        drivers = [
            sample_drivers(model.marks, (t0, T), h, seed, p, d=model.d) for p in rng_block
        ]
        _, _, _, terminals = _run_chunk(bat, (x0,), drivers, grid, None, 0.0)
        return terminals[0]

    blocks = _chunk_ranges(paths)
    workers = worker_count()
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(run, blocks))
    else:
        outs = [run(b) for b in blocks]
    return np.concatenate(outs, axis=0)
