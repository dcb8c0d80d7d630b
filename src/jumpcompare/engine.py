"""Jump-adapted Euler scheme for coupled jump-diffusion SDEs.

The scheme integrates the compensator-adjusted form: between events the Euler
step uses the net drift b - sum_j w_j gamma(.,.,e_j), and every simulated jump
time is an exact grid point where the amplitude gamma is applied to the
pre-jump state.  Exact jump placement removes the O(h) jump-location bias.

Randomness is drawn from counter-based Philox streams keyed by
(seed, path_index), so a path's driver realization never depends on how many
paths run or how they are split into chunks.  One Philox generator (per
thread) serves every path: it is re-keyed to (seed, path_index) with a zero
counter before each path's draws instead of being built anew, which yields
the same stream.  A realization is stored sparsely: its jump times, their
mark atoms and one row of standard normals per segment; the merged time
list, the per-segment atoms and the Brownian increments are derived on
access.  The sampler only draws: it counts the segments, the grid's steps
plus the jumps off its points, and computes no segment length.

The Monte Carlo kernel advances a chunk of paths in waves: wave k is one
block Euler step of every path over its own segment k (a jump inside a grid
step splits it), its normals scaled by the root of the dt the step takes,
after which the rows whose segment ends at a jump get their atoms.  A path
with J jumps off the grid takes n_steps + J waves, so only the last few
waves run on fewer than all paths.  Each wave writes its rows of X2 - X1
into a buffer, followed by its rows that close a grid step holding a jump,
repeated as the step's sub-step rows; the violation statistic then takes
one call per block of waves (about _BLOCK_ROWS rows), and the running
maxima and first violation times are updated once per block.  Every row
is judged, and counts where its statistic is finite.  A path fails when
its terminal state, in either model, is not finite (a state that is not
finite stays so), and its violation is then NaN.  Chunks run in path
order, and per-path results are concatenated before any reduction.

A step computes X + drift*dt + sigma dW with the operands, and so the bits,
of that formula, in few contiguous numpy calls.  The affine constants are
tiled over the chunk's rows once and a per-row dt fills a (paths, m) array
(a column, on a grid of unequal steps), so each add or multiply is one flat
loop instead of one short loop per row; the one-term contractions (the d = 1
noise, the m = 1 diffusion) are products plus 0.0, as einsum returns them,
and so is a diagonal V's diffusion on a block of finite rows.
The m = 1 drift is the product that gemm and gemv alike compute, and the
m >= 2 drift is one gemm per block, a lone row run as the first of two,
since BLAS runs a one-row product as gemv, which rounds differently.  A row
thus gets the same bits in any block, and a one-path chunk those of any
larger chunk.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import ComparisonProblem, MarkMeasure, SdeModel, check_seed

__all__ = [
    "InvalidStep",
    "DriverRealization",
    "McReport",
    "PathRecords",
    "uniform_grid",
    "sample_drivers",
    "mc_comparison",
    "sample_terminal_states",
    "default_eps_path",
    "wilson_interval",
]

_MASK64 = (1 << 64) - 1
_CHUNK = 2048  # paths per chunk; bounds the working memory of one _run_chunk call
_BLOCK_ROWS = 8192  # rows of X2 - X1 per violation-statistic call, the sub-step repeats aside


class InvalidStep(ValueError):
    """Step size is nonpositive or exceeds the horizon length."""


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


@functools.lru_cache(maxsize=4)
def _grid_steps(t0: float, T: float, h: float) -> Tuple[np.ndarray, frozenset]:
    """``uniform_grid(t0, T, h)``, read-only, and its points as a frozenset
    of floats, computed once per horizon and step and shared."""
    grid = uniform_grid(t0, T, h)
    grid.setflags(write=False)
    return grid, frozenset(grid.tolist())


def _jump_slots(grid: np.ndarray, jump_times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where the strictly increasing ``jump_times`` sit in the time list
    merged from them and the grid: each one's index there, and whether it
    adds a point (False for a jump on a grid point, which is not repeated)."""
    pos = np.searchsorted(grid, jump_times)
    new = grid[np.minimum(pos, grid.shape[0] - 1)] != jump_times
    return pos + np.cumsum(new) - new, new


@dataclass(frozen=True)
class DriverRealization:
    """One realization of the shared noise for one path, stored sparsely.

    ``jump_times`` are strictly increasing times in (t0, T] and
    ``jump_marks`` their mark-atom indices.  The path's time list is the
    sorted union of the uniform grid and the jump times (a jump time that
    falls on a grid point is merged with it), and ``normals[i]`` are the d
    standard normals of its segment i.  ``times``, ``jump_atoms`` (the atom
    applied at each segment end, -1 at a plain grid point) and ``dW`` (the
    Brownian increments, each row of normals times the square root of its
    segment's length) are derived on access; without jumps ``times`` is the
    shared read-only grid.
    """

    t0: float
    T: float
    h: float
    jump_times: np.ndarray
    jump_marks: np.ndarray
    normals: np.ndarray

    @property
    def times(self) -> np.ndarray:
        grid = _grid_steps(self.t0, self.T, self.h)[0]
        return np.union1d(grid, self.jump_times) if self.jump_times.size else grid

    @property
    def jump_atoms(self) -> np.ndarray:
        grid = _grid_steps(self.t0, self.T, self.h)[0]
        idx, new = _jump_slots(grid, self.jump_times)
        atoms = np.full(grid.shape[0] - 1 + np.count_nonzero(new), -1, dtype=np.int64)
        atoms[idx - 1] = self.jump_marks
        return atoms

    @property
    def dW(self) -> np.ndarray:
        return self.normals * np.sqrt(np.diff(self.times))[:, None]

    @property
    def n_segments(self) -> int:
        return self.normals.shape[0]


_rngs = threading.local()


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    """This thread's generator, re-keyed to the start of stream (seed, path_index).

    Setting the Philox state (key, zero counter, empty buffer) gives the draws
    of ``Generator(Philox(key=(seed, path_index)))`` without building one.
    The state dict is made once per thread and only its key is rewritten: the
    setter copies the values.  The generator is made on first use, so
    importing the package does not load ``numpy.random``.
    """
    rng = getattr(_rngs, "rng", None)
    if rng is None:
        rng = _rngs.rng = np.random.Generator(np.random.Philox(0))
        zero4 = np.zeros(4, dtype=np.uint64)
        _rngs.state = {
            "bit_generator": "Philox",
            "state": {"counter": zero4, "key": np.zeros(2, dtype=np.uint64)},
            "buffer": zero4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    state = _rngs.state
    key = state["state"]["key"]
    key[0] = int(seed) & _MASK64
    key[1] = int(path_index) & _MASK64
    rng.bit_generator.state = state
    return rng


def sample_drivers(
    marks: MarkMeasure,
    horizon: Tuple[float, float],
    h: float,
    seed: int,
    path_index: int,
    *,
    d: int,
) -> DriverRealization:
    """Draw one path's noise: jump times, mark atoms, and a row of standard
    normals per segment, unscaled.

    Jump times form a Poisson process of rate equal to the total mark mass
    (exponential interarrivals); atoms are categorical with probability
    proportional to their weights.  The stream is keyed by (seed, path_index),
    so two calls with the same key are bit-identical and distinct paths never
    share randomness regardless of evaluation order.
    """
    t0, T = float(horizon[0]), float(horizon[1])
    grid, points = _grid_steps(t0, T, float(h))
    rng = _path_rng(seed, path_index)

    lam = marks.total_mass
    jump_times: List[float] = []
    uniforms: List[float] = []
    if lam > 0.0 and marks.n_atoms > 0:
        t = t0
        while True:
            t = t + rng.standard_exponential() / lam
            if t > T:
                break
            if t == t0:
                # an interarrival too small to move t0 in floating point (a
                # zero one, or any below half the spacing of doubles at a
                # large t0) would put the jump on the start; it goes to the
                # next double, and the arrivals after it count from there
                t = float(np.nextafter(t0, math.inf))
            u = rng.random()
            if jump_times and jump_times[-1] == t:
                # an interarrival too small to move t in floating point
                # repeats a time; keep one jump there, with the later atom
                uniforms[-1] = u
            else:
                jump_times.append(t)
                uniforms.append(u)

    if jump_times:
        jt = np.array(jump_times)
        jm = np.searchsorted(marks.atom_cdf, uniforms, side="right")
    else:
        jt, jm = np.zeros(0), np.zeros(0, dtype=np.int64)
    # a segment per grid step, and one more for each jump off the grid
    n_segments = grid.shape[0] - 1 + sum(t not in points for t in jump_times)
    return DriverRealization(t0=t0, T=T, h=float(h), jump_times=jt, jump_marks=jm,
                             normals=rng.standard_normal((n_segments, d)))


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


def _net_drift(model: SdeModel, t, X: np.ndarray) -> np.ndarray:
    """The compensator-adjusted drift b - sum_j w_j gamma(., ., j) at each
    row of X, at time t (or t[i]), through the coefficients' row evaluators."""
    coeffs = model.coefficients
    out = coeffs.b_rows(t, X)
    for j, w in enumerate(model.marks.weights):
        if w != 0.0:
            out = out - w * coeffs.gamma_rows(t, X, j)
    return out


class _BatchCoefficients:
    """Row-vectorized coefficient evaluation for one model, on blocks of at
    most ``rows`` rows (one chunk).

    Affine models evaluate in closed form on (paths, m) blocks; black-box
    models through ``_net_drift`` and the triple's row evaluators, calling
    the coefficients at each row's own time.  The affine constants (the net
    drift's, U and a diagonal V's diagonal, see
    ``AffineCoefficients.row_tiles``) are tiled over ``rows`` rows once: a
    block adds or multiplies by a leading slice in one flat loop, where
    adding a length-m vector to a (paths, m) block runs one loop of m per
    row.
    """

    def __init__(self, model: SdeModel, rows: int):
        self.model = model
        self.coeffs = model.coefficients
        aff = model.coefficients.affine
        self.affine = aff
        if aff is not None:
            self._M, dvec = aff.net_drift_blocks(model.marks)
            # at m = 1, gemm and gemv both give (0 + x*M) + d, which is
            # x*M + (d + 0.0): a -0.0 in d only leaves a +0.0 sum as it is
            self._scale = float(self._M[0, 0]) if model.m == 1 else None
            self._d_rows = np.tile(dvec if self._scale is None else dvec + 0.0, (rows, 1))
            self._diffusion_tiles = aff.row_tiles(rows)

    def net_drift_rows(self, t, X: np.ndarray) -> np.ndarray:
        """The net drift at each row of X, a new array, with the bits a row
        gets in any block.  At m >= 2 that is one gemm ``X @ M.T``: a lone
        row goes in as the first of two, since BLAS runs a one-row product
        as gemv, which rounds unlike gemm."""
        if self.affine is None:
            return _net_drift(self.model, t, X)
        if self._scale is not None:
            out = X * self._scale
        elif X.shape[0] == 1:
            out = (np.concatenate((X, X)) @ self._M.T)[:1]
        else:
            out = X @ self._M.T
        out += self._d_rows[: X.shape[0]]
        return out

    def sigma_rows(self, t, X: np.ndarray) -> np.ndarray:
        if self.affine is not None:
            return self.affine.diffusion_rows(t, X, self._diffusion_tiles)
        return self.coeffs.sigma_rows(t, X)

    def jump_rows(self, t: np.ndarray, X: np.ndarray, atoms: np.ndarray) -> np.ndarray:
        """Post-jump states X + gamma(t, X, atom), row by row."""
        return X + self.coeffs.gamma_rows(t, X, atoms)


def componentwise_stat(diff_rows: np.ndarray) -> np.ndarray:
    """Per-path signed violation measure: max coordinate of X2 - X1.

    Bit for bit ``diff_rows.max(axis=1)`` (NaN and signed zeros included),
    folded column by column: a reduction over a short row axis costs far
    more per row than one ufunc call per column.
    """
    out = diff_rows[:, 0].copy()
    for j in range(1, diff_rows.shape[1]):
        np.maximum(out, diff_rows[:, j], out=out)
    return out


def _finite_rows(X: np.ndarray) -> np.ndarray:
    """``np.isfinite(X).all(axis=1)``, folded column by column."""
    out = np.isfinite(X[:, 0])
    for j in range(1, X.shape[1]):
        out &= np.isfinite(X[:, j])
    return out


def _noise_rows(sig: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """``np.einsum("pkd,pd->pk", sig, dW)``, bit for bit.  At d = 1 the sum
    has one term, which einsum returns as 0 + sig * dW: one multiply per
    coordinate column (a (paths, 1) factor would broadcast row by row) and
    an add of 0.0, which turns -0.0 into +0.0 as einsum does."""
    if dW.shape[1] != 1:
        return np.einsum("pkd,pd->pk", sig, dW)
    out = np.empty(sig.shape[:2])
    for k in range(out.shape[1]):
        np.multiply(sig[:, k, 0], dW[:, 0], out=out[:, k])
    out += 0.0
    return out


def _step_rows(bat: _BatchCoefficients, t, X: np.ndarray, dt, dW: np.ndarray) -> np.ndarray:
    """One Euler step of the rows of X from time(s) t over step(s) dt:
    ``X + drift * dt + einsum("pkd,pd->pk", sigma, dW)``, operand for operand.
    A per-row dt is a (paths, m) array or a column; t is read by black-box
    coefficients only."""
    drift = bat.net_drift_rows(t, X)
    drift *= dt
    out = X + drift
    out += _noise_rows(bat.sigma_rows(t, X), dW)
    return out


@dataclass(frozen=True)
class _Waves:
    """A chunk's paths laid out for waves.  Rows hold the paths longest
    first, so the paths with more than k segments, wave k's, are the first
    ``live[k]`` rows; ``row_of[p]`` is path p's row, and ``normals[k, r]``
    row r's normals of its segment k.  The jump-adjacent segments are sorted
    by (segment, kind, row), kind 0 ending at a jump off the grid, 1 at a
    jump on a grid point, 2 at the grid point after a step's last jump off
    it.  Entry q takes row ``row[q]`` from ``t_left[q]`` to ``t_end[q]``,
    over ``dt[q]`` (noise scaled by ``root[q]``), then applies ``atom[q]``
    (-1: none).  Segment k's entries of kind c start at ``bounds[3k + c]``
    and end at ``bounds[3k + 3]``.  The segments of kind 0 are also listed
    by row: ``hits`` holds row * waves + segment of each, ascending, and
    ``jump_end`` its jump's time, each closed by a sentinel (the largest
    intp, NaN), so ``end_times`` finds any row's segment end.

    The statistic takes, wave by wave, the wave's live rows in row order and
    then the rows of its entries of kind 1 and 2 again, in entry order, as
    the sub-step rows of their step: wave k's rows start at ``start[k]`` of
    that sequence.
    """

    row_of: np.ndarray
    live: List[int]
    normals: np.ndarray
    row: np.ndarray
    t_left: np.ndarray
    t_end: np.ndarray
    dt: np.ndarray
    root: np.ndarray
    atom: np.ndarray
    bounds: List[int]
    hits: np.ndarray
    jump_end: np.ndarray
    start: List[int]

    def end_times(self, grid: np.ndarray, r, k) -> np.ndarray:
        """When row r's segment k ends, elementwise: at its jump, if it ends
        at a jump off the grid, else at the grid point closing its step,
        which is k less the row's earlier such segments."""
        first = r * self.normals.shape[0]  # row r's segment 0, in hits' order
        at = np.searchsorted(self.hits, first + k)
        step = k - (at - np.searchsorted(self.hits, first))
        return np.where(self.hits[at] == first + k, self.jump_end[at], grid[step + 1])


def _waves(drivers: Sequence[DriverRealization], grid: np.ndarray) -> _Waves:
    """Lay out the paths' normals time-major and list the segments that end
    at a jump, or end at a grid point of a step that holds one."""
    K = len(drivers)
    n_seg = np.array([drv.n_segments for drv in drivers])
    order = np.argsort(-n_seg, kind="stable")  # row r holds path order[r]
    row_of = np.empty(K, dtype=np.intp)
    row_of[order] = np.arange(K)
    n_sorted = n_seg[order]
    live = np.searchsorted(-n_sorted, -np.arange(n_sorted[0]), side="left")
    z = np.empty((int(n_sorted[0]), K, drivers[0].normals.shape[1]))
    # rows of one segment count, in blocks of 32 that a stack copies in cache
    edges = sorted({0, K, *range(32, K, 32), *(np.flatnonzero(np.diff(n_sorted)) + 1).tolist()})
    for lo, hi in zip(edges[:-1], edges[1:]):
        z[: n_sorted[lo], lo:hi] = np.stack([drivers[p].normals for p in order[lo:hi]], axis=1)

    n_jumps = np.array([drv.jump_times.shape[0] for drv in drivers])
    jt = np.concatenate([drv.jump_times for drv in drivers])
    atom = np.concatenate([drv.jump_marks for drv in drivers])
    path = np.repeat(np.arange(K), n_jumps)
    step = np.searchsorted(grid, jt, side="left") - 1
    right = grid[step + 1]
    on = jt == right
    # first / last jump of its path in its step
    first = np.ones(jt.shape[0], dtype=bool)
    first[1:] = (path[1:] != path[:-1]) | (step[1:] != step[:-1])
    last = np.roll(first, -1)
    # the segment ending at a jump starts at the previous jump of the step,
    # or at the grid point for the first; its index is its step plus the
    # points the path's earlier jumps added
    prev = np.where(first, grid[step], np.roll(jt, 1))
    added = np.concatenate([[0], np.cumsum(~on)])
    seg = step + added[:-1] - added[np.cumsum(n_jumps) - n_jumps][path]
    close = last & ~on  # then a segment from the last jump to the grid point
    hits = row_of[path[~on]] * z.shape[0] + seg[~on]
    by_row = np.argsort(hits)

    key = 3 * np.concatenate([seg, seg[close] + 1])
    key += np.concatenate([on, np.full(int(close.sum()), 2)])
    row = row_of[np.concatenate([path, path[close]])]
    q = np.lexsort((row, key))
    key, row = key[q], row[q]
    t_left = np.concatenate([prev, jt[close]])[q]
    t_end = np.concatenate([jt, right[close]])[q]
    bounds = np.searchsorted(key, np.arange(3 * z.shape[0] + 1))
    # the statistic's rows in call order: each wave's live rows, then its
    # rows of kind 1 and 2, which close a grid step holding a jump
    start = np.concatenate(([0], np.cumsum(live + bounds[3::3] - bounds[1::3])))
    return _Waves(
        row_of=row_of,
        live=live.tolist(),
        normals=z,
        row=row,
        t_left=t_left,
        t_end=t_end,
        dt=(t_end - t_left)[:, None],
        root=np.sqrt(t_end - t_left)[:, None],
        atom=np.concatenate([atom, np.full(int(close.sum()), -1)])[q],
        bounds=bounds.tolist(),
        hits=np.append(hits[by_row], np.iinfo(np.intp).max),
        jump_end=np.append(jt[~on][by_row], np.nan),
        start=start.tolist(),
    )


def _stat_values(stat_fn: Callable[[np.ndarray], np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The statistic on ``rows``: one float per row, else ValueError; -inf
    where it is not finite, as such a row does not count."""
    val = np.asarray(stat_fn(rows), dtype=float)
    if val.shape != rows.shape[:1]:
        raise ValueError(f"the violation statistic must return shape ({rows.shape[0]},) "
                         f"for {rows.shape[0]} rows, not {val.shape}")
    return np.where(np.isfinite(val), val, -np.inf)


def _raise_block(run: np.ndarray, val: np.ndarray, starts: Sequence[int],
                 live: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Fold a block's statistic values into the run maximum.

    ``val`` holds them in call order, -inf where a row does not count: wave
    i's ``live[i]`` rows from ``starts[i] - starts[0]`` on, then the repeats
    of its rows that close a grid step holding a jump, which are not read.
    Returns the (waves, paths) table of each row's value per wave (-inf
    where it has none) and each row's greatest in the block, which replaces
    its run maximum where greater: of equal ones, -0.0 and +0.0, a row may
    keep either, which ``np.maximum(run, 0.0)`` does not show.
    """
    K, waves = run.shape[0], len(live)
    if live[-1] == K and val.shape[0] == waves * K:  # each wave on every row, no repeats
        table = val.reshape(waves, K)
    else:
        table = np.full((waves, K), -np.inf)
        for i, (s, n) in enumerate(zip(starts, live)):
            table[i, :n] = val[s - starts[0] : s - starts[0] + n]
    best = table.max(axis=0)
    np.copyto(run, best, where=best > run)
    return table, best


class _Tally:
    """A chunk's violation bookkeeping, judged a block of waves at a time.

    A block is at most ``block`` = _BLOCK_ROWS // paths consecutive waves
    (at least one, at most the chunk's).  Each wave writes its rows of
    X2 - X1, and the repeats of its rows that close a grid step holding a
    jump, into ``rows`` at their places in call order (``_Waves.start``);
    ``judge`` then takes the statistic on the block's rows in one call and
    folds them into each path's running maximum and first violation time.
    Every row counts where its statistic is finite, the start's too.  A
    repeat holds the bits of its wave's row, so it is judged alike and only
    that row is folded in; the statistic still sees it.
    """

    def __init__(self, wv: _Waves, grid: np.ndarray, stat_fn, eps_path: float,
                 diff: np.ndarray):
        K, m = diff.shape
        self.wv, self.grid, self.stat_fn, self.eps_path = wv, grid, stat_fn, eps_path
        self.run = _stat_values(stat_fn, diff)
        self.first_t = np.full(K, np.nan)
        self.first_t[self.run > eps_path] = grid[0]
        self.block = B = min(max(1, _BLOCK_ROWS // K), len(wv.live))
        start = np.array(wv.start)
        self.rows = np.empty((int((start[B:] - start[:-B]).max()), m))

    def judge(self, k0: int, k1: int) -> None:
        """Judge the waves k0 .. k1 - 1, whose rows fill ``rows`` from its
        start."""
        wv = self.wv
        val = _stat_values(self.stat_fn, self.rows[: wv.start[k1] - wv.start[k0]])
        table, best = _raise_block(self.run, val, wv.start[k0:k1], wv.live[k0:k1])
        hot = (best > self.eps_path) & np.isnan(self.first_t)
        if hot.any():  # a first violation, at its earliest wave's end time
            r = np.flatnonzero(hot)
            k = k0 + (table[:, r] > self.eps_path).argmax(axis=0)
            self.first_t[r] = wv.end_times(self.grid, r, k)


def _run_chunk(
    models: Sequence[SdeModel],
    starts: Sequence[np.ndarray],
    drivers: Sequence[DriverRealization],
    grid: np.ndarray,
    stat_fn: Optional[Callable[[np.ndarray], np.ndarray]],
    eps_path: float,
):
    K = len(drivers)
    batches = [_BatchCoefficients(model, K) for model in models]
    X = [np.tile(np.asarray(x0, dtype=float), (K, 1)) for x0 in starts]
    m = X[0].shape[1]  # the models of a problem share m
    wv = _waves(drivers, grid)
    steps = np.diff(grid)
    roots = np.sqrt(steps)
    uniform = bool((steps == steps[0]).all())
    timed = any(bat.affine is None for bat in batches)  # black-box models read t
    off = np.zeros(K, dtype=np.intp)  # jumps off the grid each row has passed
    jumped = False  # any(off): else wave k is grid step k on every row
    tally = None
    if len(batches) == 2 and stat_fn is not None:
        tally = _Tally(wv, grid, stat_fn, eps_path, X[1] - X[0])
        k0 = 0  # the block's first wave

    # overflow / NaN on exploding paths is expected and handled through the
    # failed flag, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k, n in enumerate(wv.live):
            a, e1, e2, b = wv.bounds[3 * k : 3 * k + 4]
            i = k - off[:n] if jumped else k  # each row's grid step
            j = 0 if uniform else i[:, None] if jumped else k  # a column of rows' steps
            dt, root = steps[j], roots[j]
            t = grid[i] if timed else None
            if a < b:
                p = wv.row[a:b]
                dt = np.full((n, m), dt)
                dt[p] = wv.dt[a:b]
                root = np.full((n, 1), root)
                root[p] = wv.root[a:b]
                if timed:
                    t = np.full(n, t)
                    t[p] = wv.t_left[a:b]
            dW = wv.normals[k, :n] * root
            for mi, bat in enumerate(batches):
                Xk = _step_rows(bat, t, X[mi][:n], dt, dW)
                if e2 > a:  # the rows whose segment ends at a jump
                    pj = wv.row[a:e2]
                    Xk[pj] = bat.jump_rows(wv.t_end[a:e2], Xk[pj], wv.atom[a:e2])
                X[mi] = Xk if n == K else np.concatenate((Xk, X[mi][n:]))
            if e1 > a:  # the rows that end at a jump off the grid
                off[wv.row[a:e1]] += 1
                jumped = True
            if tally is not None:
                first = wv.start[k] - wv.start[k0]
                diff = tally.rows[first : first + n]
                np.subtract(X[1][:n], X[0][:n], out=diff)
                if b > e1:  # the rows closing a step with a jump, repeated
                    np.take(diff, wv.row[e1:b], axis=0, mode="clip",
                            out=tally.rows[first + n : first + n + b - e1])
                if k + 1 - k0 == tally.block or k + 1 == len(wv.live):
                    tally.judge(k0, k + 1)
                    k0 = k + 1

    if tally is None:
        viol, first_t, failed = np.zeros(K), np.full(K, np.nan), np.zeros(K, dtype=bool)
    else:
        failed = ~(_finite_rows(X[0]) & _finite_rows(X[1]))
        viol, first_t = np.maximum(tally.run, 0.0), tally.first_t
        viol[failed] = np.nan
    rows = wv.row_of  # back to path order
    return viol[rows], first_t[rows], failed[rows], [XM[rows] for XM in X]


def _chunks(
    models: Sequence[SdeModel],
    starts: Sequence[np.ndarray],
    grid: np.ndarray,
    paths: int,
    h: float,
    seed: int,
    stat_fn: Optional[Callable[[np.ndarray], np.ndarray]],
    eps_path: float,
) -> Iterator[tuple]:
    """Yield ``_run_chunk``'s results for paths 0..paths-1, in blocks of _CHUNK."""
    model = models[0]  # the models of a problem share their marks and d
    horizon = (float(grid[0]), float(grid[-1]))
    for lo in range(0, paths, _CHUNK):
        drivers = [
            sample_drivers(model.marks, horizon, h, seed, p, d=model.d)
            for p in range(lo, min(lo + _CHUNK, paths))
        ]
        yield _run_chunk(models, starts, drivers, grid, stat_fn, eps_path)


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
    violation probability and is deterministic in (problem, paths, h, seed):
    each path's noise is keyed by (seed, path_index), so the split into
    chunks does not change it.

    ``stat_fn`` (default ``componentwise_stat``) is row-wise: it takes an
    (n, m) array of X2 - X1 rows and returns n floats, each depending on its
    own row only, since it is called on blocks of rows from many paths and
    times at once.  The array is a view of a buffer that the kernel reuses
    after the call.  A result of any other shape raises ValueError.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    seed = check_seed(seed)
    grid = uniform_grid(problem.t0, problem.T, h)
    if problem.tolerances.eps_path is not None:
        eps_path = float(problem.tolerances.eps_path)
    else:
        eps_path = default_eps_path(h, problem.x1, problem.x2)
    stat = stat_fn if stat_fn is not None else componentwise_stat
    models = (problem.model1, problem.model2)
    starts = (problem.x1, problem.x2)
    # keep each chunk's per-path records and drop its terminal states
    records = [c[:3] for c in _chunks(models, starts, grid, paths, h, seed, stat, eps_path)]
    viol, first_t, failed = (np.concatenate(r) for r in zip(*records))

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
    seed = check_seed(seed)
    grid = uniform_grid(t0, T, h)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.m,):
        raise ValueError(f"x0 must be a vector of length {model.m}")
    chunks = _chunks((model,), (x0,), grid, paths, h, seed, None, 0.0)
    out = np.concatenate([X[0] for *_, X in chunks], axis=0)
    out[np.isnan(out)] = np.nan  # numpy's add loops give either sign, by block
    return out
