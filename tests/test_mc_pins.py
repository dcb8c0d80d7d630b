"""Affine Monte Carlo outcomes of a fixed set of problems, pinned by sha256.

Each case runs ``mc_comparison`` with per-path records and
``sample_terminal_states`` for both models, and hashes the bytes of every
per-path row: violation, first violation time, failed flag, and the terminal
states of model 1 and of model 2.  The cases are the four gallery scenarios
with jumps, ``matrix-pass`` (on its svec embedding, through the spectral
statistic), the dense-jump pairs of seeds 1-3, passing and
``jump-row-gap``, the seed-1 ``jump-row-gap`` pair at the steps 0.3 and 0.01
(0.3 does not divide the horizon, and the step lengths of both grids differ
in their last bits), and an m = 2 pair with coupled diffusion whose paths
overflow on their fourth jump, so that failed flags, violation times before
a failure and NaN terminal states are pinned too.  A kernel change that
moves one bit of one path fails here.  Each case's violating and failed
counts are pinned as well, so a re-pinned digest shows whether a count moved
with it.  The dense and exploding cases also run one path a chunk, and with
the uneven cases 7 paths a chunk, which must give the same digests; the
exploding case also pins how many rows its violation statistic judges,
which are as many as in any case without failed paths.
One dense case, the uneven cases and the exploding case also run with the
statistic taken on blocks of one wave, of three waves and of the default
size, at each of those chunk sizes and at 33 paths a chunk (one past the
32-path blocks in which a chunk's normals are laid out), which must give
the same rows.

Run as a script, ``PYTHONPATH=src python tests/test_mc_pins.py [CHUNK]``
prints every case's digest and counts, at CHUNK paths a chunk if given, and
whether they match the pins; a new case is pinned by running the same file on
the checkout the kernel change starts from.
"""

import hashlib

import numpy as np
import pytest

from jumpcompare import engine, psdcone
from jumpcompare.cli import build_problem, gallery_configs
from jumpcompare.engine import mc_comparison, sample_terminal_states
from jumpcompare.model import (AffineCoefficients, CoefficientTriple, ComparisonProblem,
                               MarkMeasure, RegularityBudget, SdeModel)
from jumpcompare.psdcone import mc_matrix_comparison, svec

from suitegen import dense_jump_problem

PATHS = 300
DENSE_STEP = 2.0**-6

GALLERY_CASES = ("corollary33-pass", "corollary34-pass", "example36", "jump-monotone-fail",
                 "matrix-pass")
DENSE_CASES = tuple(f"dense-{seed}-{kind or 'pass'}"
                    for seed in (1, 2, 3) for kind in (None, "jump-row-gap"))
UNEVEN_CASES = ("uneven-0.3", "uneven-0.01")
EXPLODING_CASES = ("exploding-coupled",)
ALL_CASES = GALLERY_CASES + DENSE_CASES + UNEVEN_CASES + EXPLODING_CASES

PINNED_MC_PATHS = {
    "corollary33-pass": "5d4b06de11b944d2e44571721ccdc4a743b366d8351636bc3b1522f2318702aa",
    "corollary34-pass": "d3c13328699a6de1fc95b4da2e1e53d53fd4d75b03924ed6d7cca41944747bd9",
    "example36": "158d72d3a4c6c81d0ada930b3160e3f5e6dc0b944fea1a2b7e23a031e34e15d0",
    "jump-monotone-fail": "a19debb961484881c20dce8d2b07b211ece94a9f5b013950296465a41f15a7f9",
    "matrix-pass": "2fce1a936411e7810034d0c37b96501ecb8867b5eb4fe4a858168271c386d149",
    "dense-1-pass": "08a5e94619bea80eb548c61f7365cbf1085d45c549b86ac85d248d3ddf921189",
    "dense-1-jump-row-gap": "b891049a45be96639a6593a24f19f1f4321859b3c702b11702c956fef3291450",
    "dense-2-pass": "c30f708741caa75d74966d31c22cc411267bd212817713b831376d805761e34d",
    "dense-2-jump-row-gap": "563e65ba0241283e0f09facccc9708ae824352608289b66d3bcb7af0a53bf80e",
    "dense-3-pass": "257329ad911f2ddb1624668361c63a9a9a39b3acffe3ed38f68ba9736a4e39aa",
    "dense-3-jump-row-gap": "c75d15cb49a757eb44f9dc0a8d58fd192d4c65a71de7da2357de3311168c030d",
    "uneven-0.3": "f767d23e616d3406db4d6632ee82168ce958ffba3adac5fc40831c9cd2814436",
    "uneven-0.01": "f570ff3badf636874fcb1db24a2ce58cd6e69d4fd413e160a916b2d749ccdf72",
    "exploding-coupled": "8a0f498f025c59ad01370ac6039ca5a3ffee5affcd441d764c205893f9981be8",
}

# (violating, failed) of each case
PINNED_MC_COUNTS = {
    "corollary33-pass": (0, 0),
    "corollary34-pass": (0, 0),
    "example36": (0, 0),
    "jump-monotone-fail": (186, 0),
    "matrix-pass": (0, 0),
    "dense-1-pass": (0, 0),
    "dense-1-jump-row-gap": (0, 0),
    "dense-2-pass": (0, 0),
    "dense-2-jump-row-gap": (0, 0),
    "dense-3-pass": (0, 0),
    "dense-3-jump-row-gap": (0, 0),
    "uneven-0.3": (0, 0),
    "uneven-0.01": (0, 0),
    "exploding-coupled": (17, 64),
}

def exploding_problem() -> ComparisonProblem:
    """An m = 2, d = 1 pair with coupled diffusion (V != 0) and one atom of
    mass 2.5 that maps x to 1e80 x: a path overflows on its fourth jump."""
    marks = MarkMeasure.from_atoms([([1.0], 2.5)])
    G, g = 1e80 * np.eye(2)[None], np.array([[0.2, -0.1]])
    # B cancels the compensator of G, so the net drift stays small
    B = 2.5 * G[0] + [[-0.3, 0.1], [0.05, -0.2]]
    V = np.array([[[0.1, -0.2]], [[0.3, 0.05]]])

    def model(c, U):
        aff = AffineCoefficients(B=B, c=c, V=V, U=U, G=G, g=g)
        return SdeModel(coefficients=CoefficientTriple.from_affine(aff), marks=marks,
                        budget=RegularityBudget(mu=1.0, rho=np.array([1e80])))

    return ComparisonProblem(model1=model([0.4, 0.1], [[0.3], [-0.0]]),
                             model2=model([0.2, 0.3], [[0.2], [0.1]]),
                             t0=0.0, T=1.0, x1=np.array([0.5, 0.5]), x2=np.array([0.0, 0.2]))


def _vector_case(name):
    """(problem, h, seed) of a dense, uneven or exploding case."""
    if name == "exploding-coupled":
        return exploding_problem(), DENSE_STEP, 5
    if name.startswith("uneven-"):
        return dense_jump_problem(1, kind="jump-row-gap"), float(name[7:]), 1
    _, seed, kind = name.split("-", 2)
    return dense_jump_problem(int(seed), kind=None if kind == "pass" else kind), DENSE_STEP, int(seed)


def _case(name):
    """(MC report with per-path records, ((model, x0), (model, x0)), t0, T,
    h, seed) of a case."""
    if name.startswith(("dense-", "uneven-", "exploding-")):
        problem, h, seed = _vector_case(name)
        mc = mc_comparison(problem, PATHS, h, seed, keep_paths=True)
        starts = ((problem.model1, problem.x1), (problem.model2, problem.x2))
        return mc, starts, problem.t0, problem.T, h, seed
    cfg = next(c for c in gallery_configs() if c.id == name)
    problem = build_problem(cfg)
    h, seed = cfg.mc.step, cfg.mc.seed
    if cfg.kind == "matrix":
        mc = mc_matrix_comparison(problem, PATHS, h, seed, keep_paths=True)
        starts = ((psdcone._vector_model(problem.model1), svec(problem.x1)),
                  (psdcone._vector_model(problem.model2), svec(problem.x2)))
    else:
        mc = mc_comparison(problem, PATHS, h, seed, keep_paths=True)
        starts = ((problem.model1, problem.x1), (problem.model2, problem.x2))
    return mc, starts, problem.t0, problem.T, h, seed


def mc_pin(name):
    """(sha256 of the case's per-path rows, (violating, failed))."""
    mc, starts, t0, T, h, seed = _case(name)
    rows = [mc.per_path.violation, mc.per_path.first_violation_time, mc.per_path.failed]
    rows += [sample_terminal_states(model, x0, t0, T, PATHS, h, seed) for model, x0 in starts]
    digest = hashlib.sha256()
    for arr in rows:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest(), (mc.violating, mc.failed)


@pytest.mark.parametrize("name", ALL_CASES)
def test_per_path_rows_are_pinned(name):
    assert mc_pin(name) == (PINNED_MC_PATHS[name], PINNED_MC_COUNTS[name])


@pytest.mark.parametrize("name", DENSE_CASES + EXPLODING_CASES)
def test_one_path_chunks_give_the_pinned_rows(name, monkeypatch):
    # every wave of a one-path chunk steps a lone row
    monkeypatch.setattr(engine, "_CHUNK", 1)
    assert mc_pin(name) == (PINNED_MC_PATHS[name], PINNED_MC_COUNTS[name])


@pytest.mark.parametrize("name", DENSE_CASES + UNEVEN_CASES + EXPLODING_CASES)
def test_partial_chunks_give_the_pinned_rows(name, monkeypatch):
    # 300 paths in chunks of 7 end in a chunk of 6, and a chunk's last
    # waves run on its few paths with the most jumps
    monkeypatch.setattr(engine, "_CHUNK", 7)
    assert mc_pin(name) == (PINNED_MC_PATHS[name], PINNED_MC_COUNTS[name])


def _judged_rows(problem, h, seed, paths):
    """The rows the violation statistic judges: a row per path at the start
    and at each grid point, and one per sub-step."""
    grid = engine.uniform_grid(problem.t0, problem.T, h)
    substeps = 0
    for p in range(paths):
        drv = engine.sample_drivers(problem.marks, problem.horizon, h, seed, p, d=problem.d)
        steps = np.searchsorted(grid, drv.times[1:], side="left") - 1
        substeps += np.isin(steps, steps[drv.jump_atoms >= 0]).sum()
    return paths * grid.shape[0] + substeps


@pytest.mark.parametrize("chunk", [1, 7, 33, engine._CHUNK])
def test_failed_paths_have_every_row_judged(chunk, monkeypatch):
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    rows = []

    def counting(diff):
        rows.append(diff.shape[0])
        return engine.componentwise_stat(diff)

    mc = mc_comparison(exploding_problem(), PATHS, DENSE_STEP, 5, stat_fn=counting)
    assert (mc.violating, mc.failed) == PINNED_MC_COUNTS["exploding-coupled"]
    assert sum(rows) == _judged_rows(exploding_problem(), DENSE_STEP, 5, PATHS) == 20902
    assert 0 not in rows


@pytest.mark.parametrize("chunk", [1, 7, 33, engine._CHUNK])
@pytest.mark.parametrize("name", ("dense-1-jump-row-gap",) + UNEVEN_CASES + EXPLODING_CASES)
def test_blocks_of_waves_give_the_same_rows(name, chunk, monkeypatch):
    # the statistic taken on blocks of one wave, of three (more in a last,
    # smaller chunk) and of the default size: every per-path record and
    # terminal state of the coupled run, bit for bit
    problem, h, seed = _vector_case(name)
    paths = 60
    grid = engine.uniform_grid(problem.t0, problem.T, h)
    eps = engine.default_eps_path(h, problem.x1, problem.x2)
    models, starts = (problem.model1, problem.model2), (problem.x1, problem.x2)
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    runs = []
    for block_rows in (1, 3 * min(chunk, paths), engine._BLOCK_ROWS):
        monkeypatch.setattr(engine, "_BLOCK_ROWS", block_rows)
        rows = []

        def counting(diff):
            rows.append(diff.shape[0])
            return engine.componentwise_stat(diff)

        chunks = list(engine._chunks(models, starts, grid, paths, h, seed, counting, eps))
        viol, first_t, failed = (np.concatenate([c[i] for c in chunks]) for i in range(3))
        X1, X2 = (np.concatenate([c[3][i] for c in chunks]) for i in range(2))
        runs.append([a.tobytes() for a in (viol, first_t, failed, X1, X2)] + [sum(rows)])
        # a path fails where its terminal state is not finite
        assert np.array_equal(failed, ~(np.isfinite(X1).all(axis=1) & np.isfinite(X2).all(axis=1)))
        assert 0 not in rows
    assert runs[0] == runs[1] == runs[2]
    assert sum(rows) == _judged_rows(problem, h, seed, paths)


@pytest.mark.parametrize("chunk", [1, 7, 33, engine._CHUNK])
def test_terminal_nans_are_numpys_nan(chunk, monkeypatch):
    # a NaN's sign from numpy's add loops depends on the rows that share
    # its block; every terminal NaN is written as np.nan
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    problem = exploding_problem()
    nan_bits = np.array(np.nan).view(np.uint64)
    for model, x0 in ((problem.model1, problem.x1), (problem.model2, problem.x2)):
        terms = sample_terminal_states(model, x0, problem.t0, problem.T, PATHS, DENSE_STEP, 5)
        nans = np.isnan(terms)
        assert nans.sum() == 2 * PINNED_MC_COUNTS["exploding-coupled"][1]
        assert (terms.view(np.uint64)[nans] == nan_bits).all()


def test_cases_cover_what_they_name():
    cfgs = {c.id: c for c in gallery_configs()}
    assert all(cfgs[n].kind == "vector" and cfgs[n].marks["atoms"] for n in GALLERY_CASES[:4])
    assert cfgs["matrix-pass"].kind == "matrix"
    assert all(dense_jump_problem(seed).marks.total_mass == pytest.approx(16.0)
               for seed in (1, 2, 3))


def test_exploding_case_fails_some_paths_mid_horizon():
    mc, starts, t0, T, h, seed = _case("exploding-coupled")
    assert 0 < mc.failed < PATHS
    for model, x0 in starts:
        terms = sample_terminal_states(model, x0, t0, T, PATHS, h, seed)
        assert np.array_equal(~np.isfinite(terms).all(axis=1), mc.per_path.failed)
    # some path violated before it failed
    assert np.isfinite(mc.per_path.first_violation_time[mc.per_path.failed]).any()


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1:
        engine._CHUNK = int(sys.argv[1])
    for case in ALL_CASES:
        digest, counts = mc_pin(case)
        same = (digest, counts) == (PINNED_MC_PATHS[case], PINNED_MC_COUNTS[case])
        print(case, digest, *counts, "pinned" if same else "MOVED")
