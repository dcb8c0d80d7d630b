"""Affine Monte Carlo outcomes of a fixed set of problems, pinned by sha256.

Each case runs ``mc_comparison`` with per-path records and
``sample_terminal_states`` for both models, and hashes the bytes of every
per-path row: violation, first violation time, failed flag, and the terminal
states of model 1 and of model 2.  The cases are the four gallery scenarios
with jumps, ``matrix-pass`` (on its svec embedding, through the spectral
statistic), the dense-jump pairs of seeds 1-3, passing and
``jump-row-gap``, and an m = 2 pair with coupled diffusion whose paths
overflow on their fourth jump, so that failed flags, violation times before
a failure and NaN terminal states are pinned too.  A kernel change that moves one bit of one path fails here.

Run as a script, ``PYTHONPATH=src python tests/test_mc_pins.py`` prints every
case's digest; a new case is pinned by running the same file on the checkout
the kernel change starts from.
"""

import hashlib

import numpy as np
import pytest

from jumpcompare import psdcone
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
EXPLODING_CASES = ("exploding-coupled",)

PINNED_MC_PATHS = {
    "corollary33-pass": "5d4b06de11b944d2e44571721ccdc4a743b366d8351636bc3b1522f2318702aa",
    "corollary34-pass": "d3c13328699a6de1fc95b4da2e1e53d53fd4d75b03924ed6d7cca41944747bd9",
    "example36": "158d72d3a4c6c81d0ada930b3160e3f5e6dc0b944fea1a2b7e23a031e34e15d0",
    "jump-monotone-fail": "a19debb961484881c20dce8d2b07b211ece94a9f5b013950296465a41f15a7f9",
    "matrix-pass": "2fce1a936411e7810034d0c37b96501ecb8867b5eb4fe4a858168271c386d149",
    "dense-1-pass": "9062c1c8587d1d65d9d66c1fb41469c1d0b3ceccb24919c586e84b1ef1fc3440",
    "dense-1-jump-row-gap": "0d884eac054a29fda4f4ac2ee30ed10221c045429fd5a1d1fea63b24fe8f7c3e",
    "dense-2-pass": "1ed87309e4ca6da3893c4852391a1bdaf67ad501543142d47f3dbf0b28d2092e",
    "dense-2-jump-row-gap": "888afc20e64ee920f8c51c3106361f507833957dee3f5e159304a39f966d2e60",
    "dense-3-pass": "0fd11e243f651c88f9f9a8e199e68d5a5f5b32583e3d3456c79c6b11c45cbe5c",
    "dense-3-jump-row-gap": "481e5dd8a349db5135602443ee97bc3a61b7b69eec91a34547602326e82590a4",
    "exploding-coupled": "9ec60328c310cedf49bf4638343b103581722476fc99ebd3706bca640e38254e",
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


def _case(name):
    """(MC report with per-path records, ((model, x0), (model, x0)), t0, T,
    h, seed) of a case."""
    if name.startswith(("dense-", "exploding-")):
        if name == "exploding-coupled":
            problem, seed = exploding_problem(), 5
        else:
            _, seed, kind = name.split("-", 2)
            problem = dense_jump_problem(int(seed), kind=None if kind == "pass" else kind)
        h, seed = DENSE_STEP, int(seed)
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


def mc_paths_sha256(name) -> str:
    mc, starts, t0, T, h, seed = _case(name)
    rows = [mc.per_path.violation, mc.per_path.first_violation_time, mc.per_path.failed]
    rows += [sample_terminal_states(model, x0, t0, T, PATHS, h, seed) for model, x0 in starts]
    digest = hashlib.sha256()
    for arr in rows:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", GALLERY_CASES + DENSE_CASES + EXPLODING_CASES)
def test_per_path_rows_are_pinned(name):
    assert mc_paths_sha256(name) == PINNED_MC_PATHS[name]


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
    for case in GALLERY_CASES + DENSE_CASES + EXPLODING_CASES:
        print(case, mc_paths_sha256(case))
