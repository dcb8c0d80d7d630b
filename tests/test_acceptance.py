"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The full gallery (10^4 paths, step 2^-9 per scenario) runs once in a
module fixture and is shared by the criteria that consume it.
"""

import math
import os
import time

import numpy as np
import pytest

from jumpcompare import engine
from jumpcompare.cli import gallery_configs, main, run_gallery
from jumpcompare.conditions import HOLDS, VIOLATED, check_theorem31
from jumpcompare.geometry import Orthant
from jumpcompare.model import (
    AffineCoefficients,
    CoefficientTriple,
    MarkMeasure,
    SdeModel,
    lipschitz_certificate,
)
from jumpcompare.psdcone import PsdCone

from oracles import check_corollary_1d
from suitegen import random_problem

PASS_SCENARIOS = ("corollary33-pass", "corollary34-pass", "corollary35-pass", "example36")
STRONG_FAIL_SCENARIOS = (
    "jump-monotone-fail",
    "drift-order-fail",
    "sigma-gap-fail",
    "sigma-coupling-fail",
    "matrix-drift-fail",
)


@pytest.fixture(scope="module")
def full_gallery():
    start = time.perf_counter()
    reports = run_gallery()  # defaults: 10^4 paths, step 2^-9, fixed seeds
    elapsed = time.perf_counter() - start
    return {r.scenario_id: r for r in reports}, elapsed


def test_criterion_1_equivalence_suite():
    """Battery verdict and pointwise-inequality verdict agree on 50 models."""
    start = time.perf_counter()
    agreements = 0
    total = 50
    for i in range(total):
        failing = i % 2 == 1
        problem, kind = random_problem(31_000 + i, failing=failing)
        report = check_theorem31(problem)
        battery_violated = report.battery_violated
        ii_violated = report.ii_prime.status == VIOLATED
        assert battery_violated == (kind is not None), (i, kind)
        if battery_violated == ii_violated:
            agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == total, f"{agreements}/{total} agreements"
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 equivalence-suite: PASS "
          f"({agreements}/{total} agreements in {elapsed:.1f}s)")


def test_criterion_2_checker_simulation_consistency(full_gallery):
    """Holds scenarios show zero violations; decisive fails show >= 20%."""
    reports, elapsed = full_gallery
    for sid in PASS_SCENARIOS:
        rep = reports[sid]
        assert rep.check.overall == HOLDS, sid
        assert rep.mc.violation_fraction == 0.0, sid
        assert rep.agreement is True, sid
    for sid in STRONG_FAIL_SCENARIOS:
        rep = reports[sid]
        assert rep.check_violated, sid
        assert rep.mc.violation_fraction >= 0.2, (sid, rep.mc.violation_fraction)
        assert rep.mc.wilson_low > 0.0, sid
        assert rep.agreement is True, sid
    assert all(reports[sid].agreement for sid in reports), "gallery disagreement"
    assert elapsed < 300.0, f"gallery took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 checker-vs-simulation: PASS "
          f"(4 holds at fraction 0, 5 fails at >= 0.2, gallery in {elapsed:.1f}s)")


def test_criterion_3_corollary_reductions():
    """One-dimensional reductions match the full checker, 60/60."""
    agreements = 0
    cases = 0
    for variant, shared, zero in (("3.3", False, False), ("3.4", True, False),
                                  ("3.5", False, True)):
        for i in range(20):
            problem, _ = random_problem(45_000 + 100 * cases + i, failing=i % 2 == 1,
                                        m=1, shared_gamma=shared, zero_gamma=zero)
            verdict = check_corollary_1d(problem, variant)
            full = check_theorem31(problem)
            if (verdict.status == VIOLATED) == (full.overall == VIOLATED):
                agreements += 1
            cases += 1
    assert agreements == 60, f"{agreements}/60 agreements"
    print(f"\nACCEPTANCE 3 corollary-reductions: PASS ({agreements}/60 agreements)")


def test_criterion_4_unequal_jump_amplitudes(full_gallery):
    """The jump-only scenario passes even though gamma1 != gamma2."""
    reports, _ = full_gallery
    rep = reports["example36"]
    cfg = [c for c in gallery_configs() if c.id == "example36"][0]
    g1 = cfg.model1["jumps"][0]["g"]
    g2 = cfg.model2["jumps"][0]["g"]
    assert g1 != g2, "scenario must have unequal jump amplitudes"
    assert cfg.model1["V"] == cfg.model2["V"] and all(
        v == 0.0 for row in cfg.model1["U"] for v in row
    ), "scenario must be diffusion-free"
    assert rep.check.overall == HOLDS
    assert rep.mc.paths == 10_000 and rep.mc.violation_fraction == 0.0
    print("\nACCEPTANCE 4 unequal-jump-amplitude pass: PASS "
          "(checker holds, 0 violations in 10^4 paths)")


def test_criterion_5_engine_oracles():
    """Mean-reversion mean, compensated-jump martingale, Poisson jump count."""
    no_atoms = MarkMeasure.from_atoms([], dimension=1)
    ou_aff = AffineCoefficients(B=[[-1.0]], c=[0.0], V=np.zeros((1, 1, 1)),
                                U=[[0.5]], G=np.zeros((0, 1, 1)), g=np.zeros((0, 1)))
    ou = SdeModel(CoefficientTriple.from_affine(ou_aff), no_atoms,
                  lipschitz_certificate(ou_aff, no_atoms))
    n = 100_000
    h = 2.0**-9
    terms = engine.sample_terminal_states(ou, [1.0], 0.0, 1.0, n, h, seed=71)
    mean = float(np.mean(terms))
    se = float(np.std(terms, ddof=1)) / math.sqrt(n)
    ou_err = abs(mean - math.exp(-1.0))
    assert ou_err <= 3.0 * se, f"|{mean} - e^-1| = {ou_err} > 3*{se}"

    marks = MarkMeasure.from_atoms([([1.0], 1.5)])
    mart_aff = AffineCoefficients(B=[[0.0]], c=[0.0], V=np.zeros((1, 1, 1)),
                                  U=[[0.0]], G=np.zeros((1, 1, 1)), g=[[0.7]])
    mart = SdeModel(CoefficientTriple.from_affine(mart_aff), marks,
                    lipschitz_certificate(mart_aff, marks))
    mterms = engine.sample_terminal_states(mart, [0.0], 0.0, 1.0, 10_000, h, seed=72)
    mmean = float(np.mean(mterms))
    mse = float(np.std(mterms, ddof=1)) / math.sqrt(10_000)
    assert abs(mmean) <= 3.0 * mse, f"martingale mean {mmean} vs SE {mse}"

    rate_marks = MarkMeasure.from_atoms([([1.0], 1.5), ([-1.0], 0.5)])
    counts = [
        engine.sample_drivers(rate_marks, (0.0, 1.0), 2.0**-5, 73, p, d=1).jump_times.size
        for p in range(10_000)
    ]
    cmean = float(np.mean(counts))
    cse = math.sqrt(2.0 / 10_000)
    assert abs(cmean - 2.0) <= 3.0 * cse, f"jump count mean {cmean}"
    print(f"\nACCEPTANCE 5 engine-oracles: PASS "
          f"(mean err {ou_err:.2e} <= 3SE {3*se:.2e}; martingale {mmean:+.2e}; "
          f"jump-count {cmean:.4f})")


def test_engine_weak_error_monotone():
    """Supporting check: the mean error shrinks as the step halves twice."""
    no_atoms = MarkMeasure.from_atoms([], dimension=1)
    ou_aff = AffineCoefficients(B=[[-1.0]], c=[0.0], V=np.zeros((1, 1, 1)),
                                U=[[0.5]], G=np.zeros((0, 1, 1)), g=np.zeros((0, 1)))
    ou = SdeModel(CoefficientTriple.from_affine(ou_aff), no_atoms,
                  lipschitz_certificate(ou_aff, no_atoms))
    n = 100_000
    errs = []
    ses = []
    for h in (2.0**-5, 2.0**-7, 2.0**-9):
        terms = engine.sample_terminal_states(ou, [1.0], 0.0, 1.0, n, h, seed=74)
        errs.append(abs(float(np.mean(terms)) - math.exp(-1.0)))
        ses.append(float(np.std(terms, ddof=1)) / math.sqrt(n))
    assert errs[1] <= errs[0] + 3.0 * (ses[0] + ses[1])
    assert errs[2] <= errs[1] + 3.0 * (ses[1] + ses[2])
    assert errs[2] < errs[0], f"no refinement gain: {errs}"


def test_criterion_6_cone_geometry():
    """10^3 random points: idempotence, residual identity, FD gradient, a.e. Hessian."""
    rng = np.random.default_rng(61)
    checked_fd = 0
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        x = rng.uniform(-4, 4, m)
        pt = Orthant.point(x)
        assert np.array_equal(Orthant.point(pt.plus).plus, pt.plus)
        assert abs(pt.dist2 - float(np.sum((x - pt.plus) ** 2))) <= 1e-12
        if np.min(np.abs(x)) > 1e-3:
            step = 1e-5
            for i, e in enumerate(step * np.eye(m)):
                fd = (Orthant.dist2(x + e) - Orthant.dist2(x - e)) / (2 * step)
                assert abs(-2.0 * pt.minus[i] - fd) <= 1e-6
                fd2 = (Orthant.dist2(x + e) - 2.0 * pt.dist2 + Orthant.dist2(x - e)) / step**2
                assert abs(2.0 * pt.half_hess(np.eye(m)[:, i:i + 1]) - fd2) <= 1e-3
            checked_fd += 1
    assert checked_fd > 100
    print(f"\nACCEPTANCE 6 cone-geometry: PASS "
          f"(1000 points, {checked_fd} off-boundary FD gradient and Hessian checks)")


def test_criterion_7_psd_module():
    """Split identities at 1e-10; Hessian and gradient vs FD at 1e-6."""
    rng = np.random.default_rng(62)
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        A = rng.uniform(-2, 2, (m, m))
        y = 0.5 * (A + A.T)
        point = PsdCone.point(y)
        yp, ym = point.plus, point.minus
        tol = 1e-10 * (1.0 + np.linalg.norm(y))
        assert np.linalg.norm(yp - ym - y) <= tol
        assert abs(np.trace(yp @ ym)) <= tol
        assert np.linalg.eigvalsh(yp).min() >= -1e-10
        assert np.linalg.eigvalsh(ym).min() >= -1e-10

    # well-separated spectra: |lam| and pairwise gaps at least 0.3
    hess_checked = 0
    worst_hess = 0.0
    while hess_checked < 100:
        m = int(rng.integers(2, 6))
        lam = np.sort(rng.uniform(0.3, 2.0, m) * rng.choice([-1.0, 1.0], m))
        if np.min(np.abs(lam)) < 0.3 or np.min(np.diff(lam)) < 0.3:
            continue
        Araw = rng.standard_normal((m, m))
        Q, R = np.linalg.qr(Araw)
        Q = Q * np.sign(np.diag(R))
        y = (Q * lam) @ Q.T
        y = 0.5 * (y + y.T)
        H = rng.uniform(-1, 1, (m, m))
        H = 0.5 * (H + H.T)
        H /= np.linalg.norm(H)
        # 5-point central second difference: O(s^4) truncation, so a step
        # large enough to keep round-off below 1e-8 is safe (no eigenvalue
        # reaches zero under perturbations of size 2s << 0.3)
        s = 1e-3
        fd = (
            -PsdCone.point(y + 2 * s * H).dist2
            + 16.0 * PsdCone.point(y + s * H).dist2
            - 30.0 * PsdCone.point(y).dist2
            + 16.0 * PsdCone.point(y - s * H).dist2
            - PsdCone.point(y - 2 * s * H).dist2
        ) / (12.0 * s * s)
        point = PsdCone.point(y)
        assert not point.degenerate
        hess = point.hess(H)
        worst_hess = max(worst_hess, abs(hess - fd))
        assert abs(hess - fd) <= 1e-6, (hess, fd)
        hess_checked += 1

    grad_checked = 0
    worst_grad = 0.0
    while grad_checked < 100:
        m = int(rng.integers(2, 6))
        A = rng.uniform(-2, 2, (m, m))
        y = 0.5 * (A + A.T)
        if np.min(np.abs(np.linalg.eigvalsh(y))) < 1e-2:
            continue
        H = rng.uniform(-1, 1, (m, m))
        H = 0.5 * (H + H.T)
        H /= np.linalg.norm(H)
        s = 1e-5
        fd = (PsdCone.point(y + s * H).dist2 - PsdCone.point(y - s * H).dist2) / (2 * s)
        inner = float(np.trace(-2.0 * PsdCone.point(y).minus @ H))
        worst_grad = max(worst_grad, abs(inner - fd))
        assert abs(inner - fd) <= 1e-6
        grad_checked += 1
    print(f"\nACCEPTANCE 7 psd-module: PASS (1000 splits at 1e-10; "
          f"hess FD worst {worst_hess:.2e}; grad FD worst {worst_grad:.2e})")


def test_criterion_8_matrix_comparison(full_gallery):
    """PSD drift gap: zero violations; indefinite gap: every path violates."""
    reports, _ = full_gallery
    rep_pass = reports["matrix-pass"]
    assert rep_pass.mc.paths == 10_000
    assert rep_pass.mc.violation_fraction == 0.0
    rep_fail = reports["matrix-drift-fail"]
    assert rep_fail.mc.violation_fraction == 1.0
    print("\nACCEPTANCE 8 matrix-comparison: PASS "
          "(matrix-pass fraction 0, matrix-drift-fail fraction 1)")


def test_criterion_9_determinism_across_chunking(tmp_path, monkeypatch):
    """Gallery reports are byte-identical whatever the Monte Carlo chunk size."""
    paths = 4100
    args = ["gallery", "--paths", str(paths), "--step", str(2.0**-7)]
    out1 = tmp_path / "chunk2048"
    out2 = tmp_path / "chunk1000"
    monkeypatch.setattr(engine, "_CHUNK", 2048)  # chunks of 2048, 2048 and 4 paths
    code1 = main(args + ["--out", str(out1)])
    monkeypatch.setattr(engine, "_CHUNK", 1000)  # 4 chunks of 1000, then 100
    code2 = main(args + ["--out", str(out2)])
    assert code1 == code2
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert any(n.endswith(".report.json") for n in names)
    for name in names:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"{name} differs across chunk sizes"
    print(f"\nACCEPTANCE 9 determinism: PASS "
          f"({len(names)} files byte-identical across 2048- vs 1000-path chunks)")
