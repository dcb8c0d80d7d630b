"""Black-box coefficients: plain callables with no affine form attached.

Three black-box pairs have their Monte Carlo reports (every per-path record
included), their check reports and the number of coefficient calls each run
makes pinned: a change to the black-box row path that moves one bit or
adds or drops one call fails here.  The other tests cover the outputs a
block evaluation must accept or reject, and the row evaluators against
single-point evaluation.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpcompare.cli import RunReport, report_to_dict
from jumpcompare.conditions import _norms, check_theorem31
from jumpcompare.engine import mc_comparison, sample_drivers, uniform_grid
from jumpcompare.model import (
    AffineCoefficients,
    CoefficientTriple,
    ComparisonProblem,
    MarkMeasure,
    SdeModel,
    lipschitz_certificate,
)

from oracles import VariantPreconditionError, _jump_sup, _larger_norm, check_corollary_1d
from suitegen import dense_jump_problem, random_problem, sized_problem, strip_affine


class CallCounter:
    """A ``strip_affine`` hook that counts the calls of the callables it wraps."""

    def __init__(self):
        self.calls = 0

    def __call__(self, fn):
        def counted(*args):
            self.calls += 1
            return fn(*args)

        return counted


def output_hook(change):
    """A hook that passes each output through ``change(x, out)``."""
    return lambda fn: lambda t, x, *j: change(x, fn(t, x, *j))


def exploding_problem() -> ComparisonProblem:
    """x -> 1e80 x on a jump, so a path with four or more jumps overflows
    and counts as failed; B cancels the compensator of G."""
    marks = MarkMeasure.from_atoms([([1.0], 2.5)])
    G, g = 1e80 * np.eye(2)[None], np.array([[0.2, -0.1]])
    B = 2.5 * G[0] + [[-0.3, 0.1], [0.05, -0.2]]
    models = []
    for c in ([0.4, 0.1], [0.2, 0.3]):
        aff = AffineCoefficients(B=B, c=c, V=np.zeros((2, 1, 2)), U=[[0.3], [0.2]], G=G, g=g)
        models.append(SdeModel(CoefficientTriple.from_affine(aff), marks,
                               lipschitz_certificate(aff, marks)))
    return ComparisonProblem(model1=models[0], model2=models[1], t0=0.0, T=1.0,
                             x1=np.array([0.5, 0.5]), x2=np.array([0.0, 0.2]))


# name: (affine problem, paths, step, seed)
MC_CASES = {
    "dense-jump": (lambda: dense_jump_problem(8, kind="jump-row-gap"), 48, 2.0**-4, 5),
    "no-jump": (lambda: random_problem(21, failing=True, m=2, zero_gamma=True)[0],
                64, 2.0**-5, 3),
    "exploding": (exploding_problem, 64, 2.0**-5, 3),
}

# name: (MC report sha256, MC calls, check report sha256, check calls)
PINNED = {
    "dense-jump": ("78275cba28e7924c83b2ef65ec4eb3ca8a524fcfb53f4510b211383a25b32f3d", 16426,
                   "76d326ef7894ad5e3127fa88c80ee02d4b0573eabfd57e7458fba620eee0b285", 8906),
    "no-jump": ("8c0e07edc46675baed8397e99c1a9d7295044138823db562c24209085295ed98", 8196,
                "35b7145e1af64854c9a88e547df97e2e3a8f46712e0951eaba607454b298452b", 3310),
    "exploding": ("1d15b1698352ddce883515fc6d284954edb044e19105130669aee23d77185eb8", 13478,
                  "8f967f73b6c4e0a7cb9e1e81675a9ca02fc163046945ef134a0d8bd1511b62dc", 6398),
}


def mc_sha256(rep) -> str:
    """sha256 of the canonical MC report, then of every per-path array."""
    report = RunReport(scenario_id="mc", kind="vector", config_echo={}, mc=rep)
    digest = hashlib.sha256(
        (json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n").encode())
    for arr in (rep.per_path.violation, rep.per_path.first_violation_time, rep.per_path.failed):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def check_sha256(check) -> str:
    report = RunReport(scenario_id="check", kind="vector", config_echo={}, check=check)
    text = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(name, hook=None):
    """The case's MC and check reports through ``hook``, each with the number
    of coefficient calls it made."""
    build, paths, h, seed = MC_CASES[name]
    counter = CallCounter()
    problem = strip_affine(build(), lambda fn: counter(hook(fn) if hook else fn))
    mc = mc_comparison(problem, paths, h, seed, keep_paths=True)
    mc_calls, counter.calls = counter.calls, 0
    check = check_theorem31(problem)
    return mc, mc_calls, check, counter.calls


class TestPinnedRuns:
    @pytest.mark.parametrize("name", sorted(MC_CASES))
    def test_reports_and_calls_are_pinned(self, name):
        mc, mc_calls, check, check_calls = run_case(name)
        assert (mc_sha256(mc), mc_calls, check_sha256(check), check_calls) == PINNED[name]

    def test_cases_cover_what_they_name(self):
        build, paths, h, seed = MC_CASES["dense-jump"]
        problem = build()
        grid = uniform_grid(problem.t0, problem.T, h)
        steps = [np.searchsorted(grid, sample_drivers(
            problem.marks, problem.horizon, h, seed, p, d=problem.d).jump_times) - 1
            for p in range(paths)]
        # some path has two or more jumps in one step, so rounds r >= 2 run
        assert max(np.bincount(s).max(initial=0) for s in steps) >= 2
        assert MC_CASES["no-jump"][0]().marks.n_atoms == 0
        mc = run_case("exploding")[0]
        assert 0 < mc.failed < mc.paths


# variant: random_problem keywords; each runs on the black-box twins of the
# one-dimensional pairs with seeds 7000..7005, passing and failing in turn
COROLLARY_CASES = {"3.3": {}, "3.4": {"shared_gamma": True}, "3.5": {"zero_gamma": True}}

# variant: (sha256 of the verdicts' reports, coefficient calls)
PINNED_COROLLARY = {
    "3.3": ("5b5164f2f0c6de72557f974ab80442ce62e777368f0edd7d1948453bcdb74a17", 10184),
    "3.4": ("bb058638e998191305b1c533926d60a7aefd2544565d97f350a1f8eefae247f5", 7604),
    "3.5": ("c27d047a9aa6f10892b0a3185d9277e17b188d089e6dd174ecd821fe46e1e787", 3576),
}


def corollary_run(variant):
    counter = CallCounter()
    digest = hashlib.sha256()
    for seed in range(7000, 7006):
        problem, _ = random_problem(seed, failing=seed % 2 == 1, m=1,
                                    **COROLLARY_CASES[variant])
        verdict = check_corollary_1d(strip_affine(problem, counter), variant)
        digest.update(check_sha256(verdict).encode())
    return digest.hexdigest(), counter.calls


@pytest.mark.parametrize("variant", sorted(COROLLARY_CASES))
def test_corollary_reports_and_calls_are_pinned(variant):
    assert corollary_run(variant) == PINNED_COROLLARY[variant]


def jump_sup_reference(problem, rng, size, n=64):
    """``oracles._jump_sup`` a point at a time, with single-point calls."""
    c1, c2 = problem.model1.coefficients, problem.model2.coefficients
    box, worst = problem.sampling.box, 0.0
    for _ in range(n):
        x = rng.uniform(-box, box, problem.m)
        t = float(rng.uniform(problem.t0, problem.T))
        for j in range(problem.marks.n_atoms):
            if problem.marks.weights[j] > 0.0:
                worst = max(worst, float(size(c1.gamma(t, x, j), c2.gamma(t, x, j))))
    return worst


def nan_jumps(problem, nan_in):
    """``problem`` stripped of its affine blocks, with the jumps of model
    ``nan_in`` (1, 2, or None for neither) NaN for |x| > 2."""
    nan_affine = {1: problem.model1, 2: problem.model2}.get(nan_in)
    nan_affine = nan_affine.coefficients.affine if nan_affine else None

    def hook(fn):
        if getattr(fn, "__self__", None) is not nan_affine or fn.__name__ != "jump":
            return fn
        return lambda t, x, j: np.full(1, np.nan) if abs(x[0]) > 2.0 else fn(t, x, j)

    return strip_affine(problem, hook)


@pytest.mark.parametrize("nan_in", [None, 1, 2])
def test_jump_sup_matches_a_point_at_a_time(nan_in):
    """The sampled sup of the one-dimensional variants; NaN jumps of one
    model at part of the box make it NaN, and the precondition fails."""
    problem = nan_jumps(random_problem(7011, failing=True, m=1, kind="jump-row-gap")[0],
                        nan_in)
    sizes = [
        (lambda g1, g2: np.linalg.norm(g1 - g2), lambda g1, g2: _norms(g1 - g2)),
        (lambda g1, g2: max(np.linalg.norm(g1), np.linalg.norm(g2)), _larger_norm),
    ]
    for reference_size, size in sizes:
        got = _jump_sup(problem, np.random.default_rng(5), size)
        if nan_in is None:
            want = jump_sup_reference(problem, np.random.default_rng(5), reference_size)
            assert want > 0.0
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        else:
            assert np.isnan(got)
    if nan_in is not None:
        for variant in ("3.4", "3.5"):
            with pytest.raises(VariantPreconditionError):
                check_corollary_1d(problem, variant)


def zero_jump_pair():
    """An m = 1 pair with one atom and zero jumps, which meets the jump
    preconditions of variants 3.4 and 3.5."""
    marks = MarkMeasure.from_atoms([([1.0], 1.0)])
    models = []
    for c in (0.5, 0.1):
        aff = AffineCoefficients(B=[[-0.2]], c=[c], V=[[[0.3]]], U=[[0.1]],
                                 G=[[[0.0]]], g=[[0.0]])
        models.append(SdeModel(CoefficientTriple.from_affine(aff), marks,
                               lipschitz_certificate(aff, marks)))
    return ComparisonProblem(model1=models[0], model2=models[1], t0=0.0, T=1.0,
                             x1=np.array([1.0]), x2=np.array([0.5]))


@pytest.mark.parametrize("variant", ["3.4", "3.5"])
@pytest.mark.parametrize("nan_in", [None, 1, 2])
def test_nan_jumps_fail_the_variant_precondition(nan_in, variant):
    problem = nan_jumps(zero_jump_pair(), nan_in)
    if nan_in is None:
        assert check_corollary_1d(problem, variant).status == "no-violation-found"
    else:
        with pytest.raises(VariantPreconditionError, match=f"variant {variant} requires"):
            check_corollary_1d(problem, variant)


class CoefficientFault(Exception):
    """Raised inside a coefficient callable."""


class TestMalformedCallables:
    """What a callable can get wrong at a row that model validation (one
    probe at x = 0, t = 0) never evaluates."""

    @staticmethod
    def _problem(hook):
        return strip_affine(sized_problem(2203, 2, 2, 1), hook)

    def test_wrong_size_raises_value_error(self):
        hook = output_hook(lambda x, out: np.append(out, 0.0) if x[0] > 1.0 else out)
        problem = self._problem(hook)
        with pytest.raises(ValueError, match="reshape"):
            mc_comparison(problem, 64, 2.0**-5, 3)
        with pytest.raises(ValueError, match="reshape"):
            check_theorem31(problem)

    def test_wrong_size_inside_a_block_raises(self):
        triple = self._problem(None).model1.coefficients
        bad = output_hook(lambda x, out: np.append(out, 0.0) if x[0] > 1.0 else out)
        bad_triple = CoefficientTriple(m=2, d=2, drift=bad(triple.drift),
                                       diffusion=bad(triple.diffusion), jump=bad(triple.jump))
        X = np.zeros((5, 2))
        X[2, 0] = 2.0
        for rows in (lambda c: c.b_rows(0.0, X), lambda c: c.sigma_rows(0.0, X),
                     lambda c: c.gamma_rows(0.0, X, 0)):
            rows(triple)
            with pytest.raises(ValueError, match="reshape"):
                rows(bad_triple)

    @pytest.mark.parametrize("field, name", [
        ("drift", "drift"), ("diffusion", "diffusion"), ("jump", r"jump \(atom 0\)"),
    ])
    def test_wrong_size_names_the_coefficient_and_the_row(self, field, name):
        triple = self._problem(None).model1.coefficients
        parts = {f: getattr(triple, f) for f in ("drift", "diffusion", "jump")}
        parts[field] = output_hook(
            lambda x, out: np.append(out, 0.0) if x[0] > 1.0 else out)(parts[field])
        bad_triple = CoefficientTriple(m=2, d=2, **parts)
        X = np.zeros((5, 2))
        X[2, 0] = 2.0
        t = np.array([0.0, 0.125, 0.25, 0.375, 0.5])
        rows = {"drift": lambda: bad_triple.b_rows(t, X),
                "diffusion": lambda: bad_triple.sigma_rows(t, X),
                "jump": lambda: bad_triple.gamma_rows(t, X, 0)}
        with pytest.raises(ValueError,
                           match=rf"^{name} at t = 0.25, x = \[2.0, 0.0\]: cannot reshape"):
            rows[field]()

    def test_wrong_size_drift_of_a_run_is_named(self):
        """An m = 1 drift that returns two values above x = 1.2."""
        def hook(fn):
            if fn.__name__ != "drift":
                return fn
            return lambda t, x: np.append(fn(t, x), 0.0) if x[0] > 1.2 else fn(t, x)

        problem = strip_affine(sized_problem(2204, 1, 1, 1), hook)
        with pytest.raises(ValueError, match=r"^drift at t = .*, x = \[.*\]: .*reshape"):
            mc_comparison(problem, 64, 2.0**-5, 3)

    def test_mixed_output_shapes_give_the_same_numbers(self):
        def reshape(x, out):
            return out.reshape((1,) + out.shape) if x[0] > 0.0 else out

        for name in ("dense-jump", "exploding"):
            mc, mc_calls, check, check_calls = run_case(name, output_hook(reshape))
            assert (mc_sha256(mc), mc_calls, check_sha256(check), check_calls) == PINNED[name]

    def test_exception_keeps_its_type(self):
        def fault(x, out):
            if x[0] > 0.5:
                raise CoefficientFault(x)
            return out

        problem = self._problem(output_hook(fault))
        with pytest.raises(CoefficientFault):
            mc_comparison(problem, 64, 2.0**-5, 3)
        with pytest.raises(CoefficientFault):
            check_theorem31(problem)

    def test_nan_output_fails_the_path_and_is_no_witness(self):
        def nan_above(x, out):
            return np.full_like(out, np.nan) if x[0] > 0.7 else out

        problem = self._problem(output_hook(nan_above))
        mc = mc_comparison(problem, 64, 2.0**-5, 3, keep_paths=True)
        assert 0 < mc.failed < mc.paths
        assert np.isnan(mc.per_path.violation[mc.per_path.failed]).all()

        clean = check_theorem31(self._problem(None))
        check = check_theorem31(problem)
        assert clean.overall == check.overall != "violated"
        parts = lambda r: [r.sigma_equal, *r.cond_a, *r.cond_b, *r.cond_c, r.ii_prime]
        for got, want in zip(parts(check), parts(clean)):
            assert got.samples_used == want.samples_used > 0
            assert got.witnesses == ()


# ---------------------------------------------------------------------------
# row evaluators against single points
# ---------------------------------------------------------------------------


def random_triple(rng, m, d, n_atoms, shape):
    """Nonlinear black-box coefficients in t, x and the atom; ``shape``
    picks the outputs: "flat" ((m,) and (m, d)), "nested" ((1, m) and
    (m * d,)), "mixed" (one or the other by the sign of x[0]) or "list"."""
    A, c = rng.standard_normal((m, m)), rng.standard_normal(m)
    V = rng.standard_normal((m * d, m))
    G = rng.standard_normal((n_atoms, m, m))

    def out(x, flat, nested):
        if shape == "list":
            return flat.tolist()
        if shape == "nested" or (shape == "mixed" and x[0] > 0.0):
            return nested
        return flat

    def drift(t, x):
        v = np.tanh(A @ x) * (1.0 + t) + c
        return out(x, v, v[None])

    def diffusion(t, x):
        v = np.cos(V @ x + t)
        return out(x, v.reshape(m, d), v)

    def jump(t, x, j):
        v = G[j] @ np.sin(x) + t * j
        return out(x, v, v[None])

    return CoefficientTriple(m=m, d=d, drift=drift, diffusion=diffusion, jump=jump)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 4),
    d=st.integers(1, 3),
    rows=st.integers(1, 9),
    per_row_t=st.booleans(),
    per_row_atom=st.booleans(),
    shape=st.sampled_from(["flat", "nested", "mixed", "list"]),
)
def test_rows_are_single_points_bit_for_bit(seed, m, d, rows, per_row_t, per_row_atom, shape):
    rng = np.random.default_rng(seed)
    n_atoms = 3
    triple = random_triple(rng, m, d, n_atoms, shape)
    X = rng.uniform(-4.0, 4.0, (rows, m))
    t = rng.uniform(0.0, 2.0, rows) if per_row_t else float(rng.uniform(0.0, 2.0))
    j = rng.integers(0, n_atoms, rows) if per_row_atom else int(rng.integers(0, n_atoms))
    ts = np.broadcast_to(t, (rows,)).tolist()
    js = np.broadcast_to(j, (rows,)).tolist()

    b = np.stack([triple.b(ti, x) for ti, x in zip(ts, X)])
    sigma = np.stack([triple.sigma(ti, x) for ti, x in zip(ts, X)])
    gamma = np.stack([triple.gamma(ti, x, ji) for ti, x, ji in zip(ts, X, js)])
    assert triple.b_rows(t, X).tobytes() == b.tobytes()
    assert triple.sigma_rows(t, X).tobytes() == sigma.tobytes()
    assert triple.gamma_rows(t, X, j).tobytes() == gamma.tobytes()
    assert triple.b_rows(t, X).shape == (rows, m)
    assert triple.sigma_rows(t, X).shape == (rows, m, d)
