"""Seeded inputs for the four benchmark workloads and the scenario runs.

Every workload is a fixed list of scenarios whose *structure* (dimensions,
atom counts, failure kinds, path counts, step) does not depend on the seed;
the seed only draws the numbers.  That keeps the work per scenario nearly
constant across seeds, so throughput figures from different seeds compare.

Vector pairs follow the construction of ``tests/suitegen.py``: a passing
pair satisfies the condition battery by construction, and a failing pair
mutates exactly one ingredient by a margin drawn from [0.6, 1.5).  Pairs are
never filtered or re-drawn after the fact, so whatever the checker and the
simulation make of them is what the correctness gate sees.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# the package's functions are looked up on their modules at call time, so the
# traced run's wrappers see every call
from jumpcompare import cli, conditions, engine, psdcone
from jumpcompare.model import CoefficientTriple, ComparisonProblem, SdeModel

STEP = 2.0**-9  # the gallery default; every workload with MC uses it
GALLERY_PATHS = 2048  # one engine chunk per scenario
JUMP_DENSE_PATHS = 256
JUMP_DENSE_MASS = 16.0
BLACKBOX_PATHS = 64
CHECK_SAMPLES = 384  # probe budget of tests/suitegen.py

FAIL_KINDS = (
    "sigma-gap",
    "sigma-coupling",   # needs m >= 2
    "jump-row-gap",     # needs an atom
    "jump-own-coef",    # needs an atom
    "jump-cross-coef",  # needs an atom and m >= 2
    "jump-const-gap",   # needs an atom
    "drift-offdiag",    # needs m >= 2
    "drift-row-gap",
    "drift-const-gap",
)

# salt of the held-out input stream: no --seed value reaches these inputs
HOLDOUT_SALT = 0x401D


def input_rng(seed: int, holdout: bool, *words: int) -> np.random.Generator:
    """Generator for one input item, keyed by the workload seed."""
    key = [int(seed), HOLDOUT_SALT if holdout else 0, *words]
    return np.random.default_rng(np.random.SeedSequence(key))


# ---------------------------------------------------------------------------
# vector pairs (as in tests/suitegen.py)
# ---------------------------------------------------------------------------


def feasible_kinds(m: int, n_atoms: int) -> List[str]:
    out = []
    for kind in FAIL_KINDS:
        if kind in ("sigma-coupling", "jump-cross-coef", "drift-offdiag") and m < 2:
            continue
        if kind.startswith("jump") and n_atoms < 1:
            continue
        out.append(kind)
    return out


def _atoms(rng: np.random.Generator, n: int, mass: Optional[float]) -> List[dict]:
    es, ws = [], []
    for _ in range(n):
        e = rng.uniform(-1.0, 1.0)
        while e == 0.0:
            e = rng.uniform(-1.0, 1.0)
        es.append(float(e))
        ws.append(float(rng.uniform(0.1, 1.5)))
    if mass is not None and n:
        total = sum(ws)
        ws = [w * mass / total for w in ws]
    return [{"e": [e], "w": w} for e, w in zip(es, ws)]


def vector_pair_config(
    rng: np.random.Generator, scenario_id: str, m: int, d: int, n_atoms: int,
    kind: Optional[str], *, mass: Optional[float] = None, jump_scale: float = 1.0,
    paths: int = 1, mc_seed: int = 0, check_seed: int = 0,
) -> dict:
    """Config dict of one affine pair; ``kind`` None means passing.

    ``jump_scale`` shrinks the jump linear parts so that a pair with a large
    total mark mass does not explode; the failing mutations keep their
    margins, so a failing pair stays decisively failing.
    """
    atoms = _atoms(rng, n_atoms, mass)
    w = np.array([a["w"] for a in atoms])
    V = np.zeros((m, d, m))
    for k in range(m):
        V[k, :, k] = rng.uniform(-0.6, 0.6, d)
    U = rng.uniform(-0.5, 0.5, (m, d))
    G = rng.uniform(0.0, 0.5, (n_atoms, m, m))
    for j in range(n_atoms):
        G[j][np.arange(m), np.arange(m)] = rng.uniform(-0.9, 0.5, m)
    G *= jump_scale
    g2 = rng.uniform(-0.5, 0.5, (n_atoms, m))
    g1 = g2 + rng.uniform(0.0, 0.8, (n_atoms, m))
    M = rng.uniform(0.0, 0.6, (m, m))
    M[np.arange(m), np.arange(m)] = rng.uniform(-0.8, 0.5, m)
    d2 = rng.uniform(-0.5, 0.5, m)
    d1 = d2 + rng.uniform(0.0, 0.8, m)
    U1, U2, G1, G2, M1, M2 = U.copy(), U.copy(), G.copy(), G.copy(), M.copy(), M.copy()

    if kind is not None:
        mag = float(rng.uniform(0.6, 1.5))
        k = int(rng.integers(0, m))
        if kind == "sigma-gap":
            U1[k, int(rng.integers(0, d))] += mag
        elif kind == "sigma-coupling":
            j = int(rng.integers(0, m - 1))
            V[k, int(rng.integers(0, d)), j if j < k else j + 1] = mag
        elif kind == "jump-row-gap":
            G1[int(rng.integers(0, n_atoms))][k, int(rng.integers(0, m))] += mag
        elif kind == "jump-own-coef":
            j = int(rng.integers(0, n_atoms))
            G1[j][k, k] = G2[j][k, k] = -1.0 - mag
        elif kind == "jump-cross-coef":
            j = int(rng.integers(0, n_atoms))
            i = int(rng.integers(0, m - 1))
            i = i if i < k else i + 1
            G1[j][k, i] = G2[j][k, i] = -mag
        elif kind == "jump-const-gap":
            j = int(rng.integers(0, n_atoms))
            g1[j][k] = g2[j][k] - mag
        elif kind == "drift-offdiag":
            i = int(rng.integers(0, m - 1))
            i = i if i < k else i + 1
            M1[k, i] = M2[k, i] = -mag
        elif kind == "drift-row-gap":
            M1[k, int(rng.integers(0, m))] += mag
        elif kind == "drift-const-gap":
            d1[k] = d2[k] - mag
        else:
            raise ValueError(f"unknown failure kind {kind!r}")

    def model(Mx, dx, Ux, Gx, gx) -> dict:
        # the config carries the raw drift; the compensator is added back
        B = Mx + np.einsum("j,jab->ab", w, Gx) if n_atoms else Mx
        c = dx + w @ gx if n_atoms else dx
        return {
            "B": B.tolist(), "c": c.tolist(), "V": V.tolist(), "U": Ux.tolist(),
            "jumps": [{"G": Gx[j].tolist(), "g": gx[j].tolist()} for j in range(n_atoms)],
        }

    x2 = rng.uniform(-1.0, 1.0, m)
    x1 = x2 + rng.uniform(0.0, 1.0, m)
    return {
        "id": scenario_id, "kind": "vector", "m": m, "d": d,
        "horizon": {"t0": 0.0, "T": 1.0},
        "marks": {"dimension": 1, "atoms": atoms},
        "model1": model(M1, d1, U1, G1, g1),
        "model2": model(M2, d2, U2, G2, g2),
        "initial": {"x1": x1.tolist(), "x2": x2.tolist()},
        "mc": {"paths": paths, "step": STEP, "seed": mc_seed, "eps_path": None},
        "check": {"samples": CHECK_SAMPLES, "box": 8.0,
                  "ladder": [1e-6, 1e-4, 1e-2, 1e-1, 1.0], "seed": check_seed,
                  "eps_check": None},
    }


# ---------------------------------------------------------------------------
# matrix pairs
# ---------------------------------------------------------------------------


def _sym(rng: np.random.Generator, m: int, scale: float) -> np.ndarray:
    A = rng.uniform(-scale, scale, (m, m))
    return 0.5 * (A + A.T)


def _psd(rng: np.random.Generator, m: int, lo: float, hi: float) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (Q * rng.uniform(lo, hi, m)) @ Q.T


def matrix_pair_config(
    rng: np.random.Generator, scenario_id: str, m: int, failing: bool, check_seed: int,
) -> dict:
    """Scalar-linear matrix pair: shared scales and diffusion offset, and a
    drift-offset gap that is PSD (passing) or has one eigenvalue at most
    -0.5 (failing)."""
    b_scale = float(rng.uniform(-0.5, 0.5))
    s_scale = float(rng.uniform(0.0, 0.5))
    s_off = _sym(rng, m, 0.3)
    off2 = _sym(rng, m, 0.5)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    gaps = rng.uniform(0.1, 1.0, m)
    if failing:
        gaps[int(rng.integers(0, m))] = -float(rng.uniform(0.5, 1.5))
    off1 = off2 + (Q * gaps) @ Q.T
    x2 = _sym(rng, m, 1.0)
    x1 = x2 + _psd(rng, m, 0.0, 1.0)

    def sym_list(a: np.ndarray) -> list:
        return (0.5 * (a + a.T)).tolist()

    def model(off: np.ndarray) -> dict:
        return {"b": {"scale": b_scale, "offset": sym_list(off)},
                "sigma": {"scale": s_scale, "offset": sym_list(s_off)}, "jumps": []}

    return {
        "id": scenario_id, "kind": "matrix", "m": m, "d": 1,
        "horizon": {"t0": 0.0, "T": 1.0},
        "marks": {"dimension": 1, "atoms": []},
        "model1": model(off1), "model2": model(off2),
        "initial": {"x1": sym_list(x1), "x2": sym_list(x2)},
        "mc": {"paths": 1, "step": STEP, "seed": 0, "eps_path": None},
        "check": {"samples": 512, "box": 10.0,
                  "ladder": [1e-6, 1e-4, 1e-2, 1e-1, 1.0], "seed": check_seed,
                  "eps_check": None},
    }


# ---------------------------------------------------------------------------
# black-box coefficients
# ---------------------------------------------------------------------------

CoeffHook = Callable[[Callable], Callable]


def strip_affine(problem: ComparisonProblem, hook: Optional[CoeffHook] = None) -> ComparisonProblem:
    """The same problem with the affine attachment removed, so checks sample
    and the engine evaluates coefficients row by row.  ``hook`` wraps each
    supplied callable (the traced run uses it to time coefficient calls)."""
    hook = hook or (lambda fn: fn)

    def wrap(model: SdeModel) -> SdeModel:
        aff = model.coefficients.affine
        triple = CoefficientTriple(
            m=model.m, d=model.d, drift=hook(aff.drift), diffusion=hook(aff.diffusion),
            jump=hook(aff.jump), affine=None,
        )
        return SdeModel(coefficients=triple, marks=model.marks, budget=model.budget)

    return ComparisonProblem(
        model1=wrap(problem.model1), model2=wrap(problem.model2),
        t0=problem.t0, T=problem.T, x1=problem.x1, x2=problem.x2,
        sampling=problem.sampling, tolerances=problem.tolerances,
        ordering=problem.ordering,
    )


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def canonical_report(report: cli.RunReport) -> str:
    """The bytes ``jumpcompare`` writes for a report."""
    return json.dumps(cli.report_to_dict(report), sort_keys=True, indent=2) + "\n"


@dataclass
class Scenario:
    """One scenario run: ``run`` does the program's work and returns the
    report; ``expect_violated`` is the verdict the construction (or the
    gallery's documentation) fixes; ``twin`` is the affine problem whose MC
    report a black-box run must reproduce."""

    id: str
    expect_violated: bool
    run: Callable[[], cli.RunReport]
    has_mc: bool
    twin: Optional[Tuple[ComparisonProblem, int, int]] = None


def _config(data: dict) -> cli.ScenarioConfig:
    """Parse a generated config through its serialized form, as a user's
    config file would be."""
    return cli.config_from_dict(json.loads(json.dumps(data)))


def _full_run(cfg: cli.ScenarioConfig) -> Callable[[], cli.RunReport]:
    return lambda: cli.run_full(cfg)


def _check_run(scenario_id: str, kind: str, echo: dict, problem) -> Callable[[], cli.RunReport]:
    def run() -> cli.RunReport:
        if kind == "vector":
            check = conditions.check_theorem31(problem)
        else:
            check = psdcone.check_theorem37(problem)
        return cli.RunReport(scenario_id=scenario_id, kind=kind, config_echo=echo,
                             check=check)

    return run


def _blackbox_run(scenario_id: str, echo: dict, problem: ComparisonProblem,
                  paths: int, mc_seed: int) -> Callable[[], cli.RunReport]:
    def run() -> cli.RunReport:
        report = cli.RunReport(
            scenario_id=scenario_id, kind="vector", config_echo=echo,
            check=conditions.check_theorem31(problem),
            mc=engine.mc_comparison(problem, paths, STEP, mc_seed),
            low_power=paths < cli.LOW_POWER_PATHS,
        )
        # the agreement rule of cli.run_full, which takes configs only
        report.agreement = report.check_violated == (report.mc.violating > 0)
        return report

    return run


def gallery(seed: int, holdout: bool, hook: Optional[CoeffHook] = None) -> List[Scenario]:
    """The ten built-in scenarios, seeded as ``run_gallery(seed=...)`` seeds
    them, at ``GALLERY_PATHS`` paths and the default step."""
    run_seed = int(input_rng(seed, holdout).integers(0, 2**31)) if holdout else seed
    out = []
    for cfg in cli.gallery_configs():
        cfg = dataclasses.replace(
            cfg, mc=dataclasses.replace(cfg.mc, paths=GALLERY_PATHS, seed=run_seed),
            check=dataclasses.replace(cfg.check, seed=run_seed),
        )
        cfg = _config(cli.config_to_dict(cfg))
        out.append(Scenario(cfg.id, cfg.id.endswith("-fail"), _full_run(cfg), True))
    return out


# jump-dense: m = 3, d = 2, total mark mass 16; two passing pairs and one
# pair per jump failure kind plus two non-jump kinds
JUMP_DENSE_KINDS = (None, None, "jump-row-gap", "jump-own-coef", "jump-cross-coef",
                    "jump-const-gap", "drift-row-gap", "sigma-gap")


def jump_dense(seed: int, holdout: bool, hook: Optional[CoeffHook] = None) -> List[Scenario]:
    out = []
    for i, kind in enumerate(JUMP_DENSE_KINDS):
        rng = input_rng(seed, holdout, 1, i)
        sid = f"jd{i}-{kind or 'pass'}"
        data = vector_pair_config(
            rng, sid, 3, 2, 2 + i % 3, kind, mass=JUMP_DENSE_MASS, jump_scale=0.25,
            paths=JUMP_DENSE_PATHS, mc_seed=int(rng.integers(0, 2**31)),
            check_seed=int(rng.integers(0, 2**31)),
        )
        out.append(Scenario(sid, kind is not None, _full_run(_config(data)), True))
    return out


def checker_sweep(seed: int, holdout: bool, hook: Optional[CoeffHook] = None) -> List[Scenario]:
    """Per m = 1..4: a passing pair and one pair per feasible failure kind,
    with 0-3 atoms cycled (at least one where the kind needs it); each
    affine pair is followed by its black-box twin; then matrix pairs with
    m = 2..4, passing and failing."""
    out = []
    for m in range(1, 5):
        kinds = [None] + feasible_kinds(m, 1)
        for i, kind in enumerate(kinds):
            n_atoms = i % 4
            if kind is not None and kind.startswith("jump"):
                n_atoms = max(n_atoms, 1)
            rng = input_rng(seed, holdout, 2, m, i)
            sid = f"cs-m{m}-{i}-{kind or 'pass'}"
            data = vector_pair_config(rng, sid, m, 1 + i % 2, n_atoms, kind,
                                      check_seed=int(rng.integers(0, 2**31)))
            cfg = _config(data)
            problem = cli.build_problem(cfg)
            echo = cli.config_to_dict(cfg)
            out.append(Scenario(sid, kind is not None,
                                _check_run(sid, "vector", echo, problem), False))
            bb = strip_affine(problem, hook)
            out.append(Scenario(sid + "-bb", kind is not None,
                                _check_run(sid + "-bb", "vector", echo, bb), False))
    for m in range(2, 5):
        for failing in (False, True):
            rng = input_rng(seed, holdout, 3, m, int(failing))
            sid = f"cs-matrix-m{m}-{'fail' if failing else 'pass'}"
            cfg = _config(matrix_pair_config(rng, sid, m, failing,
                                             int(rng.integers(0, 2**31))))
            problem = cli.build_problem(cfg)
            out.append(Scenario(sid, failing,
                                _check_run(sid, "matrix", cli.config_to_dict(cfg), problem),
                                False))
    return out


def blackbox(seed: int, holdout: bool, hook: Optional[CoeffHook] = None) -> List[Scenario]:
    """A passing jump-dense pair and the gallery's no-jump
    ``sigma-coupling-fail`` pair, both with the affine attachment stripped."""
    rng = input_rng(seed, holdout, 4)
    mc_seed = int(rng.integers(0, 2**31))
    jd = _config(vector_pair_config(
        rng, "bb-jump-dense-pass", 3, 2, 3, None, mass=JUMP_DENSE_MASS, jump_scale=0.25,
        paths=BLACKBOX_PATHS, mc_seed=mc_seed, check_seed=int(rng.integers(0, 2**31)),
    ))
    gal = next(c for c in cli.gallery_configs() if c.id == "sigma-coupling-fail")
    gal = _config(cli.config_to_dict(dataclasses.replace(
        gal, mc=dataclasses.replace(gal.mc, paths=BLACKBOX_PATHS, seed=mc_seed),
        check=dataclasses.replace(gal.check, seed=mc_seed),
    )))
    out = []
    for cfg, failing in ((jd, False), (gal, True)):
        problem = cli.build_problem(cfg)
        sid = cfg.id + "-bb"
        echo = cli.config_to_dict(cfg)
        out.append(Scenario(
            sid, failing,
            _blackbox_run(sid, echo, strip_affine(problem, hook), cfg.mc.paths, cfg.mc.seed),
            True, twin=(problem, cfg.mc.paths, cfg.mc.seed),
        ))
    return out


BUILDERS: Dict[str, Callable[..., List[Scenario]]] = {
    "gallery": gallery,
    "jump-dense": jump_dense,
    "checker-sweep": checker_sweep,
    "blackbox": blackbox,
}


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gate(scn: Scenario, report: cli.RunReport,
         twin_mc: Optional[engine.McReport]) -> List[Tuple[str, bool]]:
    """Why this run failed, as (reason, wrong output) pairs; empty when it
    passed.  A disagreement between checker and simulation is a failed run
    but not a wrong output: the program reports it as attention-needed."""
    out = []
    if report.check_violated != scn.expect_violated:
        found = "violated" if not scn.expect_violated else "clean"
        out.append((f"checker verdict {found}, construction says otherwise", True))
    if scn.has_mc and report.agreement is not True:
        out.append(("checker and simulation disagree", False))
    if twin_mc is not None:
        mc = report.mc
        same_counts = (mc.violating, mc.failed, mc.paths) == (
            twin_mc.violating, twin_mc.failed, twin_mc.paths)
        scale = max(abs(twin_mc.max_violation), 1e-300)
        if not same_counts or abs(mc.max_violation - twin_mc.max_violation) > 1e-9 * scale:
            out.append(("black-box MC report differs from its affine twin", True))
    return out
