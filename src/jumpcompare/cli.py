"""Scenario configuration, the built-in gallery, batch execution, reporting.

Configs are strict JSON: unknown keys and non-finite numbers are rejected,
the scenario id must be a file name (it names the report files), and
dimensions are cross-checked (a vector config's ``m`` and ``d`` must be its
models', and every matrix offset must be m x m).  Each kind of scenario has
one schema table that gives each key, its type and, for an array, its shape
in the config's dimensions; one walker parses every block by it, and the
shape check walks it too.  A schema error names the JSON path of the value
at fault (``$.model1.B[0]``).  The parsed config keeps the JSON's shape, and
a report echoes it as stored.
Reports serialize canonically: sorted keys, shortest-round-trip floats, no
volatile fields (timing goes to stderr), so identical runs produce
byte-identical files.

Exit codes are the only cross-process verdict channel:
0 = holds / no violation found, 1 = violated (or gallery disagreement),
2 = config or usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pickle
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from . import __version__
from . import conditions, engine
from .conditions import Theorem31Report, Verdict, check_theorem31
from .model import (
    DEFAULT_LADDER,
    AffineCoefficients,
    CoefficientTriple,
    ComparisonProblem,
    MarkMeasure,
    ModelError,
    OrderError,
    SampleDomain,
    SdeModel,
    Tolerances,
    check_seed,
    lipschitz_certificate,
)
from .psdcone import (
    MatrixComparisonProblem,
    MatrixCoefficients,
    MatrixLinearMap,
    MatrixModel,
    check_theorem37,
    matrix_certificate,
    mc_matrix_comparison,
)

__all__ = [
    "ParseError",
    "SchemaError",
    "OrderError",
    "ScenarioConfig",
    "McConfig",
    "CheckConfig",
    "RunReport",
    "parse_config",
    "config_from_dict",
    "config_to_dict",
    "build_problem",
    "run_check",
    "run_simulate",
    "run_full",
    "gallery_configs",
    "run_gallery",
    "report_to_dict",
    "write_report",
    "write_paths_csv",
    "main",
]

GALLERY_IDS = (
    "corollary33-pass",
    "corollary34-pass",
    "corollary35-pass",
    "example36",
    "jump-monotone-fail",
    "drift-order-fail",
    "sigma-gap-fail",
    "sigma-coupling-fail",
    "matrix-pass",
    "matrix-drift-fail",
)

DEFAULT_PATHS = 10_000
DEFAULT_STEP = 2.0**-9
LOW_POWER_PATHS = 1_000


class ParseError(ValueError):
    """The config file is not syntactically valid JSON."""


class SchemaError(ValueError):
    """The config violates the schema (unknown key, bad shape, bad value)."""


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


# Each kind of scenario has one table of schema nodes (``_SCHEMAS``) that
# ``_walk`` parses its config by; ScenarioConfig keeps the parsed blocks in the
# config's shape, so ``config_to_dict`` echoes them as stored.  The ``mc`` and
# ``check`` blocks are the fields of McConfig and CheckConfig: each an optional
# key, parsed by the ``_FIELD_SCHEMAS`` node of its type; only Optional takes null.


@dataclass
class McConfig:
    paths: int = DEFAULT_PATHS
    step: float = DEFAULT_STEP
    seed: int = 0
    eps_path: Optional[float] = None


@dataclass
class CheckConfig:
    samples: int = SampleDomain.count
    box: float = SampleDomain.box
    ladder: List[float] = field(default_factory=lambda: list(DEFAULT_LADDER))
    seed: int = 0
    eps_check: Optional[float] = None


@dataclass
class ScenarioConfig:
    id: str
    kind: str
    m: int
    d: int
    horizon: Dict[str, float]
    marks: Dict[str, Any]
    model1: Dict[str, Any]
    model2: Dict[str, Any]
    initial: Dict[str, Any]
    mc: McConfig = field(default_factory=McConfig)
    check: CheckConfig = field(default_factory=CheckConfig)
    # (key, problem) from the last ``build_problem``; a copy by
    # dataclasses.replace keeps it, and any change to the config misses it
    _problem: Optional[tuple] = field(default=None, repr=False, compare=False)


def _expect_dict(obj: Any, path: str) -> Dict[str, Any]:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    return obj


def _take(d: Dict[str, Any], path: str, required: Sequence[str], optional: Sequence[str] = ()):
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise SchemaError(f"{path}: missing required key(s) {missing}")


def _num(v: Any, path: str) -> float:
    """A finite number.  ``json`` reads the NaN, Infinity and -Infinity
    tokens, and an integer literal too large for a float, which no field
    takes."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    try:
        out = float(v)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(f"{path}: expected a finite number, got {v!r}")
    return out


def _scenario_id(v: Any, path: str) -> str:
    """An id names the scenario's report files, so it must be a file name:
    a non-empty string, not "." or "..", with no path separator."""
    if not isinstance(v, str) or v in ("", ".", "..") or any(c in v for c in "/\\\0"):
        raise SchemaError(f"{path}: expected a file name (a non-empty string without "
                          f"'/', '\\' or NUL, not '.' or '..'), got {v!r}")
    return v


def _intval(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}: expected an integer")
    return int(v)


def _single_driver(v: Any, path: str) -> int:
    if _intval(v, path) != 1:
        raise SchemaError(f"{path}: matrix scenarios use a single Brownian driver (d = 1)")
    return 1


class _Array:
    """An array leaf: nested lists of numbers, one level per dimension name
    (``_Array("m", "d", "m")`` is a list of lists of lists).  The parser
    checks only the nesting; ``_check_shapes`` checks the lengths against
    the config's dimensions."""

    def __init__(self, *dims: str):
        self.dims = dims

    def __call__(self, v: Any, path: str, level: int = 0) -> list:
        if not isinstance(v, list):
            raise SchemaError(f"{path}: expected a list")
        if level == len(self.dims) - 1:  # numbers: not one call per number
            return [_num(x, f"{path}[{i}]") for i, x in enumerate(v)]
        return [self(x, f"{path}[{i}]", level + 1) for i, x in enumerate(v)]


def _walk(node: Any, v: Any, path: str) -> Any:
    """Parse the value ``v`` at the JSON path ``path`` by its schema node: a
    dict is an object with exactly those keys, a one-item list is a list of
    that item, and a callable (an ``_Array`` or a function) parses a leaf."""
    if isinstance(node, dict):
        _take(_expect_dict(v, path), path, required=node)
        return {k: _walk(item, v[k], f"{path}.{k}") for k, item in node.items()}
    if isinstance(node, list):
        if not isinstance(v, list):
            raise SchemaError(f"{path}: expected a list")
        (item,) = node
        return [_walk(item, x, f"{path}[{i}]") for i, x in enumerate(v)]
    return node(v, path)


# A list of objects holds one per mark atom; an array's dimension names are
# ``m``, ``d`` and the marks' ``dimension``.
_HORIZON = {"t0": _num, "T": _num}
_MARKS = {"dimension": _intval, "atoms": [{"e": _Array("dimension"), "w": _num}]}
_LINEAR_MAP = {"scale": _num, "offset": _Array("m", "m")}  # y -> scale*y + offset
_VECTOR_MODEL = {"B": _Array("m", "m"), "c": _Array("m"), "V": _Array("m", "d", "m"),
                 "U": _Array("m", "d"), "jumps": [{"G": _Array("m", "m"), "g": _Array("m")}]}
_MATRIX_MODEL = {"b": _LINEAR_MAP, "sigma": _LINEAR_MAP, "jumps": [_LINEAR_MAP]}

# every key of a scenario config but kind, id, mc and check, for each kind;
# both kinds have the same keys
_SCHEMAS = {
    "vector": {"m": _intval, "d": _intval, "horizon": _HORIZON, "marks": _MARKS,
               "model1": _VECTOR_MODEL, "model2": _VECTOR_MODEL,
               "initial": {"x1": _Array("m"), "x2": _Array("m")}},
    "matrix": {"m": _intval, "d": _single_driver, "horizon": _HORIZON, "marks": _MARKS,
               "model1": _MATRIX_MODEL, "model2": _MATRIX_MODEL,
               "initial": {"x1": _Array("m", "m"), "x2": _Array("m", "m")}},
}

# keyed by a config-block field's annotation, a string under postponed evaluation
_FIELD_SCHEMAS = {"int": _intval, "float": _num, "Optional[float]": _num,
                  "List[float]": [_num]}


def _block(cls, data: Any, path: str):
    """Parse a block of optional keys into the dataclass ``cls`` (see McConfig)."""
    block = _expect_dict(data, path)
    fields = dataclasses.fields(cls)
    _take(block, path, required=[], optional=[f.name for f in fields])
    out = cls()
    for f in fields:
        if f.name in block and not (block[f.name] is None and f.type.startswith("Optional[")):
            setattr(out, f.name, _walk(_FIELD_SCHEMAS[f.type], block[f.name], f"{path}.{f.name}"))
    return out


def config_from_dict(data: Dict[str, Any], default_id: str = "scenario") -> ScenarioConfig:
    top = _expect_dict(data, "$")
    _take(top, "$", required=["kind", *_SCHEMAS["vector"]], optional=["id", "mc", "check"])
    kind = top["kind"]
    if kind not in ("vector", "matrix"):  # a tuple, not _SCHEMAS: kind may be unhashable
        raise SchemaError("$.kind: must be 'vector' or 'matrix'")
    blocks = {k: _walk(node, top[k], f"$.{k}") for k, node in _SCHEMAS[kind].items()}
    cfg = ScenarioConfig(
        id=_scenario_id(top.get("id", default_id), "$.id"), kind=kind, **blocks,
        mc=_block(McConfig, top.get("mc", {}), "$.mc"),
        check=_block(CheckConfig, top.get("check", {}), "$.check"),
    )
    build_problem(cfg)  # surface dimension/order/weight errors now; the run reuses it
    _check_run_settings(cfg)
    return cfg


def _check_run_settings(cfg: ScenarioConfig) -> None:
    """Reject Monte Carlo settings the program cannot take as a config
    error: those outside the bounds of ``engine.mc_comparison`` and
    ``engine.uniform_grid``, seed included (``build_problem`` checks the
    check seed)."""
    check_seed(cfg.mc.seed, "$.mc.seed", SchemaError)
    if cfg.mc.paths < 1:
        raise SchemaError(f"$.mc.paths: must be >= 1, got {cfg.mc.paths}")
    span = cfg.horizon["T"] - cfg.horizon["t0"]
    if not 0.0 < cfg.mc.step <= span * (1.0 + 1e-12):
        raise SchemaError(f"$.mc.step: must lie in (0, T - t0] = (0, {span}], got {cfg.mc.step}")


def config_to_dict(cfg: ScenarioConfig) -> Dict[str, Any]:
    """The config as stored; the ``mc`` and ``check`` blocks are copied."""
    out = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name != "_problem"}
    out["mc"], out["check"] = dataclasses.asdict(cfg.mc), dataclasses.asdict(cfg.check)
    return out


def parse_config(path: str) -> ScenarioConfig:
    """Load and strictly validate a scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return config_from_dict(data, default_id=os.path.splitext(os.path.basename(path))[0])


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def _sde_model(block: Dict[str, Any], marks: MarkMeasure) -> SdeModel:
    affine = AffineCoefficients(
        B=block["B"], c=block["c"], V=block["V"], U=block["U"],
        G=[jm["G"] for jm in block["jumps"]], g=[jm["g"] for jm in block["jumps"]],
    )
    return SdeModel(CoefficientTriple.from_affine(affine), marks,
                    lipschitz_certificate(affine, marks))


def _matrix_model(block: Dict[str, Any], marks: MarkMeasure) -> MatrixModel:
    def linear(lm: Dict[str, Any]) -> MatrixLinearMap:
        return MatrixLinearMap(lm["scale"], np.array(lm["offset"]))

    coeffs = MatrixCoefficients(drift=linear(block["b"]), diffusion=linear(block["sigma"]),
                                jumps=tuple(linear(jm) for jm in block["jumps"]))
    return MatrixModel(coeffs, marks, matrix_certificate(coeffs, marks))


def _check_shapes(node: Any, v: Any, path: str, dims: Dict[str, int]) -> None:
    """Each array under ``path`` has the shape its ``_SCHEMAS`` node gives."""
    if isinstance(node, dict):
        for k, item in node.items():
            _check_shapes(item, v[k], f"{path}.{k}", dims)
    elif isinstance(node, list):
        if len(v) != dims["atoms"]:
            raise SchemaError(f"{path}: expected one entry per mark atom ({dims['atoms']}), "
                              f"got {len(v)}")
        for i, item in enumerate(v):
            _check_shapes(node[0], item, f"{path}[{i}]", dims)
    elif isinstance(node, _Array):
        want = tuple(dims[name] for name in node.dims)
        try:
            got = np.array(v, dtype=float).shape
        except ValueError:
            got = None
        if got != want:
            names = ", ".join(node.dims) + ("," if len(node.dims) == 1 else "")
            raise SchemaError(f"{path}: expected shape ({names}) = {want}, got "
                              f"{'rows of unequal length' if got is None else got}")


def _built(path: str, build, *args):
    """``build(*args)``, with a model's error as a SchemaError at ``path``."""
    try:
        return build(*args)
    except ValueError as exc:  # a ModelError
        raise SchemaError(f"{path}: {exc}") from exc


def build_problem(cfg: ScenarioConfig) -> Union[ComparisonProblem, MatrixComparisonProblem]:
    """The typed problem of ``cfg`` (see ``_build``), built once: while the
    config holds what it was built from, the problem built then is returned,
    so a parsed config runs without building it again.  The pickle of the
    config's fields is the key; it keeps every float's bits."""
    key = pickle.dumps(dataclasses.replace(cfg, _problem=None))
    if cfg._problem is None or cfg._problem[0] != key:
        cfg._problem = (key, _build(cfg))
    return cfg._problem[1]


def _build(cfg: ScenarioConfig) -> Union[ComparisonProblem, MatrixComparisonProblem]:
    """Instantiate the typed problem.  Every array must have the shape that
    ``m``, ``d`` and the marks give it; an error building the marks or a
    model names its JSON path, and the problem's own errors surface as
    SchemaError too (except ordering, which keeps its own type)."""
    dims = {"m": cfg.m, "d": cfg.d, "dimension": cfg.marks["dimension"]}
    for name, path in (("m", "$.m"), ("d", "$.d"), ("dimension", "$.marks.dimension")):
        if dims[name] < 1:
            raise SchemaError(f"{path}: must be >= 1, got {dims[name]}")
    _check_shapes(_SCHEMAS[cfg.kind], vars(cfg), "$", dict(dims, atoms=len(cfg.marks["atoms"])))
    marks = _built("$.marks", MarkMeasure.from_atoms,
                   [(a["e"], a["w"]) for a in cfg.marks["atoms"]], cfg.marks["dimension"])
    if cfg.kind == "vector":
        problem_type, model = ComparisonProblem, _sde_model
    else:
        problem_type, model = MatrixComparisonProblem, _matrix_model
    try:
        return problem_type(
            model1=_built("$.model1", model, cfg.model1, marks),
            model2=_built("$.model2", model, cfg.model2, marks),
            t0=cfg.horizon["t0"], T=cfg.horizon["T"],
            x1=np.array(cfg.initial["x1"], dtype=float),
            x2=np.array(cfg.initial["x2"], dtype=float),
            sampling=SampleDomain(
                box=cfg.check.box, count=cfg.check.samples, ladder=tuple(cfg.check.ladder),
                seed=check_seed(cfg.check.seed, "$.check.seed", SchemaError)),
            tolerances=Tolerances(eps_check=cfg.check.eps_check, eps_path=cfg.mc.eps_path),
        )
    except OrderError:
        raise
    except ValueError as exc:  # a ModelError
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    scenario_id: str
    kind: str
    config_echo: Dict[str, Any]
    check: Optional[Union[Theorem31Report, Verdict]] = None
    mc: Optional[engine.McReport] = None
    agreement: Optional[bool] = None
    low_power: bool = False
    wall_clock_s: float = 0.0
    tool_version: str = __version__

    @property
    def check_violated(self) -> Optional[bool]:
        if self.check is None:
            return None
        if isinstance(self.check, Theorem31Report):
            return self.check.overall == conditions.VIOLATED
        return self.check.status == conditions.VIOLATED


def _section(v: Any) -> Any:
    """A report section as JSON values: a dataclass is a dict of its fields
    (an McReport's per-path records left out: they go to the CSV, and a
    verdict's ``degenerate_skipped`` where it is 0), a tuple a list.  Not
    ``dataclasses.asdict``, which deep-copies the records."""
    if isinstance(v, tuple):
        return [_section(x) for x in v]
    if dataclasses.is_dataclass(v):
        return {f.name: _section(getattr(v, f.name)) for f in dataclasses.fields(v)
                if f.name != "per_path"
                and not (f.name == "degenerate_skipped" and v.degenerate_skipped == 0)}
    return v


def report_to_dict(report: RunReport) -> Dict[str, Any]:
    """Canonical (timing-free) report payload; byte-stable across reruns."""
    check = report.check
    return {
        "schema": "jumpcompare.report.v1",
        "tool_version": report.tool_version,
        "scenario": report.config_echo,
        "agreement": report.agreement,
        "low_power": report.low_power,
        "check": {"verdict": _section(check)} if isinstance(check, Verdict) else _section(check),
        "mc": _section(report.mc),
    }


def _atomic_write(path: str, payload: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def write_report(report: RunReport, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{report.scenario_id}.report.json")
    payload = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    _atomic_write(path, payload)
    return path


def _fmt17(x: float) -> str:
    return format(x, ".17g")


def write_paths_csv(path: str, records: engine.PathRecords) -> None:
    """Per-path CSV: '.' decimal, ',' separator, LF endings, mandatory header,
    floats at 17 significant digits for bit-faithful reproduction."""
    lines = ["path_id,violation_max,first_violation_time,failed"]
    n = records.violation.shape[0]
    for p in range(n):
        viol = records.violation[p]
        ft = records.first_violation_time[p]
        lines.append(
            ",".join(
                [
                    str(p),
                    _fmt17(float(viol)) if math.isfinite(viol) else "nan",
                    _fmt17(float(ft)) if math.isfinite(ft) else "",
                    "1" if records.failed[p] else "0",
                ]
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _run(cfg: ScenarioConfig, check: bool, mc: bool, keep_paths: bool = False) -> RunReport:
    """The one run body: build the problem once, run the checker and/or the
    Monte Carlo, and flag agreement when both ran."""
    start = time.perf_counter()
    problem = build_problem(cfg)
    report = RunReport(scenario_id=cfg.id, kind=cfg.kind, config_echo=config_to_dict(cfg))
    vector = cfg.kind == "vector"
    if check:
        report.check = (check_theorem31 if vector else check_theorem37)(problem)
    if mc:
        simulate = engine.mc_comparison if vector else mc_matrix_comparison
        report.mc = simulate(problem, cfg.mc.paths, cfg.mc.step, cfg.mc.seed,
                             keep_paths=keep_paths)
        report.low_power = cfg.mc.paths < LOW_POWER_PATHS
        if check:
            report.agreement = report.check_violated == (report.mc.violating > 0)
    report.wall_clock_s = time.perf_counter() - start
    return report


def run_check(cfg: ScenarioConfig) -> RunReport:
    return _run(cfg, check=True, mc=False)


def run_simulate(cfg: ScenarioConfig, keep_paths: bool = False) -> RunReport:
    return _run(cfg, check=False, mc=True, keep_paths=keep_paths)


def run_full(cfg: ScenarioConfig, keep_paths: bool = False) -> RunReport:
    """Checker plus simulation plus the agreement flag between them."""
    return _run(cfg, check=True, mc=True, keep_paths=keep_paths)


# ---------------------------------------------------------------------------
# the gallery
# ---------------------------------------------------------------------------


def _gallery_cfg(kind: str, scenario_id: str, atoms, model1, model2, x1, x2,
                 mc_seed: int, check_seed: int) -> ScenarioConfig:
    """A built-in scenario on [0, 1] with one Brownian driver and scalar
    marks.  A vector model is (B, c, V, U, jumps); a matrix model is the
    (scale, offset) pairs of b and sigma, without jumps."""
    def model(values) -> Dict[str, Any]:
        if kind == "vector":
            return dict(zip(("B", "c", "V", "U", "jumps"), values))
        (b_scale, b_off), (s_scale, s_off) = values
        return {"b": {"scale": b_scale, "offset": b_off},
                "sigma": {"scale": s_scale, "offset": s_off}, "jumps": []}

    return ScenarioConfig(
        id=scenario_id, kind=kind, m=len(x1), d=1, horizon={"t0": 0.0, "T": 1.0},
        marks={"dimension": 1, "atoms": atoms}, model1=model(model1), model2=model(model2),
        initial={"x1": x1, "x2": x2}, mc=McConfig(seed=mc_seed),
        check=CheckConfig(seed=check_seed),
    )


def gallery_configs() -> List[ScenarioConfig]:
    """The built-in scenario set (everything ships in code, no data files)."""
    one_atom = [{"e": [1.0], "w": 1.0}]
    zeros = [[0.0, 0.0], [0.0, 0.0]]
    out = [
        # ordered jump maps with distinct constants; compensated drifts ordered
        _gallery_cfg(
            "vector", "corollary33-pass", one_atom,
            ([[-0.2]], [0.5], [[[0.3]]], [[0.1]], [{"G": [[-0.5]], "g": [0.4]}]),
            ([[-0.2]], [0.1], [[[0.3]]], [[0.1]], [{"G": [[-0.5]], "g": [0.1]}]),
            [1.0], [0.5], mc_seed=101, check_seed=11,
        ),
        # shared jump coefficient, plain drift order
        _gallery_cfg(
            "vector", "corollary34-pass", one_atom,
            ([[-0.3]], [0.6], [[[0.25]]], [[0.05]], [{"G": [[0.2]], "g": [0.1]}]),
            ([[-0.3]], [0.2], [[[0.25]]], [[0.05]], [{"G": [[0.2]], "g": [0.1]}]),
            [0.7], [0.2], mc_seed=102, check_seed=12,
        ),
        # diffusion-only comparison
        _gallery_cfg(
            "vector", "corollary35-pass", [],
            ([[-0.5]], [1.0], [[[0.4]]], [[0.1]], []),
            ([[-0.5]], [0.3], [[[0.4]]], [[0.1]], []),
            [0.8], [0.8], mc_seed=103, check_seed=13,
        ),
        # pure-jump pair with unequal jump amplitudes but ordered post-jump
        # maps; drift equals the mark integral of gamma, so the net drift vanishes
        _gallery_cfg(
            "vector", "example36", one_atom,
            ([[0.5]], [0.8], [[[0.0]]], [[0.0]], [{"G": [[0.5]], "g": [0.8]}]),
            ([[0.5]], [0.2], [[[0.0]]], [[0.0]], [{"G": [[0.5]], "g": [0.2]}]),
            [0.5], [0.0], mc_seed=104, check_seed=14,
        ),
        # post-jump map reverses order: own-coordinate coefficient 1 + G < 0
        _gallery_cfg(
            "vector", "jump-monotone-fail", one_atom,
            ([[0.0]], [0.0], [[[0.0]]], [[0.2]], [{"G": [[-1.6]], "g": [0.0]}]),
            ([[0.0]], [0.0], [[[0.0]]], [[0.2]], [{"G": [[-1.6]], "g": [0.0]}]),
            [1.0], [0.2], mc_seed=105, check_seed=15,
        ),
        # strongly negative off-diagonal drift coupling breaks quasimonotonicity
        _gallery_cfg(
            "vector", "drift-order-fail", [],
            ([[-0.2, -2.0], [0.1, -0.3]], [0.0, 0.0], [[[0.0, 0.0]], [[0.0, 0.0]]],
             [[0.2], [0.2]], []),
            ([[-0.2, -2.0], [0.1, -0.3]], [0.0, 0.0], [[[0.0, 0.0]], [[0.0, 0.0]]],
             [[0.2], [0.2]], []),
            [0.5, 1.0], [0.5, 0.0], mc_seed=106, check_seed=16,
        ),
        # constant diffusion gap between the two models
        _gallery_cfg(
            "vector", "sigma-gap-fail", [],
            ([[0.0]], [0.0], [[[0.0]]], [[1.2]], []),
            ([[0.0]], [0.0], [[[0.0]]], [[0.2]], []),
            [0.2], [0.2], mc_seed=107, check_seed=17,
        ),
        # shared diffusion, but row 1 couples to coordinate 2
        _gallery_cfg(
            "vector", "sigma-coupling-fail", [],
            ([[-0.1, 0.0], [0.0, -0.1]], [0.05, 0.05], [[[0.0, 2.0]], [[0.0, 0.0]]],
             [[0.0], [0.0]], []),
            ([[-0.1, 0.0], [0.0, -0.1]], [0.0, 0.0], [[[0.0, 2.0]], [[0.0, 0.0]]],
             [[0.0], [0.0]], []),
            [1.0, 1.0], [1.0, 0.0], mc_seed=108, check_seed=18,
        ),
        # PSD drift gap, shared scalar-linear diffusion
        _gallery_cfg(
            "matrix", "matrix-pass", [],
            ((0.5, [[0.4, 0.0], [0.0, 0.4]]), (0.4, zeros)),
            ((0.5, zeros), (0.4, zeros)),
            [[1.2, 0.2], [0.2, 0.8]], [[0.4, 0.0], [0.0, 0.2]], mc_seed=109, check_seed=19,
        ),
        # indefinite drift gap; constant shared diffusion keeps the difference
        # deterministic, so every path violates
        _gallery_cfg(
            "matrix", "matrix-drift-fail", [],
            ((0.5, [[2.0, 0.0], [0.0, -2.0]]), (0.0, [[0.3, 0.1], [0.1, 0.2]])),
            ((0.5, zeros), (0.0, [[0.3, 0.1], [0.1, 0.2]])),
            [[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]], mc_seed=110, check_seed=20,
        ),
    ]
    assert tuple(c.id for c in out) == GALLERY_IDS
    return out


def _with_overrides(cfg: ScenarioConfig, paths: Optional[int] = None,
                    step: Optional[float] = None, seed: Optional[int] = None) -> ScenarioConfig:
    """A copy of ``cfg`` with the Monte Carlo settings that are given; ``seed``
    sets both seeds.  Settings the engine cannot run are a SchemaError."""
    mc = {k: v for k, v in (("paths", paths), ("step", step), ("seed", seed)) if v is not None}
    check = {} if seed is None else {"seed": seed}
    cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, **mc),
                              check=dataclasses.replace(cfg.check, **check))
    _check_run_settings(cfg)
    return cfg


def run_gallery(
    *, smoke: bool = False, paths: Optional[int] = None, step: Optional[float] = None,
    seed: Optional[int] = None, keep_paths: bool = False,
) -> List[RunReport]:
    """Execute the built-in scenario set; every report should agree between
    checker and simulation (attention-needed otherwise).  ``smoke`` presets
    10 paths and step 2^-5; given values win over the preset."""
    if smoke:
        paths = 10 if paths is None else paths
        step = 2.0**-5 if step is None else step
    return [run_full(_with_overrides(cfg, paths, step, seed), keep_paths=keep_paths)
            for cfg in gallery_configs()]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _emit(report: RunReport, out_dir: Optional[str]) -> None:
    """Print the report, or write it to ``out_dir`` with its per-path CSV
    when the run kept per-path records."""
    if out_dir:
        path = write_report(report, out_dir)
        print(f"report written to {path}", file=sys.stderr)
        if report.mc is not None and report.mc.per_path is not None:
            csv_path = os.path.join(out_dir, f"{report.scenario_id}.paths.csv")
            write_paths_csv(csv_path, report.mc.per_path)
            print(f"per-path CSV written to {csv_path}", file=sys.stderr)
    else:
        print(json.dumps(report_to_dict(report), sort_keys=True, indent=2))
    print(f"[{report.scenario_id}] wall clock {report.wall_clock_s:.3f}s", file=sys.stderr)


def _verdict_exit_code(report: RunReport) -> int:
    if report.check is not None:
        return 1 if report.check_violated else 0
    if report.mc is not None:
        return 1 if report.mc.violating > 0 else 0
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="jumpcompare",
        description="Check and empirically validate comparison conditions for "
                    "jump-diffusion systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("config", help="scenario config file (strict JSON)")
        p.add_argument("--seed", type=int, default=None, help="override all seeds")
        p.add_argument("--paths", type=int, default=None, help="override MC path count")
        p.add_argument("--step", type=float, default=None, help="override MC step size")
        p.add_argument("--out", type=str, default=None, help="report output directory")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="with --out, also write per-path CSVs when 'csv'")

    add_common(sub.add_parser("check", help="run the condition checker"))
    add_common(sub.add_parser("simulate", help="run the coupled Monte Carlo"))
    g = sub.add_parser("gallery", help="run the built-in scenario set")
    add_common(g, needs_config=False)
    g.add_argument("--smoke", action="store_true", help="tiny run for wiring checks")

    args = parser.parse_args(argv)
    keep_paths = args.format == "csv" and args.out is not None

    try:
        if args.command == "gallery":
            reports = run_gallery(
                smoke=args.smoke, paths=args.paths, step=args.step, seed=args.seed,
                keep_paths=keep_paths,
            )
            summary = []
            for rep in reports:
                _emit(rep, args.out)
                summary.append({
                    "id": rep.scenario_id,
                    "check_violated": rep.check_violated,
                    "violation_fraction": rep.mc.violation_fraction if rep.mc else None,
                    "agreement": rep.agreement,
                    "low_power": rep.low_power,
                })
            if args.out:
                payload = json.dumps({"schema": "jumpcompare.gallery.v1",
                                      "tool_version": __version__,
                                      "scenarios": summary},
                                     sort_keys=True, indent=2) + "\n"
                _atomic_write(os.path.join(args.out, "gallery-summary.json"), payload)
            disagreements = [s["id"] for s in summary if s["agreement"] is False]
            if disagreements:
                print(f"ATTENTION NEEDED: disagreement in {disagreements}", file=sys.stderr)
                return 1
            return 0

        cfg = _with_overrides(parse_config(args.config), args.paths, args.step, args.seed)
        if args.command == "check":
            report = run_check(cfg)
        else:  # simulate; argparse admits no other command
            report = run_simulate(cfg, keep_paths=keep_paths)
        _emit(report, args.out)
        return _verdict_exit_code(report)
    except (ParseError, SchemaError, OrderError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
