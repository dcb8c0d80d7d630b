"""The closed loop: scenario runs, the correctness gate, and the metrics.

One scenario runs at a time, the next starting when the previous one has
returned; there are no extra threads or processes.  The timed region of a
run is the program's work only: the check and/or Monte Carlo run, then
serialising the canonical report.  The gate (verdict, agreement, black-box
twin, report hash) runs after the timed region.

The gate is kept per scenario: ``attempted`` counts the scenarios that ran,
``failed`` those with at least one failed run.  Every pass runs the same
inputs, so counting runs instead would tie both numbers to how many passes
fit in the time, not to the program.

Figures are per pass: each scenario contributes the median of its runs, and
the medians are summed over the workload's scenarios.  Times are in
reference seconds (see ``calib``); ``wall.scenarios_per_s`` keeps wall time.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import calib
import workloads
from spans import Tracer, instrumented

# per-layer metric -> unit; the names and units of BENCHMARK.json's per_layer
LAYER_UNITS = {
    "mc_paths_per_s": "paths/s",
    "check_probes_per_s": "probes/s",
    "error_rate": "ratio",
    "engine.drivers_s": "s",
    "engine.drivers_paths_per_s": "paths/s",
    "engine.mc_self_s": "s",
    "engine.path_steps": "count",
    "engine.path_steps_per_s": "steps/s",
    "engine.jump_events": "count",
    "engine.jump_substeps": "count",
    "engine.jump_events_per_s": "events/s",
    "engine.stat_s": "s",
    "engine.stat_rows": "count",
    "engine.failed_paths": "count",
    "engine.chunks": "count",
    "psdcone.spectral_stat_s": "s",
    "psdcone.spectral_stat_rows": "count",
    "psdcone.check37_s": "s",
    "psdcone.eval37_calls": "count",
    "psdcone.eig_sym_calls": "count",
    "psdcone.eig_sym_s": "s",
    "psdcone.degenerate_probes": "count",
    "conditions.sigma_equal_s": "s",
    "conditions.cond_a_s": "s",
    "conditions.cond_b_s": "s",
    "conditions.cond_c_s": "s",
    "conditions.ii_prime_s": "s",
    "conditions.ii_prime_probes": "count",
    "conditions.witnesses": "count",
    "model.build_s": "s",
    "model.coeff_calls": "count",
    "model.coeff_s": "s",
    "cli.serialize_s": "s",
    "cli.parse_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "wall.scenarios_per_s": "1/s",
}

# measure of a traced run -> (tracer stat, field) it is read from
_STAT_FIELDS = {
    "engine.drivers_s": ("engine.sample_drivers", "total_s"),
    "engine.stat_s": ("engine.componentwise_stat", "total_s"),
    "engine.chunks": ("engine.run_chunk", "calls"),
    "psdcone.spectral_stat_s": ("psdcone.spectral_stat", "total_s"),
    "psdcone.check37_s": ("psdcone.check_theorem37", "total_s"),
    "psdcone.eval37_calls": ("psdcone.eval_theorem37", "calls"),
    "psdcone.eig_sym_calls": ("psdcone.eig_sym", "calls"),
    "psdcone.eig_sym_s": ("psdcone.eig_sym", "total_s"),
    "conditions.sigma_equal_s": ("conditions.sigma_equal", "total_s"),
    "conditions.cond_a_s": ("conditions.cond_a", "total_s"),
    "conditions.cond_b_s": ("conditions.cond_b", "total_s"),
    "conditions.cond_c_s": ("conditions.cond_c", "total_s"),
    "conditions.ii_prime_s": ("conditions.ii_prime", "total_s"),
    "model.coeff_calls": ("model.coeff", "calls"),
    "model.coeff_s": ("model.coeff", "total_s"),
    "cli.serialize_s": ("cli.serialize", "total_s"),
}

# counters kept exactly as the tracer counted them
_COUNTERS = ("mc.paths", "check.probes", "engine.driver_paths", "engine.path_steps",
             "engine.jump_events", "engine.jump_substeps", "engine.stat_rows",
             "engine.failed_paths", "psdcone.spectral_stat_rows",
             "psdcone.degenerate_probes", "conditions.ii_prime_probes",
             "conditions.witnesses")

EXACT_COUNTS = _COUNTERS + ("engine.chunks", "psdcone.eval37_calls", "psdcone.eig_sym_calls",
                            "model.coeff_calls")


def run_measures(tr: Tracer, wall: float, speed: float) -> Dict[str, float]:
    """What one traced scenario run recorded; times (keys ending in ``_s``)
    in reference seconds."""
    out: Dict[str, float] = {"wall_s": wall}
    for key, (name, field) in _STAT_FIELDS.items():
        out[key] = getattr(tr.stats[name], field) if name in tr.stats else 0
    for key in _COUNTERS:
        out[key] = tr.counters.get(key, 0)
    mc_self = [tr.stats[n].self_s for n in ("engine.mc_comparison", "engine.run_chunk")
               if n in tr.stats]
    out["engine.mc_self_s"] = sum(mc_self)
    out["mc_s"] = tr.groups.get("mc", 0.0)
    out["check_s"] = tr.groups.get("check", 0.0)
    out["unattributed_s"] = wall - tr.covered_s + tr.bookkeeping_s
    return {k: v * speed if k.endswith("_s") else v for k, v in out.items()}


def load_hashes(path: str) -> Dict[str, Dict[str, str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class Loop:
    """Runs a workload's scenarios in passes and gates every run.

    With a tracer, untraced and traced passes alternate over the same inputs,
    so the traced figures and the tracing overhead come from one process.
    """

    def __init__(self, scenarios: List[workloads.Scenario],
                 traced_scenarios: Optional[List[workloads.Scenario]] = None,
                 tracer: Optional[Tracer] = None,
                 known_hashes: Optional[Dict[str, str]] = None):
        self.scenarios = scenarios
        self.traced_scenarios = traced_scenarios
        self.tracer = tracer
        self.hashes: Dict[str, str] = dict(known_hashes or {})
        # untraced runs: (wall seconds, reference seconds per wall second)
        self.untraced: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.traced: Dict[str, List[Dict[str, float]]] = defaultdict(list)
        self.twins: Dict[str, object] = {}
        self.runs = self.incorrect = 0
        self.ran: set = set()
        self.failed_ids: set = set()
        self.failures: List[dict] = []
        self.passes = 0

    def run(self, seconds: float) -> None:
        modes = (False, True) if self.tracer is not None else (False,)
        finished = set()
        start = time.perf_counter()
        while True:
            traced = modes[self.passes % len(modes)]
            complete = True
            for scn in (self.traced_scenarios if traced else self.scenarios):
                if traced in finished and time.perf_counter() - start >= seconds:
                    complete = False
                    break
                self.run_one(scn, traced)
            if complete:
                finished.add(traced)
            self.passes += 1
            if len(finished) == len(modes) and time.perf_counter() - start >= seconds:
                return

    @property
    def attempted(self) -> int:
        return len(self.ran)

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def run_one(self, scn: workloads.Scenario, traced: bool) -> None:
        self.runs += 1
        self.ran.add(scn.id)
        tr = self.tracer if traced else None
        if tr is not None:
            tr.reset()
            tr.tag = f"{scn.id}#{self.passes}"
        failures: List[tuple] = []
        before = calib.speed_factor()
        with instrumented(tr) if tr is not None else contextlib.nullcontext():
            try:
                t0 = time.perf_counter()
                report = scn.run()
                if tr is not None:
                    with tr.span("cli.serialize"):
                        text = workloads.canonical_report(report)
                else:
                    text = workloads.canonical_report(report)
                wall = time.perf_counter() - t0
            except Exception as exc:  # a failed run is counted, the loop goes on
                traceback.print_exc(file=sys.stderr)
                report = None
                failures.append((f"raised {type(exc).__name__}: {exc}", False))
        if report is not None:
            # the box's speed across the run: the mean of the factors either side
            speed = 0.5 * (before + calib.speed_factor())
            if tr is not None:
                runs = self.traced[scn.id]
                runs.append(run_measures(tr, wall, speed))
                failures += [(f"counter {k} differs between runs", True)
                             for k in EXACT_COUNTS if runs[-1][k] != runs[0][k]]
            else:
                self.untraced[scn.id].append((wall, speed))
            failures += workloads.gate(scn, report, self._twin(scn))
            digest = workloads.sha256(text)
            if self.hashes.setdefault(scn.id, digest) != digest:
                failures.append(("canonical report differs between runs", True))
        if failures:
            self.failed_ids.add(scn.id)
            self.incorrect += any(wrong for _, wrong in failures)
            self.failures.append({"scenario": scn.id, "pass": self.passes,
                                  "reasons": [r for r, _ in failures]})

    def pass_seconds(self, calibrated: bool = True) -> float:
        """One pass of the untraced runs: the sum over scenarios of each
        scenario's median run time, in reference or in wall seconds."""
        return sum(statistics.median(w * f if calibrated else w for w, f in runs)
                   for runs in self.untraced.values())

    def _twin(self, scn: workloads.Scenario):
        if scn.twin is None:
            return None
        if scn.id not in self.twins:
            problem, paths, seed = scn.twin
            self.twins[scn.id] = workloads.engine.mc_comparison(
                problem, paths, workloads.STEP, seed)
        return self.twins[scn.id]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(loop: Loop, setup: Dict[str, float]) -> Dict[str, dict]:
    """Per-layer metrics of the traced passes, with their units."""
    keys = next(iter(loop.traced.values()))[0].keys()
    tot = {k: sum(statistics.median(r[k] for r in runs) for runs in loop.traced.values())
           for k in keys}
    values = {k: tot[k] for k in LAYER_UNITS if k in tot}
    values.update(setup)
    values.update({
        "mc_paths_per_s": _ratio(tot["mc.paths"], tot["mc_s"]),
        "check_probes_per_s": _ratio(tot["check.probes"], tot["check_s"]),
        "error_rate": loop.failed / loop.attempted,
        "engine.drivers_paths_per_s": _ratio(tot["engine.driver_paths"],
                                             tot["engine.drivers_s"]),
        "engine.path_steps_per_s": _ratio(tot["engine.path_steps"], tot["engine.mc_self_s"]),
        "engine.jump_events_per_s": _ratio(tot["engine.jump_events"],
                                           tot["engine.mc_self_s"]),
        "trace.unattributed_frac": _ratio(tot["unattributed_s"], tot["wall_s"]),
        "trace.overhead_frac": _ratio(tot["wall_s"], loop.pass_seconds()) - 1.0,
        "wall.scenarios_per_s": _ratio(len(loop.untraced), loop.pass_seconds(False)),
    })
    for k in EXACT_COUNTS:
        if k in values:
            values[k] = int(values[k])
    return {k: {"value": values[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS}
