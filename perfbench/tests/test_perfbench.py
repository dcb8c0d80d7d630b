"""Tests of the benchmark itself: span arithmetic, the untraced path, and
exact, repeatable counters.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from jumpcompare import cli, conditions, engine  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


# ---------------------------------------------------------------------------
# span self-time arithmetic
# ---------------------------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    clk = FakeClock()
    tr = spans.Tracer(clock=clk)
    leaf = tr.wrap("c", lambda: clk.tick(0.5), kind=spans.LEAF)

    outer = tr.enter("a", record=True)
    clk.tick(1.0)
    inner = tr.enter("b", record=True)
    clk.tick(2.0)
    leaf()  # grandchild: charged to b, not to a
    tr.exit(inner)
    leaf()
    clk.tick(0.25)
    tr.exit(outer)
    clk.tick(3.0)  # covered by no span
    unrecorded = tr.enter("d")
    clk.tick(1.0)
    tr.exit(unrecorded)

    a, b, c, d = (tr.stats[n] for n in "abcd")
    assert (a.calls, a.total_s, a.self_s) == (1, 4.25, 1.25)
    assert (b.calls, b.total_s, b.self_s) == (1, 2.5, 2.0)
    assert (c.calls, c.total_s, c.self_s) == (2, 1.0, 1.0)
    assert (d.total_s, d.self_s) == (1.0, 1.0)
    assert tr.covered_s == 5.25  # roots a and d; the gap of 3.0 is unattributed
    assert [(s.name, s.start, s.end, s.parent) for s in tr.spans] == [
        ("a", 0.0, 4.25, -1), ("b", 1.0, 3.5, 0)]


def test_group_time_counts_the_outermost_frame_once():
    clk = FakeClock()
    tr = spans.Tracer(clock=clk)
    outer = tr.enter("psdcone.mc", group="mc")
    clk.tick(1.0)
    inner = tr.enter("engine.mc", group="mc")
    clk.tick(2.0)
    tr.exit(inner)
    tr.exit(outer)
    assert tr.groups["mc"] == 3.0


def test_counter_bookkeeping_is_charged_to_no_layer():
    clk = FakeClock()
    tr = spans.Tracer(clock=clk)

    def after(tracer, args, result):
        clk.tick(0.5)
        tracer.count("n", result)

    work = tr.wrap("w", lambda: clk.tick(1.0) or 7, kind=spans.LEAF, after=after)
    parent = tr.enter("p")
    work()
    tr.exit(parent)
    assert tr.counters["n"] == 7
    assert tr.stats["w"].total_s == 1.0
    assert tr.stats["p"].total_s == 1.5
    assert tr.stats["p"].self_s == 0.0
    assert tr.bookkeeping_s == 0.5


def test_spans_must_close_in_order():
    tr = spans.Tracer(clock=FakeClock())
    first = tr.enter("a")
    tr.enter("b")
    with pytest.raises(RuntimeError):
        tr.exit(first)


# ---------------------------------------------------------------------------
# the untraced run goes through no wrapper
# ---------------------------------------------------------------------------


def _attributes():
    return {(mod.__name__, attr): getattr(mod, attr) for mod, attr in spans.patch_points()}


def test_untraced_run_uses_the_original_functions():
    originals = _attributes()
    seen = []

    def probe():
        seen.append(_attributes())
        return cli.RunReport(scenario_id="probe", kind="vector", config_echo={},
                             check=conditions.Verdict.clean(1))

    scn = workloads.Scenario("probe", False, probe, False)
    tracer = spans.Tracer()
    loop = harness.Loop([scn], [scn], tracer)

    loop.run_one(scn, traced=False)
    assert all(seen[0][k] is fn for k, fn in originals.items())
    assert not tracer.spans and not tracer.stats

    loop.run_one(scn, traced=True)
    assert all(getattr(seen[1][k], "__wrapped_by_tracer__", False) for k in originals)
    assert _attributes() == originals  # restored after the traced run
    assert loop.failed == 0 and loop.attempted == 1 and loop.runs == 2


def test_wrappers_are_removed_when_the_run_raises():
    originals = _attributes()
    with pytest.raises(ZeroDivisionError):
        with spans.instrumented(spans.Tracer()):
            1 / 0
    assert _attributes() == originals


# ---------------------------------------------------------------------------
# exact, repeatable counters on a tiny workload
# ---------------------------------------------------------------------------

PATHS = 8


def _tiny_scenarios(hook=None):
    rng = workloads.input_rng(5, False, 99)
    jump = workloads._config(workloads.vector_pair_config(
        rng, "tiny-jumps", 2, 1, 2, None, mass=4.0, jump_scale=0.25, paths=PATHS,
        mc_seed=3, check_seed=4))
    matrix = next(c for c in cli.gallery_configs() if c.id == "matrix-pass")
    matrix.mc.paths = PATHS
    problem = cli.build_problem(jump)
    echo = cli.config_to_dict(jump)
    return [
        workloads.Scenario("tiny-jumps", False, workloads._full_run(jump), True),
        workloads.Scenario("tiny-matrix", False, workloads._full_run(matrix), True),
        workloads.Scenario(
            "tiny-bb", False,
            workloads._blackbox_run("tiny-bb", echo, workloads.strip_affine(problem, hook),
                                    PATHS, 3),
            True, twin=(problem, PATHS, 3)),
    ], problem


def _traced_counts():
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        scenarios, problem = _tiny_scenarios(tracer.coeff_hook)
    loop = harness.Loop(scenarios, scenarios, tracer)
    for scn in scenarios:
        loop.run_one(scn, traced=True)
    assert loop.failed == 0, loop.failures
    counts = {sid: {k: runs[0][k] for k in harness.EXACT_COUNTS}
              for sid, runs in loop.traced.items()}
    return counts, problem


def _reference_jump_counts(problem):
    """Jump events and jump-adapted sub-steps, counted segment by segment."""
    grid = engine.uniform_grid(problem.t0, problem.T, workloads.STEP)
    events = substeps = 0
    for p in range(PATHS):
        drv = engine.sample_drivers(problem.marks, problem.horizon, workloads.STEP, 3, p,
                                    d=problem.d)
        steps = {}
        for i in range(drv.n_segments):
            step = int(np.searchsorted(grid, drv.times[i + 1], side="left")) - 1
            steps.setdefault(step, []).append(drv.jump_atoms[i] >= 0)
        for flags in steps.values():
            if any(flags):
                events += sum(flags)
                substeps += len(flags)
    return events, substeps


def test_counters_are_exact_and_repeat():
    first, problem = _traced_counts()
    second, _ = _traced_counts()
    assert first == second

    n_steps = int(round(1.0 / workloads.STEP))
    events, substeps = _reference_jump_counts(problem)
    for sid in ("tiny-jumps", "tiny-bb"):
        c = first[sid]
        assert c["engine.path_steps"] == PATHS * n_steps
        assert c["engine.jump_events"] == events > 0
        assert c["engine.jump_substeps"] == substeps
        assert c["engine.chunks"] == 1
        # one statistic row per path at the start and after every step and sub-step
        assert c["engine.stat_rows"] == PATHS * (n_steps + 1) + substeps
    assert first["tiny-jumps"]["model.coeff_calls"] == 0
    assert first["tiny-bb"]["model.coeff_calls"] > 0
    matrix = first["tiny-matrix"]
    assert matrix["psdcone.spectral_stat_rows"] == PATHS * (n_steps + 1)
    assert matrix["psdcone.eval37_calls"] == matrix["check.probes"] > 0
    assert matrix["psdcone.eig_sym_calls"] >= matrix["psdcone.eval37_calls"]


# ---------------------------------------------------------------------------
# the harness prints what BENCHMARK.json declares
# ---------------------------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert list(workloads.BUILDERS) == list(run.WORKLOAD_NAMES)
