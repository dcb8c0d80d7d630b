"""jumpcompare benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload gallery --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root; the package is imported from ``./src`` and
nowhere else.  A run builds the workload's scenarios from the seed, then runs
them one after the other in passes until ``--seconds`` have gone by (the
first pass always completes), applies the correctness gate to every scenario
run, and prints one JSON object as the last line of standard output:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Details, the environment fingerprint and the spans of a traced run go to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("gallery", "jump-dense", "checker-sweep", "blackbox")
SETUP_REPEATS = 7
TRACED_SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import jumpcompare.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {"scenarios_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Set for the whole run by re-executing the interpreter once.  The string-hash
# salt is per process and moves dict and set layout, hence run time, between
# otherwise identical runs.  glibc raises its mmap threshold as large blocks
# are freed, so whether an 8 MB array comes back to the system depends on the
# order of earlier frees; a fixed threshold (glibc's initial one) makes the
# peak resident set repeat.
PINNED_ENV = {"PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": "131072"}


def _parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout-seed", type=int, default=None,
                    help="draw the inputs from the held-out stream keyed by this seed "
                         "(no --seed value reaches it), to confirm a claim on inputs "
                         "not used while writing the change")
    return ap.parse_args(argv)


def _import_package():
    """Import ``jumpcompare`` from ``./src`` only; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "jumpcompare", "__init__.py")):
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, SRC)
    import jumpcompare

    where = os.path.dirname(os.path.abspath(jumpcompare.__file__))
    if where != os.path.join(SRC, "jumpcompare"):
        raise SystemExit(f"perfbench: jumpcompare imported from {where}, not {SRC}")


def _import_seconds() -> float:
    """Package import time in a fresh interpreter (what a user pays)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace) -> dict:
    # these import jumpcompare, so they load once ./src is on the path
    import calib
    import envinfo
    import harness
    import workloads
    from spans import Tracer, instrumented

    holdout = args.holdout_seed is not None
    seed = args.holdout_seed if holdout else args.seed
    build = workloads.BUILDERS[args.workload]

    # Set-up is calibrated by the start-up probe taken either side of it, not
    # by the kernel (see calib).
    probes = [calib.startup_seconds()]
    setups = []
    for _ in range(SETUP_REPEATS):
        imp = _import_seconds()
        t = time.perf_counter()
        scenarios = build(seed, holdout)
        wall = imp + time.perf_counter() - t
        probes.append(calib.startup_seconds())
        speed = 0.5 * sum(calib.REF_STARTUP_S / p for p in probes[-2:])
        setups.append(wall * speed)

    tracer = traced_scenarios = None
    setup_layers: Dict[str, List[float]] = defaultdict(list)
    if args.trace:
        tracer = Tracer()
        for _ in range(TRACED_SETUP_REPEATS):
            tracer.reset()
            tracer.tag = "setup"
            with instrumented(tracer):
                traced_scenarios = build(seed, holdout, tracer.coeff_hook)
            setup_layers["model.build_s"].append(tracer.stats["model.build"].total_s)
            setup_layers["cli.parse_s"].append(tracer.stats["cli.parse"].self_s)

    # canonical report hashes from earlier runs of the same program, the same
    # benchmark and the same inputs
    hash_file = os.path.join(OUT_DIR, "report-hashes.json")
    known = harness.load_hashes(hash_file)
    key = "/".join([envinfo.source_digest(os.path.join(SRC, "jumpcompare")),
                    envinfo.source_digest(BENCH_DIR), args.workload, str(seed),
                    str(int(holdout))])
    loop = harness.Loop(scenarios, traced_scenarios, tracer, known.get(key))
    loop.run(args.seconds)
    if not loop.untraced or (args.trace and not loop.traced):
        raise SystemExit("perfbench: no scenario run completed")
    known[key] = loop.hashes
    os.makedirs(OUT_DIR, exist_ok=True)
    _write_json(hash_file, known)

    if args.trace:
        metrics = harness.layer_metrics(loop, {k: statistics.median(v)
                                               for k, v in setup_layers.items()})
    else:
        values = {
            "scenarios_per_s": len(loop.untraced) / loop.pass_seconds(),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    result = {
        "correct": loop.incorrect == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "holdout_seed": args.holdout_seed,
        "seconds": args.seconds, "trace": args.trace, "result": result,
        "error_rate": loop.failed / loop.attempted,
        "setup_samples_s": setups,
        "startup_probe_s": probes,
        "wall_scenarios_per_s": len(loop.untraced) / loop.pass_seconds(calibrated=False),
        "passes": loop.passes,
        "scenario_runs": loop.runs,
        "failures": loop.failures,
        "environment": envinfo.fingerprint(ROOT, SRC),
    }
    stem = f"{args.workload}-seed{seed}{'-holdout' if holdout else ''}-trace{args.trace}"
    _write_json(os.path.join(OUT_DIR, f"result-{stem}.json"), detail)
    if tracer is not None:
        _write_json(os.path.join(OUT_DIR, f"spans-{stem}.json"),
                    {"spans": [vars(s) for s in tracer.spans]})
    _report(detail)
    return result


def _write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _report(detail: dict) -> None:
    res = detail["result"]
    err = sys.stderr
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"passes {detail['passes']}", file=err)
    for name, m in sorted(res["metrics"].items()):
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=err)
    print(f"  wall-clock scenarios_per_s {detail['wall_scenarios_per_s']:.6g} 1/s", file=err)
    print(f"  error_rate {detail['error_rate']:.4f} ratio "
          f"({res['failed']} of {res['attempted']} scenarios failed, "
          f"over {detail['scenario_runs']} runs)", file=err)
    for f in detail["failures"][:20]:
        print(f"  FAILED {f['scenario']} (pass {f['pass']}): {'; '.join(f['reasons'])}",
              file=err)
    env = detail["environment"]
    print("  environment " + json.dumps(env, sort_keys=True), file=err)


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.holdout_seed is not None:
            cmd += ["--holdout-seed", str(args.holdout_seed)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        for metric, m in sorted(res["metrics"].items()):
            print(f"{name:14s} {metric:32s} {m['value']:.6g} {m['unit']}")
        print(f"{name:14s} {'error_rate':32s} {res['failed'] / res['attempted']:.6g} ratio")
    print(json.dumps({"workloads": results}, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if not args.seconds > 0:
        raise SystemExit("perfbench: --seconds must be positive")
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, **PINNED_ENV))
    os.environ.pop("JUMPCOMPARE_THREADS", None)
    if args.workload == "all":
        return _run_all(args)
    _import_package()
    result = run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
