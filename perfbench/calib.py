"""Machine-speed calibration for the benchmark's time metrics.

On a shared VM the speed of the same code can drift by up to about 30%
over tens of seconds.  Frequency and contention from neighbours do that; the
program does not.  So just before and just after every timed run the
benchmark times ``kernel()``: a fixed piece of work in the program's own mix
(small-array numpy steps, a chunk-sized array step, per-row Python calls)
that uses no ``jumpcompare`` code.  A run's wall time is then expressed in
reference seconds:

    reference seconds = wall seconds * mean of REF_KERNEL_S / kernel time

A program change moves the run time but not the kernel, so it shows in full;
drift moves both and cancels.  ``REF_KERNEL_S`` is the kernel's time at the
reference speed, about what the box does when it runs fast, so reference
seconds read close to wall seconds there.

Set-up is calibrated differently.  Most of it is the package import in a
fresh interpreter, which the kernel does not track, so set-up is divided by
``startup_seconds()``: a fresh interpreter that imports numpy and no
``jumpcompare`` code.  ``REF_STARTUP_S`` is that probe's time when the box
runs fast.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REF_KERNEL_S = 0.002
REF_STARTUP_S = 0.12
STARTUP_PROBE = "import numpy"

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((64, 3))
_CHUNK = _rng.standard_normal((1024, 3))
_M = _rng.standard_normal((3, 3)) * 0.01
_C = _rng.standard_normal(3)


def _row(t: float, x: np.ndarray) -> np.ndarray:
    return np.asarray(_M @ x + _C * t, dtype=float).reshape(3)


def kernel() -> float:
    acc = 0.0
    X = _SMALL.copy()
    for i in range(40):
        X = X + X @ _M.T + np.einsum("pk,pk->pk", X, X) * 1e-4
        acc += float(X.max(axis=1).sum())
        row = X[i % 64]
        for j in range(3):
            acc += float(row[j]) * 0.5
    X = _CHUNK.copy()
    for _ in range(12):
        X = X + (X @ _M.T) * 0.5 + np.einsum("pk,pk->pk", X, X) * 1e-4
        acc += float(X.max(axis=1).sum())
        for j in range(25):
            acc += float(X[j] @ _M[0]) + (j * 0.5) % 3.0
    for j in range(150):
        acc += float(_row(0.5, _SMALL[j % 64])[0])
    return acc


def speed_factor() -> float:
    """Reference seconds per wall second, measured now."""
    start = time.perf_counter()
    kernel()
    return REF_KERNEL_S / (time.perf_counter() - start)


def startup_seconds() -> float:
    """Wall time of the start-up probe, measured now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_PROBE], check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start
