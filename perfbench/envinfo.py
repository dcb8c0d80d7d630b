"""Environment fingerprint recorded with every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
from typing import Optional

import numpy as np

ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "JUMPCOMPARE_THREADS", "PYTHONHASHSEED",
            "MALLOC_MMAP_THRESHOLD_")


def source_digest(directory: str) -> str:
    """sha256 over the ``.py`` files of a directory, so results of one tree
    compare even where there is no git metadata."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(directory, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> Optional[str]:
    """HEAD of ``root/.git`` read from its files; None outside a checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        return {}
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}


def fingerprint(root: str, src: str) -> dict:
    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(os.path.join(src, "jumpcompare")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "env": {k: os.environ.get(k) for k in ENV_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
