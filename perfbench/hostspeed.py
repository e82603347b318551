"""Host-speed calibration.

The shared virtual machine the benchmark was written on runs the same
code at speeds that differ by 20-60% from one stretch of seconds or
minutes to the next. A fixed kernel, independent of ucbench, is timed
right before and right after every timed piece of work; the work's time
is then scaled by ``REF_S / kernel time``, which gives its time at the
host speed at which the kernel takes ``REF_S``. A change to ucbench
moves the scaled time exactly as it moves the raw one; a slow stretch
of the host moves both the work and the kernel, and cancels.

Slow stretches do not slow all code alike, so the kernel mixes what the
workloads spend their time on: interpreted loops, dict and string work,
the interpreter's own parser and compiler, JSON, numpy calls on small
arrays, a small matrix inverse and a small dense tableau simplex.
"""

from __future__ import annotations

import ast
import gc
import json
import statistics
import time
from pathlib import Path

import numpy as np

# Time of one kernel pass at the reference speed, within the range the
# 2-core x86-64 virtual machine where the benchmark was written showed
# (3.7-7.6 ms).
REF_S = 0.005

_SOURCE = Path(__file__).read_text(encoding="utf-8")
_A = np.arange(400, dtype=float).reshape(20, 20) / 400.0
_rng = np.random.default_rng(2)
_M = _rng.random((40, 40)) + 40.0 * np.eye(40)
_T0 = np.hstack([_rng.random((25, 30)) + 0.1, np.eye(25), np.ones((25, 1))])
_C0 = np.concatenate([-_rng.random(30) - 0.1, np.zeros(26)])


def _python() -> float:
    acc = 0.0
    d = {}
    for i in range(300):
        key = f"x{i}_{i % 7}"
        d[key] = i * 0.5
        acc += len(key.split("_")[0])
    for v in d.values():
        acc += v
    text = " ".join(repr(v) for v in list(d.values())[:200])
    acc += sum(float(t) for t in text.split())
    compile(ast.parse(_SOURCE), "hostspeed", "exec")
    acc += statistics.median(float(i % 17) for i in range(300))
    acc += len(json.loads(json.dumps({"a": list(range(200)), "b": d})))
    return acc


def _numpy() -> float:
    acc = 0.0
    x = np.ones(20)
    for _ in range(60):
        x = _A @ x
        x = x / (np.abs(x).max() + 1.0)
        acc += float(x[3])
    for _ in range(20):
        acc += float((_M[:, 3] @ np.linalg.inv(_M))[0])
    # Dantzig pivots on a tableau, to the optimum
    T, c = _T0.copy(), _C0.copy()
    for _ in range(60):
        j = int(np.argmin(c[:-1]))
        if c[j] >= -1e-12:
            break
        col = T[:, j]
        pos = col > 1e-12
        i = int(np.argmin(np.where(pos, T[:, -1] / np.where(pos, col, 1.0),
                                   np.inf)))
        T[i] /= T[i, j]
        for r in range(T.shape[0]):
            if r != i:
                T[r] -= T[r, j] * T[i]
        c -= c[j] * T[i]
    return acc + float(c[-1])


def probe() -> float:
    """Seconds one kernel pass takes now, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _python()
        _numpy()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into a time
    at the reference speed."""
    return REF_S / ((before + after) / 2.0)
