"""Machine-speed calibration: a fixed reference kernel run between calls.

The speed of a shared VM drifts, in phases that can outlast a whole run.
So the benchmark runs a fixed kernel, which uses no carbongame code, between
its timed calls, and scales each call's wall time by how fast the kernel ran
around it. A time so scaled is in reference seconds: what the call would
take on a machine on which one kernel pass takes ``REFERENCE_S``. A change
to carbongame cannot change the kernel, so it moves a scaled time by the
same factor as the wall time.

The kernel mixes, in about equal parts, the kinds of work the library does:
interpreted Python (a scalar RK4 loop, dict updates), numpy calls on short
vectors, whole-array work on 257 x 257 arrays, 4,001-long vectors, float
formatting into CSV text, and small scipy solves and root finds. On a
shared VM these kinds slow down by different factors; their mix follows
each workload better than any one of them does.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time

import numpy as np
import scipy.linalg
import scipy.optimize

REFERENCE_S = 0.020   # one kernel pass on a 2-vCPU Xeon VM, Python 3.11
EVERY_S = 0.4         # one kernel pass per this much wall time, at most 8
WINDOW_S = 1.0        # passes this close to a call scale it

# Every array the kernel writes is allocated here once: a large temporary
# would make the pass time depend on the allocator state the workload left.
_SHORT = np.linspace(0.0, 1.0, 64)
_GRID = np.random.default_rng(0).random((257, 257))
_GRID_OUT = np.empty_like(_GRID)
_ROW_OUT = np.empty(257)
_LONG = np.random.default_rng(1).random(4001)
_LONG_OUT = np.empty_like(_LONG)
_SMALL = np.random.default_rng(2).random((4, 4)) + 4.0 * np.eye(4)


def _python(n: int = 13000) -> float:
    total, table = 0.0, {}
    for i in range(n):
        total += math.sin(i * 1e-3) * 1.5
        table[i & 255] = total
    return total + len(table)


def _rk4(n: int = 8000) -> float:
    h, dt = 0.0, 1e-3
    for _ in range(n):
        k1 = 1.0 - 0.1 * h
        k2 = 1.0 - 0.1 * (h + 0.5 * dt * k1)
        k3 = 1.0 - 0.1 * (h + 0.5 * dt * k2)
        k4 = 1.0 - 0.1 * (h + dt * k3)
        h += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return h


def _short_vectors(n: int = 600) -> float:
    total = 0.0
    for _ in range(n):
        total += float((np.exp(_SHORT * 0.5) + _SHORT * _SHORT).sum())
    return total


def _whole_arrays(n: int = 24) -> float:
    total = 0.0
    for _ in range(n):
        np.multiply(_GRID, 1.01, out=_GRID_OUT)
        np.add(_GRID_OUT, 0.5, out=_GRID_OUT)
        np.maximum(_GRID_OUT, _GRID.T, out=_GRID_OUT)
        total += float(_GRID_OUT.max(axis=1, out=_ROW_OUT).sum())
    return total


def _long_vectors(n: int = 150) -> float:
    total = 0.0
    for _ in range(n):
        np.multiply(_LONG, 0.5, out=_LONG_OUT)
        total += float(np.cumsum(_LONG_OUT, out=_LONG_OUT)[-1])
    return total


def _formatting(columns: int = 8) -> int:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for row in _LONG[:1600].reshape(-1, columns):
        writer.writerow([repr(float(v)) for v in row])
    return len(buffer.getvalue())


def _small_solves(n: int = 15) -> float:
    total = 0.0
    for i in range(n):
        a = 1.0 + 0.01 * i
        total += float(np.abs(np.roots([1.0, -a, -2.0, 0.3])).sum())
        total += scipy.optimize.brentq(lambda x: x ** 3 - a * x - 1.0, 0.0, 3.0)
        total += float(scipy.linalg.solve(_SMALL, np.ones(4)).sum())
        total += float(np.linalg.eigvals(_SMALL[:3, :3]).real.sum())
        total += len(json.dumps({"a": a, "total": total}))
    return total


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    _python()
    _rk4()
    _short_vectors()
    _whole_arrays()
    _long_vectors()
    _formatting()
    _small_solves()
    return time.perf_counter() - start


class Clock:
    """Reference passes run between timed calls, and the scale they give.

    ``sample()`` runs one kernel pass for each ``EVERY_S`` of wall time
    since the last pass (at most eight), so the passes keep pace with the
    clock however long the calls between them are; ``force`` runs one pass
    anyway. ``scaled(start, end, seconds)`` converts the wall time of a call
    made in [start, end] into reference seconds, using the mean pass time
    within ``WINDOW_S`` of the call, or of the five nearest passes when
    there are fewer. The mean, not the median: the VM switches between a
    fast and a slow state within seconds, and a call's time grows with the
    share of it spent in the slow state, as the mean pass time does.
    """

    def __init__(self):
        reference_seconds()   # warm-up: first calls are slow
        self.samples = []     # (perf_counter after the pass, its seconds)
        self._last = time.perf_counter()

    def sample(self, force: bool = False) -> None:
        passes = min(8, int((time.perf_counter() - self._last) / EVERY_S))
        for _ in range(max(passes, int(force))):
            seconds = reference_seconds()
            self._last = time.perf_counter()
            self.samples.append((self._last, seconds))

    def scaled(self, start: float, end: float, seconds: float) -> float:
        def distance(t):
            return max(start - t, t - end, 0.0)
        near = [s for t, s in self.samples if distance(t) <= WINDOW_S]
        if len(near) < 5:
            near = [s for _, s in sorted(self.samples,
                                         key=lambda ts: distance(ts[0]))[:5]]
        return seconds * REFERENCE_S / statistics.fmean(near)

    def speed(self) -> float:
        """Median kernel time over all samples, in seconds."""
        return statistics.median(s for _, s in self.samples)
