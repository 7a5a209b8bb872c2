"""Machine-speed calibration: a fixed kernel timed next to the workload.

The benchmark runs on a shared machine whose speed drifts by tens of
percent over minutes: rounds of identical work have taken anywhere from
0.7x to 1.5x their usual time, and CPU time moves with wall time, so
there is no steal figure to subtract.  A fixed kernel timed right before
and right after a round sees the same machine as the round, and the ratio
of the round's time to the kernel's does not drift with it.

The kernel is frozen benchmark code that never calls ``qssm``, so a
change to the program moves the round's time and not the kernel's.  It
mixes the kinds of work the workloads do: interpreted Python loops,
NumPy calls on small arrays, block-sized complex arrays, and arrays too
large for the cache.

``NOMINAL_S`` is the kernel's median time between rounds on the reference
machine (the one the README's figures come from).  A time ``t`` measured while the
kernel's median call around it takes ``k`` seconds is reported as
``t * NOMINAL_S / k``: seconds at the reference machine's speed.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.019
SHARE = 0.1  # kernel time after a round, as a share of the round's time

_rng = np.random.default_rng(20230324)
_SMALL = _rng.standard_normal(64) + 1j * _rng.standard_normal(64)
_BLOCK = _rng.standard_normal((4096, 16)) + 1j * _rng.standard_normal((4096, 16))
_OBS = _rng.standard_normal((4096, 1)) + 1j * _rng.standard_normal((4096, 1))
_LARGE = _rng.standard_normal(1 << 19)
_SCRATCH = np.empty_like(_LARGE)
_TABLE = {i: (i * 7919) % 1021 for i in range(1024)}


def kernel() -> float:
    """One call of the fixed kernel; returns a checksum so no work is skipped."""
    acc = 0
    for i in range(40000):  # interpreted loop with dict lookups
        acc += _TABLE[i & 1023] * (i % 3)
    small = 0.0
    for i in range(400):  # per-symbol style: many calls on tiny arrays
        metric = np.abs(_SMALL - _SMALL[i & 63]) ** 2
        small += float(metric[int(np.argmin(metric[1:])) + 1])
    metric = np.abs(_OBS - _BLOCK * 0.5) ** 2  # block style: one detector pass
    hits = int(np.count_nonzero(np.argmin(metric, axis=1) == 3))
    for _ in range(4):  # streaming passes over a 4 MB array
        np.multiply(_LARGE, 1.0000001, out=_SCRATCH)
        np.abs(_SCRATCH, out=_SCRATCH)
        np.sqrt(_SCRATCH, out=_SCRATCH)
    return acc + small + hits + float(_SCRATCH[12345])


def sample(after_s: float) -> list[float]:
    """Times of the kernel calls that follow an interval of ``after_s`` seconds.

    At least three calls, and enough to take about ``SHARE`` of the
    interval, so a run's kernel calls spread over it in proportion to time.
    """
    times = []
    for _ in range(max(3, round(SHARE * after_s / NOMINAL_S))):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times


def factor(kernel_s: list[float]) -> float:
    """Turns seconds measured next to these kernel calls into reference seconds."""
    return NOMINAL_S / statistics.median(kernel_s)
