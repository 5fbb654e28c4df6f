"""A fixed reference kernel that measures how fast the host runs right now.

Shared hosts change speed by tens of percent for seconds to minutes at a
time (other tenants on the same cores, caches and memory bus). A wall-time
figure taken alone then moves with the host, not with the program. The
benchmark times this kernel next to every op and every set-up sample and
reports those times at the reference speed: each raw time is multiplied by
``REFERENCE_S / kernel time``, where the kernel time is the mean of the
kernel runs just before and just after it.

The kernel does the kinds of work a dpxa op does: a Python-level loop,
parsing decimal strings to floats, and numpy work on windows of a few-MB
array (cumulative sum, a QR-based linear detrend, mean squares, a sort).
It uses no code of the program, so a change to the program does not move
it.
"""

from __future__ import annotations

import time

import numpy as np

# about the median time of one kernel() on the reference host, a 2-vCPU
# x86-64 KVM guest (Python 3.11, numpy 2 with OpenBLAS); it fixes the scale
# of every figure the benchmark reports at the reference speed
REFERENCE_S = 0.035

_LOOP = 150_000
_WINDOW = 64

_values = np.random.default_rng(20150409).standard_normal(3 * 2 ** 16)
_strings = [f"{v:.12g}" for v in _values[:40_000]]
_trend_basis, _ = np.linalg.qr(np.vander(np.arange(_WINDOW, dtype=float), 2))


def kernel() -> float:
    """Run the reference work once; return its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    parsed = np.array([float(s) for s in _strings])
    for _ in range(3):
        profile = np.cumsum(_values - _values.mean())
        windows = profile[: profile.size // _WINDOW * _WINDOW]
        windows = windows.reshape(-1, _WINDOW)
        residual = windows - (windows @ _trend_basis) @ _trend_basis.T
        np.sort((residual * residual).mean(axis=1))
    seconds = time.perf_counter() - start
    if total < 0 or not np.isfinite(parsed.sum()):  # keeps the work live
        raise AssertionError("calibration kernel produced nonsense")
    return seconds


class HostSpeed:
    """Kernel times taken between measurements, so each measurement can be
    put at the reference speed by the kernel runs on both sides of it."""

    def __init__(self) -> None:
        self.samples = [kernel()]

    def scale(self) -> float:
        """Run the kernel again; return ``REFERENCE_S`` over the mean of
        this run and the one before, the factor that puts what was measured
        between them at the reference speed."""
        self.samples.append(kernel())
        return REFERENCE_S / (0.5 * (self.samples[-2] + self.samples[-1]))
