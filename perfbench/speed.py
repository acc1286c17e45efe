"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host shared with other tenants the speed of the same pure-Python
work drifts by 20-30 % within seconds (measured: identical 0.3 s work
items ranged 250-440 ms over a minute on a 2-vCPU Xeon VM).  The
benchmark therefore runs a fixed calibration kernel, which touches no
twistkit code, between operations and reports every timing scaled to
a reference machine on which one kernel run takes exactly
``REFERENCE_S``.  A change to the package cannot change the kernel, so a
faster package shows as proportionally smaller scaled timings, while the
host's drift largely cancels.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# One kernel run on the reference machine.  On the 2-vCPU Xeon VM the
# baseline was recorded on, a run took 3-5 ms depending on the host's load.
REFERENCE_S = 0.005
# A fresh interpreter's ``import numpy`` on the reference machine, the
# yardstick for the import part of set-up (0.14-0.17 s on that VM).
IMPORT_REFERENCE_S = 0.15
# Scale each operation by the calibrations taken within this many seconds
# of its start (at least the nearest MIN_SAMPLES of them).  The host's
# speed switches on sub-second scales, so the window is kept short.
WINDOW_S = 0.3
MIN_SAMPLES = 3

# A fixed 16 x 16 grid of FFT magnitudes for the kernel's scalar-indexing
# loop.
_GRID = np.abs(np.fft.fft2(np.cos(np.arange(256.0)).reshape(16, 16)))


def kernel(reps=40):
    """Fixed pure-Python work shaped like the package's inner loops: a
    backward three-term recurrence with rescaling, a power series, and,
    every fifth repetition, a loop of numpy scalar indexing with
    dictionary updates.  The indexing loop is the part most sensitive to
    the host's load; in this proportion the kernel's slowdown under load
    matched the package's best (at full weight it overstated it)."""
    total = 0.0
    peaks = {}
    for rep in range(reps):
        for x in (3.7, 11.3, 27.9):
            jp, jc = 0.0, 1e-300
            for k in range(80, 0, -1):
                jp, jc = jc, (2.0 * k / x) * jc - jp
                if abs(jc) > 1e250:
                    jc *= 1e-250
                    jp *= 1e-250
            term = s = 1.0
            for t in range(1, 40):
                term *= -x * x / (4.0 * t * t)
                s += term
            total += jc + s
        if rep % 5:
            continue
        for i in range(16):
            for j in range(16):
                if _GRID[i, j] > 0.0:
                    key = (i - 8, j - 8)
                    peaks[key] = max(peaks.get(key, 0.0), float(_GRID[i, j]))
    return total + len(peaks)


def measure():
    """(start time, duration) of one kernel run.  The garbage collector is
    off meanwhile: a collection pass costs in proportion to the caller's
    live heap, which the kernel must not depend on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return t0, time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_factor(samples):
    """Scale factor to reference speed for a whole run."""
    return REFERENCE_S / statistics.median(d for _, d in samples)


def local_factor(samples, t):
    """Scale factor to reference speed around time ``t``."""
    near = [d for s, d in samples if abs(s - t) <= WINDOW_S]
    if len(near) < MIN_SAMPLES:
        near = [d for _, d in sorted(samples, key=lambda sd: abs(sd[0] - t))
                [:MIN_SAMPLES]]
    return REFERENCE_S / statistics.median(near)
