"""A fixed speed probe, to take the machine's own speed out of timings.

On a shared host the same work can take twice as long from one minute to
the next (frequency changes and neighbours on the same cores). The probe
is a fixed piece of work shaped like the package's hot paths: interpreter
overhead around NumPy operations on ~100-element arrays, as in the
Luxemburg solver and the brute-force K, and whole-array operations on a
few MB, as in the log-Holder estimate. It uses no varinterp code, so a
change to the package cannot move it. The benchmark runs the probe after
every timed piece of work and converts the run's part timings to reference
seconds as

    seconds * REFERENCE_PROBE_S / (fastest probe time of the run)

so that they read as the time the work would take on a machine that runs
the probe in REFERENCE_PROBE_S.
"""

from __future__ import annotations

import math
import time

import numpy as np

# a round figure near the fastest probe time of a run on the reference
# machine (2-core Xeon VM, Python 3.11.7, NumPy 2.4.6, one BLAS thread)
REFERENCE_PROBE_S = 0.1

_SMALL_STEPS = 7500
_BLOCK_ROWS = 1024


def _small_steps():
    values = np.linspace(0.05, 2.0, 120)
    exponents = np.linspace(1.2, 3.0, 120)
    acc = 0.0
    for i in range(_SMALL_STEPS):
        scaled = values / (1.0 + (i % 13) * 0.125)
        acc += float(np.sum(np.power(scaled, exponents)))
        acc += sum(x * 0.5 for x in range(24))
    return acc


def _block_pass():
    nodes = np.exp(np.linspace(-11.0, 11.0, 2048))
    values = 1.0 / (2.0 + 1.0 / np.log(math.e + 1.0 / nodes))
    acc = 0.0
    for start in range(0, _BLOCK_ROWS, 256):
        dx = np.abs(nodes[start:start + 256, None] - nodes[None, :])
        dv = np.abs(values[start:start + 256, None] - values[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = dv * np.log(math.e + 1.0 / dx)
        ratio[dx == 0.0] = 0.0
        acc += float(ratio.max())
    return acc


def probe():
    """Wall time of one run of the fixed probe work, in seconds."""
    start = time.perf_counter()
    acc = _small_steps() + _block_pass()
    elapsed = time.perf_counter() - start
    if not acc > 0.0:
        raise RuntimeError("speed probe produced no work")
    return elapsed
