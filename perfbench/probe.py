"""Calibration probe: a fixed piece of work whose time tracks the host's speed.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent within seconds and between runs.  measure.py times this probe beside
every operation, and each set-up interpreter times it once after its imports;
each time is then scaled to the reference speed, at which the probe takes
``REFERENCE_S``.
Runs made in fast and slow phases of the host then compare.  The probe uses
only numpy and plain Python, never symcov, so no change to the library moves
it; its mix (small eigensolves, a complex matrix product, a Python loop, JSON)
follows the kinds of work the operations do.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# The median probe time on the 2-vCPU host the benchmark was defined on
# (README.md), so scaled times there read about as measured.
REFERENCE_S = 1.5e-3
REPEATS = 3

_rng = np.random.default_rng(0)
_SYM = [(m + m.T) / 2.0 for m in (_rng.standard_normal((d, d)) for d in (27, 81))]
_CPLX = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_PAYLOAD = [{"n": i, "values": [i / 3.0] * 5} for i in range(60)]


def _kernel() -> float:
    total = sum(float(np.linalg.eigvalsh(m)[0]) for m in _SYM)
    total += float((_CPLX @ _CPLX).real.trace())
    total += len(json.dumps(_PAYLOAD))
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    return total + acc


def probe_s() -> float:
    """The fastest of a few kernel runs, in seconds; the minimum ignores interrupts."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        _kernel()
        best = min(best, (time.perf_counter_ns() - start) / 1e9)
    return best


def scale(seconds: float, probes: list[float]) -> float:
    """``seconds`` measured while the probe took ``probes`` (their median), at the reference speed."""
    return seconds * REFERENCE_S / statistics.median(probes)
