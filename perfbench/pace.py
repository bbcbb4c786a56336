"""Core-speed calibration for a shared, noisy machine.

On a small shared host, neighbouring load switches the core between speed
states for seconds at a time; the same decode loop then runs up to 1.8x
slower for a whole run. Timings here are therefore reported at a fixed
reference core speed: a calibration kernel that uses no hawk code (dict
lookups, list appends, ``Generator.random`` and ``np.searchsorted`` on small
cumulative tables, the instruction mix of a decode step) is timed next to
every measurement, and each measured rate is scaled by
``REFERENCE_STEPS_PER_S / kernel rate``. A change to hawk moves the measured
side only, so it shows in full; a change of core speed moves both sides and
cancels.

Short measurements (one decode batch) are bracketed by a kernel run before
and after. Long ones (set-up, head fitting, held-out NLL) run under a
``SpeedSampler``, which times a short kernel run from a SIGALRM handler
every ``SAMPLE_INTERVAL_S`` and subtracts the time it spent from the
measurement.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Kernel steps per second on an uncontended core of the machine the
# benchmark was tuned on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_STEPS_PER_S = 450_000.0
SAMPLE_INTERVAL_S = 0.05
SAMPLE_STEPS = 300

_VOCAB = 6
_WIDTH = 16
_ROWS = {}
for _left in range(_VOCAB + 1):
    for _above in range(_VOCAB + 1):
        _weights = np.arange(1.0, _VOCAB + 1.0) + _left + 2 * _above
        _ROWS[(_left, _above)] = np.cumsum(_weights / _weights.sum())


def kernel_rate(steps: int) -> float:
    """Run ``steps`` steps of the calibration kernel; returns steps per second.

    The kernel draws from a fixed seed, so every call does the same work.
    """
    rows = _ROWS
    rng = np.random.Generator(np.random.PCG64(20251017))
    out: list[int] = []
    start = time.perf_counter()
    left = above = _VOCAB
    for i in range(steps):
        token = min(int(np.searchsorted(rows[(left, above)], rng.random(), side="right")),
                    _VOCAB - 1)
        out.append(token)
        left = token if (i + 1) % _WIDTH else _VOCAB
        above = out[i + 1 - _WIDTH] if i + 1 >= _WIDTH else _VOCAB
    return steps / (time.perf_counter() - start)


class SpeedSampler:
    """Samples core speed while a long call runs; ``with SpeedSampler() as s: ...``.

    Main-thread only (Python runs signal handlers there). ``seconds`` is the
    wall time of the block minus the time the samples took, and ``scale``
    converts it to reference speed: ``reference_seconds = seconds * scale``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.seconds = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_rate(SAMPLE_STEPS))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.samples.append(kernel_rate(SAMPLE_STEPS))
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_rate(SAMPLE_STEPS))
        self.seconds = elapsed - self.spent

    @property
    def scale(self) -> float:
        # Work done is the integral of speed over time, so the mean speed of
        # evenly spaced samples (not their median) converts the time.
        return statistics.fmean(self.samples) / REFERENCE_STEPS_PER_S

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.scale
