"""Machine-speed calibration of the benchmark's timings.

The shared 2-vCPU virtual machine the baseline was measured on changes
speed by up to 4x within tens of seconds (other tenants of the host), which
swamps any change in the program.  So every timed operation is bracketed
by runs of a fixed reference kernel and, while it runs, the kernel is also
run from a SIGPROF handler every SAMPLE_EVERY_S of CPU time.  An operation's reported time is
its measured time (minus the time spent in those handler runs) scaled by
NOMINAL_S / (mean kernel time over its samples): the time the operation
would take on a machine where the kernel takes NOMINAL_S.

The kernel mixes what the package spends its time on: small FFTs, numpy
elementwise work, Python-level loops and float formatting.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Captured at import, before the traced run patches numpy.fft.
_FFT, _IFFT = np.fft.fft, np.fft.ifft
_SIGNAL = np.exp(-np.linspace(-4.0, 4.0, 1024) ** 2).astype(complex)
_PHASE = np.exp(0.01j * np.arange(1024))

#: Kernel time, in seconds, of the machine speed every timing is scaled to.
NOMINAL_S = 0.002
SAMPLE_EVERY_S = 0.1


def reference_kernel() -> float:
    """Run the fixed reference kernel once; returns its wall time."""
    start = time.perf_counter()
    x = _SIGNAL
    for _ in range(40):
        x = _IFFT(_FFT(x) * _PHASE)
    ",".join(f"{v:.12g}" for v in x.real)
    return time.perf_counter() - start


def plain_timed(fn):
    """Call fn() without calibration; returns (outcome, raw_s, raw_s)."""
    start = time.perf_counter()
    try:
        outcome = fn()
    except Exception as exc:
        outcome = exc.with_traceback(None)  # keeps the failed call's arrays from living on
    raw = time.perf_counter() - start
    return outcome, raw, raw


class SpeedProbe:
    """Times calls in reference-kernel units (see the module docstring)."""

    def __init__(self):
        self.samples: list[float] = []
        self._in_handler = 0.0

    def _on_tick(self, signum, frame) -> None:
        spent = reference_kernel()
        self.samples.append(spent)
        self._in_handler += spent

    def timed(self, fn):
        """Call fn(); returns (outcome, calibrated_s, raw_s).

        `outcome` is fn's result, or the exception it raised.
        """
        first = len(self.samples)
        self.samples.append(reference_kernel())
        handler_before = self._in_handler
        previous = signal.signal(signal.SIGPROF, self._on_tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            outcome = fn()
        except Exception as exc:
            outcome = exc.with_traceback(None)  # keeps the failed call's arrays from living on
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            raw = time.perf_counter() - start - (self._in_handler - handler_before)
            signal.signal(signal.SIGPROF, previous)
        self.samples.append(reference_kernel())
        scale = NOMINAL_S / statistics.fmean(self.samples[first:])
        return outcome, raw * scale, raw
