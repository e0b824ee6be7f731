"""Machine-speed probe: times measured on a shared machine, scaled to one speed.

On a shared virtual machine the same plan can take 1.2 s or 2.0 s from one
second to the next: other tenants change how fast this process runs, and CPU
time moves with wall time, so neither is steady. The probe samples that speed
while the benchmark runs. An interval timer interrupts the process every
`INTERVAL_S` seconds and runs a fixed pure-Python loop in the signal handler;
the loop's duration tracks the current speed.

A measured interval [t0, t1] is then reported as

    (t1 - t0 - probe time inside it) * REFERENCE_PROBE_S * mean(1 / probe time)

over the probes within `PAD_S` of the interval: the seconds the work would
have taken had every probe run in `REFERENCE_PROBE_S`. The mean of 1 / probe
time is the mean speed, and a probe delayed by preemption counts as speed near
zero, as it should. `REFERENCE_PROBE_S` is a constant: the probe's median time
on the machine the benchmark's bounds were set on (a 2-vCPU Xeon VM at
2.1 GHz), so scaled times read as seconds on that machine.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from time import perf_counter

INTERVAL_S = 0.01
PAD_S = 0.1
REFERENCE_PROBE_S = 4.0e-5
_LOOP = 400


def probe_work() -> int:
    """The fixed work each probe times."""
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the speed of this process until stopped.

    Holds the start and duration of every probe, in the order they ran.
    """

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        probe_work()
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def start(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaler(self):
        """A function (t0, t1) -> the interval's scaled seconds, from the probes so far."""
        # imported here: this module loads before the imports that set-up time counts
        import numpy as np

        at = np.frombuffer(self.at, dtype=np.float64).copy()
        busy = np.concatenate(([0.0], np.cumsum(np.frombuffer(self.took, dtype=np.float64))))
        speed = np.concatenate(([0.0], np.cumsum(
            REFERENCE_PROBE_S / np.frombuffer(self.took, dtype=np.float64))))

        def scaled(t0: float, t1: float) -> float:
            lo, hi = np.searchsorted(at, (t0, t1))
            wlo, whi = np.searchsorted(at, (t0 - PAD_S, t1 + PAD_S))
            if whi == wlo:
                raise ValueError("no probe ran near the interval; is the probe started?")
            mean_speed = (speed[whi] - speed[wlo]) / (whi - wlo)
            return float((t1 - t0 - (busy[hi] - busy[lo])) * mean_speed)

        return scaled

    def median_us(self) -> float:
        return statistics.median(self.took) * 1e6 if self.took else 0.0


def wall(t0: float, t1: float) -> float:
    """Unscaled interval length, with the same signature as a scaler."""
    return t1 - t0
