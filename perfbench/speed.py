"""Machine-speed probe: a fixed kernel timed between and inside units.

The host's speed drifts by tens of percent over tens of seconds, so the wall
time of a run depends on when it ran; repetition inside one run does not
average that out. The probe times a fixed kernel about every EVERY_S
seconds, between units and, through the solver callback, inside long ones.
A unit's wall time with the probes' own time taken out, times
REF_KERNEL_MS over the mean kernel time seen around the unit, is the unit's
time at reference speed: what it would take on a machine that runs the
kernel in REF_KERNEL_MS. The timed end-to-end metrics are reported that way,
with the plain wall times printed beside them.

The kernel is an interpreter loop, small dense matrix-vector products and
short cosine transforms, the mix the solver loops spend their time in. It
uses no cdkit code, so a change to the library cannot change the reference
it is measured against.
"""

import math
import statistics
import time

import numpy as np
from scipy.fft import dct


class SpeedProbe:
    REF_KERNEL_MS = 2.5
    EVERY_S = 0.25

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((100, 100))
        self.a = a + a.T
        self.x0 = rng.standard_normal(100)
        self.block = rng.standard_normal((64, 2))
        self.samples = []  # kernel ms, in the order taken
        self.paused = 0.0  # seconds spent probing, to take out of unit times
        self.last = -math.inf

    def kernel_ms(self):
        t0 = time.perf_counter()
        x = 0.0
        for i in range(10_000):
            x += i * 0.5
        v = self.x0
        for _ in range(80):
            u = self.a @ v
            v = u / np.linalg.norm(u)
            float(v @ u)
        for _ in range(40):
            dct(self.block, axis=0, norm="ortho")
        return (time.perf_counter() - t0) * 1e3

    def probe(self):
        t0 = time.perf_counter()
        self.samples.append(self.kernel_ms())
        self.last = time.perf_counter()
        self.paused += self.last - t0

    def maybe(self):
        """Probe if EVERY_S has passed since the last probe."""
        if time.perf_counter() - self.last >= self.EVERY_S:
            self.probe()

    def scale(self, first, last):
        """Factor for a unit that saw probes first..last (inclusive)."""
        return self.REF_KERNEL_MS / statistics.fmean(self.samples[first : last + 1])


def calibrate(repeats=25):
    """Median kernel ms; printed at the start and end of every run."""
    probe = SpeedProbe()
    return statistics.median(probe.kernel_ms() for _ in range(repeats))
