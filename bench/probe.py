"""Machine-speed probe: rescales wall time to a fixed reference speed.

On shared hosts the speed of one core drifts by up to 2x within seconds to
minutes, as neighbours come and go; the drift is the same for any two runs
only by chance. The probe runs a fixed kernel of about 5 ms every 0.25 s
from a SIGALRM handler, in the benchmark's own thread, and records how long
it took. The kernel mixes small numpy matrix ops with Python object
handling, like the program's hot paths, so its time tracks the program's
speed: measured beside 150 s of `rank_all`, rescaling cut the spread of
10-second totals from 31% to 4%.

`reference_seconds(a, b)` is the wall time of [a, b] less the probe's own
bursts, times NOMINAL_S over the mean burst time near [a, b]: the time the
interval would have taken at the speed where one burst takes NOMINAL_S.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.25
NOMINAL_S = 0.005
_PAD_S = 0.5            # bursts this close to an interval also count for it


class _Node:
    __slots__ = ("data", "backward")

    def __init__(self, data, backward=None):
        self.data = data
        self.backward = backward


_RNG = np.random.default_rng(0)
_X = _RNG.normal(size=(24, 24))
_W = [_RNG.normal(size=(24, 24)) * 0.1 for _ in range(4)]


def kernel() -> None:
    """Fixed work: attention-like small matrix ops wrapped in Python objects."""
    h = _Node(_X)
    for _ in range(60):
        for w in _W:
            z = h.data @ w
            z = z - z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            h = _Node(np.tanh(e / e.sum(axis=-1, keepdims=True)), lambda g: g)
            h = _Node(np.ascontiguousarray(
                h.data.reshape(24, 2, 12).transpose(1, 0, 2)).reshape(24, 24))


class SpeedProbe:
    """Samples the kernel's time on a timer between `start` and `stop`."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t = time.perf_counter()
        kernel()
        self.samples.append((t, time.perf_counter() - t))

    def start(self) -> None:
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reference_seconds(self, a: float, b: float) -> float:
        busy = sum(d for t, d in self.samples if a <= t < b)
        near = [d for t, d in self.samples if a - _PAD_S <= t <= b + _PAD_S]
        if not near:    # an interval shorter than the timer, far from any burst
            near = [min(self.samples, key=lambda sample: abs(sample[0] - a))[1]]
        return (b - a - busy) * NOMINAL_S / (sum(near) / len(near))

    def busy_share(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        span = self.samples[-1][0] - self.samples[0][0]
        return sum(d for _, d in self.samples[:-1]) / span if span else 0.0
