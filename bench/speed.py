"""Machine-speed probe: op times converted to a fixed reference speed.

On a shared host the same computation runs 20 to 70 % slower for seconds or
minutes at a time, in CPU time as well as in wall time, because of what
other tenants run on the same cores.  Longer runs do not average that out.
`SpeedProbe` times a small fixed kernel from a SIGALRM handler every
`EVERY_S` seconds while set-up and ops run.  The kernel is plain numpy and
Python, independent of gqtlab: a pure-Python loop, a sort, a Chebyshev
evaluation and a chain of small complex matmuls with an FFT, the kinds of
work gqtlab does.  An op's time is then converted to the reference speed,
at which the kernel takes `REF_PROBE_S`:

    reference_s = (wall_s - probe time inside the op) * REF_PROBE_S / probe_s

where probe_s is the median kernel time of the probes that started within
`PAD_S` seconds of the op.  The handler runs in the main thread between
Python bytecodes, so it never runs at the same time as the op it measures.
It cannot run inside one long C call (a large `eigvals`, say); such an op
is judged by the probes around that call.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# The kernel's time at the reference speed: about its time on a 2-core
# shared x86-64 VM (single-threaded OpenBLAS) in a fast period.
REF_PROBE_S = 2.0e-3
# Seconds between probes, and how far around an op its probes may lie.
EVERY_S = 0.25
PAD_S = 1.0


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._py_n = 6000
        self._sort = rng.normal(size=60000)
        self._cheb_x = np.cos(np.linspace(0.0, 3.0, 20000))
        self._cheb_c = rng.normal(size=40)
        self._mat = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
        self._fft = rng.normal(size=2048)
        self.starts: list[float] = []     # perf_counter at each probe's start
        self.durations: list[float] = []  # each probe's kernel time
        self._previous = None
        self._busy = False
        for _ in range(2):
            self._kernel()

    def _kernel(self) -> float:
        """Seconds the fixed kernel takes, run once as it comes (caches
        as the op left them)."""
        t0 = time.perf_counter()
        s = 0.0
        for i in range(self._py_n):
            s += i * 0.5
        np.sort(self._sort)
        np.polynomial.chebyshev.chebval(self._cheb_x, self._cheb_c)
        b = self._mat
        for _ in range(4):
            b = self._mat @ b
        np.fft.fft(self._fft)
        return time.perf_counter() - t0

    def sample(self):
        """Take one probe now."""
        t0 = time.perf_counter()
        self.durations.append(self._kernel())
        self.starts.append(t0)

    def _handler(self, signum, frame):
        # A slow probe may overrun the interval; one at a time keeps
        # `starts` sorted.
        if not self._busy:
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reference_s(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds of [t0, t1) without probes, the same at the
        reference speed)."""
        if not self.durations:
            raise RuntimeError("the speed probe recorded no sample")
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        # A probe's whole time is its kernel time plus microseconds.
        wall = (t1 - t0) - sum(self.durations[lo:hi])
        near = self.durations[bisect.bisect_left(self.starts, t0 - PAD_S):
                              bisect.bisect_left(self.starts, t1 + PAD_S)]
        if not near:
            nearest = min(range(len(self.starts)),
                          key=lambda i: min(abs(self.starts[i] - t0),
                                            abs(self.starts[i] - t1)))
            near = [self.durations[nearest]]
        return wall, wall * REF_PROBE_S / statistics.median(near)

    def summary(self) -> dict:
        d = self.durations
        return {"samples": len(d), "every_s": EVERY_S, "pad_s": PAD_S,
                "ref_ms": 1e3 * REF_PROBE_S,
                "median_ms": 1e3 * statistics.median(d),
                "min_ms": 1e3 * min(d), "max_ms": 1e3 * max(d)}
