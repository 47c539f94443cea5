"""Timings adjusted for how fast a shared host runs at the moment.

On a host shared with other tenants the same Python code runs up to about
twice as slow while a neighbour keeps the physical core busy, and those
spells come and go over seconds to minutes.  Wall time then measures the
neighbours as much as the program: fifteen cold ``witness`` passes of the
same code took 11.0 to 17.8 s within ten minutes on a 2-core Xeon VM.

A :class:`Speedometer` samples the host's speed from inside the process
being timed: an interval timer (``SIGALRM`` every ``INTERVAL_S``) runs a
fixed probe loop in the main thread, between the program's own bytecodes,
and records how long the loop took.  The probe's duration ``c`` tracks the
slowdown the program sees at that moment, so a stretch of wall time ``dt``
holds ``dt / c`` probe-loops' worth of work.  A timed window is reported as

    (wall time minus the probes' own time) * mean(REF_PROBE_S / c)

over the probes that fell inside it (at least the ``SPEED_PROBES`` nearest):
seconds on a host where the probe takes ``REF_PROBE_S``.  Over ten minutes of alternating cold passes there,
that took the passes' coefficient of variation from 18% to 4% on the
``witness`` and from 13% to 4% on 80 ``screen-sweep`` triplets.
Nothing here runs on another thread or process; the probes cost 1-2% of a
pass.  The module imports only small built-ins, so that the set-up it times
still starts cold.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.01
#: Windows shorter than this many probe intervals read their speed from
#: this many probes around them.
SPEED_PROBES = 10
#: The probe's median duration on a quiet core of the 2-core Xeon VM the
#: benchmark was calibrated on; a constant, so that runs compare.
REF_PROBE_S = 57e-6


def probe_loop(slots: list) -> int:
    """A fixed mix of the program's two kinds of work (~0.07 ms).

    Multi-digit integer arithmetic, as in tower and lattice code, slows
    about as much as the ``witness`` under a busy neighbour; a small-integer
    loop, as in the mod-p point searches, about as much as ``screen-sweep``.
    The probe spends about equal time on each.  It writes only small ints
    into ``slots`` (256 of them, allocated once by the caller), so it
    creates no object the garbage collector tracks and never sets off a
    collection of the program's heap."""
    x = 7
    for i in range(100):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        slots[x & 255] = i
        x ^= slots[i & 255]
    y = 7
    for i in range(170):
        y = (y * 75 + 74) % 65537
        slots[i & 255] = y
        y += slots[(y >> 3) & 255] & 7
    return x + y


class Speedometer:
    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        #: probe end times and durations, in time order
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._slots = [0] * 256
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        probe_loop(self._slots)
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def start(self) -> None:
        for _ in range(50):  # warm the probe before its first sample
            probe_loop(self._slots)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, start: float, end: float) -> dict:
        """Raw seconds of ``[start, end]``, the seconds left after taking
        out the probes in it, and the mean inverse duration of the probes
        in it, widened to the ``SPEED_PROBES`` nearest when fewer fell
        inside: a short item's speed is then read from ~0.1 s around it
        rather than from one or two probes."""
        n = len(self.ends)
        lo = bisect.bisect_right(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        probe_s = sum(self.durations[lo:hi])
        while hi - lo < SPEED_PROBES and (lo > 0 or hi < n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < SPEED_PROBES:
                hi += 1
        near = self.durations[lo:hi]
        return {"s": end - start, "net_s": end - start - probe_s,
                "inv": sum(1 / c for c in near) / len(near) if near else 0.0}


def adjusted(window: dict) -> float:
    """A window's seconds on the reference host."""
    return window["net_s"] * window["inv"] * REF_PROBE_S
