"""Host speed calibration: timings expressed at a fixed reference speed.

The benchmark runs on shared hosts whose speed moves by a third or more
from one tenth of a second to the next (other tenants on the same cores
and caches).  Process CPU time moves with wall time, so it does not
help, and a probe before and after a span of a second or more misses
what happens in between.

So :class:`Speed` samples the host's speed all through a timed span: a
wall-clock interval timer interrupts the work every ``INTERVAL_S``, and
the signal handler times one :meth:`Speed.probe`, a fixed piece of
work.  The span's work at the reference speed is its host time minus
the time spent probing, times the mean over the probes of
``REFERENCE_S / probe seconds``::

    reference_seconds = (host_seconds - probing) * mean(REFERENCE_S / p)

A span measured while the host runs at half speed takes twice as long,
and so do the probes inside it; the product stays put.  The probe code
is part of the benchmark, not of the program, so a change to the
program moves the scaled figures exactly as it moves host time.

The scaled figures are host seconds at the speed at which one probe
takes ``REFERENCE_S``: about the speed of a quiet 2-vCPU Intel Xeon
container.  The raw host figures are printed on the report line next
to them.
"""

from __future__ import annotations

import signal
import time
from typing import List

_clock = time.perf_counter

#: Seconds one :meth:`Speed.probe` takes at the reference speed.
REFERENCE_S = 0.0005
#: Wall seconds between two probes.
INTERVAL_S = 0.01
#: A span that saw fewer probes is scaled by this many around it.
WINDOW = 20


class _Leg:
    """A small object with slots, like the program's hot-path records."""

    __slots__ = ("key", "rate", "burst")

    def __init__(self, key: int, rate: float, burst: float):
        self.key = key
        self.rate = rate
        self.burst = burst


def _merge(left, right):
    """Union of two sorted breakpoint lists, as a Python merge loop."""
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out


def _work() -> float:
    """Calls, attribute access, a dict, a sorted-list merge and float
    arithmetic: the mix the program spends its time in."""
    legs = [_Leg(k, (k * 37 % 101) / 101.0, (k * 53 % 97) * 0.5)
            for k in range(40)]
    totals = {}
    for leg in legs:
        totals[leg.key % 7] = totals.get(leg.key % 7, 0.0) \
            + leg.rate * leg.burst
    points = sorted(leg.burst for leg in legs)
    for shift in range(3):
        points = _merge(points[::2],
                        [p + shift * 0.125 for p in points[1::2]])
    return sum(totals.values()) + sum(points)


class Speed:
    """Samples host speed between :meth:`start` and :meth:`stop`.

    A timed span takes ``mark()`` at its start and at its end, and
    leaves out the probing in between: ``spent`` is the host time spent
    probing so far.  Once the span's unit is over, ``factor(first,
    last)`` of its two marks scales it."""

    def __init__(self):
        # Larger than a core's L1 cache and well within its L2, so random
        # reads from it feel a neighbour sharing the core's caches as the
        # program's working set does, without evicting much of it.
        self._buffer = bytes(range(256)) * (1 << 11)
        # The read position carries over from probe to probe, so each
        # probe reads lines the last few did not.
        self._position = 1
        for _ in range(20):  # warm the probe's code path
            self.probe()
        self.samples: List[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _reads(self) -> int:
        buffer = self._buffer
        mask = len(buffer) - 1
        x = self._position
        total = 0
        for _ in range(1200):
            x = (x * 1103515245 + 12345) & mask
            total += buffer[x]
        self._position = x
        return total

    def probe(self) -> float:
        """Host seconds a fixed piece of work takes now: interpreter work
        and random reads from a 512 KiB buffer, about half the time
        each."""
        start = _clock()
        for _ in range(8):
            _work()
        self._reads()
        return _clock() - start

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = _clock()
        self.samples.append(self.probe())
        self.spent += _clock() - start
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, first: int, last: int) -> float:
        """Mean of ``REFERENCE_S / probe`` over probes ``first`` up to
        ``last``, or over the ``WINDOW`` probes nearest their middle
        when that is fewer: one probe says little about the host's
        speed, a few tens say much."""
        if last - first < WINDOW:
            middle = (first + last) // 2
            first = max(0, min(middle - WINDOW // 2,
                               len(self.samples) - WINDOW))
            last = first + WINDOW
        samples = self.samples[first:last] or [self.probe()]
        return sum(REFERENCE_S / sample for sample in samples) / len(samples)
