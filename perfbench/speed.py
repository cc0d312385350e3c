"""Machine-speed sampling that normalises measured times.

The benchmark runs in virtual machines whose cores are shared: another
tenant's load slows every Python instruction, often by half or more, in
episodes of a second or so.  CPU time does not hide that.  So while a
measured step runs, a fixed probe of plain interpreter work (rational
additions, dict updates, tuple and string comparisons, the operations the
solvers spend their time on) runs every ``INTERVAL_S`` of CPU time from a
``SIGVTALRM`` handler.  A probe's CPU time over ``REFERENCE_S`` is the
slowdown at that moment.  Each stretch of the step's CPU time between two
probes is divided by the slowdown around it, and the sum is the step's
time at reference speed.  The same handler enforces a deadline in that
time, so a deadline does not move with the neighbours' load either.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque
from fractions import Fraction

# CPU seconds of one probe on an idle vCPU of a 2-vCPU x86-64 virtual
# machine with Python 3.11 (the fastest of 20 000 probes there).
REFERENCE_S = 0.0005
# Probes every 10 ms of CPU time rather than 20 halve the per-solve spread
# of 50-250 ms solves on that machine, for about 5-10% more CPU time.
INTERVAL_S = 0.01


class DeadlineHit(BaseException):
    """A step ran past its deadline.  Not an ``Exception``, so no
    ``except Exception`` in the measured code can swallow it."""


def _probe() -> object:
    total = Fraction(0)
    counts: dict[str, int] = {}
    best: tuple = ()
    for i in range(150):
        total += Fraction(i, 1 + i % 7)
        name = f"c{i % 37:03d}"
        counts[name] = counts.get(name, 0) + 1
        key = tuple(sorted((i % 5, i % 3, i % 11), reverse=True))
        if key > best:
            best = key
    return total, best


def _slowdown() -> float:
    # The probe runs between the measured program's bytecodes and shares
    # its heap.  With the collector on, a probe's allocations could set off
    # a collection of the program's objects, so the probe's time would
    # depend on the program's memory use and partly cancel a change in it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _probe()
        return (time.thread_time() - start) / REFERENCE_S
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Measures steps at reference speed; create one per process.

    ``with sampler.step(deadline) as step:`` times the block and raises
    ``DeadlineHit`` inside it once it has used ``deadline`` seconds at
    reference speed.  Afterwards ``step.reference_s`` is that time,
    ``step.cpu_s`` the block's CPU time without the probes and
    ``step.slowdown`` their ratio.  A block shorter than a few probe
    intervals borrows the latest probes of earlier steps, so that its
    slowdown does not rest on a handful of probes.
    """

    POOL = 16
    EDGE = 3

    def __init__(self) -> None:
        self._recent: deque[float] = deque(maxlen=self.POOL)

    def step(self, deadline: float | None = None) -> "_Step":
        return _Step(self._recent, deadline)


class _Step:
    # _speeds holds the slowdown of every probe in order: EDGE before the
    # block, one after each stretch of the block's CPU time, EDGE after it.
    # Stretch i lies between probes EDGE - 1 + i and EDGE + i; its slowdown
    # is the median of the two probes on either side.

    def __init__(self, recent: deque, deadline: float | None) -> None:
        self._recent = recent
        self._deadline = deadline
        self._speeds: list[float] = []
        self._stretches: list[float] = []
        self._armed = False
        self._settled = 0.0  # reference time of stretches with all 4 probes
        self.cpu_s = 0.0
        self.reference_s = 0.0
        self.slowdown = 1.0

    def _around(self, index: int) -> float:
        return statistics.median(self._speeds[index + 1:index + 5])

    def _on_timer(self, signum, frame) -> None:
        if not self._armed:
            return
        self._stretches.append(time.thread_time() - self._mark)
        self._speeds.append(_slowdown())
        if self._deadline is not None:
            settled = len(self._speeds) - 5
            if settled >= 0:
                self._settled += self._stretches[settled] / self._around(settled)
            spent = self._settled + sum(
                self._stretches[i] / self._around(i)
                for i in range(max(0, settled + 1), len(self._stretches)))
            if spent > self._deadline:
                raise DeadlineHit()
        self._mark = time.thread_time()

    def __enter__(self) -> "_Step":
        self._speeds = [_slowdown() for _ in range(SpeedSampler.EDGE)]
        self._previous = signal.signal(signal.SIGVTALRM, self._on_timer)
        self._armed = True
        self._mark = time.thread_time()
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        end = time.thread_time()
        try:
            self._armed = False
        finally:
            # a probe due right now may still raise DeadlineHit above; the
            # timer is off and the handler restored either way
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, self._previous)
        self._stretches.append(end - self._mark)
        self._speeds += [_slowdown() for _ in range(SpeedSampler.EDGE)]
        if len(self._speeds) < SpeedSampler.POOL:
            # a short step: one slowdown from its own and recent probes
            missing = SpeedSampler.POOL - len(self._speeds)
            earlier = list(self._recent)[len(self._recent) - missing:]
            speed = statistics.median(earlier + self._speeds)
            speeds = [speed] * len(self._stretches)
        else:
            speeds = [self._around(i) for i in range(len(self._stretches))]
        self.cpu_s = sum(self._stretches)
        self.reference_s = sum(c / s for c, s in zip(self._stretches, speeds))
        self.slowdown = self.cpu_s / self.reference_s if self.reference_s else 1.0
        self._recent.extend(self._speeds)
