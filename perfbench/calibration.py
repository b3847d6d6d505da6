"""Machine-speed calibration: a fixed pure-Python loop timed beside the program.

The benchmark runs on a shared machine whose speed moves by a third or
more between phases that last from seconds to minutes, while the process
itself is never descheduled (its CPU time equals its wall time).  That
drift is larger than the changes the benchmark has to resolve.  So every
end-to-end time the benchmark reports is scaled to a fixed reference speed:

    time at reference speed = wall time * NOMINAL_S / loop time

where the loop time is measured while the program runs, or right around
it.  The loop does fixed work and its code is the benchmark's own, so a
change to fsosim cannot move it; only the machine can.  Between two
commits measured on the same machine the ratio of the scaled times equals
the ratio of the wall times, but the scaled times no longer move with the
machine's phase.  Wall times stay in the full result beside them, and
per-layer span times are wall times.

`Meter` samples the loop from a SIGALRM handler every INTERVAL_S while an
operation runs; the handler's own time is taken out of the operation's
time.  A start-up probe runs its own `Meter` and reports the samples, and
run.py adds `around_sample` before and after each probe process.  run.py
must not import fsosim, and this module imports nothing from it.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_N = 1_600
# The loop's time at the reference speed: about its time on the 2-core
# machine the baseline in README.md was recorded on, so that scaled times
# read close to wall times there.
NOMINAL_S = 2.4e-3
INTERVAL_S = 0.2
AROUND_REPS = 15


def loop_s() -> float:
    """Wall time of one pass of the fixed loop.

    It formats, splits and parses short CSV rows: interpreter dispatch,
    float arithmetic and small allocations, the same mix as fsosim's
    tick loop and its CSV writers and readers.
    """
    start = time.perf_counter()
    rows = [f"{i * 1e-3:.6f},{i}" for i in range(LOOP_N)]
    total = 0.0
    for row in rows:
        a, b = row.split(",")
        total += float(a) * int(b)
    return time.perf_counter() - start


def around_sample() -> float:
    """Median loop time over AROUND_REPS passes, for before and after a child."""
    return statistics.median(loop_s() for _ in range(AROUND_REPS))


def scaled(wall_s: float, loop_samples: list[float]) -> float:
    """`wall_s` at the reference speed, from the loop times seen meanwhile."""
    return wall_s * NOMINAL_S / statistics.mean(loop_samples)


class Meter:
    """Loop samples taken every INTERVAL_S inside a `with` block.

    The first sample is taken on entry, so a block shorter than the
    interval still has one.  `handler_s` is the time spent in the samples
    inside the block; subtract it from the block's wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0

    def _sample(self, *_args) -> None:
        start = time.perf_counter()
        self.samples.append(loop_s())
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "Meter":
        self.samples.append(loop_s())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
