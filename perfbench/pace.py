"""Host speed, measured alongside the program.

On a shared machine the speed of the host drifts: the same pure-Python
loop can run 1.5–2× slower for minutes at a time, which is longer than
one run and so cannot be taken out by any statistic over the run's own
passes.  The benchmark therefore times a fixed reference job between
its timed segments (set-ups, passes) and between the operations of a
pass — never inside a timed operation — and reports every wall time
rescaled to a host on which that job takes :data:`REFERENCE_SECONDS`::

    reported = wall * REFERENCE_SECONDS / mean(the run's samples)

The host flips between a fast and a slow state several times a second
(the job takes about 1.4 ms or about 2.7 ms), so one sample catches one
state, while a pass of a second or more runs through many.  The mean
of the samples spread over the run estimates the share of time the host
spent slow, which is what slows the passes; a median would jump between
the two states.  One factor for the whole run is the most precise
estimate (a 30-second run takes 90 to 280 samples); slowdowns shorter
than a run are left to the medians over passes.

The job is interpreter-bound work of the same kind as the program's
(string slicing, dictionary updates, tuple sorting, calls), and it does
not touch the program, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Time of one :func:`reference_job` on a 2-core VM (Python 3.11) while
#: the host is in its fast state; every reported time is rescaled to it.
REFERENCE_SECONDS = 0.0014
#: Reference jobs per sample; the sample is their median.
REPEATS = 5
#: Seconds between samples taken between the operations of a pass.
INTERVAL = 0.1


def reference_job() -> int:
    """A fixed amount of interpreter-bound work."""
    text = "ACGTTGCA" * 40
    counts: dict[str, int] = {}
    total = 0
    for index in range(4000):
        start = (index * 7) % 300
        key = text[start:start + 9]
        counts[key] = counts.get(key, 0) + index
        total += len(key.lower())
    ordered = sorted((value % 101, key) for key, value in counts.items())
    return total + len(ordered) + sum(value for value, __ in ordered)


class Pace:
    """Timed samples of the reference job, taken between the benchmark's
    timed segments and between the operations of a pass."""

    def __init__(self) -> None:
        #: (when the sample was taken, median job seconds)
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        times = []
        for __ in range(REPEATS):
            start = perf_counter()
            reference_job()
            times.append(perf_counter() - start)
        self.samples.append((perf_counter(), statistics.median(times)))

    def tick(self) -> None:
        """Sample unless the last sample is more recent than INTERVAL."""
        if not self.samples or perf_counter() - self.samples[-1][0] \
                >= INTERVAL:
            self.sample()

    def mean(self) -> float:
        return statistics.fmean(value for __, value in self.samples)

    def scale(self) -> float:
        """The factor that rescales the run's wall times."""
        return REFERENCE_SECONDS / self.mean()
