"""Worker pools for mediator fan-out.

The mediator fans one job per source out over a pool.  Every pool runs
its jobs on the caller's thread — the sources are in-process and all
latency is *modelled* on the shared virtual clock, so real threads
would buy no modelled latency and no answers.  Three pools share the
interface:

- :class:`SequentialPool` — the legacy baseline: jobs advance the
  shared virtual clock directly (summed per-source time);
- :class:`ThreadedPool` — ``parallel``: the mediator runs each job on
  its own :class:`~repro.sources.faults.ClockTrack` and joins the
  tracks back into the shared clock with :func:`bounded_makespan`, so
  modelled latency is that of ``max_workers``-way parallelism;
- ``DeterministicPool`` (in ``tests/concurrency``) — like
  :class:`ThreadedPool`, but in a *seeded permutation* of submission
  order, which makes every order-sensitive code path replayable.

A pool's :meth:`~WorkerPool.run` returns results **in submission
order** regardless of execution order — answer fusion stays
deterministic by construction.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.errors import MediatorError

_T = TypeVar("_T")


def bounded_makespan(durations: Sequence[float], workers: int) -> float:
    """Virtual wall-clock of running *durations* on *workers* lanes.

    Greedy list scheduling in submission order — each job starts on the
    lane that frees up first, which is exactly how a bounded thread pool
    drains its queue.  With one lane this degenerates to ``sum()``; with
    ``workers >= len(durations)`` to ``max()``.
    """
    if not durations:
        return 0.0
    lanes = [0.0] * max(1, min(workers, len(durations)))
    for duration in durations:
        index = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[index] += duration
    return max(lanes)


class WorkerPool:
    """Interface: run a batch of thunks, return results in order."""

    #: Whether jobs model concurrent execution (drives the mediator's
    #: decision to isolate each job on a clock track).
    parallel: bool = False
    #: Lane count used for the makespan join.
    max_workers: int = 1

    def run(self, tasks: Sequence[Callable[[], _T]]) -> list[_T]:
        raise NotImplementedError


class SequentialPool(WorkerPool):
    """Jobs run inline on the caller's thread, in submission order."""

    parallel = False
    max_workers = 1

    def run(self, tasks: Sequence[Callable[[], _T]]) -> list[_T]:
        return [task() for task in tasks]


class ThreadedPool(WorkerPool):
    """A parallel pool of *max_workers* modelled lanes.

    Jobs run inline, in submission order; the parallelism lives on the
    virtual clock (one track per job, joined by makespan).  A raising
    job does not cancel its siblings: every job runs, then the first
    failure in submission order is re-raised.

    The name is kept because the wall-clock benchmark's traced mode
    patches ``run`` on each pool class by name (``perfbench/layers.py``).
    """

    parallel = True

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise MediatorError("a worker pool needs at least one worker")
        self.max_workers = max_workers

    def run(self, tasks: Sequence[Callable[[], _T]]) -> list[_T]:
        results, failures = [], []
        for task in tasks:
            try:
                results.append(task())
            except Exception as error:
                failures.append(error)
        if failures:
            raise failures[0]
        return results

    def __repr__(self) -> str:
        return f"ThreadedPool(max_workers={self.max_workers})"
