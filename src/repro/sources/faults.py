"""Deterministic fault injection for simulated repositories.

The paper's sources are autonomous archives that "change, disappear, and
answer inconsistently"; every federation component must therefore treat
partial source failure as the normal case.  This module makes that
failure mode *reproducible*: :class:`FaultyRepository` wraps any
:class:`~repro.sources.base.Repository` behind a proxy whose faults are
seeded and schedulable, so chaos scenarios, resilience tests, and the
fault-rate ablation benchmark all replay bit for bit.

Fault modes (freely combinable):

- **intermittent failure** — each guarded call (``snapshot``, ``query``,
  ``query_accessions``, ``read_log``) fails with a structured
  :class:`~repro.errors.SourceError` at a seeded probability, or the
  next *n* calls fail deterministically (:meth:`FaultyRepository.fail_next`);
- **outage windows** — intervals on a shared :class:`VirtualClock`
  during which every guarded call fails and push notifications are
  dropped (flapping availability);
- **injected latency** — each guarded call advances the virtual clock,
  so retry backoff and per-query deadline budgets interact with slow
  sources without any real sleeping;
- **corruption** — snapshot / query payloads are truncated or garbled
  at a seeded probability (the quarantine path's raw material);
- **channel loss** — the change log or the push channel alone can be
  taken down, forcing monitors onto the Figure 2 degradation ladder.

All fault decisions come from one ``random.Random`` seeded from the
wrapped source's name, never from wall-clock time.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import SourceError
from repro.obs.metrics import count as _metric
from repro.sources.base import LogEntry, Repository

#: Operations the proxy guards (every remote round-trip a caller can make).
GUARDED_OPERATIONS = ("snapshot", "query", "query_accessions", "read_log")


class ClockTrack:
    """A private branch of virtual time for one concurrent task.

    While a track is open on a thread, that thread's ``now()`` /
    ``advance()`` calls read and grow ``origin + offset`` instead of the
    shared timeline, so parallel tasks each accumulate their *own*
    virtual elapsed time from a common starting instant.  The mediator
    joins tracks back into the shared clock with a makespan computed
    from the per-track offsets (see ``repro.mediator.pool``).
    """

    __slots__ = ("origin", "offset")

    def __init__(self, origin: float) -> None:
        self.origin = float(origin)
        self.offset = 0.0

    @property
    def elapsed(self) -> float:
        return self.offset


class VirtualClock:
    """A shared simulated timeline (floats, no real sleeping).

    Latency injection, retry backoff, breaker reset timeouts, and
    outage windows all advance / read the same clock, so their
    interactions are deterministic and instantaneous to test.

    The clock is thread-safe.  Modelled-parallel fan-out additionally
    uses *tracks* (:meth:`open_track` / :meth:`close_track`): a job
    running on its own track sees virtual time progress independently
    of its siblings, which keeps per-job backoff and deadline
    arithmetic independent of the order the fan-out runs its jobs in.

    Tracks **nest** per thread: the serving layer measures one source
    call on an inner track while a fan-out job's outer track stays
    open, and the serving loop itself runs whole queries on tracks
    branched off their virtual start instants.  Each thread holds a
    stack; only the top track is live, and :meth:`close_track` must be
    handed that top track (strict LIFO), so an unbalanced caller fails
    loudly instead of corrupting a sibling's arithmetic.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _track_stack(self) -> list[ClockTrack]:
        stack = getattr(self._local, "tracks", None)
        if stack is None:
            stack = []
            self._local.tracks = stack
        return stack

    def _active_track(self) -> ClockTrack | None:
        stack = self._track_stack()
        return stack[-1] if stack else None

    def now(self) -> float:
        track = self._active_track()
        if track is not None:
            return track.origin + track.offset
        with self._lock:
            return self._now

    def advance(self, amount: float) -> float:
        if amount < 0:
            raise ValueError("a virtual clock cannot run backwards")
        track = self._active_track()
        if track is not None:
            track.offset += amount
            return track.origin + track.offset
        with self._lock:
            self._now += amount
            return self._now

    def open_track(self, origin: float | None = None) -> ClockTrack:
        """Branch this thread's virtual time off at *origin* (default: now)."""
        track = ClockTrack(self.now() if origin is None else origin)
        self._track_stack().append(track)
        return track

    def close_track(self, track: ClockTrack) -> float:
        """End *track* on this thread; returns its virtual elapsed time.

        Tracks close strictly LIFO: *track* must be the innermost open
        track on this thread.
        """
        stack = self._track_stack()
        if not stack or stack[-1] is not track:
            raise RuntimeError("closing a clock track that is not open here")
        stack.pop()
        return track.offset

    def __repr__(self) -> str:
        return f"VirtualClock(t={self.now():.2f})"


@dataclass
class FaultStats:
    """What the proxy actually did to its caller (per proxy lifetime).

    Counter updates go through :meth:`bump`, which holds a lock so
    concurrent fan-out over many proxies sharing a stats object never
    loses an increment.  The lock is a plain attribute, not a dataclass
    field, so ``fields()``-based iteration and copying stay unchanged.
    """

    calls: int = 0
    failures: int = 0
    corruptions: int = 0
    dropped_notifications: int = 0
    injected_latency: float = 0.0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def bump(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)
        _metric("faults", counter, amount)


@dataclass(frozen=True)
class OutageWindow:
    """A half-open ``[start, end)`` interval of unavailability."""

    start: float
    end: float

    def covers(self, instant: float) -> bool:
        return self.start <= instant < self.end


class FaultyRepository:
    """A :class:`Repository` proxy with seeded, schedulable faults.

    Everything not explicitly guarded (``accessions``, ``record_state``,
    ``render_record``, ``advance``, ``clock`` …) delegates to the
    wrapped repository untouched — ground-truth inspection in tests
    stays fault-free.
    """

    def __init__(
        self,
        repository: Repository,
        timeline: VirtualClock | None = None,
        seed: int = 0,
    ) -> None:
        self.inner = repository
        self.timeline = timeline if timeline is not None else VirtualClock()
        self._rng = random.Random(("faults", repository.name, seed).__repr__())
        self.stats = FaultStats()
        self._fail_rates: dict[str, float] = {}
        self._forced_failures: dict[str, int] = {}
        self._outages: list[OutageWindow] = []
        self._latency = 0.0
        self._slow_rate = 0.0
        self._slow_factor = 10.0
        self._corrupt_rate = 0.0
        self._log_channel_down = False
        self._push_channel_down = False

    # -- scheduling API ---------------------------------------------------------

    def fail_with_rate(self, rate: float, *operations: str) -> None:
        """Fail each guarded call with probability *rate* (seeded)."""
        for operation in operations or GUARDED_OPERATIONS:
            self._fail_rates[operation] = rate

    def fail_next(self, count: int, *operations: str) -> None:
        """Deterministically fail the next *count* calls per operation."""
        for operation in operations or GUARDED_OPERATIONS:
            self._forced_failures[operation] = (
                self._forced_failures.get(operation, 0) + count
            )

    def schedule_outage(self, start: float, end: float) -> None:
        """Every guarded call in ``[start, end)`` virtual time fails."""
        if end <= start:
            raise ValueError(f"empty outage window [{start}, {end})")
        self._outages.append(OutageWindow(start, end))

    def add_latency(self, amount: float, slow_rate: float = 0.0,
                    slow_factor: float = 10.0) -> None:
        """Each guarded call advances the virtual clock by *amount*.

        ``slow_rate`` gives the latency distribution a heavy tail: that
        fraction of calls (seeded) takes ``slow_factor`` times longer —
        the straggler population hedged requests exist to cut off.
        """
        self._latency = amount
        self._slow_rate = slow_rate
        self._slow_factor = slow_factor

    def corrupt_with_rate(self, rate: float) -> None:
        """Truncate or garble returned record text with probability *rate*."""
        self._corrupt_rate = rate

    def drop_log_channel(self) -> None:
        self._log_channel_down = True

    def restore_log_channel(self) -> None:
        self._log_channel_down = False

    def drop_push_channel(self) -> None:
        self._push_channel_down = True

    def restore_push_channel(self) -> None:
        self._push_channel_down = False

    # -- fault machinery --------------------------------------------------------

    def in_outage(self, instant: float | None = None) -> bool:
        when = self.timeline.now() if instant is None else instant
        return any(window.covers(when) for window in self._outages)

    def _fail(self, operation: str, reason: str) -> None:
        self.stats.bump("failures")
        raise SourceError(
            f"{self.name} failed {operation}: {reason}",
            source=self.name, operation=operation,
        )

    def _guard(self, operation: str) -> None:
        self.stats.bump("calls")
        if self._latency:
            latency = self._latency
            if self._slow_rate and self._rng.random() < self._slow_rate:
                latency *= self._slow_factor
            self.timeline.advance(latency)
            self.stats.bump("injected_latency", latency)
        if self.in_outage():
            self._fail(operation, "source unavailable (outage window)")
        forced = self._forced_failures.get(operation, 0)
        if forced > 0:
            self._forced_failures[operation] = forced - 1
            self._fail(operation, "injected failure")
        rate = self._fail_rates.get(operation, 0.0)
        if rate and self._rng.random() < rate:
            self._fail(operation, "intermittent failure")

    def _maybe_corrupt(self, text: str) -> str:
        if not text or not self._corrupt_rate:
            return text
        if self._rng.random() >= self._corrupt_rate:
            return text
        self.stats.bump("corruptions")
        if self._rng.random() < 0.5 and len(text) > 1:
            # Truncation: the transfer died mid-payload.
            return text[:self._rng.randrange(1, len(text))]
        # Garbling: a window of the payload is overwritten with junk.
        chars = list(text)
        width = max(1, len(chars) // 8)
        start = self._rng.randrange(max(1, len(chars) - width))
        for index in range(start, min(len(chars), start + width)):
            if chars[index] != "\n":
                chars[index] = "#"
        return "".join(chars)

    # -- guarded access paths ---------------------------------------------------

    def snapshot(self) -> str:
        self._guard("snapshot")
        return self._maybe_corrupt(self.inner.snapshot())

    def query(self, accession: str) -> str | None:
        self._guard("query")
        text = self.inner.query(accession)
        return self._maybe_corrupt(text) if text is not None else None

    def query_accessions(self) -> tuple[str, ...]:
        self._guard("query_accessions")
        return self.inner.query_accessions()

    def read_log(self, since_sequence_number: int = 0) -> list[LogEntry]:
        if self._log_channel_down:
            self.stats.bump("calls")
            self._fail("read_log", "log channel unavailable")
        self._guard("read_log")
        return self.inner.read_log(since_sequence_number)

    def subscribe(
        self, callback: Callable[[LogEntry, str | None], None]
    ) -> None:
        def guarded(entry: LogEntry, rendered: str | None) -> None:
            if not self.push_channel_available():
                self.stats.bump("dropped_notifications")
                return
            callback(entry, rendered)

        self.inner.subscribe(guarded)

    def push_channel_available(self) -> bool:
        return (self.inner.push_channel_available()
                and not self._push_channel_down
                and not self.in_outage())

    # -- transparent delegation -------------------------------------------------

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def capabilities(self):
        return self.inner.capabilities

    @property
    def representation(self) -> str:
        return self.inner.representation

    @property
    def stores_protein(self) -> bool:
        return self.inner.stores_protein

    @property
    def clock(self) -> int:
        return self.inner.clock

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, attribute: str):
        # accessions / record_state / render_record / advance / universe …
        return getattr(self.inner, attribute)

    def __repr__(self) -> str:
        return (f"FaultyRepository({self.inner!r}, "
                f"failures={self.stats.failures}, "
                f"corruptions={self.stats.corruptions})")
