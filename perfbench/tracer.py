"""In-memory spans, timing shims and self-time arithmetic for the traced run.

The benchmark measures the program from outside: it opens one *root*
span around each top-level call it makes (an ``initial_load()``, one
BiQL statement, one macro day) and, in the traced run only, replaces
the public entry points of each ``repro`` layer with shims that record
a span per call.  A shim records only while a root is open on its
thread, so set-up work and anything the benchmark does between
operations stays out of the trace.

Spans are plain tuples kept in one list and written out when the run
ends.  A task handed to a worker pool runs under :meth:`Tracer.adopt`,
which records it as a span of its own whose parent is the span that
called the pool, on whatever thread executes it.

Self time (:func:`self_times`) is exclusive wall time: each instant of
a root's interval is charged to the spans running at that instant with
no running child of their own.  When several such spans run at once
(concurrent fan-out) they split that instant evenly.  The self times of
one tree therefore add up to the root's duration exactly, and
overlapping children are never subtracted twice: a span with no
concurrent sibling gets its duration minus the *union* of its
children's intervals, and a span that runs alongside siblings gets at
most that.  Charging each concurrent span the full instant instead
would make a layer's self time exceed its parent's duration, the double
count of in-program per-layer breakdowns.
"""

from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple

#: Layer name of the benchmark's own root spans; their self time is the
#: share of an operation no layer shim accounts for.
ROOT_LAYER = "bench"


class Span(NamedTuple):
    id: int
    parent: "int | None"
    root: int
    name: str
    layer: str
    start: float
    end: float
    #: Per-call quantity a shim extracts (rows affected, deltas, ...).
    value: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from shims and from the benchmark's root operations."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: dict[str, itertools.count] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self, name: str):
        """Open a root span around one top-level call."""
        stack = self._stack()
        span_id = next(self._ids)
        stack.append((span_id, span_id))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, None, span_id, name,
                                   ROOT_LAYER, start, end))

    def wrap(self, function: Callable, name: str, layer: str,
             value: "Callable[[tuple, Any], Any] | None" = None
             ) -> Callable:
        """A shim around *function* that records one span per call
        made under an open root; ``value(args, result)`` annotates it."""
        local = self._local
        ids = self._ids
        spans = self.spans

        @functools.wraps(function)
        def shim(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return function(*args, **kwargs)
            parent, root = stack[-1]
            span_id = next(ids)
            stack.append((span_id, root))
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                spans.append(Span(span_id, parent, root, name, layer,
                                  start, end))
                raise
            end = perf_counter()
            stack.pop()
            spans.append(Span(span_id, parent, root, name, layer,
                              start, end,
                              value(args, result) if value else None))
            return result

        return shim

    def adopt(self, task: Callable, name: str, layer: str) -> Callable:
        """Run *task* as a span of its own, under the current span, on
        whatever thread executes it."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return task
        frame = stack[-1]
        local = self._local
        shim = self.wrap(task, name, layer)

        def adopted():
            saved = getattr(local, "stack", None)
            local.stack = [frame]
            try:
                return shim()
            finally:
                local.stack = saved

        return adopted

    def counting(self, function: Callable, name: str) -> Callable:
        """A shim that only counts calls made under an open root."""
        ticks = self._counters.setdefault(name, itertools.count())
        local = self._local

        @functools.wraps(function)
        def shim(*args, **kwargs):
            if getattr(local, "stack", None):
                next(ticks)
            return function(*args, **kwargs)

        return shim

    def counts(self) -> dict[str, int]:
        """Calls counted so far, per counter name."""
        # itertools.count increments atomically under the GIL; its repr
        # is the only way to read it without advancing it.
        return {name: int(repr(ticks)[len("count("):-1])
                for name, ticks in self._counters.items()}

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        """Replace ``owner.attribute`` where callers look it up; the
        attribute must be defined on *owner* itself."""
        original = vars(owner)[attribute]
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def unpatch(self) -> list[str]:
        """Restore every patched name; returns the names that are not
        their original object afterwards (empty when clean)."""
        restored = []
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
            restored.append((owner, attribute, original))
        return [f"{getattr(owner, '__name__', owner)}.{attribute}"
                for owner, attribute, original in restored
                if vars(owner).get(attribute) is not original]


# -- arithmetic -------------------------------------------------------------

def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Exclusive wall time of every span (see the module docstring)."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    depth: dict[int, int] = {}

    def depth_of(span_id: int) -> int:
        chain = []
        current = span_id
        while current in by_id and current not in depth:
            chain.append(current)
            current = by_id[current].parent
        level = depth.get(current, -1)
        for member in reversed(chain):
            level += 1
            depth[member] = level
        return depth[span_id]

    events = []
    for span in spans:
        level = depth_of(span.id)
        # At one instant: ends before starts, deepest end first,
        # shallowest start first — a tree never goes transiently inside out.
        events.append((span.end, 0, -level, span.id))
        events.append((span.start, 1, level, span.id))
    events.sort()

    own = {span.id: 0.0 for span in spans}
    children_running: dict[int, int] = {span.id: 0 for span in spans}
    running: set[int] = set()
    frontier: dict[int, float] = {}   # span id -> share total on entry
    shared = 0.0                      # running integral of dt / |frontier|
    last = events[0][0] if events else 0.0
    for moment, kind, __, span_id in events:
        if frontier:
            shared += (moment - last) / len(frontier)
        last = moment
        parent = by_id[span_id].parent
        if parent not in by_id:
            parent = None
        if kind == 1:
            running.add(span_id)
            if parent is not None:
                if parent in frontier:
                    own[parent] += shared - frontier.pop(parent)
                children_running[parent] += 1
            if children_running[span_id] == 0:
                frontier[span_id] = shared
        else:
            if span_id in frontier:
                own[span_id] += shared - frontier.pop(span_id)
            running.discard(span_id)
            if parent is not None:
                children_running[parent] -= 1
                if children_running[parent] == 0 and parent in running:
                    frontier[parent] = shared
    return own


def layer_table(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per layer: self seconds, inclusive seconds and call count.

    Inclusive time sums the outermost span of each nested run of one
    layer (a layer re-entering itself is not counted twice)."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.layer,
                               {"self_s": 0.0, "inclusive_s": 0.0,
                                "calls": 0})
        row["self_s"] += own[span.id]
        row["calls"] += 1
        parent = by_id.get(span.parent)
        while parent is not None and parent.layer != span.layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            row["inclusive_s"] += span.duration
    return table
