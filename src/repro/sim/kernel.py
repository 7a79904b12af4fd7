"""Discrete-event simulation kernel.

A classic priority-queue DES: events are ``(time, sequence, record)``
tuples on a binary heap (:mod:`heapq`); the kernel pops the earliest
event, advances the clock to its timestamp, and invokes the callback.
Ties are broken by the monotonically increasing sequence number (FIFO
insertion order), which makes runs deterministic for a given seed and
schedule.

Hot-path design (every simulated poll passes through here several
times):

* Heap entries are plain tuples, so ordering is resolved by C-level
  tuple comparison on ``(time, sequence)`` — no rich-comparison methods
  on event objects ever run, and the sequence tiebreaker guarantees the
  payload in slot 2 is never compared.
* The mutable per-event state lives in a ``__slots__`` record
  (:class:`_Event`) shared between the heap entry and the
  :class:`EventHandle` returned to the caller, so cancellation needs no
  side-table lookup.
* Event records are pooled.  A fired record is released to the free
  list just before its callback runs; a cancelled record stays on the
  heap until it surfaces, and is released when :meth:`Kernel._drain`
  skips it.  :meth:`Kernel.schedule_raw` reuses a free record and bumps
  its ``generation``, so a stale handle can tell a recycled event from
  its own.
* :meth:`Kernel._drain` binds hot attributes to locals and pops inline.
* :meth:`Kernel.schedule_series` reserves a block of sequence numbers
  and keeps one heap entry per series, re-pushing its record with the
  next reserved key as each element fires (trace updates).

Event times must be finite and not in the past; anything else (NaN,
infinity, an earlier time) raises ``SimulationError`` at scheduling
time, so the heap only ever holds totally ordered keys.

The kernel is deliberately small — no coroutines, no channels — because
the paper's simulation only needs timers (TTR expirations, triggered
polls and trace updates).  The :mod:`repro.sim.process` module layers a
lightweight process abstraction on top for components that prefer that
style.
"""

from __future__ import annotations

import heapq
import math
import operator
from itertools import islice
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.errors import SchedulingInPastError, SimulationError
from repro.core.types import Seconds

#: An event callback.  It receives the kernel so it can schedule
#: follow-up events; the current time is ``kernel.now()``.
EventCallback = Callable[["Kernel"], None]

_INF = math.inf
_heappush = heapq.heappush
_heappop = heapq.heappop


def _bad_time(now: Seconds, when: Seconds) -> SimulationError:
    """The error for an event time outside ``[now, inf)``."""
    if when < now:
        return SchedulingInPastError(now, when)
    return SimulationError(f"event time must be finite, got t={when}")


class _Event:
    """Mutable per-event state shared by the heap entry and its handle.

    Ordering lives in the enclosing ``(time, sequence, event)`` entry
    tuple, never here — this record only carries the callback and the
    cancelled/fired flags consulted at pop time.  Records are pooled:
    ``generation`` increments each time the kernel recycles one, so a
    handle can detect that its event is long gone.
    """

    __slots__ = ("time", "callback", "label", "cancelled", "fired", "generation")

    def __init__(self, time: Seconds, callback: EventCallback, label: str) -> None:
        self.time = time
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = False
        self.generation = 0


class EventHandle:
    """A handle to a scheduled event, usable to cancel it.

    Cancellation is lazy: the heap entry is flagged and skipped
    when it reaches the head of the queue.  Cancelling an already-fired
    or already-cancelled event is an error (it usually indicates a
    bookkeeping bug in the caller), surfaced as ``SimulationError``.

    The handle snapshots the event's time/label and generation at
    creation: once the underlying record is recycled for a later event
    (its generation moved on), the handle keeps reporting its own
    event's fate instead of the stranger's.
    """

    __slots__ = ("_event", "_generation", "_time", "_label", "_cancelled")

    def __init__(self, event: _Event) -> None:
        self._event = event
        self._generation = event.generation
        self._time = event.time
        self._label = event.label
        self._cancelled = False

    @property
    def time(self) -> Seconds:
        """The time the event is (or was) scheduled to fire."""
        return self._time

    @property
    def label(self) -> str:
        return self._label

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        if self._cancelled:
            return False
        event = self._event
        return event.generation != self._generation or event.fired

    @property
    def pending(self) -> bool:
        """True if the event is still waiting to fire."""
        if self._cancelled:
            return False
        event = self._event
        return event.generation == self._generation and not event.fired

    def cancel(self) -> None:
        """Cancel the event.  Raises ``SimulationError`` if not pending."""
        if self.fired:
            raise SimulationError(
                f"cannot cancel event {self._label!r}: already fired"
            )
        if self._cancelled:
            raise SimulationError(
                f"cannot cancel event {self._label!r}: already cancelled"
            )
        self._cancelled = True
        self._event.cancelled = True

    def cancel_if_pending(self) -> bool:
        """Cancel the event if pending; return whether it was cancelled."""
        if self.pending:
            self._cancelled = True
            self._event.cancelled = True
            return True
        return False

    def __repr__(self) -> str:
        state = (
            "cancelled" if self._cancelled else ("fired" if self.fired else "pending")
        )
        return f"EventHandle(t={self._time}, label={self._label!r}, {state})"


class Kernel:
    """The discrete-event simulation engine.

    Args:
        start_time: Initial clock value.

    Example:
        >>> k = Kernel()
        >>> fired = []
        >>> _ = k.schedule_at(5.0, lambda kern: fired.append(kern.now()))
        >>> k.run()
        >>> fired
        [5.0]
    """

    __slots__ = (
        "_now",
        "_heap",
        "_sequence",
        "_running",
        "_events_processed",
        "_free",
        "_backlog",
    )

    def __init__(self, start_time: Seconds = 0.0) -> None:
        if not 0 <= start_time < _INF:
            raise ValueError(f"start_time must be finite and >= 0, got {start_time}")
        self._now: Seconds = start_time
        self._heap: List[Tuple[Seconds, int, _Event]] = []
        self._free: List[_Event] = []
        self._sequence = 0
        self._running = False
        self._events_processed = 0
        # Series elements not yet on the heap (see schedule_series).
        self._backlog = 0

    # ------------------------------------------------------------------
    # Clock protocol
    # ------------------------------------------------------------------
    def now(self) -> Seconds:
        """Current simulation time (satisfies the ``Clock`` protocol)."""
        return self._now

    @property
    def scheduler_kind(self) -> str:
        """The event-queue implementation, stamped into run reports."""
        return "heap"

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_raw(
        self, when: Seconds, callback: EventCallback, label: str = ""
    ) -> _Event:
        """Schedule ``callback`` at ``when``; return the bare event record.

        The allocation-free inner path behind :meth:`schedule_at` and
        the timer helpers in :mod:`repro.sim.timers`: the record comes
        from the kernel's free list when one is available, and no
        :class:`EventHandle` is built.  Callers that hold the record may
        cancel it by setting ``cancelled`` while its ``generation`` is
        unchanged; anything longer-lived should take a handle instead.

        Raises:
            SchedulingInPastError: if ``when`` precedes the current time.
            SimulationError: if ``when`` is NaN or infinite.
        """
        if not self._now <= when < _INF:
            raise _bad_time(self._now, when)
        free = self._free
        if free:
            event = free.pop()
            event.generation += 1
            event.time = when
            event.callback = callback
            event.label = label
            event.cancelled = False
            event.fired = False
        else:
            event = _Event(when, callback, label)
        sequence = self._sequence
        self._sequence = sequence + 1
        _heappush(self._heap, (when, sequence, event))
        return event

    def schedule_at(
        self, when: Seconds, callback: EventCallback, *, label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` to run at absolute time ``when``.

        Raises:
            SchedulingInPastError: if ``when`` precedes the current time.
            SimulationError: if ``when`` is NaN or infinite.
        """
        # Mirrors schedule_raw rather than calling it: this is the
        # public per-event entry point, and the extra frame is
        # measurable under client-arrival workloads.
        if not self._now <= when < _INF:
            raise _bad_time(self._now, when)
        free = self._free
        if free:
            event = free.pop()
            event.generation += 1
            event.time = when
            event.callback = callback
            event.label = label
            event.cancelled = False
            event.fired = False
        else:
            event = _Event(when, callback, label)
        sequence = self._sequence
        self._sequence = sequence + 1
        _heappush(self._heap, (when, sequence, event))
        return EventHandle(event)

    def schedule_after(
        self, delay: Seconds, callback: EventCallback, *, label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback, label=label)

    def schedule_series(
        self,
        times: Sequence[Seconds],
        callback: Callable[["Kernel", int], None],
        *,
        label: str = "",
    ) -> None:
        """Dispatch ``callback(kernel, i)`` at each strictly ascending ``times[i]``.

        Dispatch is exactly that of calling :meth:`schedule_at` once per
        element now: the series takes a block of ``len(times)`` sequence
        numbers, so every element keeps its ``(time, sequence)`` key.
        Only the next element sits on the heap; firing element *i*
        pushes element *i + 1* on the recycled record.  Elements cannot
        be cancelled.

        Raises:
            SchedulingInPastError: if ``times[0]`` precedes the current time.
            SimulationError: if a time is NaN or infinite, or not after
                its predecessor.  Either error leaves the kernel untouched.
        """
        times = tuple(times)
        if not times:
            return
        now = self._now
        if not (
            now <= times[0]
            and times[-1] < _INF
            and all(map(operator.lt, times, islice(times, 1, None)))
        ):
            for index, when in enumerate(times):
                if not now <= when < _INF:
                    raise _bad_time(now, when)
                if index and not times[index - 1] < when:
                    raise SimulationError(
                        f"series time t={when} is not after t={times[index - 1]}"
                    )
        first, last = self._sequence, len(times) - 1
        heap, free, cursor = self._heap, self._free, 0

        def fire(kernel: Kernel) -> None:
            nonlocal cursor
            current = cursor
            if current < last:
                # _drain freed this record just before calling back, and
                # no handle ever sees it: re-arm it as is for the next
                # element before the callback runs, so the rest of the
                # series stays pending even if the callback raises.
                cursor = current + 1
                event = free.pop()
                event.time = when = times[cursor]
                self._backlog -= 1
                _heappush(heap, (when, first + cursor, event))
            callback(kernel, current)

        self._sequence += len(times)
        self._backlog += last
        _heappush(heap, (times[0], first, _Event(times[0], fire, label)))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next pending event.

        Returns:
            True if an event was processed, False if the queue is empty.
        """
        return self._drain(_INF, 1) == 1

    def _drain(self, until: Seconds, max_events: Optional[int]) -> int:
        """Dispatch pending events in (time, sequence) order.

        The single pop loop behind :meth:`step` and :meth:`run`.
        Cancelled entries are released to the free list as they
        surface; the loop stops at the first event past ``until``
        (events exactly at ``until`` are dispatched; the later event is
        pushed back unchanged), and the clock is left at the last
        dispatched event.  Fired records are released to the free list
        *before* their callback runs, so the fire→re-arm pattern reuses
        the same record without growing the pool.  Callers own the
        ``_running`` guard and the end-of-run clock policy.
        """
        processed = 0
        heap = self._heap
        pop = _heappop
        free = self._free
        try:
            while heap and processed != max_events:
                entry = pop(heap)
                event = entry[2]
                if event.cancelled:
                    free.append(event)
                    continue
                when = entry[0]
                if when > until:
                    _heappush(heap, entry)
                    break
                self._now = when
                event.fired = True
                callback = event.callback
                free.append(event)
                callback(self)
                processed += 1
        finally:
            # Folded in once per drain, not per event; the finally
            # keeps the count honest when a callback raises.
            self._events_processed += processed
        return processed

    def run(
        self,
        *,
        until: Optional[Seconds] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queue is empty, ``until`` is reached, or
        ``max_events`` events have been processed.

        Events scheduled exactly at ``until`` are processed; the clock is
        advanced to ``until`` at the end even when the queue empties
        earlier, so time-weighted statistics cover the full horizon.
        A run cut short by ``max_events`` leaves the clock at the last
        dispatched event instead, since events before ``until`` may
        still be pending.

        Returns:
            The number of events processed by this call.
        """
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run())")
        if until is not None and not until >= self._now:
            if math.isnan(until):
                raise SimulationError("cannot run until t=nan")
            raise SimulationError(
                f"cannot run until t={until}, already at t={self._now}"
            )
        self._running = True
        before = self._events_processed
        processed = 0
        try:
            processed = self._drain(_INF if until is None else until, max_events)
            if until is not None and processed != max_events and self._now < until:
                self._now = until
        finally:
            self._running = False
            global _TOTAL_EVENTS
            _TOTAL_EVENTS += self._events_processed - before
        return processed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of pending (non-cancelled) events."""
        on_heap = sum(1 for entry in self._heap if not entry[2].cancelled)
        return on_heap + self._backlog

    @property
    def events_processed(self) -> int:
        """Total events processed over the kernel's lifetime."""
        return self._events_processed

    def __repr__(self) -> str:
        return (
            f"Kernel(now={self._now}, pending={self.pending_count}, "
            f"processed={self._events_processed})"
        )


#: Process-local running total of events processed by every Kernel.run()
#: call, used by the benchmark harness to derive events/sec without
#: threading a kernel reference through each experiment's return value.
#: (Sweep points executed in worker processes accumulate into their own
#: process's total; the harness reports the main-process delta.)
_TOTAL_EVENTS = 0


def total_events_processed() -> int:
    """Events processed by all ``Kernel.run()`` calls in this process."""
    return _TOTAL_EVENTS
