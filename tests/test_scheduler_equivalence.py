"""Differential tests: the kernel dispatches exactly like a reference model.

:class:`repro.sim.kernel.Kernel` keeps its events on a binary heap with
lazy cancellation and pooled records.  The model below keeps them in a
plain sorted list with eager bookkeeping, so it is slow but obviously
right: for any interleaving of schedule / series / cancel / run / step
operations, both must fire the same events at the same times in the
same ``(time, sequence)`` order — including same-time FIFO ties,
cancelled entries, events scheduled from callbacks and runs cut short
by ``max_events`` — and agree on the clock, ``events_processed`` and
``pending_count`` after every run.  The model expands a series into one
eager event per element with consecutive sequence numbers, which the
kernel's one-entry-per-series dispatch must be indistinguishable from.
Hypothesis generates the operation scripts.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, List, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Kernel

#: A dispatch transcript entry: (fire time, event label).  Labels are
#: unique per scheduled event, so transcript equality pins the exact
#: (time, sequence) dispatch order, not just the times.
Transcript = List[Tuple[float, str]]

# Quantized delays collide often (coincident timestamps exercise the
# sequence tie-break); the float tail covers arbitrary spacings, and
# the large values put far-future entries on the queue.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.sampled_from([5_000.0, 80_000.0, 2_000_000.0]),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("chain"), _DELAYS, _DELAYS),
        st.tuples(
            st.just("series"),
            st.lists(_DELAYS, max_size=6),
            st.one_of(st.none(), _DELAYS),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=999)),
        st.tuples(st.just("run"), _DELAYS),
        st.tuples(st.just("run_max"), _DELAYS, st.integers(0, 4)),
        st.tuples(st.just("step"), st.just(0)),
    ),
    max_size=60,
)


class _ModelEvent:
    """One model event: its ``(time, sequence)`` key, callback and state."""

    __slots__ = ("key", "callback", "state")

    def __init__(self, key: Tuple[float, int], callback: Callable[..., None]) -> None:
        self.key = key
        self.callback = callback
        self.state = "pending"

    def __lt__(self, other: "_ModelEvent") -> bool:
        return self.key < other.key

    def cancel_if_pending(self) -> None:
        if self.state == "pending":
            self.state = "cancelled"


class _ReferenceKernel:
    """The kernel's contract as a sorted list, re-scanned on every pop.

    Mirrors the slice of the :class:`Kernel` API the scripts use, so
    one :func:`_execute` runs both.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_ModelEvent] = []
        self._sequence = 0
        self.events_processed = 0

    def now(self) -> float:
        return self._now

    def schedule_at(
        self, when: float, callback: Callable[..., None], *, label: str = ""
    ) -> _ModelEvent:
        event = _ModelEvent((when, self._sequence), callback)
        self._sequence += 1
        bisect.insort(self._queue, event)
        return event

    def schedule_series(
        self, times: List[float], callback: Callable[..., None], *, label: str = ""
    ) -> None:
        for index, when in enumerate(times):
            self.schedule_at(when, lambda k, i=index: callback(k, i), label=label)

    @property
    def pending_count(self) -> int:
        return sum(1 for event in self._queue if event.state == "pending")

    def step(self) -> bool:
        return self._dispatch(math.inf, 1) == 1

    def run(
        self, *, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        limit = math.inf if until is None else until
        processed = self._dispatch(limit, max_events)
        # A run cut short by max_events keeps the clock where it is.
        if until is not None and processed != max_events and self._now < until:
            self._now = until

    def _dispatch(self, until: float, max_events: Optional[int]) -> int:
        processed = 0
        while processed != max_events:
            head = next(
                (event for event in self._queue if event.state == "pending"), None
            )
            if head is None or head.key[0] > until:
                break
            head.state = "fired"
            self._now = head.key[0]
            processed += 1
            self.events_processed += 1
            head.callback(self)
        return processed


def _execute(kernel: Any, ops: List[Tuple[object, ...]]) -> Transcript:
    """Run one operation script on ``kernel``; return its transcript."""
    fired: Transcript = []
    handles = []
    labels = iter(range(10**6))

    def recorder(label: str) -> Callable[[Any], None]:
        return lambda k: fired.append((k.now(), label))

    def chained(label: str, delay: float) -> Callable[[Any], None]:
        # Schedule-during-callback: the follow-up competes for sequence
        # numbers with everything else scheduled mid-run.
        def fire(k: Any) -> None:
            fired.append((k.now(), label))
            k.schedule_at(k.now() + delay, recorder(f"{label}+"), label=f"{label}+")

        return fire

    def series_element(label: str, delay: Optional[float]) -> Callable[..., None]:
        # Element callbacks may schedule follow-ups that tie with the
        # series' own later elements.
        def fire(k: Any, index: int) -> None:
            fired.append((k.now(), f"{label}.{index}"))
            if delay is not None:
                follow = f"{label}.{index}+"
                k.schedule_at(k.now() + delay, recorder(follow), label=follow)

        return fire

    def checkpoint() -> None:
        # Fold the queue state into the transcript, so a divergence in
        # pending bookkeeping or the clock fails the comparison even if
        # dispatch order happens to agree.
        fired.append((float(kernel.pending_count), "#pending"))
        fired.append((kernel.now(), "#now"))
        fired.append((float(kernel.events_processed), "#processed"))

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            label = f"e{next(labels)}"
            handles.append(
                kernel.schedule_at(
                    kernel.now() + float(op[1]), recorder(label), label=label
                )
            )
        elif kind == "chain":
            label = f"c{next(labels)}"
            handles.append(
                kernel.schedule_at(
                    kernel.now() + float(op[1]),
                    chained(label, float(op[2])),
                    label=label,
                )
            )
        elif kind == "series":
            label = f"s{next(labels)}"
            times = sorted({kernel.now() + float(delay) for delay in op[1]})
            kernel.schedule_series(times, series_element(label, op[2]), label=label)
        elif kind == "cancel":
            if handles:
                handles[int(op[1]) % len(handles)].cancel_if_pending()
        else:
            if kind == "run":
                kernel.run(until=kernel.now() + float(op[1]))
            elif kind == "run_max":
                kernel.run(until=kernel.now() + float(op[1]), max_events=int(op[2]))
            else:
                kernel.step()
            checkpoint()
    kernel.run()
    checkpoint()
    return fired


class TestSchedulerEquivalence:
    @given(_OPS)
    @example(
        # Series elements tie with an event scheduled before the series
        # (t=1), one scheduled after it (t=2.5) and a follow-up from its
        # own element 1 (t=1 + 1.5); a cut-short run splits the series.
        [
            ("schedule", 1.0),
            ("series", [0.0, 1.0, 2.5, 7.0], 1.5),
            ("schedule", 2.5),
            ("run_max", 7.0, 2),
            ("schedule", 1.5),
            ("step", 0),
        ]
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_reference_transcript(self, ops):
        assert _execute(Kernel(), ops) == _execute(_ReferenceKernel(), ops)

    @given(
        st.lists(st.sampled_from([0.0, 1.0, 1.0, 3.0]), min_size=1, max_size=30),
        st.sets(st.integers(min_value=0, max_value=29)),
    )
    @settings(max_examples=100)
    def test_coincident_timestamps_fire_in_arm_order(self, delays, cancels):
        """Heavily colliding schedules + cancels keep FIFO tie order."""
        transcripts = []
        for kernel in (Kernel(), _ReferenceKernel()):
            fired: Transcript = []
            handles = [
                kernel.schedule_at(
                    delay,
                    (lambda lab: lambda k: fired.append((k.now(), lab)))(
                        f"e{index}"
                    ),
                    label=f"e{index}",
                )
                for index, delay in enumerate(delays)
            ]
            for index in sorted(cancels):
                if index < len(handles):
                    handles[index].cancel_if_pending()
            kernel.run()
            transcripts.append(fired)
        assert transcripts[0] == transcripts[1]
        # FIFO within each timestamp: label indices increase per time.
        by_time: dict = {}
        for time, label in transcripts[0]:
            by_time.setdefault(time, []).append(int(label[1:]))
        for indices in by_time.values():
            assert indices == sorted(indices)

    def test_events_processed_and_clock_agree(self):
        kernel, model = Kernel(), _ReferenceKernel()
        for queue in (kernel, model):
            for index in range(100):
                queue.schedule_at(float(index % 7), lambda k: None)
            queue.run(until=3.0)
        assert kernel.events_processed == model.events_processed
        assert kernel.now() == model.now()
        assert kernel.pending_count == model.pending_count
