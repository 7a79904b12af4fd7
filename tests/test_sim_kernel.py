"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.core.errors import SchedulingInPastError, SimulationError
from repro.sim.kernel import Kernel


class TestScheduling:
    def test_event_fires_at_scheduled_time(self, kernel):
        fired = []
        kernel.schedule_at(5.0, lambda k: fired.append(k.now()))
        kernel.run()
        assert fired == [5.0]

    def test_schedule_after_is_relative(self, kernel):
        fired = []
        kernel.schedule_at(3.0, lambda k: k.schedule_after(2.0, lambda k2: fired.append(k2.now())))
        kernel.run()
        assert fired == [5.0]

    def test_events_fire_in_time_order(self, kernel):
        order = []
        kernel.schedule_at(3.0, lambda k: order.append(3))
        kernel.schedule_at(1.0, lambda k: order.append(1))
        kernel.schedule_at(2.0, lambda k: order.append(2))
        kernel.run()
        assert order == [1, 2, 3]

    def test_ties_fire_fifo(self, kernel):
        order = []
        for tag in range(5):
            kernel.schedule_at(7.0, lambda k, t=tag: order.append(t))
        kernel.run()
        assert order == [0, 1, 2, 3, 4]

    def test_scheduling_in_past_rejected(self, kernel):
        kernel.schedule_at(10.0, lambda k: None)
        kernel.run()
        assert kernel.now() == 10.0
        with pytest.raises(SchedulingInPastError):
            kernel.schedule_at(5.0, lambda k: None)

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.schedule_after(-1.0, lambda k: None)

    def test_schedule_at_current_time_allowed(self, kernel):
        fired = []
        kernel.schedule_at(0.0, lambda k: fired.append(k.now()))
        kernel.run()
        assert fired == [0.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, kernel):
        fired = []
        handle = kernel.schedule_at(5.0, lambda k: fired.append(1))
        handle.cancel()
        kernel.run()
        assert fired == []
        assert handle.cancelled

    def test_double_cancel_raises(self, kernel):
        handle = kernel.schedule_at(5.0, lambda k: None)
        handle.cancel()
        with pytest.raises(SimulationError):
            handle.cancel()

    def test_cancel_after_fire_raises(self, kernel):
        handle = kernel.schedule_at(5.0, lambda k: None)
        kernel.run()
        assert handle.fired
        with pytest.raises(SimulationError):
            handle.cancel()

    def test_cancel_if_pending_is_idempotent(self, kernel):
        handle = kernel.schedule_at(5.0, lambda k: None)
        assert handle.cancel_if_pending() is True
        assert handle.cancel_if_pending() is False

    def test_pending_state_transitions(self, kernel):
        handle = kernel.schedule_at(5.0, lambda k: None)
        assert handle.pending
        kernel.run()
        assert not handle.pending
        assert handle.fired


class TestRun:
    def test_run_until_stops_before_later_events(self, kernel):
        fired = []
        kernel.schedule_at(5.0, lambda k: fired.append(5))
        kernel.schedule_at(15.0, lambda k: fired.append(15))
        kernel.run(until=10.0)
        assert fired == [5]
        assert kernel.now() == 10.0

    def test_run_until_includes_boundary_events(self, kernel):
        fired = []
        kernel.schedule_at(10.0, lambda k: fired.append(10))
        kernel.run(until=10.0)
        assert fired == [10]

    def test_run_advances_clock_to_until_when_queue_empties(self, kernel):
        kernel.schedule_at(2.0, lambda k: None)
        kernel.run(until=100.0)
        assert kernel.now() == 100.0

    def test_run_resumable_after_until(self, kernel):
        fired = []
        kernel.schedule_at(5.0, lambda k: fired.append(5))
        kernel.schedule_at(15.0, lambda k: fired.append(15))
        kernel.run(until=10.0)
        kernel.run()
        assert fired == [5, 15]

    def test_run_until_in_past_rejected(self, kernel):
        kernel.schedule_at(5.0, lambda k: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.run(until=1.0)

    def test_max_events_limits_processing(self, kernel):
        fired = []
        for i in range(10):
            kernel.schedule_at(float(i), lambda k, i=i: fired.append(i))
        processed = kernel.run(max_events=3)
        assert processed == 3
        assert fired == [0, 1, 2]

    def test_reentrant_run_rejected(self, kernel):
        def reenter(k):
            k.run()

        kernel.schedule_at(1.0, reenter)
        with pytest.raises(SimulationError):
            kernel.run()

    def test_events_scheduled_during_run_are_processed(self, kernel):
        fired = []

        def chain(k):
            fired.append(k.now())
            if k.now() < 3.0:
                k.schedule_after(1.0, chain)

        kernel.schedule_at(0.0, chain)
        kernel.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_returns_processed_count(self, kernel):
        for i in range(4):
            kernel.schedule_at(float(i), lambda k: None)
        assert kernel.run() == 4


class TestIntrospection:
    def test_pending_count_excludes_cancelled(self, kernel):
        h1 = kernel.schedule_at(1.0, lambda k: None)
        kernel.schedule_at(2.0, lambda k: None)
        h1.cancel()
        assert kernel.pending_count == 1

    def test_events_processed_accumulates(self, kernel):
        kernel.schedule_at(1.0, lambda k: None)
        kernel.run()
        kernel.schedule_at(2.0, lambda k: None)
        kernel.run()
        assert kernel.events_processed == 2

    def test_negative_start_time_rejected(self):
        with pytest.raises(ValueError):
            Kernel(start_time=-1.0)

    def test_step_returns_false_on_empty_queue(self, kernel):
        assert kernel.step() is False

    def test_step_processes_single_event(self, kernel):
        fired = []
        kernel.schedule_at(1.0, lambda k: fired.append(1))
        kernel.schedule_at(2.0, lambda k: fired.append(2))
        assert kernel.step() is True
        assert fired == [1]


class TestNonFiniteTimes:
    """NaN and infinite times are refused before they reach the heap."""

    @pytest.mark.parametrize("when", [float("nan"), float("inf")])
    def test_schedule_at_rejects_non_finite(self, kernel, when):
        with pytest.raises(SimulationError, match="finite"):
            kernel.schedule_at(when, lambda k: None)
        assert kernel.pending_count == 0

    @pytest.mark.parametrize("when", [float("nan"), float("inf")])
    def test_schedule_raw_rejects_non_finite(self, kernel, when):
        with pytest.raises(SimulationError, match="finite"):
            kernel.schedule_raw(when, lambda k: None)
        assert kernel.pending_count == 0

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_schedule_after_rejects_non_finite(self, kernel, delay):
        with pytest.raises(SimulationError, match="finite"):
            kernel.schedule_after(delay, lambda k: None)

    def test_negative_infinity_is_in_the_past(self, kernel):
        with pytest.raises(SchedulingInPastError):
            kernel.schedule_at(float("-inf"), lambda k: None)

    def test_rejected_nan_does_not_disturb_dispatch(self, kernel):
        fired = []
        kernel.schedule_at(1.0, lambda k: fired.append(k.now()))
        kernel.schedule_at(5.0, lambda k: fired.append(k.now()))
        with pytest.raises(SimulationError):
            kernel.schedule_at(float("nan"), lambda k: fired.append(k.now()))
        kernel.run()
        assert fired == [1.0, 5.0]
        assert kernel.now() == 5.0

    def test_run_until_nan_rejected(self, kernel):
        fired = []
        kernel.schedule_at(1.0, lambda k: fired.append(k.now()))
        with pytest.raises(SimulationError, match="nan"):
            kernel.run(until=float("nan"))
        assert fired == []
        assert kernel.pending_count == 1
        assert kernel.now() == 0.0

    @pytest.mark.parametrize("start", [float("nan"), float("inf")])
    def test_non_finite_start_time_rejected(self, start):
        with pytest.raises(ValueError):
            Kernel(start_time=start)


class TestMaxEventsWithUntil:
    def test_cut_short_run_leaves_clock_at_last_event(self, kernel):
        fired = []
        for t in (1.0, 5.0):
            kernel.schedule_at(t, lambda k: fired.append(k.now()))
        assert kernel.run(until=10.0, max_events=1) == 1
        assert kernel.now() == 1.0
        kernel.run(until=10.0)
        # The clock never runs backwards past a still-pending event.
        assert fired == [1.0, 5.0]
        assert kernel.now() == 10.0


class TestScheduleSeries:
    """One heap entry dispatching a strictly ascending run of times."""

    def test_dispatches_each_index_at_its_time(self, kernel):
        fired = []
        kernel.schedule_series([1.0, 2.5, 4.0], lambda k, i: fired.append((k.now(), i)))
        assert kernel.pending_count == 3
        assert kernel.run() == 3
        assert fired == [(1.0, 0), (2.5, 1), (4.0, 2)]
        assert kernel.events_processed == 3

    def test_pending_count_counts_every_undispatched_element(self, kernel):
        kernel.schedule_series([1.0, 2.0, 3.0, 4.0], lambda k, i: None)
        kernel.schedule_at(2.0, lambda k: None)
        assert kernel.pending_count == 5
        kernel.run(until=2.0)
        assert kernel.pending_count == 2
        kernel.run()
        assert kernel.pending_count == 0

    def test_ties_keep_the_reserved_sequence_block(self, kernel):
        fired = []
        kernel.schedule_at(2.0, lambda k: fired.append("before"))
        kernel.schedule_series([1.0, 2.0], lambda k, i: fired.append(f"s{i}"))
        kernel.schedule_at(2.0, lambda k: fired.append("after"))
        kernel.run()
        assert fired == ["s0", "before", "s1", "after"]

    def test_raising_callback_leaves_the_rest_pending(self, kernel):
        def callback(k, i):
            if i == 0:
                raise RuntimeError("boom")

        kernel.schedule_series([1.0, 2.0, 3.0], callback)
        with pytest.raises(RuntimeError):
            kernel.run()
        assert kernel.pending_count == 2
        assert kernel.run() == 2

    def test_empty_series_is_a_no_op(self, kernel):
        sequence = kernel._sequence
        kernel.schedule_series([], lambda k, i: None)
        assert kernel.pending_count == 0
        assert kernel._sequence == sequence
        assert kernel.run() == 0

    @pytest.mark.parametrize(
        "times",
        [
            [1.0, 3.0, 2.0],
            [1.0, 1.0],
            [1.0, float("nan"), 3.0],
            [float("nan")],
            [1.0, float("inf")],
            [float("inf")],
        ],
    )
    def test_bad_times_raise_at_call_time(self, kernel, times):
        kernel.schedule_at(5.0, lambda k: None)
        sequence = kernel._sequence
        with pytest.raises(SimulationError) as caught:
            kernel.schedule_series(times, lambda k, i: None)
        assert not isinstance(caught.value, SchedulingInPastError)
        assert kernel._sequence == sequence
        assert kernel.pending_count == 1

    def test_first_time_in_the_past_rejected(self, kernel):
        kernel.schedule_at(5.0, lambda k: None)
        kernel.run()
        sequence = kernel._sequence
        with pytest.raises(SchedulingInPastError):
            kernel.schedule_series([4.0, 6.0], lambda k, i: None)
        assert kernel._sequence == sequence
        assert kernel.pending_count == 0
