"""Unit tests for the origin server substrate."""

from __future__ import annotations

import pytest

from repro.core.errors import UnknownObjectError
from repro.core.events import UpdateAppliedEvent
from repro.core.types import ObjectId
from repro.httpsim.messages import Status, conditional_get
from repro.server.objects import ServerObject
from repro.server.origin import OriginServer
from repro.server.updates import UpdateFeeder, feed_traces
from repro.sim.kernel import Kernel
from repro.sim.tracing import EventLog
from repro.traces.model import trace_from_ticks, trace_from_times


class TestServerObject:
    def test_creation_is_version_zero(self):
        obj = ServerObject(ObjectId("x"), created_at=5.0)
        assert obj.current_version == 0
        assert obj.last_modified == 5.0
        assert obj.update_count == 0

    def test_updates_increment_version(self):
        obj = ServerObject(ObjectId("x"))
        obj.apply_update(1.0)
        obj.apply_update(2.0)
        assert obj.current_version == 2
        assert obj.last_modified == 2.0

    def test_update_not_after_last_rejected(self):
        obj = ServerObject(ObjectId("x"), created_at=5.0)
        with pytest.raises(ValueError):
            obj.apply_update(5.0)
        with pytest.raises(ValueError):
            obj.apply_update(4.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_update_value_rejected(self, value):
        obj = ServerObject(ObjectId("x"), initial_value=10.0)
        with pytest.raises(ValueError, match="finite"):
            obj.apply_update(1.0, value=value)
        # A refused update leaves no trace in the history.
        assert obj.current_version == 0
        assert obj.apply_update(1.0, value=11.0) == 1
        assert obj.modifications_between(0.0, 1.0)[0].value == 11.0

    def test_nan_update_time_rejected(self):
        obj = ServerObject(ObjectId("x"))
        with pytest.raises(ValueError):
            obj.apply_update(float("nan"))
        assert obj.update_count == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"created_at": -1.0},
            {"created_at": float("nan")},
            {"initial_value": float("nan")},
            {"initial_value": float("inf")},
        ],
    )
    def test_invalid_creation_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerObject(ObjectId("x"), **kwargs)

    def test_value_updates(self):
        obj = ServerObject(ObjectId("x"), initial_value=10.0)
        obj.apply_update(1.0, value=11.0)
        assert obj.current_value == 11.0
        assert obj.value_at(0.5) == 10.0

    def test_snapshot_reflects_current_state(self):
        obj = ServerObject(ObjectId("x"))
        obj.apply_update(3.0, value=7.0)
        snap = obj.snapshot(now=4.0)
        assert snap.version == 1
        assert snap.last_modified == 3.0
        assert snap.value == 7.0

    def test_snapshot_before_last_modification_rejected(self):
        obj = ServerObject(ObjectId("x"))
        obj.apply_update(3.0)
        with pytest.raises(ValueError):
            obj.snapshot(now=2.0)

    def test_state_at_historical_instants(self):
        obj = ServerObject(ObjectId("x"), created_at=0.0)
        obj.apply_update(10.0)
        obj.apply_update(20.0)
        assert obj.state_at(5.0).version == 0
        assert obj.state_at(10.0).version == 1
        assert obj.state_at(15.0).version == 1
        assert obj.state_at(25.0).version == 2

    def test_state_at_before_creation_is_none(self):
        obj = ServerObject(ObjectId("x"), created_at=5.0)
        assert obj.state_at(4.0) is None

    def test_modifications_between(self):
        obj = ServerObject(ObjectId("x"), created_at=0.0)
        for t in (10.0, 20.0, 30.0):
            obj.apply_update(t)
        mods = obj.modifications_between(10.0, 30.0)
        assert [m.time for m in mods] == [20.0, 30.0]

    def test_modification_times_includes_creation(self):
        obj = ServerObject(ObjectId("x"), created_at=1.0)
        obj.apply_update(2.0)
        assert obj.modification_times() == (1.0, 2.0)


class TestOriginServer:
    def test_create_and_get(self):
        server = OriginServer()
        server.create_object(ObjectId("x"))
        assert server.has_object(ObjectId("x"))
        assert server.get_object(ObjectId("x")).current_version == 0

    def test_duplicate_creation_rejected(self):
        server = OriginServer()
        server.create_object(ObjectId("x"))
        with pytest.raises(ValueError):
            server.create_object(ObjectId("x"))

    def test_unknown_object_raises(self):
        server = OriginServer()
        with pytest.raises(UnknownObjectError):
            server.get_object(ObjectId("nope"))

    def test_request_for_unknown_object_is_404(self):
        server = OriginServer()
        response = server.handle_request(
            conditional_get(ObjectId("nope")), now=1.0
        )
        assert response.status is Status.NOT_FOUND

    def test_conditional_get_flow(self):
        server = OriginServer()
        server.create_object(ObjectId("x"), created_at=0.0)
        first = server.handle_request(conditional_get(ObjectId("x")), now=1.0)
        assert first.status is Status.OK
        assert first.version == 0

        unchanged = server.handle_request(
            conditional_get(ObjectId("x"), if_modified_since=first.last_modified),
            now=2.0,
        )
        assert unchanged.status is Status.NOT_MODIFIED

        server.apply_update(ObjectId("x"), 3.0)
        changed = server.handle_request(
            conditional_get(ObjectId("x"), if_modified_since=first.last_modified),
            now=4.0,
        )
        assert changed.status is Status.OK
        assert changed.version == 1

    def test_history_supported(self):
        server = OriginServer(supports_history=True)
        server.create_object(ObjectId("x"), created_at=0.0)
        for t in (1.0, 2.0, 3.0):
            server.apply_update(ObjectId("x"), t)
        response = server.handle_request(
            conditional_get(
                ObjectId("x"), if_modified_since=1.0, want_history=True
            ),
            now=4.0,
        )
        assert response.modification_history == [2.0, 3.0]

    def test_history_unsupported_server_omits_header(self):
        server = OriginServer(supports_history=False)
        server.create_object(ObjectId("x"), created_at=0.0)
        server.apply_update(ObjectId("x"), 2.0)
        response = server.handle_request(
            conditional_get(
                ObjectId("x"), if_modified_since=1.0, want_history=True
            ),
            now=3.0,
        )
        assert response.status is Status.OK
        assert response.modification_history is None

    def test_counters(self):
        server = OriginServer()
        server.create_object(ObjectId("x"))
        server.handle_request(conditional_get(ObjectId("x")), now=1.0)
        server.handle_request(conditional_get(ObjectId("nope")), now=2.0)
        assert server.counters.get("requests") == 2
        assert server.counters.get("responses_200") == 1
        assert server.counters.get("responses_404") == 1

    def test_update_events_logged(self):
        log = EventLog()
        server = OriginServer(event_log=log)
        server.create_object(ObjectId("x"))
        server.apply_update(ObjectId("x"), 5.0, value=1.0)
        events = log.of_type(UpdateAppliedEvent)
        assert len(events) == 1
        assert events[0].version == 1


class TestUpdateFeeder:
    def test_feeds_all_updates_at_right_times(self):
        kernel = Kernel()
        server = OriginServer()
        trace = trace_from_times(ObjectId("x"), [10.0, 20.0, 30.0])
        feeder = UpdateFeeder(kernel, server, trace)
        assert feeder.scheduled_count == 3

        kernel.run(until=15.0)
        assert server.get_object(ObjectId("x")).current_version == 1
        kernel.run(until=35.0)
        assert server.get_object(ObjectId("x")).current_version == 3
        assert feeder.applied_count == 3

    def test_valued_trace_sets_initial_value(self):
        kernel = Kernel()
        server = OriginServer()
        trace = trace_from_ticks(ObjectId("s"), [(5.0, 1.5), (10.0, 2.5)])
        UpdateFeeder(kernel, server, trace)
        # Before the first tick fires, the object's value is the first
        # record's value so an initial proxy fetch sees a real price.
        assert server.get_object(ObjectId("s")).current_value == 1.5
        kernel.run()
        assert server.get_object(ObjectId("s")).current_value == 2.5

    def test_feed_traces_creates_all_objects(self):
        kernel = Kernel()
        server = OriginServer()
        traces = [
            trace_from_times(ObjectId("a"), [1.0]),
            trace_from_times(ObjectId("b"), [2.0]),
        ]
        feeders = feed_traces(kernel, server, traces)
        assert set(feeders) == {ObjectId("a"), ObjectId("b")}
        assert server.has_object(ObjectId("a"))
        assert server.has_object(ObjectId("b"))

    def test_updates_tie_with_other_events_in_scheduling_order(self):
        kernel = Kernel()
        server = OriginServer()
        seen = []

        def observe(tag):
            def fire(_kernel):
                version = server.get_object(ObjectId("x")).current_version
                seen.append((tag, version))

            return fire

        kernel.schedule_at(20.0, observe("before"))
        UpdateFeeder(kernel, server, trace_from_times(ObjectId("x"), [10.0, 20.0]))
        kernel.schedule_at(20.0, observe("after"))
        kernel.run()
        assert seen == [("before", 1), ("after", 2)]

    def test_existing_object_not_recreated(self):
        kernel = Kernel()
        server = OriginServer()
        server.create_object(ObjectId("x"), created_at=0.0)
        trace = trace_from_times(ObjectId("x"), [10.0])
        UpdateFeeder(kernel, server, trace)
        kernel.run()
        assert server.get_object(ObjectId("x")).current_version == 1
