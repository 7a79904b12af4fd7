"""Feeding trace updates into an origin server.

An :class:`UpdateFeeder` hands a trace's update instants to the kernel
as one series and applies each to the server at the right instant,
turning a static :class:`UpdateTrace` into a live, time-driven object at
the origin.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core.types import ObjectId
from repro.server.origin import OriginServer
from repro.sim.kernel import Kernel
from repro.traces.model import UpdateTrace


class UpdateFeeder:
    """Schedules a trace's updates onto the kernel for one server object.

    The server object is created (version 0) at the trace's start time
    minus nothing — i.e. at ``trace.start_time`` — so the first trace
    record becomes version 1, matching the paper's "version ... set to
    zero when the object is created ... incremented on each update".

    For valued traces, the object's initial value is the first record's
    value (the proxy's first fetch then observes a sensible price rather
    than ``None``).

    The feeder holds one kernel heap entry at a time, however long the
    trace.  Subclasses may route updates elsewhere by replacing
    ``_apply`` before the kernel runs.
    """

    def __init__(
        self,
        kernel: Kernel,
        server: OriginServer,
        trace: UpdateTrace,
        *,
        create_object: bool = True,
    ) -> None:
        self._trace = trace
        object_id = self._object_id = trace.object_id
        self._applied = 0
        records = trace.records
        if create_object and not server.has_object(object_id):
            server.create_object(
                object_id,
                created_at=trace.start_time,
                initial_value=records[0].value if records else None,
            )
        # The creation record may coincide with the window start; skip
        # anything not strictly in the future of creation.
        if records and records[0].time <= trace.start_time:
            records = records[1:]
        self._times = tuple(record.time for record in records)
        self._values = tuple(record.value for record in records)
        self._apply = server.apply_update
        kernel.schedule_series(self._times, self._fire, label=f"update.{object_id}")

    @property
    def trace(self) -> UpdateTrace:
        return self._trace

    @property
    def scheduled_count(self) -> int:
        return len(self._times)

    @property
    def applied_count(self) -> int:
        return self._applied

    def _fire(self, _kernel: Kernel, index: int) -> None:
        self._apply(self._object_id, self._times[index], self._values[index])
        self._applied += 1


def feed_traces(
    kernel: Kernel,
    server: OriginServer,
    traces: Iterable[UpdateTrace],
) -> Dict[ObjectId, UpdateFeeder]:
    """Create feeders for several traces; returns them keyed by object."""
    feeders: Dict[ObjectId, UpdateFeeder] = {}
    for trace in traces:
        feeders[trace.object_id] = UpdateFeeder(kernel, server, trace)
    return feeders
