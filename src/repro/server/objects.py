"""Server-side object state.

A :class:`ServerObject` is the authoritative copy of one web object: it
records every applied update (time, version, value) and answers the
queries the HTTP layer and the metrics need — current state, state at an
arbitrary past instant, and modification history.
"""

from __future__ import annotations

import bisect
from math import inf
from typing import List, Optional, Sequence

from repro.core.types import ObjectId, ObjectSnapshot, Seconds, UpdateRecord


class ServerObject:
    """The authoritative, update-append-only state of one object.

    Objects may be *born* with an initial version (version 0 at creation
    time) or created empty and populated by the first update.  The paper
    sets "the version number ... to zero when the object is created at
    the server" and increments on each update.

    The history is a column store (``_times``, ``_values``; the version
    is the index); records and snapshots are built only when queried.
    """

    def __init__(
        self,
        object_id: ObjectId,
        *,
        created_at: Seconds = 0.0,
        initial_value: Optional[float] = None,
    ) -> None:
        if not 0 <= created_at < inf:
            raise ValueError(f"created_at must be finite and >= 0, got {created_at}")
        if initial_value is not None and not -inf < initial_value < inf:
            raise ValueError(f"value must be finite, got {initial_value}")
        self._object_id = object_id
        self._times: List[Seconds] = [created_at]
        self._values: List[Optional[float]] = [initial_value]

    @property
    def object_id(self) -> ObjectId:
        return self._object_id

    @property
    def created_at(self) -> Seconds:
        return self._times[0]

    @property
    def current_version(self) -> int:
        return len(self._times) - 1

    @property
    def current_value(self) -> Optional[float]:
        return self._values[-1]

    @property
    def last_modified(self) -> Seconds:
        return self._times[-1]

    @property
    def update_count(self) -> int:
        """Number of updates applied after creation."""
        return len(self._times) - 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_update(self, time: Seconds, value: Optional[float] = None) -> int:
        """Apply an update at ``time``; returns the new version.

        Updates must be strictly after the previous modification, and
        a value, if given, must be finite.
        """
        times = self._times
        if not time > times[-1]:
            raise ValueError(
                f"update at t={time} must be after last modification "
                f"at t={times[-1]} for {self._object_id!r}"
            )
        if value is not None and not -inf < value < inf:
            raise ValueError(f"value must be finite, got {value}")
        times.append(time)
        self._values.append(value)
        return len(times) - 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _snapshot(self, version: int) -> ObjectSnapshot:
        return ObjectSnapshot(
            object_id=self._object_id,
            version=version,
            last_modified=self._times[version],
            value=self._values[version],
        )

    def snapshot(self, now: Seconds) -> ObjectSnapshot:
        """The object's current state, stamped with its Last-Modified."""
        if now < self._times[-1]:
            raise ValueError(
                f"snapshot time {now} precedes last modification {self._times[-1]}"
            )
        return self._snapshot(len(self._times) - 1)

    def state_at(self, t: Seconds) -> Optional[ObjectSnapshot]:
        """The object's state as of time ``t`` (None if not yet created)."""
        index = bisect.bisect_right(self._times, t)
        return self._snapshot(index - 1) if index else None

    def modification_times(self) -> Sequence[Seconds]:
        """All modification times, ascending, including creation."""
        return tuple(self._times)

    def modification_times_view(self) -> Sequence[Seconds]:
        """Zero-copy view of the modification times (read-only!).

        The HTTP layer consults the history on every poll; copying the
        whole list per request made history serving O(updates) before
        the response is even built.  Callers must not mutate the
        returned sequence.
        """
        return self._times

    def modifications_between(
        self, start: Seconds, end: Seconds
    ) -> List[UpdateRecord]:
        """Updates with start < time <= end."""
        times, values = self._times, self._values
        lo = bisect.bisect_right(times, start)
        hi = bisect.bisect_right(times, end)
        return [UpdateRecord(times[v], v, values[v]) for v in range(lo, hi)]

    def value_at(self, t: Seconds) -> Optional[float]:
        """The object's value at time ``t`` (None if unborn or unvalued)."""
        state = self.state_at(t)
        return state.value if state is not None else None

    def __repr__(self) -> str:
        return (
            f"ServerObject({self._object_id!r}, version={self.current_version}, "
            f"last_modified={self.last_modified})"
        )
