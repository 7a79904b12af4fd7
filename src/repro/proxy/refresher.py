"""The TTR-driven refresh scheduler.

One :class:`Refresher` per registered object: it owns the object's
refresh timer, asks the policy for the next TTR after every poll, and
exposes the next/previous poll instants that the mutual-consistency
coordinators consult (Section 3.2: "an additional poll is triggered for
an object only if its next/previous poll instant is more than δ time
units away").
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.consistency.base import RefreshPolicy
from repro.core.events import PollReason
from repro.core.types import ObjectId, PollOutcome, Seconds
from repro.sim.kernel import Kernel
from repro.sim.timers import RestartableTimer

#: Issues a poll; invoked by the refresher when the TTR expires or a
#: coordinator forces an early refresh.  The proxy wires this to its
#: internal poll path.
PollIssuer = Callable[[ObjectId, PollReason], None]

class Refresher:
    """Drives periodic refreshes for one cached object."""

    __slots__ = (
        "_kernel",
        "_object_id",
        "_policy",
        "_issue_poll",
        "_timer",
        "_last_poll_time",
        "_stopped",
    )

    def __init__(
        self,
        kernel: Kernel,
        object_id: ObjectId,
        policy: RefreshPolicy,
        issue_poll: PollIssuer,
    ) -> None:
        self._kernel = kernel
        self._object_id = object_id
        self._policy = policy
        self._issue_poll = issue_poll
        self._timer = RestartableTimer(
            kernel, self._on_timer, label=f"refresh.{object_id}"
        )
        self._last_poll_time: Optional[Seconds] = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the first refresh, ``policy.first_ttr()`` from now.

        A policy returning an infinite TTR (e.g. ``PassivePolicy``)
        leaves the timer unarmed — refreshes then only happen when a
        coordinator calls :meth:`poll_now`.
        """
        ttr = self._policy.first_ttr()
        if math.isfinite(ttr):
            self._timer.arm_at(self._kernel.now() + ttr)

    def stop(self) -> None:
        """Permanently stop refreshing this object."""
        self._stopped = True
        self._timer.disarm()

    def recover(self) -> None:
        """Proxy-failure recovery: reset the policy and restart polling.

        Implements the paper's recovery procedure — the policy's
        adaptive state is dropped (TTR back to TTR_min for LIMD) and the
        next poll is scheduled at the policy's fresh first TTR.
        """
        if self._stopped:
            return
        self._policy.reset()
        self._timer.disarm()
        ttr = self._policy.first_ttr()
        if math.isfinite(ttr):
            self._timer.arm_at(self._kernel.now() + ttr)

    @property
    def stopped(self) -> bool:
        return self._stopped

    # ------------------------------------------------------------------
    # Coordinator-facing state
    # ------------------------------------------------------------------
    @property
    def object_id(self) -> ObjectId:
        return self._object_id

    @property
    def policy(self) -> RefreshPolicy:
        return self._policy

    @property
    def next_poll_time(self) -> Optional[Seconds]:
        """Absolute time of the next scheduled poll (None if unarmed)."""
        return self._timer.next_fire_time

    @property
    def last_poll_time(self) -> Optional[Seconds]:
        """When this object was last polled (by timer or trigger)."""
        return self._last_poll_time

    def seconds_since_last_poll(self, now: Seconds) -> Optional[Seconds]:
        if self._last_poll_time is None:
            return None
        return now - self._last_poll_time

    def seconds_until_next_poll(self, now: Seconds) -> Optional[Seconds]:
        when = self.next_poll_time
        if when is None:
            return None
        return when - now

    # ------------------------------------------------------------------
    # Poll plumbing
    # ------------------------------------------------------------------
    def poll_now(self, reason: PollReason, *, reschedule: bool = True) -> None:
        """Issue an immediate poll (used for triggered refreshes).

        With ``reschedule=True`` the pending timer is disarmed first and
        :meth:`on_poll_complete` re-arms it from the policy's new TTR —
        the poll *replaces* the next scheduled one.  With
        ``reschedule=False`` the poll is purely *additional*: the
        object's own refresh schedule and policy state are untouched
        (the paper's Section 3.2 triggered polls are extra polls on top
        of the LIMD schedule).
        """
        if self._stopped:
            return
        if reschedule:
            self._timer.disarm()
        self._issue_poll(self._object_id, reason)

    def on_triggered_poll(self, outcome: PollOutcome) -> None:
        """Record an additional (non-rescheduling) poll.

        Updates the last-poll bookkeeping (the δ suppression window in
        Section 3.2 counts any poll) without feeding the policy or
        touching the timer.
        """
        self._last_poll_time = outcome.poll_time

    def on_poll_complete(self, outcome: PollOutcome) -> None:
        """Feed a poll outcome to the policy and re-arm the timer."""
        self._last_poll_time = outcome.poll_time
        ttr = self._policy.next_ttr(outcome)
        if not self._stopped and math.isfinite(ttr):
            self._timer.arm_at(self._kernel.now() + ttr)

    def _on_timer(self, _now: Seconds) -> None:
        if self._stopped:
            return
        self._issue_poll(self._object_id, PollReason.TTR_EXPIRED)

    def __repr__(self) -> str:
        return (
            f"Refresher({self._object_id!r}, policy={self._policy.name}, "
            f"next={self.next_poll_time})"
        )
