"""Microbenchmark — kernel event dispatch throughput.

Times the pure event loop with no simulation payload: N pre-scheduled
no-op events, and N chained events (each callback schedules its
successor, the re-armed timer usage pattern).  Guards the tuple-keyed heap
fast path: a regression here slows *every* figure reproduction.
"""

from __future__ import annotations

from repro.sim.kernel import Kernel

EVENTS = 20_000


def _drain_prescheduled() -> int:
    kernel = Kernel()
    callback = lambda _k: None  # noqa: E731 - intentionally minimal payload
    for i in range(EVENTS):
        kernel.schedule_at(float(i), callback)
    return kernel.run()


def _drain_chained() -> int:
    kernel = Kernel()
    remaining = EVENTS

    def step(k: Kernel) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            k.schedule_after(1.0, step)

    kernel.schedule_at(0.0, step)
    return kernel.run()


def test_kernel_dispatch_prescheduled(benchmark):
    processed = benchmark(_drain_prescheduled)
    assert processed == EVENTS


def test_kernel_dispatch_chained(benchmark):
    processed = benchmark(_drain_chained)
    assert processed == EVENTS
