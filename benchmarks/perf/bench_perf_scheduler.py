"""Microbenchmark — kernel cancel churn.

Stresses the part of the kernel the other micros do not: heavy
:meth:`EventHandle.cancel` traffic against a mix of near and far
horizons.  Each round schedules three events — one imminent, two far
out (the refresh-interval tail) — then cancels the two stragglers and
runs the imminent one.  The cancelled far events stay on the heap
until they surface, are then released to the event pool without being
dispatched, and meanwhile sift through the root on every pop.
"""

from __future__ import annotations

from repro.sim.kernel import Kernel

ROUNDS = 10_000
_FAR_STRIDE = 997.0


def _cancel_churn() -> int:
    kernel = Kernel()
    fired = 0
    callback = lambda _k: None  # noqa: E731 - intentionally minimal payload

    def on_fire(_k: Kernel) -> None:
        nonlocal fired
        fired += 1

    for i in range(ROUNDS):
        near = kernel.schedule_after(1.0, on_fire, label="near")
        far_a = kernel.schedule_after(1.0 + _FAR_STRIDE, callback, label="far")
        far_b = kernel.schedule_after(
            1.0 + (i % 64 + 1) * _FAR_STRIDE, callback, label="far"
        )
        far_a.cancel()
        far_b.cancel()
        kernel.run(until=near.time)
    # Drain whatever lazy-cancelled residue is still pending.
    kernel.run()
    return fired


def test_kernel_cancel_churn(benchmark):
    fired = benchmark(_cancel_churn)
    assert fired == ROUNDS
