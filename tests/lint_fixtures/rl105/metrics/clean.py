"""RL105 fixture: scheduling routed through the event kernel."""

from repro.sim.kernel import Kernel


def earliest(entries):
    kernel = Kernel()
    fired = []
    for when, label in entries:
        kernel.schedule_at(when, lambda k: fired.append(k.now()), label=label)
    kernel.step()
    return fired[0] if fired else None
