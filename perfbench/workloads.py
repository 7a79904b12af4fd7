"""The benchmark's three workloads.

Each workload is a closed-loop batch: one call of :meth:`Workload.run`
performs the workload's simulations back to back and returns the
canonical bytes of everything they produced, which the harness hashes
and compares.  The seed is the only input; everything else is fixed
here, so the program receives only the generated config and traces.

All three stay on the simulator's default path: ``fidelity="exact"``,
one shard, no worker processes, the default kernel scheduler.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from dataclasses import asdict
from itertools import accumulate
from typing import Any, Callable, Dict, List, Sequence, Tuple


def sub_seed(seed: int, label: str) -> int:
    """A 32-bit seed derived from ``seed`` and ``label``, stable everywhere."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class BenchmarkError(Exception):
    """A workload config the benchmark refuses to run."""


class ClientPump:
    """Poisson client arrivals with Zipf object choice at one edge proxy.

    Self-rescheduling, so a pump holds one pending kernel event however
    many arrivals it drives.  This is harness code: its own time is
    reported as the ``harness`` layer, never as a program cost.
    """

    ZIPF_EXPONENT = 0.9

    def __init__(
        self,
        kernel: Any,
        proxy: Any,
        objects: Sequence[str],
        rng: random.Random,
        *,
        rate_per_s: float,
        horizon: float,
    ) -> None:
        self._kernel = kernel
        self._proxy = proxy
        self._objects = tuple(objects)
        self._rng = rng
        self._rate = rate_per_s
        self._horizon = horizon
        self._cumulative = list(
            accumulate(
                1.0 / (rank + 1) ** self.ZIPF_EXPONENT
                for rank in range(len(self._objects))
            )
        )
        self.issued = 0

    def start(self) -> None:
        self._schedule_next(self._kernel.now())

    def _schedule_next(self, now: float) -> None:
        arrival = now + self._rng.expovariate(self._rate)
        if arrival <= self._horizon:
            self._kernel.schedule_at(arrival, self.on_arrival)

    def on_arrival(self, kernel: Any) -> None:
        draw = self._rng.random() * self._cumulative[-1]
        self.issued += 1
        self._proxy.handle_client_request(
            self._objects[bisect_left(self._cumulative, draw)]
        )
        self._schedule_next(kernel.now())


def _refuse_workers(config: Any) -> None:
    """Stay on the single-process default path, or refuse the config."""
    if config.shards != 1 or config.fidelity != "exact":
        raise BenchmarkError(
            f"config would leave the default path (shards={config.shards}, "
            f"fidelity={config.fidelity!r}); the benchmark runs one process"
        )


class Workload:
    """One named workload: a batch of simulations driven from a seed."""

    name = ""
    why = ""
    #: Modules a fresh process imports to run this workload; the import
    #: is timed in a child interpreter as part of set-up.
    imports: Tuple[str, ...] = ()
    #: True when the harness itself builds the config, so set-up starts
    #: at the iteration start rather than at the first ``Kernel()``.
    harness_builds_config = False

    def __init__(self) -> None:
        self.arrivals = 0
        self.rows = 0

    def run(self, seed: int) -> bytes:
        raise NotImplementedError


class PaperFigures(Workload):
    name = "paper_figures"
    why = (
        "figures 3, 5, 7 and 8 at the paper's configs: the api.runs engine, "
        "sweep harness, zero-latency HTTP path and mutual-value coordinators"
    )
    imports = (
        "repro.experiments.figure3",
        "repro.experiments.figure5",
        "repro.experiments.figure7",
        "repro.experiments.figure8",
    )
    #: Trace sets per repetition.  One set's poll count varies by ~8%
    #: between seeds; three sets cut that to ~4.5%, so a run's time
    #: hinges less on how busy one set of traces happens to be.
    TRACE_SETS = 3

    def seeds(self, seed: int) -> List[int]:
        """The run's seed first, so the default seed includes the paper's."""
        return [seed] + [
            sub_seed(seed, f"paper_figures.{index}")
            for index in range(1, self.TRACE_SETS)
        ]

    def run(self, seed: int) -> bytes:
        from repro.experiments import figure3, figure5, figure7, figure8

        payload: Dict[str, Any] = {}
        for trace_seed in self.seeds(seed):
            figures: Dict[str, Any] = {}
            for module in (figure3, figure5, figure7):
                sweep = module.run(seed=trace_seed, workers=None)
                figures[module.__name__] = sweep.rows
            result = figure8.run(seed=trace_seed, workers=None)
            figures[figure8.__name__] = [
                asdict(series)
                for series in (
                    result.server,
                    result.adaptive_proxy,
                    result.partitioned_proxy,
                )
            ]
            payload[str(trace_seed)] = figures
        self.rows = sum(
            len(rows) for figures in payload.values() for rows in figures.values()
        )
        return json.dumps(payload, sort_keys=True).encode()


class TreeWorkload(Workload):
    """A config built with ``SimulationBuilder`` and run once."""

    imports = ("repro.api.builder",)
    harness_builds_config = True

    def config(self, seed: int) -> Any:
        raise NotImplementedError

    def instrument(self, seed: int) -> Callable[[Any], None] | None:
        return None

    def run(self, seed: int) -> bytes:
        import repro.api.builder as builder

        config = self.config(seed)
        _refuse_workers(config)
        outcome = builder.run_simulation(
            config, workers=None, instrument=self.instrument(seed)
        )
        self.rows = len(outcome.results)
        return outcome.results.to_csv().encode()


class PollStorm(TreeWorkload):
    name = "poll_storm"
    why = (
        "300 LIMD objects, triggered mutual pairs, a (1, 4) tree over 50 ms "
        "links: polls, conditional GETs and origin updates, no clients"
    )
    OBJECTS = tuple(f"o{i}" for i in range(300))
    HORIZON_S = 4 * 3600.0

    def config(self, seed: int) -> Any:
        from repro.api.builder import SimulationBuilder
        from repro.api.config import LevelConfig

        objects = self.OBJECTS
        pairs = [(objects[i], objects[i + 1]) for i in range(0, len(objects), 4)]
        return (
            SimulationBuilder()
            .workload("poisson", *objects, rate_per_hour=6.0, hours=4.0)
            .policy("limd", delta=300.0)
            .groups(edges=pairs, component_delta=120.0, mode="triggered")
            .topology("tree", levels=[LevelConfig(fan_out=1), LevelConfig(fan_out=4)])
            .network(0.05)
            .seed(seed)
            .horizon(self.HORIZON_S)
            .build()
        )


class ClientFlood(TreeWorkload):
    name = "client_flood"
    why = (
        "~300k Zipf client reads of 8 objects through a (1, 8, 16) CDN tree "
        "under a 600 s TTL: kernel dispatch and the proxy hit path"
    )
    OBJECTS = tuple(f"obj{i}" for i in range(8))
    FAN_OUTS = (1, 8, 16)
    HORIZON_S = 3600.0
    CLIENTS = 300_000

    def config(self, seed: int) -> Any:
        from repro.api.builder import SimulationBuilder
        from repro.api.config import LevelConfig

        return (
            SimulationBuilder()
            .workload("poisson", *self.OBJECTS, rate_per_hour=4.0, hours=1.0)
            .policy("static_ttl", ttl=600.0)
            .topology("tree", levels=[LevelConfig(fan_out=f) for f in self.FAN_OUTS])
            .seed(seed)
            .horizon(self.HORIZON_S)
            .build()
        )

    def instrument(self, seed: int) -> Callable[[Any], None]:
        def attach(tree: Any) -> None:
            edges = tree.edge_nodes
            rate = self.CLIENTS / len(edges) / self.HORIZON_S
            for node in edges:
                rng = random.Random(
                    sub_seed(seed, f"clients[{node.level}][{node.index}]")
                )
                pump = ClientPump(
                    tree.kernel,
                    node.proxy,
                    node.proxy.registered_objects(),
                    rng,
                    rate_per_s=rate,
                    horizon=self.HORIZON_S,
                )
                self._pumps.append(pump)
                pump.start()

        return attach

    def run(self, seed: int) -> bytes:
        self._pumps: List[ClientPump] = []
        payload = super().run(seed)
        self.arrivals = sum(pump.issued for pump in self._pumps)
        self._pumps = []
        return payload


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PaperFigures, PollStorm, ClientFlood)
}
