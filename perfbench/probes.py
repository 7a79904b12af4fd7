"""Instrumentation the benchmark installs around the simulator's public API.

Nothing here edits ``src/repro``: every probe replaces a public class
method or a module-level function binding at run time and restores the
original afterwards.  Two layers of probes exist:

* :class:`Probe` is installed on every timed iteration.  It wraps only
  ``Kernel.__init__``, ``Kernel.run``, ``TopologyTree.__init__`` and the
  trace generators -- a few hundred calls per iteration -- to time the
  host seconds spent inside ``Kernel.run``, the set-up seconds before
  each simulation's clock first advances, and to snapshot each tree's
  public counters when its kernel stops.
* :class:`Tracer` is installed only on traced iterations.  It records
  one span (name, start, end, parent) per call of each layer's public
  entry points, holds the spans in flat in-memory arrays, and turns
  them into per-layer self times once the iteration is over.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

clock = time.perf_counter


class Patches:
    """Reversible attribute replacements on classes and modules."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.name`` to ``make(original)``."""
        if isinstance(owner, type):
            original = owner.__dict__[name]
        else:
            original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# Untraced probe: kernel timing, set-up windows, counter snapshots
# ----------------------------------------------------------------------
#: Per-tree counter sums read from the public ``counters`` objects.
SNAPSHOT_KEYS = (
    "events",
    "polls",
    "polls_modified",
    "mutual_trigger_polls",
    "client_requests",
    "client_hits",
    "edge_client_requests",
    "origin_requests",
    "updates_applied",
    "level0_polls",
    "level0_completed",
    "nonroot_polls",
    "nonroot_completed",
    "downstream_requests",
    "downstream_404",
)


def tree_snapshot(tree: Any) -> Dict[str, int]:
    """Sum the public counters of one finished :class:`TopologyTree`."""
    totals = dict.fromkeys(SNAPSHOT_KEYS, 0)
    edges = {id(node) for node in tree.edge_nodes}
    for node in tree.nodes:
        counters = node.proxy.counters
        polls = counters.get("polls")
        clients = counters.get("client_hits") + counters.get("client_misses")
        totals["polls"] += polls
        totals["polls_modified"] += counters.get("polls_modified")
        totals["mutual_trigger_polls"] += counters.get("polls_mutual_trigger")
        totals["client_requests"] += clients
        totals["client_hits"] += counters.get("client_hits")
        totals["downstream_requests"] += counters.get("downstream_requests")
        totals["downstream_404"] += counters.get("downstream_404")
        if id(node) in edges:
            totals["edge_client_requests"] += clients
        # Polls whose response has arrived: one fetch record each.
        completed = sum(
            node.proxy.entry_or_none(object_id).poll_count
            for object_id in node.proxy.cache
        )
        level = "level0" if node.level == 0 else "nonroot"
        totals[f"{level}_polls"] += polls
        totals[f"{level}_completed"] += completed
    origin = tree.origin.counters
    totals["origin_requests"] = origin.get("requests")
    totals["updates_applied"] = origin.get("updates_applied")
    totals["events"] = tree.kernel.events_processed
    return totals


@dataclass
class Probe:
    """Times ``Kernel.run`` and set-up, and snapshots every tree it sees.

    A set-up window opens when a simulation starts -- a ``Kernel`` is
    constructed, or the harness calls :meth:`open_window` before
    building a config -- and closes when that kernel's clock first
    advances (its first ``Kernel.run``).  Trace generation outside an
    open window is added to set-up on its own.
    """

    setup_s: float = 0.0
    run_s: float = 0.0
    snapshots: List[Dict[str, int]] = field(default_factory=list)
    schedulers: Set[str] = field(default_factory=set)
    _window: Optional[float] = None
    _fresh: Set[int] = field(default_factory=set)
    _trees: Dict[int, List[Any]] = field(default_factory=dict)

    def open_window(self) -> None:
        if self._window is None:
            self._window = clock()

    def install(self, patches: Patches) -> None:
        import repro.api.builder as builder
        import repro.experiments.workloads as experiment_workloads
        from repro.sim.kernel import Kernel
        from repro.topology.tree import TopologyTree

        probe = self

        def kernel_init(original: Callable[..., None]) -> Callable[..., None]:
            def __init__(kernel: Any, *args: Any, **kwargs: Any) -> None:
                probe.open_window()
                original(kernel, *args, **kwargs)
                probe._fresh.add(id(kernel))

            return __init__

        def kernel_run(original: Callable[..., int]) -> Callable[..., int]:
            def run(kernel: Any, *args: Any, **kwargs: Any) -> int:
                entered = clock()
                key = id(kernel)
                if key in probe._fresh:
                    probe._fresh.discard(key)
                    if probe._window is not None:
                        probe.setup_s += entered - probe._window
                        probe._window = None
                try:
                    return original(kernel, *args, **kwargs)
                finally:
                    probe.run_s += clock() - entered
                    probe.schedulers.add(kernel.scheduler_kind)
                    probe._snapshot(kernel)

            return run

        def tree_init(original: Callable[..., None]) -> Callable[..., None]:
            def __init__(tree: Any, kernel: Any, *args: Any, **kwargs: Any) -> None:
                original(tree, kernel, *args, **kwargs)
                probe._trees.setdefault(id(kernel), []).append(tree)

            return __init__

        def traces(original: Callable[..., Any]) -> Callable[..., Any]:
            def generate(*args: Any, **kwargs: Any) -> Any:
                if probe._window is not None:
                    return original(*args, **kwargs)
                entered = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    probe.setup_s += clock() - entered

            return generate

        patches.replace(Kernel, "__init__", kernel_init)
        patches.replace(Kernel, "run", kernel_run)
        patches.replace(TopologyTree, "__init__", tree_init)
        patches.replace(builder, "resolve_workload", traces)
        patches.replace(experiment_workloads, "generate_table2_traces", traces)
        patches.replace(experiment_workloads, "generate_table3_traces", traces)

    def _snapshot(self, kernel: Any) -> None:
        # Counters are final once the kernel stops: result collection
        # reads state but issues no polls.  Dropping the trees here keeps
        # finished simulations collectable.
        for tree in self._trees.pop(id(kernel), ()):
            self.snapshots.append(tree_snapshot(tree))

    def totals(self) -> Dict[str, int]:
        totals = dict.fromkeys(SNAPSHOT_KEYS, 0)
        for snapshot in self.snapshots:
            for key, value in snapshot.items():
                totals[key] += value
        return totals

    def identity_failures(self, arrivals: int) -> List[str]:
        """The conservation identities, checked per tree and overall.

        A request is counted by its sender when issued and by its
        receiver when delivered, so on links with latency the requests
        still in flight at the horizon sit between the two counts:
        completed <= delivered <= issued.  On zero-latency links every
        poll completes inline and the sandwich is the equality
        delivered == issued.
        """
        failures = []
        for number, snap in enumerate(self.snapshots):
            for level, delivered, what in (
                ("level0", "origin_requests", "origin requests"),
                ("nonroot", "downstream_requests", "downstream requests"),
            ):
                completed = snap[f"{level}_completed"]
                issued = snap[f"{level}_polls"]
                if not completed <= snap[delivered] <= issued:
                    failures.append(
                        f"tree {number}: {what} {snap[delivered]} outside "
                        f"[{completed}, {issued}] ({level} polls completed, "
                        "issued)"
                    )
            if snap["downstream_404"] != 0:
                failures.append(
                    f"tree {number}: {snap['downstream_404']} downstream 404s"
                )
        edge_clients = self.totals()["edge_client_requests"]
        if edge_clients != arrivals:
            failures.append(
                f"edge hits + misses {edge_clients} != arrivals issued {arrivals}"
            )
        if self._trees:
            failures.append(f"{len(self._trees)} built tree(s) never ran")
        return failures


# ----------------------------------------------------------------------
# Traced run: spans at each layer's public entry points
# ----------------------------------------------------------------------
#: The layers a span can belong to, in report order.  ``unattributed``
#: is time inside kernel event callbacks that reach no wrapped public
#: entry point -- the refresher's timer callback, the proxy's private
#: poll machinery, the update feeder -- reported as it is, not guessed.
LAYERS = (
    "sim",
    "proxy",
    "httpsim",
    "server",
    "consistency",
    "metrics",
    "setup.traces",
    "setup.build",
    "api",
    "experiments",
    "harness",
    "unattributed",
)

#: Public class methods wrapped on traced iterations: (module, class,
#: method, layer).
METHOD_SPANS = (
    ("repro.sim.kernel", "Kernel", "run", "sim"),
    ("repro.proxy.proxy", "ProxyCache", "handle_client_request", "proxy"),
    ("repro.proxy.proxy", "ProxyCache", "handle_request", "proxy"),
    ("repro.proxy.proxy", "ProxyCache", "trigger_poll", "proxy"),
    ("repro.proxy.proxy", "ProxyCache", "register_object", "setup.build"),
    ("repro.proxy.refresher", "Refresher", "poll_now", "proxy"),
    ("repro.proxy.refresher", "Refresher", "on_poll_complete", "proxy"),
    ("repro.proxy.refresher", "Refresher", "on_triggered_poll", "proxy"),
    ("repro.httpsim.network", "Network", "exchange_sync", "httpsim"),
    ("repro.httpsim.network", "Network", "exchange", "httpsim"),
    ("repro.server.origin", "OriginServer", "handle_request", "server"),
    ("repro.server.origin", "OriginServer", "apply_update", "server"),
    (
        "repro.consistency.mutual_temporal",
        "MutualTemporalCoordinator",
        "on_poll_complete",
        "consistency",
    ),
    (
        "repro.consistency.mutual_value",
        "PartitionedMvCoordinator",
        "on_poll_complete",
        "consistency",
    ),
    (
        "repro.consistency.mutual_value",
        "PartitionedGroupMvCoordinator",
        "on_poll_complete",
        "consistency",
    ),
    ("repro.topology.tree", "TopologyTree", "__init__", "setup.build"),
    ("repro.topology.tree", "TopologyTree", "register_object", "setup.build"),
)

#: Module-level functions wrapped at the module their callers look them
#: up in: (module, function, layer).  Names a figure module does not
#: import are skipped.
FUNCTION_SPANS = (
    ("repro.api.builder", "run_simulation", "api"),
    ("repro.api.builder", "resolve_workload", "setup.traces"),
    ("repro.api.builder", "build_core", "setup.build"),
    ("repro.api.builder", "append_object_rows", "metrics"),
    ("repro.api.builder", "append_group_rows", "metrics"),
    ("repro.api.runs", "build_stack", "setup.build"),
    ("repro.api.runs", "build_core", "setup.build"),
    ("repro.experiments.workloads", "generate_table2_traces", "setup.traces"),
    ("repro.experiments.workloads", "generate_table3_traces", "setup.traces"),
)
_FIGURE_FUNCTIONS = (
    ("run", "experiments"),
    ("run_individual", "api"),
    ("run_mutual_temporal", "api"),
    ("run_mutual_value_adaptive", "api"),
    ("run_mutual_value_partitioned", "api"),
    ("collect_temporal", "metrics"),
    ("collect_mutual_temporal", "metrics"),
    ("collect_mutual_synchrony", "metrics"),
    ("collect_mutual_value", "metrics"),
    ("f_value_series", "metrics"),
    ("server_f_knots", "metrics"),
)
FIGURE_SPANS = tuple(
    (f"repro.experiments.{figure}", name, layer)
    for figure in ("figure3", "figure5", "figure7", "figure8")
    for name, layer in _FIGURE_FUNCTIONS
)

ROOT_SPAN = "harness.iteration"
EVENT_SPAN = "sim.event_callback"


def _policy_classes() -> Iterator[type]:
    import repro.consistency.adaptive_value  # noqa: F401  (registers subclasses)
    import repro.consistency.limd  # noqa: F401
    import repro.consistency.ttl  # noqa: F401
    from repro.consistency.base import RefreshPolicy

    pending = [RefreshPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        method = cls.__dict__.get("next_ttr")
        if method is not None and not getattr(method, "__isabstractmethod__", False):
            yield cls


@dataclass
class LayerReport:
    """Per-layer self times and per-span counts of one traced iteration."""

    wall_s: float
    self_s: Dict[str, float]
    calls: Dict[str, int]
    span_self_s: Dict[str, float]
    spans: int

    def balance_error_s(self) -> float:
        """|Σ layer self time − root wall|; zero up to float rounding."""
        return abs(sum(self.self_s.values()) - self.wall_s)


class Tracer:
    """Span recorder for one traced iteration.

    Spans live in four parallel flat arrays (name id, parent index,
    start, end) -- 24 bytes a span -- and are only analysed after the
    iteration ends.  ``pump_types`` names the harness's own kernel
    callback owners, whose spans count as ``harness`` rather than
    ``unattributed``.
    """

    def __init__(self, pump_types: Tuple[type, ...] = ()) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._state = [-1]
        self._pump_types = pump_types

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def wrap(self, fn: Callable[..., Any], nid: int) -> Callable[..., Any]:
        names = self.span_name
        parents = self.parent
        starts = self.start
        ends = self.end
        state = self._state

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(nid)
            parents.append(state[0])
            ends.append(0.0)
            state[0] = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                state[0] = parents[index]

        return traced

    def install(self, patches: Patches) -> None:
        import importlib

        from repro.sim.kernel import Kernel

        tracer = self

        def spanned(nid: int) -> Callable[[Any], Any]:
            return lambda fn: tracer.wrap(fn, nid)

        for module_name, class_name, method, layer in METHOD_SPANS:
            owner = getattr(importlib.import_module(module_name), class_name)
            nid = self.name_id(f"{class_name}.{method}", layer)
            patches.replace(owner, method, spanned(nid))
        for cls in _policy_classes():
            nid = self.name_id(f"{cls.__name__}.next_ttr", "consistency")
            patches.replace(cls, "next_ttr", spanned(nid))
        for module_name, function, layer in FUNCTION_SPANS + FIGURE_SPANS:
            module = importlib.import_module(module_name)
            if hasattr(module, function):
                short = module_name.rsplit(".", 1)[1]
                nid = self.name_id(f"{short}.{function}", layer)
                patches.replace(module, function, spanned(nid))

        # Every callback scheduled through the public scheduling calls
        # runs inside its own span, so the kernel's self time is dispatch
        # alone and the code behind a private callback shows as explicit
        # ``unattributed`` time.
        event_id = self.name_id(EVENT_SPAN, "unattributed")
        pump_id = self.name_id("ClientPump.on_arrival", "harness")
        pump_types = self._pump_types

        def callback_span(callback: Callable[..., Any]) -> Callable[..., Any]:
            owner = getattr(callback, "__self__", None)
            nid = pump_id if isinstance(owner, pump_types) else event_id
            return tracer.wrap(callback, nid)

        def schedule_at(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapped(
                kernel: Any, when: float, callback: Any, *, label: str = ""
            ) -> Any:
                return original(kernel, when, callback_span(callback), label=label)

            return wrapped

        def schedule_raw(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapped(
                kernel: Any, when: float, callback: Any, label: str = ""
            ) -> Any:
                return original(kernel, when, callback_span(callback), label)

            return wrapped

        patches.replace(Kernel, "schedule_at", schedule_at)
        patches.replace(Kernel, "schedule_raw", schedule_raw)

    def root(self, body: Callable[[], Any]) -> Any:
        """Run ``body`` as the iteration's root span."""
        return self.wrap(body, self.name_id(ROOT_SPAN, "harness"))()

    def report(self) -> LayerReport:
        """Self time per layer: span duration minus its children's."""
        count = len(self.span_name)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        children = [0.0] * count
        parents = self.parent
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                children[parent] += duration[index]
        self_s = dict.fromkeys(LAYERS, 0.0)
        span_self = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        names = self.span_name
        for index in range(count):
            nid = names[index]
            span_self[nid] += duration[index] - children[index]
            calls[nid] += 1
        for nid, seconds in enumerate(span_self):
            self_s[self.layers[nid]] += seconds
        roots = [i for i in range(count) if parents[i] < 0]
        return LayerReport(
            wall_s=sum(duration[i] for i in roots),
            self_s=self_s,
            calls=dict(zip(self.names, calls)),
            span_self_s=dict(zip(self.names, span_self)),
            spans=count,
        )

    def dump(self, path: str, limit: int) -> None:
        """Write the first ``limit`` spans as tab-separated rows."""
        base = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tparent\tname\tlayer\tstart_s\tend_s\n")
            for index in range(min(limit, len(self.span_name))):
                nid = self.span_name[index]
                out.write(
                    f"{index}\t{self.parent[index]}\t{self.names[nid]}\t"
                    f"{self.layers[nid]}\t{self.start[index] - base:.9f}\t"
                    f"{self.end[index] - base:.9f}\n"
                )
