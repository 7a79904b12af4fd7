"""Fluent simulation construction and the config execution path.

:class:`SimulationBuilder` assembles a typed
:class:`~repro.api.config.SimulationConfig` step by step::

    outcome = (
        SimulationBuilder()
        .workload("news", "cnn_fn", "nyt_ap")
        .policy("limd", delta=600.0, ttr_max=3600.0)
        .topology("single")
        .seed(7)
        .fidelity_delta(600.0)
        .run()
    )
    print(outcome.results.to_csv())

:func:`run_simulation` is the one execution path behind the builder,
the ``repro run --config`` CLI, and any external caller holding a
config: resolve the workload through the source registry, the policy
through the consistency registry, build the topology — ``single`` and
``hierarchy`` included — as one
:class:`~repro.topology.tree.TopologyTree`, run to the horizon, and
report a :class:`~repro.api.results.ResultSet` with a declared column
schema.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycle
    from repro.groups.registry import GroupRegistry
    from repro.sim.tracing import EventLog

from repro.api.config import (
    CacheConfig,
    GroupConfig,
    GroupsConfig,
    LevelConfig,
    NetworkConfig,
    PolicyConfig,
    SimulationConfig,
    SimulationConfigError,
    TopologyConfig,
    WorkloadConfig,
)
from repro.api.jsonable import thaw
from repro.api.results import ColumnarBuilder, ResultSet
from repro.api.runs import RunResult, build_core
from repro.api.workloads import resolve_workload
from repro.consistency.base import PolicyFactory, RefreshPolicy
from repro.core.errors import CacheConfigurationError
from repro.core.rng import derive_seed
from repro.core.types import ObjectId
from repro.httpsim.network import LatencyModel
from repro.metrics.collector import (
    GROUP_ROW_COLUMNS,
    OBJECT_ROW_COLUMNS,
    append_group_rows,
    append_object_rows,
)
from repro.proxy.cache import ObjectCache
from repro.proxy.proxy import ProxyCache
from repro.proxy.ttl_registry import TTLClassRegistry
from repro.topology.levels import TopologyError, TreeLevel, warm_up_bound
from repro.topology.tree import LinkLabeler, NodeNamer, TopologyTree
from repro.traces.model import UpdateTrace

#: The declared schema every simulation outcome reports, per (node,
#: object) pair.  Fidelity cells are ``None`` unless the config sets
#: ``fidelity_delta_s``; the eviction columns are all zero for
#: unbounded caches (the default) and ``staleness_violations`` counts
#: absence windows that voided the policy's Δ bound (see
#: :func:`repro.metrics.collector.collect_eviction_impact`).
#:
#: Configs with a non-empty ``groups`` section additionally report one
#: row per (node, group) carrying the ``group*`` columns — scored by
#: :func:`repro.metrics.group.group_temporal_fidelity` against each
#: group's ``mutual_delta`` — while per-object rows leave those cells
#: unset (and group rows leave the per-object cells unset).
#:
#: Assembled from the collector's two row shapes — the per-object cells
#: first, then the ``group*`` cells (``node`` is shared).
RESULT_COLUMNS: Tuple[str, ...] = OBJECT_ROW_COLUMNS + GROUP_ROW_COLUMNS[1:]

#: A hook run on the live tree after registration, before the run — the
#: seam load drivers (e.g. the scale benchmark's client pumps) use to
#: attach extra event sources.
TreeInstrument = Callable[[TopologyTree], None]


@dataclass
class SimulationOutcome:
    """A finished config-driven simulation.

    Attributes:
        config: The exact configuration that ran.
        run: Live simulation objects for deep inspection (the primary
            proxy: the single proxy, the hierarchy parent, or the
            tree's first level-0 node).
        results: Per-(node, object) metric rows under the declared
            :data:`RESULT_COLUMNS` schema.
        edges: Edge proxies (empty for the ``single`` topology and for
            one-level trees).
        tree: The live :class:`~repro.topology.tree.TopologyTree` the
            run built (every topology kind runs as one).
    """

    config: SimulationConfig
    run: RunResult
    results: ResultSet
    edges: List[ProxyCache]
    tree: TopologyTree


def _policy_factory(policy: PolicyConfig) -> PolicyFactory:
    # Imported lazily so building the api package does not drag in
    # every consistency policy module.
    from repro.consistency.registry import build_policy_factory

    try:
        return build_policy_factory(
            policy.name,
            **{key: thaw(value) for key, value in policy.params.items()},
        )
    except TypeError as exc:
        # JSON-legal but wrong-shaped params (missing/unknown keyword,
        # bad value type) surface as the config error they are, not a
        # raw TypeError traceback.
        raise SimulationConfigError(
            f"invalid params for policy {policy.name!r} "
            f"({dict(policy.params)}): {exc}"
        ) from None


def _resolve_groups(
    config: SimulationConfig, traces: Sequence[UpdateTrace]
) -> Optional["GroupRegistry"]:
    """Materialise the config's groups section into one registry.

    Explicit groups come first, then one ``component-<i>`` group per
    connected component of the dependency edges.  Members must name
    workload objects; id collisions and malformed groups surface as
    config errors before any simulation state exists.
    """
    if not config.groups.enabled:
        return None
    from repro.groups.dependency import DependencyGraph
    from repro.groups.registry import GroupRegistry, groups_from_components

    known = {str(trace.object_id) for trace in traces}
    registry = GroupRegistry()
    for group in config.groups.groups:
        missing = sorted(set(group.members) - known)
        if missing:
            raise SimulationConfigError(
                f"groups: group {group.group_id!r} names member(s) "
                f"{missing} not in workload.objects"
            )
        try:
            registry.create_group(
                group.group_id,
                tuple(ObjectId(member) for member in group.members),
                group.mutual_delta,
            )
        except ValueError as exc:
            raise SimulationConfigError(f"groups: {exc}") from None
    if config.groups.edges:
        graph = DependencyGraph()
        for a, b in config.groups.edges:
            missing = sorted({a, b} - known)
            if missing:
                raise SimulationConfigError(
                    f"groups: edge [{a!r}, {b!r}] names object(s) "
                    f"{missing} not in workload.objects"
                )
            graph.relate(ObjectId(a), ObjectId(b))
        for spec in groups_from_components(
            graph, config.groups.component_delta
        ):
            try:
                registry.add_group(spec)
            except ValueError as exc:
                raise SimulationConfigError(f"groups: {exc}") from None
    return registry


def _attach_coordinators(
    config: SimulationConfig,
    registry: Optional["GroupRegistry"],
    proxies: Sequence[ProxyCache],
) -> None:
    """One mutual-temporal coordinator per proxy node, sharing the registry.

    Attached before object registration (like
    :func:`repro.api.runs.run_mutual_temporal`) so initial fetches are
    observed; partners not yet registered are suppressed by the
    coordinator's own "unregistered" guard.
    """
    if registry is None:
        return
    from repro.consistency.mutual_temporal import (
        make_mutual_temporal_coordinator,
    )

    for proxy in proxies:
        make_mutual_temporal_coordinator(
            proxy,
            registry,
            config.groups.mode,
            rate_ratio_threshold=config.groups.rate_ratio_threshold,
        )


def _latency_of(network: NetworkConfig) -> LatencyModel:
    return LatencyModel(
        one_way=network.one_way_latency_s, jitter=network.jitter_s
    )


def _cache_factory(
    cache: CacheConfig,
) -> Optional[Callable[[int, int], Optional[ObjectCache]]]:
    """Per-node cache builder for bounded configs (None when unbounded).

    Resolving the eviction name eagerly — one throwaway build — turns a
    typo'd ``cache.eviction`` into a config error before any simulation
    state exists, matching how policy names fail.
    """
    if not cache.bounded:
        return None
    capacity = cache.capacity
    assert capacity is not None
    try:
        ObjectCache(capacity=capacity, eviction=cache.eviction)
    except CacheConfigurationError as exc:
        raise SimulationConfigError(str(exc)) from None

    def build(_level: int, _index: int) -> ObjectCache:
        return ObjectCache(capacity=capacity, eviction=cache.eviction)

    return build


def _with_ttl_classes(
    factory: PolicyFactory, cache: CacheConfig
) -> PolicyFactory:
    """Overlay per-class static-TTL policies on the main policy factory.

    Objects resolving to a declared TTL class (or catching the default
    TTL) run ``static_ttl`` with that TTL; everything else keeps the
    simulation's main policy.  An object absent from
    ``cache.object_classes`` is its own class, so TTL tables can key
    directly by object.
    """
    if not cache.has_ttl_classes:
        return factory
    registry = TTLClassRegistry(cache.ttl_classes, cache.default_ttl_s)
    from repro.consistency.ttl import static_ttl_policy_factory

    def build(object_id: ObjectId) -> RefreshPolicy:
        key = str(object_id)
        ttl = registry.get_ttl(cache.object_classes.get(key, key))
        if ttl is None:
            return factory(object_id)
        return static_ttl_policy_factory(ttl)(object_id)

    return build


def _resolve_horizon(
    config: SimulationConfig,
    traces: Sequence[UpdateTrace],
    levels: Sequence[TreeLevel],
) -> float:
    """The run's end time, checked against the topology's warm-up.

    Below latent links a level only registers once its upstream warmed
    up (see ``TopologyTree.register_object``); a horizon inside that
    warm-up would leave nodes unregistered and their result rows
    impossible, so such configs are rejected up front.
    """
    horizon = (
        config.horizon_s
        if config.horizon_s is not None
        else max(trace.end_time for trace in traces)
    )
    warm_up = warm_up_bound(levels)
    if horizon < warm_up:
        raise SimulationConfigError(
            f"horizon_s ({horizon}) is shorter than the topology's "
            f"registration warm-up bound ({warm_up}): levels below a "
            "latent link only register after one upstream round trip "
            "per level"
        )
    return horizon


def _fixed_link_label(level: int, index: int) -> str:
    return "network" if level == 0 else f"network.edge-{index}"


def _tree_shape(
    topology: TopologyConfig,
) -> Tuple[Tuple[LevelConfig, ...], Optional[NodeNamer], Optional[LinkLabeler]]:
    """Every topology kind as tree levels, plus its node and link labels.

    ``single`` is one node and ``hierarchy`` one parent fanning out to
    ``edge_count`` edges; ``tree`` configs carry their levels and use
    the tree's default ``L{level}.N{index}`` labels (``None`` here).
    """
    if topology.kind == "tree":
        return topology.levels, None, None
    # Node names label result rows and link labels seed per-link jitter
    # streams, so both are part of these topologies' output.
    root = "proxy" if topology.kind == "single" else "parent"

    def name(level: int, index: int) -> str:
        return root if level == 0 else f"edge-{index}"

    levels = (LevelConfig(fan_out=1),)
    if topology.kind == "hierarchy":
        levels += (LevelConfig(fan_out=topology.edge_count),)
    return levels, name, _fixed_link_label


def _check_bounded_interior(
    config: SimulationConfig, depth: int, object_count: int
) -> None:
    """Refuse bounded caches that would evict from an interior proxy.

    A parent answers a child's poll only from its own cache
    (:meth:`~repro.proxy.proxy.ProxyCache.handle_request`), so once an
    interior node evicts an object its children's next poll for it
    fails.  Single-node topologies evict freely; deeper ones need room
    for every object.
    """
    capacity = config.cache.capacity
    if depth > 1 and capacity is not None and capacity < object_count:
        raise SimulationConfigError(
            f"cache.capacity ({capacity}) is below the workload's "
            f"{object_count} objects in a {depth}-level topology: an "
            "interior proxy would evict objects its children still "
            "poll, and a parent serves children only from its own "
            "cache; raise the capacity or use topology.kind 'single'"
        )


def _run_tree(
    config: SimulationConfig,
    traces: Sequence[UpdateTrace],
    policy_factory: PolicyFactory,
    *,
    instrument: Optional[TreeInstrument] = None,
) -> SimulationOutcome:
    """Run any topology as one TopologyTree and report rows per node.

    ``instrument`` runs on the live tree after registration, before
    the clock starts.
    """
    level_configs, node_namer, link_labeler = _tree_shape(config.topology)
    default_latency = _latency_of(config.network)
    levels = tuple(
        TreeLevel(
            fan_out=level.fan_out,
            mode=level.mode,
            latency=(
                _latency_of(level.network)
                if level.network is not None
                else default_latency
            ),
        )
        for level in level_configs
    )
    level_factories = [
        policy_factory
        if level.policy is None
        else _policy_factory(level.policy)
        for level in level_configs
    ]
    group_registry = _resolve_groups(config, traces)
    horizon = _resolve_horizon(config, traces, levels)
    _check_bounded_interior(config, len(levels), len(traces))

    def link_rng(label: str) -> random.Random:
        # One seeded stream per link; links with zero jitter simply
        # never consult it, so determinism is label-independent there.
        return random.Random(derive_seed(config.seed, label))

    kernel, server, event_log = build_core(
        traces,
        supports_history=config.supports_history,
        log_events=config.log_events,
    )
    try:
        tree = TopologyTree(
            kernel,
            server,
            levels,
            want_history=config.want_history,
            event_log=event_log,
            link_rng=link_rng,
            node_namer=node_namer,
            link_labeler=link_labeler,
            cache_factory=_cache_factory(config.cache),
        )
    except TopologyError as exc:
        raise SimulationConfigError(str(exc)) from None

    def level_policy(level: int, object_id: ObjectId) -> RefreshPolicy:
        return level_factories[level](object_id)

    _attach_coordinators(
        config, group_registry, [node.proxy for node in tree.nodes]
    )
    for trace in traces:
        tree.register_object(trace.object_id, level_policy)
    if instrument is not None:
        instrument(tree)

    kernel.run(until=horizon)

    assembly = ColumnarBuilder(RESULT_COLUMNS)
    write_object = assembly.row_writer(OBJECT_ROW_COLUMNS)
    for node in tree.nodes:
        # Level-0 nodes track the origin itself and score at poll
        # times; deeper nodes refresh to parent-current (possibly
        # stale) state and are scored from the snapshots actually held.
        append_object_rows(
            write_object,
            node.name,
            node.proxy,
            traces,
            config.fidelity_delta_s,
            horizon=horizon,
            snapshots=node.level > 0,
        )
    if group_registry is not None:
        write_group = assembly.row_writer(GROUP_ROW_COLUMNS)
        traces_by_id = {trace.object_id: trace for trace in traces}
        for node in tree.nodes:
            append_group_rows(
                write_group,
                node.name,
                node.proxy,
                group_registry,
                traces_by_id,
                horizon,
            )
    edges = (
        [node.proxy for node in tree.edge_nodes] if tree.depth > 1 else []
    )
    return SimulationOutcome(
        config=config,
        run=RunResult(
            kernel=kernel,
            server=server,
            proxy=tree.nodes_at(0)[0].proxy,
            traces={trace.object_id: trace for trace in traces},
            event_log=event_log,
        ),
        results=assembly.build(),
        edges=edges,
        tree=tree,
    )


def run_simulation(
    config: SimulationConfig,
    *,
    workers: Optional[int] = None,
    instrument: Optional[TreeInstrument] = None,
) -> SimulationOutcome:
    """Execute one :class:`SimulationConfig` end to end.

    Deterministic in ``config.seed``; raises
    :class:`~repro.api.config.SimulationConfigError` for unresolvable
    sources, policies, or object keys before any simulation starts.
    Every topology kind runs as one
    :class:`~repro.topology.tree.TopologyTree` in this process.

    ``instrument`` runs on the live tree after registration, before
    the clock starts.  ``workers`` must be ``None``: sharded execution
    across worker processes was removed.
    """
    if workers is not None:
        raise SimulationConfigError(
            f"run_simulation(workers={workers!r}) is not supported: "
            "sharded execution was removed and every run is serial; "
            "pass workers=None"
        )
    traces = resolve_workload(config.workload, config.seed)
    policy_factory = _with_ttl_classes(
        _policy_factory(config.policy), config.cache
    )
    return _run_tree(config, traces, policy_factory, instrument=instrument)


class SimulationBuilder:
    """Fluent construction of a :class:`SimulationConfig`.

    Every step returns the builder, so configurations read as one
    chain; :meth:`build` produces the validated, serializable config
    and :meth:`run` executes it directly.  Starting from an existing
    config (``SimulationBuilder(config)``) makes the builder a typed
    override mechanism.
    """

    def __init__(self, base: Optional[SimulationConfig] = None) -> None:
        self._config = base if base is not None else SimulationConfig()

    def workload(
        self,
        source: Union[str, WorkloadConfig],
        *objects: str,
        **params: object,
    ) -> "SimulationBuilder":
        """Select the workload: a source name plus object keys, or a config."""
        if isinstance(source, WorkloadConfig):
            if objects or params:
                raise TypeError(
                    "pass either a WorkloadConfig or source/objects/params, "
                    "not both"
                )
            workload = source
        else:
            workload = WorkloadConfig(
                source=source,
                objects=objects or self._config.workload.objects,
                params=params,
            )
        self._config = replace(self._config, workload=workload)
        return self

    def policy(
        self, name: Union[str, PolicyConfig], **params: object
    ) -> "SimulationBuilder":
        """Select the consistency policy by registry name (plus kwargs)."""
        if isinstance(name, PolicyConfig):
            if params:
                raise TypeError(
                    "pass either a PolicyConfig or name/params, not both"
                )
            policy = name
        else:
            policy = PolicyConfig(name=name, params=params)
        self._config = replace(self._config, policy=policy)
        return self

    def topology(
        self,
        kind: Union[str, TopologyConfig],
        *,
        edge_count: Optional[int] = None,
        levels: Optional[Sequence[LevelConfig]] = None,
    ) -> "SimulationBuilder":
        """Select the proxy topology (``single``, ``hierarchy``, ``tree``).

        ``tree`` takes ``levels`` (a sequence of :class:`LevelConfig`
        or equivalent mappings), root level first.  Omitted keywords
        inherit the builder's current topology — ``levels`` only while
        the kind stays ``tree``, since other kinds reject them.
        """
        if isinstance(kind, TopologyConfig):
            if edge_count is not None or levels is not None:
                raise TypeError(
                    "pass either a TopologyConfig or kind/edge_count/"
                    "levels, not both"
                )
            topology = kind
        else:
            if levels is None:
                inherited = (
                    self._config.topology.levels if kind == "tree" else ()
                )
            else:
                inherited = tuple(levels)
            if edge_count is None:
                # Like levels, edge_count only carries over to a kind
                # that reads it — trees reset to the field default.
                edge_count = (
                    self._config.topology.edge_count if kind != "tree" else 4
                )
            topology = TopologyConfig(
                kind=kind, edge_count=edge_count, levels=inherited
            )
        self._config = replace(self._config, topology=topology)
        return self

    def network(
        self,
        one_way_latency_s: Union[float, NetworkConfig] = 0.0,
        *,
        jitter_s: float = 0.0,
    ) -> "SimulationBuilder":
        """Set the link latency model."""
        if isinstance(one_way_latency_s, NetworkConfig):
            network = one_way_latency_s
        else:
            network = NetworkConfig(
                one_way_latency_s=one_way_latency_s, jitter_s=jitter_s
            )
        self._config = replace(self._config, network=network)
        return self

    def cache(
        self,
        capacity: Union[None, int, CacheConfig] = None,
        *,
        eviction: str = "lru",
        ttl_classes: Optional[Dict[str, float]] = None,
        default_ttl_s: Optional[float] = None,
        object_classes: Optional[Dict[str, str]] = None,
    ) -> "SimulationBuilder":
        """Bound each node's cache and/or declare TTL classes.

        ``capacity=None`` keeps the paper's unbounded cache (TTL
        classes still apply); a :class:`CacheConfig` replaces the whole
        section.  Example::

            builder.cache(64, eviction="tinylfu",
                          ttl_classes={"news": 300.0},
                          object_classes={"cnn_fn": "news"})
        """
        if isinstance(capacity, CacheConfig):
            cache = capacity
        else:
            cache = CacheConfig(
                capacity=capacity,
                eviction=eviction,
                ttl_classes=ttl_classes or {},
                default_ttl_s=default_ttl_s,
                object_classes=object_classes or {},
            )
        self._config = replace(self._config, cache=cache)
        return self

    def groups(
        self,
        groups: Union[GroupsConfig, Sequence[GroupConfig]] = (),
        *,
        edges: Sequence[Sequence[str]] = (),
        component_delta: float = 600.0,
        mode: str = "triggered",
        rate_ratio_threshold: float = 0.8,
    ) -> "SimulationBuilder":
        """Declare mutual-consistency groups.

        Pass explicit :class:`GroupConfig` entries, dependency
        ``edges`` (each connected component becomes a group at
        ``component_delta``), or a whole :class:`GroupsConfig`.
        Example::

            builder.groups(
                [GroupConfig("scores", ("team_a", "team_b"), 30.0)],
                edges=[("team_a", "summary")],
                mode="heuristic",
            )
        """
        if isinstance(groups, GroupsConfig):
            section = groups
        else:
            section = GroupsConfig(
                groups=tuple(groups),
                edges=tuple(tuple(pair) for pair in edges),
                component_delta=component_delta,
                mode=mode,
                rate_ratio_threshold=rate_ratio_threshold,
            )
        self._config = replace(self._config, groups=section)
        return self

    def seed(self, seed: int) -> "SimulationBuilder":
        """Set the root RNG seed."""
        self._config = replace(self._config, seed=seed)
        return self

    def horizon(self, horizon_s: Optional[float]) -> "SimulationBuilder":
        """Set the stop time (``None``: run to the longest trace end)."""
        self._config = replace(self._config, horizon_s=horizon_s)
        return self

    def fidelity_delta(self, delta_s: Optional[float]) -> "SimulationBuilder":
        """Set the Δt used for the fidelity result columns."""
        self._config = replace(self._config, fidelity_delta_s=delta_s)
        return self

    def history(
        self, *, supports: bool = True, want: bool = True
    ) -> "SimulationBuilder":
        """Configure origin history support and proxy history requests."""
        self._config = replace(
            self._config, supports_history=supports, want_history=want
        )
        return self

    def log_events(self, enabled: bool = True) -> "SimulationBuilder":
        """Enable (or disable) event-log recording."""
        self._config = replace(self._config, log_events=enabled)
        return self

    def build(self) -> SimulationConfig:
        """The validated, serializable configuration built so far."""
        return self._config

    def run(self) -> SimulationOutcome:
        """Build and execute in one step."""
        return run_simulation(self.build())
