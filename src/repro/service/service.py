"""RouteService — concurrent, cache-aware route serving.

The ROADMAP's north star is serving heavy query traffic, not running
one isolated experiment; this module is the first layer built for that
regime. A :class:`RouteService` owns

* one thread-safe :class:`~repro.core.planner.RoutePlanner`,
* an :class:`~repro.service.pool.EstimatorPool` of prepared estimator
  instances (landmark tables keyed by graph fingerprint, never
  ``id()``),
* an LRU :class:`~repro.service.cache.RouteCache` keyed by
  ``(graph fingerprint, source, destination, algorithm, estimator,
  weight)`` with edge-granular invalidation for traffic updates,
* a :class:`~repro.service.metrics.ServiceMetrics` aggregate plus one
  :class:`~repro.engine.tracing.RequestTrace` per query.

Identical queries arriving concurrently are deduplicated: one thread
computes, the rest wait on the in-flight entry and read the cached
answer. :meth:`plan_many` applies the same dedup to a batch.

Two traffic-safety mechanisms work together:

* **Single-epoch pricing.** :meth:`plan`, :meth:`skim` and
  :meth:`plan_engine` hold ``graph.gate.shared()`` from admission to
  answer; an epoch is written and fanned out under the exclusive side,
  so a route never sums edge costs from a mix of epochs.
* **Edge-granular invalidation.** :meth:`handle_epoch` — wired to a
  :class:`~repro.traffic.feed.TrafficFeed` — evicts only the cached
  answers a batch of deltas actually affects and re-keys the rest to
  the new fingerprint, so untouched commutes keep their warm hits
  across updates. Landmark tables in the estimator pool are refreshed
  on the same signal.

The cache sits above both execution tiers. For in-memory planning a
warm hit costs a dictionary lookup; for relational execution — either
the ``backend="relational"`` knob on :meth:`plan` or the lower-level
:meth:`plan_engine` — a warm hit performs **zero block reads and
writes**: the database is never touched. On the relational backend the
service owns one :class:`~repro.engine.relational_graph.RelationalGraph`
per served graph, forwards traffic epochs to it (so dirtied adjacency
blocks are re-fetched and billed as ``sync_cost`` on the next cold
run), and keys cached answers under a ``rel:`` spec so the two tiers
never alias each other's results.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.estimators import (
    Estimator,
    ScaledEstimator,
    check_scale,
    make_estimator,
)
from repro.core.planner import RoutePlanner
from repro.kernel.result import PathResult
from repro.exceptions import FaultError, UnknownAlgorithmError
from repro.kernel import accel as _accel
from repro.kernel import csr as _csr
from repro.engine.tracing import RequestTrace
from repro.graphs.graph import Graph, NodeId
from repro.service.cache import (
    EdgeKey,
    InvalidationReport,
    QueryKey,
    RouteCache,
    query_key,
)
from repro.service.metrics import QueryMetrics, ServiceMetrics, Snapshot
from repro.service.pool import EstimatorPool
from repro.traffic.feed import TrafficEpoch
from repro.demand.selectlink import SelectLinkResult, link_flows
from repro.demand.skim import SkimMatrix, skim as _skim

#: A batch entry: ``(source, destination)`` with service defaults, or a
#: dict with optional ``algorithm`` / ``estimator`` / ``weight`` /
#: ``backend`` keys.
QuerySpec = Union[Tuple[NodeId, NodeId], Dict[str, object]]

#: Estimators that keep A*-family planners optimal (admissible bounds),
#: which is what lets the invalidator reason from path provenance alone.
_ADMISSIBLE_ESTIMATORS = frozenset({"zero", "euclidean", "landmark"})

#: Algorithms whose answers are cost-optimal independent of estimator
#: (bidirectional ignores its estimator argument and runs two Dijkstras).
_ALWAYS_OPTIMAL_ALGORITHMS = frozenset({"dijkstra", "iterative", "bidirectional"})

#: Estimator-driven algorithms that are optimal under admissible bounds.
_ESTIMATOR_OPTIMAL_ALGORITHMS = frozenset({"astar"})

#: Execution backends :meth:`RouteService.plan` can route a query to.
_BACKENDS = ("memory", "relational")

#: Algorithms the relational backend can execute (the paper's three).
_RELATIONAL_ALGORITHMS = ("astar", "dijkstra", "iterative")


class RouteService:
    """Serve single-pair route queries with caching and reuse.

    Traffic epochs are absorbed edge by edge: the cache's inverted edge
    index evicts only the answers an epoch can affect and re-keys the
    rest (see :meth:`handle_epoch`). :meth:`invalidate` drops every
    answer for a graph, for structural changes.
    """

    def __init__(
        self,
        planner: Optional[RoutePlanner] = None,
        cache_capacity: int = 1024,
        estimator_pool: Optional[EstimatorPool] = None,
        default_algorithm: str = "astar",
        default_estimator: str = "euclidean",
        default_backend: str = "memory",
        clock=time.perf_counter,
        fault_plan=None,
        max_retries: int = 3,
        degradation: Sequence[str] = ("memory", "last-good"),
        wal=None,
        recover_on_start: bool = False,
        accelerator: Optional[str] = None,
    ) -> None:
        for rung in degradation:
            if rung not in ("memory", "last-good"):
                raise ValueError(
                    f"unknown degradation rung {rung!r}; "
                    "expected 'memory' or 'last-good'"
                )
        if default_backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {default_backend!r}; "
                f"expected one of {', '.join(_BACKENDS)}"
            )
        if accelerator not in (None, "cch"):
            raise ValueError(
                f"unknown accelerator {accelerator!r}; expected 'cch' "
                "(or None to disable)"
            )
        self.pool = estimator_pool if estimator_pool is not None else EstimatorPool()
        if planner is None:
            planner = RoutePlanner(estimator_pool=self.pool)
        elif planner.estimator_pool is None:
            planner.estimator_pool = self.pool
        self.planner = planner
        self.cache = RouteCache(cache_capacity)
        self.metrics = ServiceMetrics()
        self.default_algorithm = default_algorithm
        self.default_estimator = default_estimator
        self.default_backend = default_backend
        self._clock = clock
        self._flight_lock = threading.Lock()
        self._in_flight: Dict[QueryKey, threading.Event] = {}
        # One DB-resident mirror per served graph, created on first
        # relational query (keyed by Graph.uid so a rebuilt graph with
        # a recycled name cannot alias a stale mirror).
        self._rgraph_lock = threading.Lock()
        self._rgraphs: Dict[int, object] = {}
        # The simulated DBMS charges I/O to a shared per-rgraph ledger;
        # serialize relational runs so concurrent queries cannot
        # interleave their cost attribution.
        self._engine_lock = threading.Lock()
        self._traffic_lock = threading.Lock()
        self.epochs_applied = 0
        self.traffic_evicted = 0
        self.traffic_retained = 0
        self.plan_retries = 0
        self.last_trace: Optional[RequestTrace] = None
        # Fault tolerance: an optional FaultPlan wires a FaultInjector
        # into every relational mirror this service builds; when the
        # injector's bounded retries are exhausted, the degradation
        # ladder answers the query anyway — from the in-memory backend
        # ("memory") or the last-known-good route for the same query
        # ("last-good") — with the result flagged ``degraded``.
        self.fault_plan = fault_plan
        self.max_retries = max_retries
        self.degradation = tuple(degradation)
        self._last_good_lock = threading.Lock()
        self._last_good: Dict[Tuple, PathResult] = {}
        self._last_good_capacity = max(64, cache_capacity)
        self.relational_faults = 0
        self.memory_fallbacks = 0
        self.last_good_served = 0
        self.degraded_served = 0
        # Durability: an optional WriteAheadLog journals every absorbed
        # traffic epoch; with ``recover_on_start`` the first query for
        # a graph first replays the journaled epochs onto it
        # (:meth:`recover`), so a restarted service serves post-crash
        # answers priced at the last journaled cost state, never the
        # stale base costs.
        self.wal = wal
        self.recover_on_start = recover_on_start
        self._recovered_uids: set = set()
        self.epochs_recovered = 0
        # Acceleration: with ``accelerator="cch"``, memory-backend
        # Dijkstra queries route through a per-graph
        # :class:`~repro.kernel.accel.CCHAccelerator` (preprocess →
        # customize → query) instead of the planner registry, and
        # traffic epochs re-*customize* the accelerated state — the
        # topology-only preprocess survives every cost update — instead
        # of dropping it. Instances are keyed by ``Graph.uid``: the
        # preprocess is valid across versions of the same graph.
        self.accelerator = accelerator
        self._accel_lock = threading.Lock()
        self._accels: Dict[int, _accel.Accelerator] = {}
        self.accel_queries_served = 0
        # Batch OD serving: completed skim matrices are kept per
        # ``(fingerprint, origins, destinations)`` so repeated
        # skims of the same zone sets between epochs are free, the same
        # way the route cache serves repeated point queries. Matrices
        # are whole-epoch artifacts, so epoch handling drops them for
        # the graph rather than patching cells.
        self._skim_lock = threading.Lock()
        self._skims: Dict[Tuple, SkimMatrix] = {}
        self._skim_capacity = 8
        self.skims_computed = 0
        self.skim_hits = 0
        self.skim_cells = 0
        self.select_link_runs = 0

    # ------------------------------------------------------------------
    # single-query API
    # ------------------------------------------------------------------
    def plan(
        self,
        graph: Graph,
        source: NodeId,
        destination: NodeId,
        algorithm: Optional[str] = None,
        estimator: "str | Estimator | None" = None,
        weight: float = 1.0,
        backend: Optional[str] = None,
    ) -> PathResult:
        """Answer one query, through the cache when possible.

        Accepts the same arguments as :meth:`RoutePlanner.plan`; an
        estimator given as an *instance* is keyed by its ``name``
        attribute (callers pooling their own instances must keep names
        distinct per configuration). ``backend`` selects the execution
        tier — ``"memory"`` dispatches through the planner registry,
        ``"relational"`` runs the same algorithm as a database program
        against the service's :class:`RelationalGraph` mirror (cache,
        dedup, epoch pricing and invalidation all behave identically;
        ``sync_cost`` on the returned run bills any traffic-dirtied
        adjacency blocks re-fetched before the search).

        The answer is priced at a single traffic epoch: the query
        holds the graph's gate (shared side) from admission to answer,
        so an epoch arriving meanwhile waits for it.
        """
        algorithm = algorithm or self.default_algorithm
        backend = backend or self.default_backend
        check_scale(weight, "weight")
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; "
                f"expected one of {', '.join(_BACKENDS)}"
            )
        estimator_spec = estimator if estimator is not None else self.default_estimator
        estimator_name = (
            estimator_spec if isinstance(estimator_spec, str) else estimator_spec.name
        )
        # Relational answers live under their own cache spec: the two
        # tiers return bit-identical routes but different cost ledgers,
        # and a caller asking for the relational run's I/O accounting
        # must not be handed a cached in-memory result (or vice versa).
        key_spec = f"rel:{algorithm}" if backend == "relational" else algorithm
        if self.recover_on_start:
            self._maybe_recover(graph)
        trace = RequestTrace(self._clock)
        started = self._clock()
        with graph.gate.shared():
            key = query_key(
                graph, source, destination, key_spec, estimator_name, weight
            )
            while True:
                with trace.span("cache-lookup"):
                    cached = self.cache.get(key)
                if cached is not None:
                    return self._finish(key, cached, trace, started, cache_hit=True)

                # ------------------------------------------ in-flight dedup
                with self._flight_lock:
                    leader_event = self._in_flight.get(key)
                    if leader_event is None:
                        self._in_flight[key] = threading.Event()
                if leader_event is None:
                    break
                with trace.span("wait-in-flight"):
                    leader_event.wait()
                piggybacked = self.cache.get(key)
                if piggybacked is not None:
                    return self._finish(
                        key, piggybacked, trace, started,
                        cache_hit=True, deduplicated=True,
                    )
                # The leader failed, its answer was degraded (never
                # cached) or already evicted: re-admit this query.
                with self._traffic_lock:
                    self.plan_retries += 1

            try:
                planned_spec = self._admissible_spec(
                    graph, algorithm, estimator_spec, estimator_name
                )
                with trace.span(
                    "plan",
                    algorithm=algorithm,
                    estimator=estimator_name,
                    backend=backend,
                ):
                    if backend == "relational":
                        try:
                            result = self._plan_relational(
                                graph, source, destination, algorithm,
                                planned_spec, weight,
                            )
                        except FaultError as fault:
                            result = self._degrade(
                                graph, source, destination, algorithm,
                                planned_spec, estimator_name, weight, fault,
                            )
                    # CCH answers the cost-exact Dijkstra contract only;
                    # A* keeps its estimator resolution in the planner.
                    elif self.accelerator is not None and algorithm == "dijkstra":
                        result = self.accelerator_instance(graph).query(
                            graph, source, destination
                        )
                        with self._traffic_lock:
                            self.accel_queries_served += 1
                    else:
                        result = self.planner.plan(
                            graph, source, destination, algorithm,
                            planned_spec, weight,
                        )
                # A degraded answer is explicitly second-class: it is
                # returned flagged, never cached as the query's answer
                # (the caller sees the flag and the reason instead).
                if not getattr(result, "degraded", False):
                    with trace.span("cache-store"):
                        self.cache.put(
                            key,
                            result,
                            edges=self._route_edges(
                                result, algorithm, estimator_name, weight
                            ),
                            cost=getattr(result, "cost", None),
                            graph=graph,
                        )
                    self._record_last_good(
                        graph, source, destination, algorithm,
                        estimator_name, weight, result,
                    )
            finally:
                with self._flight_lock:
                    event = self._in_flight.pop(key, None)
                if event is not None:
                    event.set()
            return self._finish(key, result, trace, started, cache_hit=False)

    @staticmethod
    def _admissible_spec(
        graph: Graph,
        algorithm: str,
        estimator_spec: "str | Estimator",
        estimator_name: str,
    ) -> "str | Estimator":
        """The estimator A* plans with on ``graph``'s current costs.

        Straight-line distance bounds a route's cost only while no edge
        is priced below its length. When an epoch prices one lower, the
        Euclidean estimator is scaled by the state's ``min(cost /
        length)`` (:meth:`CSRGraph.euclidean_scale`), which keeps it
        admissible, so the answer stays exact and its provenance sound.
        At or above free flow the factor is 1.0 and the spec is
        returned unchanged.
        """
        if algorithm != "astar" or estimator_name != "euclidean":
            return estimator_spec
        scale = _csr.csr_for(graph).euclidean_scale(graph)
        if scale >= 1.0:
            return estimator_spec
        inner = (
            make_estimator("euclidean")
            if isinstance(estimator_spec, str)
            else estimator_spec
        )
        return ScaledEstimator(inner, scale)

    # ------------------------------------------------------------------
    # accelerator plumbing
    # ------------------------------------------------------------------
    def accelerator_instance(self, graph: Graph) -> Optional[_accel.Accelerator]:
        """The service-owned accelerator for ``graph`` (built on demand).

        ``None`` when the service was constructed without an
        ``accelerator``. Exposed so a caller can subscribe the *same*
        customized state the serving path uses to a feed, instead of
        building a second instance.
        """
        if self.accelerator is None:
            return None
        with self._accel_lock:
            instance = self._accels.get(graph.uid)
            if instance is None:
                instance = _accel.CCHAccelerator()
                self._accels[graph.uid] = instance
            return instance

    # ------------------------------------------------------------------
    # relational backend plumbing
    # ------------------------------------------------------------------
    def _rgraph_for(self, graph: Graph):
        """The service-owned DB mirror of ``graph``, created on demand.

        Mirrors are keyed by :attr:`Graph.uid`; a different graph
        object under a recycled uid slot (only possible through object
        identity games) is detected by identity and rebuilt. When the
        service carries a :class:`FaultPlan`, the mirror's database is
        built with a :class:`FaultInjector` attached, so every storage
        operation of every relational run is fault-eligible.
        """
        with self._rgraph_lock:
            rgraph = self._rgraphs.get(graph.uid)
            if rgraph is None or rgraph.graph is not graph:
                rgraph = self._build_rgraph(graph)
                self._rgraphs[graph.uid] = rgraph
            return rgraph

    def _build_rgraph(self, graph: Graph):
        from repro.engine.relational_graph import RelationalGraph

        if self.fault_plan is None:
            return RelationalGraph(graph)
        from repro.faults.injector import FaultInjector
        from repro.storage.database import Database
        from repro.storage.iostats import IOStatistics

        stats = IOStatistics()
        injector = FaultInjector(
            self.fault_plan, stats, max_retries=self.max_retries
        )
        database = Database(
            name=f"db-{graph.name}", stats=stats, injector=injector
        )
        return RelationalGraph(graph, database=database)

    def _run_guarded(self, rgraph, run):
        """Execute one engine run; on an escaping fault, drop leaked
        temporaries.

        A fault escaping mid-run means the run's ``finalize`` never
        dropped its R (and possibly F) relations; left behind they
        would accumulate across degraded queries and shadow the next
        run's accounting. The relation catalog is diffed around the run
        and any leak is cleaned up before the fault propagates to the
        degradation ladder.
        """
        with self._engine_lock:
            before = set(rgraph.db.relation_names())
            try:
                return run()
            except FaultError:
                leaked = [
                    name
                    for name in list(rgraph.db.relation_names())
                    if name not in before
                ]
                for name in leaked:
                    rgraph.db.drop_relation(name)
                raise

    def _plan_relational(
        self,
        graph: Graph,
        source: NodeId,
        destination: NodeId,
        algorithm: str,
        estimator_spec: "str | Estimator",
        weight: float,
    ) -> PathResult:
        """One cold query on the relational tier.

        Dijkstra and Iterative take no estimator (matching their
        in-memory planner adapters); A* resolves the estimator through
        the planner — including the pool, so a landmark table prepared
        for in-memory serving is reused by relational runs — and
        executes the paper's status-attribute frontier. The run begins
        with :meth:`RelationalGraph.sync`, so adjacency blocks dirtied
        by traffic epochs are re-fetched and billed as ``sync_cost``.
        """
        from repro.engine.rel_bestfirst import run_best_first, run_dijkstra
        from repro.engine.rel_iterative import run_iterative

        rgraph = self._rgraph_for(graph)
        if algorithm == "dijkstra":
            return self._run_guarded(
                rgraph, lambda: run_dijkstra(rgraph, source, destination)
            )
        if algorithm == "iterative":
            return self._run_guarded(
                rgraph, lambda: run_iterative(rgraph, source, destination)
            )
        if algorithm != "astar":
            raise UnknownAlgorithmError(algorithm, _RELATIONAL_ALGORITHMS)
        resolved, pooled_name = self.planner._resolve_estimator(
            estimator_spec, weight, graph
        )
        pooled_instance = (
            resolved.inner if pooled_name and weight != 1.0 else resolved
        )
        try:
            return self._run_guarded(
                rgraph,
                lambda: run_best_first(
                    rgraph,
                    source,
                    destination,
                    estimator=resolved,
                    frontier_kind="status-attribute",
                    algorithm="astar",
                    variant="status-attribute",
                ),
            )
        finally:
            if pooled_name is not None:
                self.planner.estimator_pool.release(pooled_name, pooled_instance)

    # ------------------------------------------------------------------
    # degradation ladder
    # ------------------------------------------------------------------
    def _degrade(
        self,
        graph: Graph,
        source: NodeId,
        destination: NodeId,
        algorithm: str,
        estimator_spec: "str | Estimator",
        estimator_name: str,
        weight: float,
        fault: Exception,
    ) -> PathResult:
        """Answer a query whose relational run died on exhausted retries.

        Walks the configured ladder: ``"memory"`` re-plans on the
        in-memory backend (same algorithm, no I/O accounting — correct
        route, unpriced); ``"last-good"`` serves the most recent
        successful answer for the same query (correct for an earlier
        cost state). Either way the result is flagged ``degraded`` with
        the rung and root cause in ``degraded_reason``. Re-raises the
        fault when every rung comes up empty.
        """
        with self._traffic_lock:
            self.relational_faults += 1
        for rung in self.degradation:
            if rung == "memory":
                result = self.planner.plan(
                    graph, source, destination, algorithm,
                    estimator_spec, weight,
                )
                result.degraded = True
                result.degraded_reason = f"memory-fallback: {fault}"
                with self._traffic_lock:
                    self.memory_fallbacks += 1
                return result
            lg_key = (graph.uid, source, destination, algorithm, estimator_name, weight)
            with self._last_good_lock:
                known_good = self._last_good.get(lg_key)
            if known_good is not None:
                result = replace(known_good, path=list(known_good.path))
                result.degraded = True
                result.degraded_reason = f"last-good: {fault}"
                with self._traffic_lock:
                    self.last_good_served += 1
                return result
        raise fault

    def _record_last_good(
        self,
        graph: Graph,
        source: NodeId,
        destination: NodeId,
        algorithm: str,
        estimator_name: str,
        weight: float,
        result: PathResult,
    ) -> None:
        """Remember a consistent answer for the last-good fallback rung.

        Keyed *without* the fingerprint: the rung's whole point is to
        serve a route from an earlier cost state when the current one
        is unreachable, flagged as degraded.
        """
        if not getattr(result, "found", False):
            return
        lg_key = (graph.uid, source, destination, algorithm, estimator_name, weight)
        with self._last_good_lock:
            self._last_good[lg_key] = result
            while len(self._last_good) > self._last_good_capacity:
                self._last_good.pop(next(iter(self._last_good)))

    def _route_edges(
        self,
        result: object,
        algorithm: str,
        estimator_name: str,
        weight: float,
    ) -> Optional[Iterable[EdgeKey]]:
        """Path provenance for the invalidation index, or None.

        Provenance-based retention is only sound when the answer is the
        *cost-optimal* route for its query — then an update leaves it
        valid iff no touched edge lies on it (for increases) and no
        cheaper edge can beat its cost (for decreases). Weighted A*
        (weight > 1) and non-admissible estimators may return routes
        whose identity depends on edges they never crossed, so those
        entries carry no provenance and are evicted on any change.
        """
        optimal = algorithm in _ALWAYS_OPTIMAL_ALGORITHMS or (
            algorithm in _ESTIMATOR_OPTIMAL_ALGORITHMS
            and estimator_name in _ADMISSIBLE_ESTIMATORS
            and weight <= 1.0
        )
        if not optimal:
            return None
        path = getattr(result, "path", None)
        if not path:
            # Unreachable answers have structural, not cost, provenance.
            return frozenset()
        return frozenset(zip(path, path[1:]))

    def _finish(
        self,
        key: QueryKey,
        result: PathResult,
        trace: RequestTrace,
        started: float,
        cache_hit: bool,
        deduplicated: bool = False,
    ) -> PathResult:
        latency = max(0.0, self._clock() - started)
        self.last_trace = trace
        degraded = bool(getattr(result, "degraded", False))
        if degraded:
            with self._traffic_lock:
                self.degraded_served += 1
        self.metrics.record(
            QueryMetrics(
                algorithm=key[3],
                estimator=key[4],
                cache_hit=cache_hit,
                latency_s=latency,
                nodes_expanded=getattr(result.stats, "nodes_expanded", 0)
                if hasattr(result, "stats")
                else 0,
                iterations=getattr(result, "iterations", 0),
                cost=getattr(result, "cost", float("inf")),
                found=bool(getattr(result, "found", False)),
                deduplicated=deduplicated,
                degraded=degraded,
                spans=trace.durations(),
            )
        )
        if isinstance(result, PathResult):
            # Hand out a copy whose path list the caller may mutate
            # without corrupting the cached entry.
            return replace(result, path=list(result.path))
        return result

    # ------------------------------------------------------------------
    # batch API
    # ------------------------------------------------------------------
    def plan_many(
        self, graph: Graph, queries: Sequence[QuerySpec]
    ) -> List[PathResult]:
        """Answer a batch, computing each distinct query exactly once.

        Results align index-for-index with ``queries``. Duplicates
        after the first occurrence are served from the cache and
        counted as deduplicated in the metrics. Each answer is priced
        at a single epoch; a batch that straddles an update may mix
        epochs *across* answers (documented, observable via the
        fingerprint), never within one.
        """
        results: List[Optional[PathResult]] = [None] * len(queries)
        seen: Dict[Tuple, List[int]] = {}
        normalized = []
        for position, spec in enumerate(queries):
            if isinstance(spec, dict):
                source = spec["source"]
                destination = spec["destination"]
                algorithm = spec.get("algorithm") or self.default_algorithm
                estimator = spec.get("estimator") or self.default_estimator
                weight = check_scale(float(spec.get("weight", 1.0)), "weight")
                backend = spec.get("backend") or self.default_backend
            else:
                source, destination = spec
                algorithm = self.default_algorithm
                estimator = self.default_estimator
                weight = 1.0
                backend = self.default_backend
            estimator_name = (
                estimator if isinstance(estimator, str) else estimator.name
            )
            # Dedup on the query itself, not the fingerprint-bearing
            # cache key: mid-batch epochs must not split a dedup group.
            dedup = (source, destination, algorithm, estimator_name, weight, backend)
            normalized.append(
                (source, destination, algorithm, estimator, weight, backend)
            )
            seen.setdefault(dedup, []).append(position)
        for dedup, positions in seen.items():
            first = positions[0]
            source, destination, algorithm, estimator, weight, backend = (
                normalized[first]
            )
            answer = self.plan(
                graph, source, destination, algorithm, estimator, weight,
                backend=backend,
            )
            results[first] = answer
            for position in positions[1:]:
                # Identical in-flight query: reuse the answer, count the dedup.
                results[position] = replace(answer, path=list(answer.path))
                self.metrics.record(
                    QueryMetrics(
                        algorithm=dedup[2],
                        estimator=dedup[3],
                        cache_hit=True,
                        latency_s=0.0,
                        nodes_expanded=0,
                        iterations=answer.iterations,
                        cost=answer.cost,
                        found=answer.found,
                        deduplicated=True,
                    )
                )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # batch OD API (skim / select-link)
    # ------------------------------------------------------------------
    def skim(
        self,
        graph: Graph,
        origins: Sequence[NodeId],
        destinations: Optional[Sequence[NodeId]] = None,
        retain_paths: bool = False,
    ) -> SkimMatrix:
        """The dense OD cost matrix, served through the skim cache.

        Same contract as :func:`repro.demand.skim.skim` — single-epoch
        guaranteed, ``inf`` for unreachable pairs — plus reuse: a
        matrix already computed for the same zone sets at the current
        fingerprint is returned as-is (a path-retaining matrix also
        serves cost-only requests). Every cell agrees with
        :meth:`plan_many` over the same pairs with a cost-optimal
        algorithm — both price shortest paths at one fingerprint.
        """
        origin_key = tuple(origins)
        dest_key = tuple(destinations) if destinations is not None else None
        with graph.gate.shared():
            base = (graph.uid, graph.fingerprint, origin_key, dest_key)
            with self._skim_lock:
                hit = self._skims.get(base + (retain_paths,))
                if hit is None and not retain_paths:
                    # A path-retaining matrix answers cost-only asks.
                    hit = self._skims.get(base + (True,))
                if hit is not None:
                    self.skim_hits += 1
                    return hit
            matrix = _skim(
                graph, origin_key,
                destinations=dest_key,
                retain_paths=retain_paths,
            )
            rows, cols = matrix.shape
            with self._skim_lock:
                self._skims[base + (retain_paths,)] = matrix
                while len(self._skims) > self._skim_capacity:
                    self._skims.pop(next(iter(self._skims)))
                self.skims_computed += 1
                self.skim_cells += rows * cols
            return matrix

    def select_link(
        self,
        graph: Graph,
        links: Sequence[EdgeKey],
        demand: Optional[Dict[Tuple[NodeId, NodeId], float]] = None,
        origins: Optional[Sequence[NodeId]] = None,
        destinations: Optional[Sequence[NodeId]] = None,
        source: str = "skim",
    ) -> SelectLinkResult:
        """Which OD pairs traverse each link, and with what volume.

        ``source="skim"`` computes (or reuses) a path-retaining skim
        over ``origins`` × ``destinations`` — defaulting to the zones
        named by ``demand`` — and inverts its tree paths.
        ``source="cache"`` inverts the route cache's edge index
        instead: the OD pairs already *served* whose cached routes (at
        the current fingerprint) cross the links — the same index the
        invalidator walks, read forwards. Both feed one
        :func:`~repro.demand.selectlink.link_flows` inversion, so the
        two sources differ only in which route set they describe.
        """
        if source not in ("skim", "cache"):
            raise ValueError(
                f"unknown select-link source {source!r}; expected "
                "'skim' or 'cache'"
            )
        link_list = [tuple(link) for link in links]
        if source == "cache":
            with graph.gate.shared():
                fingerprint = graph.fingerprint
                routes = self.cache.routes_crossing(graph, link_list)
            flows = link_flows(routes, link_list, demand)
            with self._skim_lock:
                self.select_link_runs += 1
            return SelectLinkResult(
                fingerprint=fingerprint,
                source="cache",
                flows=flows,
                routes_seen=len(routes),
            )
        if origins is None:
            if demand is None:
                raise ValueError(
                    "select_link needs origins (or a demand matrix to "
                    "derive them from) when source='skim'"
                )
            origins = sorted({o for o, _ in demand})
        if destinations is None and demand is not None:
            destinations = sorted({d for _, d in demand})
        matrix = self.skim(graph, origins, destinations, retain_paths=True)
        routes_seen = 0

        def counted():
            nonlocal routes_seen
            for triple in matrix.routes():
                routes_seen += 1
                yield triple

        flows = link_flows(counted(), link_list, demand)
        with self._skim_lock:
            self.select_link_runs += 1
        return SelectLinkResult(
            fingerprint=matrix.fingerprint,
            source="skim",
            flows=flows,
            routes_seen=routes_seen,
        )

    def _drop_skims(self, uid: int) -> None:
        """Forget skim matrices for a graph whose costs just moved."""
        with self._skim_lock:
            for key in [k for k in self._skims if k[0] == uid]:
                del self._skims[key]

    # ------------------------------------------------------------------
    # relational-engine tier
    # ------------------------------------------------------------------
    def plan_engine(
        self,
        rgraph,
        source: NodeId,
        destination: NodeId,
        algorithm: str = "astar",
        version: str = "v3",
    ):
        """Serve a query on the DB-backed tier, caching the run result.

        A warm hit returns the cached
        :class:`~repro.engine.tracing.RelationalRunResult` without
        touching the simulated database — zero block reads, zero block
        writes — which is the whole point of putting a result cache
        above a 1993 storage engine. A cold run first lets the
        relational graph re-fetch any adjacency blocks dirtied by
        traffic epochs (see :meth:`RelationalGraph.sync`), charged at
        the paper's I/O rates.
        """
        from repro.engine.rel_bestfirst import run_astar, run_dijkstra

        graph = rgraph.graph
        spec = f"engine:{algorithm}" + (f":{version}" if algorithm == "astar" else "")
        trace = RequestTrace(self._clock)
        started = self._clock()
        with graph.gate.shared():
            key = query_key(graph, source, destination, spec, "engine", 1.0)
            with trace.span("cache-lookup"):
                cached = self.cache.get(key)
            if cached is not None:
                return self._finish(key, cached, trace, started, cache_hit=True)
            with trace.span("plan-engine", algorithm=algorithm, version=version):
                if algorithm == "dijkstra":
                    run = run_dijkstra(rgraph, source, destination)
                elif algorithm == "astar":
                    # v1/v2's Euclidean estimator, scaled while the
                    # epoch prices an edge below its length.
                    estimator = None
                    if version in ("v1", "v2"):
                        planned = self._admissible_spec(
                            graph, algorithm, "euclidean", "euclidean"
                        )
                        if not isinstance(planned, str):
                            estimator = planned
                    run = run_astar(
                        rgraph, source, destination, version=version,
                        estimator=estimator,
                    )
                else:
                    raise ValueError(
                        f"engine tier serves 'dijkstra' or 'astar', not {algorithm!r}"
                    )
            # v1/v2 run euclidean (scaled to stay admissible), dijkstra
            # needs none; v3's manhattan may overestimate, so its entries
            # carry no provenance and fall back to evict-on-any-change.
            precise = algorithm == "dijkstra" or version in ("v1", "v2")
            edges = None
            if precise:
                path = getattr(run, "path", None)
                edges = frozenset(zip(path, path[1:])) if path else frozenset()
            with trace.span("cache-store"):
                self.cache.put(
                    key, run, edges=edges, cost=getattr(run, "cost", None), graph=graph
                )
            return self._finish(key, run, trace, started, cache_hit=False)

    # ------------------------------------------------------------------
    # invalidation (the dynamic-traffic loop)
    # ------------------------------------------------------------------
    def invalidate(self, graph: Graph) -> int:
        """Evict every cached answer computed on any version of ``graph``."""
        self._drop_skims(graph.uid)
        return self.cache.invalidate_graph(graph)

    def handle_epoch(self, epoch) -> InvalidationReport:
        """Absorb one :class:`~repro.traffic.feed.TrafficEpoch`.

        Evicts only the cached answers the epoch's deltas can affect
        and re-keys the rest to the new fingerprint. The estimator pool
        refreshes its stranded landmark tables on the same signal, and
        a relational mirror
        owned for the graph records the dirtied adjacency lists so its
        next run re-fetches (and bills) exactly those blocks. Returns
        the invalidation report (``evicted`` / ``rekeyed`` counts).
        """
        graph = epoch.graph
        if self.wal is not None:
            # Journal before invalidating: the record's presence is the
            # epoch's commit, and a crash drawn inside the invalidation
            # below must still replay this epoch on recovery (an epoch
            # the graph applied but recovery forgot would resurrect
            # pre-epoch costs — exactly the stale answer the crash
            # matrix audits against).
            self.wal.log_epoch(epoch)
        with self._traffic_lock:
            # A graph receiving live epochs is current by definition;
            # never replay the journal on top of it.
            self._recovered_uids.add(graph.uid)
        # Survivors re-key to the fingerprint *this* epoch produced
        # (not the live one, which may already be several epochs
        # ahead): see ``invalidate_edges`` on why defaulting would let
        # survivors leapfrog unanalysed deltas.
        report = self.cache.invalidate_edges(
            graph,
            epoch.deltas,
            epoch.previous_fingerprint,
            new_fingerprint=epoch.fingerprint,
        )
        self._drop_skims(graph.uid)
        self.pool.refresh(graph)
        self._customize_accel(graph, epoch)
        with self._rgraph_lock:
            rgraph = self._rgraphs.get(graph.uid)
        if rgraph is not None:
            rgraph.handle_epoch(epoch)
        with self._traffic_lock:
            self.epochs_applied += 1
            self.traffic_evicted += report.evicted
            self.traffic_retained += report.rekeyed
        return report

    def _customize_accel(self, graph: Graph, epoch) -> None:
        """Re-price accelerated state for an absorbed epoch.

        This is the customize leg of the pipeline: the topology-only
        preprocess is untouched, only the metric overlay is re-folded
        (incrementally, when the epoch chains onto the state the
        accelerator last customized for). Only an instance that already
        exists is customized — a graph never accelerated has no overlay
        to re-price, and building one here would charge preprocess cost
        to the traffic path instead of the first query.
        """
        if self.accelerator is None:
            return
        with self._accel_lock:
            instance = self._accels.get(graph.uid)
        if instance is not None:
            instance.customize(graph, epoch=epoch)

    def update_edge_cost(
        self, graph: Graph, source: NodeId, target: NodeId, cost: float
    ) -> int:
        """Apply one traffic update and invalidate affected answers.

        A convenience wrapper for callers without a
        :class:`~repro.traffic.feed.TrafficFeed`: applies the update as
        a single-edge epoch through :meth:`handle_epoch`, both under
        ``graph.gate.exclusive()`` as a feed does. Returns the
        number of cache entries evicted; an update that leaves the cost
        unchanged is no epoch at all and returns 0.
        """
        with graph.gate.exclusive():
            previous = graph.fingerprint
            deltas = graph.apply_cost_updates([(source, target, cost)])
            if not deltas:
                return 0
            epoch = TrafficEpoch(
                number=self.epochs_applied + 1,
                graph=graph,
                deltas=tuple(deltas),
                previous_fingerprint=previous,
                fingerprint=graph.fingerprint,
            )
            return self.handle_epoch(epoch).evicted

    # ------------------------------------------------------------------
    # durability (crash recovery)
    # ------------------------------------------------------------------
    def _maybe_recover(self, graph: Graph) -> None:
        with self._traffic_lock:
            if graph.uid in self._recovered_uids:
                return
        self.recover(graph)

    def recover(self, graph: Graph) -> int:
        """Replay journaled traffic epochs onto a freshly built graph.

        ``graph`` must carry base (pre-journal) costs — the state a
        restarted process reconstructs from static map data. Each
        journaled epoch is re-applied in order, landing the graph on
        the costs of the last committed epoch; cached answers and
        estimator tables for the graph are then invalidated. Runs at
        most once per graph (keyed by ``Graph.uid``); a graph that has
        already received live epochs through :meth:`handle_epoch` is
        never replayed onto. Returns the number of epochs replayed.
        """
        if self.wal is None:
            return 0
        with self._traffic_lock:
            if graph.uid in self._recovered_uids:
                return 0
            self._recovered_uids.add(graph.uid)
        from repro.wal.recovery import replay_epochs

        replayed = replay_epochs(self.wal, graph)
        if replayed:
            self.cache.invalidate_graph(graph)
            self.pool.refresh(graph)
        with self._traffic_lock:
            self.epochs_recovered += replayed
        return replayed

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """One flat counter dict, shaped like ``IOStatistics.snapshot()``.

        Service-level counters are unprefixed; cache, pool, and CSR
        build-cache internals are namespaced ``cache_*`` / ``pool_*``
        / ``csr_*``. Every leaf value is numeric (``int`` or
        ``float`` — the previous ``Dict[str, float]`` annotation
        undersold the int counters), so nested fleet snapshots can
        embed this dict verbatim and serialize it to JSON.
        """
        snap = self.metrics.snapshot()
        with self._traffic_lock:
            snap["epochs_applied"] = self.epochs_applied
            snap["traffic_evicted"] = self.traffic_evicted
            snap["traffic_retained"] = self.traffic_retained
            snap["plan_retries"] = self.plan_retries
            snap["relational_faults"] = self.relational_faults
            snap["memory_fallbacks"] = self.memory_fallbacks
            snap["last_good_served"] = self.last_good_served
            snap["degraded_served"] = self.degraded_served
            snap["epochs_recovered"] = self.epochs_recovered
        snap["wal_records_appended"] = (
            self.wal.records_appended if self.wal is not None else 0
        )
        # Aggregate fault-injection counters across every relational
        # mirror this service owns (all zero without a fault plan).
        faults_injected = 0
        fault_retries = 0
        retries_exhausted = 0
        with self._rgraph_lock:
            mirrors = list(self._rgraphs.values())
        for rgraph in mirrors:
            injector = getattr(rgraph.db, "injector", None)
            if injector is not None:
                counters = injector.snapshot()
                faults_injected += counters["faults_injected"]
                fault_retries += counters["retries"]
                retries_exhausted += counters["retries_exhausted"]
        snap["faults_injected"] = faults_injected
        snap["fault_retries"] = fault_retries
        snap["retries_exhausted"] = retries_exhausted
        # Accelerator pipeline counters, summed over the per-graph
        # instances (all zero when no accelerator is configured). The
        # timing split is the pipeline contract made observable:
        # ``preprocess_time_s`` is paid per topology,
        # ``customize_time_s`` per traffic epoch.
        accel_totals = {
            "preprocesses": 0,
            "customizes": 0,
            "full_customizes": 0,
            "incremental_customizes": 0,
            "queries": 0,
            "preprocess_time_s": 0.0,
            "customize_time_s": 0.0,
            "last_customize_s": 0.0,
        }
        with self._accel_lock:
            instances = list(self._accels.values())
        for instance in instances:
            for name, value in instance.snapshot().items():
                if name in accel_totals:
                    accel_totals[name] += value
        for name, value in accel_totals.items():
            snap[f"accel_{name}"] = value
        with self._traffic_lock:
            snap["accel_queries_served"] = self.accel_queries_served
        snap["accel_instances"] = len(instances)
        with self._skim_lock:
            snap["skims_computed"] = self.skims_computed
            snap["skim_hits"] = self.skim_hits
            snap["skim_cells"] = self.skim_cells
            snap["skim_matrices_held"] = len(self._skims)
            snap["select_link_runs"] = self.select_link_runs
        for name, value in self.cache.snapshot().items():
            snap[f"cache_{name}"] = value
        for name, value in self.pool.snapshot().items():
            snap[f"pool_{name}"] = value
        # The CSR build cache is process-wide, one snapshot per live
        # graph (shared by the query path and the estimator pool's
        # landmark sssp runs); surface it here so one snapshot covers
        # every reuse tier.
        from repro.kernel import csr as _csr

        for name, value in _csr.cache_stats().items():
            snap[f"csr_{name}"] = value
        return snap

    def __repr__(self) -> str:
        return (
            f"RouteService(queries={self.metrics.queries}, "
            f"hit_rate={self.metrics.cache_hit_rate:.2f}, "
            f"cache={len(self.cache)}/{self.cache.capacity})"
        )
