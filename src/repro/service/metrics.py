"""Per-query and aggregate metrics for the route-serving layer.

Every query the service answers produces one :class:`QueryMetrics`
record — latency, cache outcome, planner work — and folds into a
thread-safe :class:`ServiceMetrics` aggregate whose :meth:`snapshot`
returns the same plain-dict-of-counters shape as
``IOStatistics.snapshot()``, so dashboards and tests can treat the
serving tier and the storage tier uniformly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

#: A single observability leaf value. Snapshots must stay JSON-round-
#: trippable and plottable, so every leaf is numeric — never a string,
#: None, or nested container.
Numeric = Union[int, float]

#: The shape every ``snapshot()`` in the serving tier returns: a flat
#: mapping of counter names to numeric values. Fleet-level snapshots
#: nest these per shard but each leaf dict is still a ``Snapshot``.
Snapshot = Dict[str, Numeric]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 on empty input."""
    if not samples:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class QueryMetrics:
    """Everything measured about one served query."""

    algorithm: str
    estimator: str
    cache_hit: bool
    latency_s: float
    nodes_expanded: int = 0
    iterations: int = 0
    cost: float = float("inf")
    found: bool = False
    deduplicated: bool = False
    #: Answer came from a degradation fallback (relational retries
    #: exhausted → in-memory backend or last-known-good cache).
    degraded: bool = False
    spans: Dict[str, float] = field(default_factory=dict)


class ServiceMetrics:
    """Aggregate counters over every query a service instance answered."""

    def __init__(self, keep_last: int = 256) -> None:
        self._lock = threading.Lock()
        self._keep_last = keep_last
        self.queries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.deduplicated = 0
        self.not_found = 0
        self.degraded = 0
        self.total_latency_s = 0.0
        self.total_nodes_expanded = 0
        self.total_iterations = 0
        self.recent: List[QueryMetrics] = []

    def record(self, query: QueryMetrics) -> None:
        """Fold one query's record into the aggregate."""
        with self._lock:
            self.queries += 1
            if query.cache_hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            if query.deduplicated:
                self.deduplicated += 1
            if not query.found:
                self.not_found += 1
            if query.degraded:
                self.degraded += 1
            self.total_latency_s += query.latency_s
            self.total_nodes_expanded += query.nodes_expanded
            self.total_iterations += query.iterations
            self.recent.append(query)
            if len(self.recent) > self._keep_last:
                del self.recent[: len(self.recent) - self._keep_last]

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0

    @property
    def average_latency_s(self) -> float:
        return self.total_latency_s / self.queries if self.queries else 0.0

    def snapshot(self) -> Snapshot:
        """Plain-dict counter view, shaped like ``IOStatistics.snapshot()``.

        Every leaf value is numeric (:data:`Numeric`) so the result can
        be merged into nested fleet snapshots and serialized verbatim.
        """
        with self._lock:
            return {
                "queries": self.queries,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_hit_rate": self.cache_hit_rate,
                "deduplicated": self.deduplicated,
                "not_found": self.not_found,
                "degraded": self.degraded,
                "total_latency_s": self.total_latency_s,
                "average_latency_s": self.average_latency_s,
                "nodes_expanded": self.total_nodes_expanded,
                "iterations": self.total_iterations,
            }

    def reset(self) -> None:
        """Zero every counter (mirrors ``IOStatistics.reset()``)."""
        with self._lock:
            self.queries = 0
            self.cache_hits = 0
            self.cache_misses = 0
            self.deduplicated = 0
            self.not_found = 0
            self.degraded = 0
            self.total_latency_s = 0.0
            self.total_nodes_expanded = 0
            self.total_iterations = 0
            self.recent.clear()

    def __repr__(self) -> str:
        return (
            f"ServiceMetrics(queries={self.queries}, "
            f"hit_rate={self.cache_hit_rate:.2f}, "
            f"avg_latency={self.average_latency_s * 1e3:.3f}ms)"
        )
