"""TrafficFeed: batched, versioned edge-cost epochs with fan-out.

The repo's original traffic story was one ``update_edge_cost`` call
per reading: every call bumped the graph fingerprint, nuked the whole
result cache and silently left the relational tier's S relation stale.
A real ATIS ingests *batches* — a probe-vehicle sweep, a loop-detector
cycle, an incident report — and the serving layers must absorb each
batch as one unit of staleness, not thousands.

:class:`TrafficFeed` is that ingestion point. Each :meth:`apply` is an
**epoch**: under ``graph.gate.exclusive()`` the batch is validated,
applied with a single fingerprint bump, materialised as a
:class:`TrafficEpoch` (the effective :class:`CostDelta` records plus
the before/after fingerprints), and fanned out to subscribers in
registration order. The stock subscribers are

* ``RouteService.handle_epoch`` — edge-granular cache invalidation and
  estimator-pool refresh;
* ``RelationalGraph.handle_epoch`` — marks the touched adjacency
  blocks dirty so the next engine run re-fetches them (charged at the
  paper's I/O rates) instead of serving stale costs.

The feed snapshots every edge's *base* cost at construction, so
congestion profiles always multiply the free-flow baseline — epochs
never compound onto each other's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graphs.graph import CostDelta, Graph, NodeId

EdgeKey = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class TrafficEpoch:
    """One applied batch of edge-cost deltas.

    ``previous_fingerprint`` -> ``fingerprint`` is the single version
    step the batch performed; ``deltas`` holds only the *effective*
    changes (no-op refreshes are dropped by the graph). ``minutes`` is
    the simulation clock the batch was generated for, when one exists.
    """

    number: int
    graph: Graph
    deltas: Tuple[CostDelta, ...]
    previous_fingerprint: Tuple[int, int]
    fingerprint: Tuple[int, int]
    minutes: Optional[float] = None

    @property
    def edges(self) -> Tuple[EdgeKey, ...]:
        """The directed edges this epoch touched."""
        return tuple((d.source, d.target) for d in self.deltas)

    def __repr__(self) -> str:
        return (
            f"TrafficEpoch(#{self.number}, {len(self.deltas)} deltas, "
            f"{self.previous_fingerprint} -> {self.fingerprint})"
        )


class TrafficFeed:
    """Apply batched cost updates to one graph and notify subscribers."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._base: Dict[EdgeKey, float] = {
            (edge.source, edge.target): edge.cost for edge in graph.edges()
        }
        #: ``(handler, kind)`` pairs; kind is "customize" or "invalidate".
        self._listeners: List[Tuple[Callable[[TrafficEpoch], object], str]] = []
        self._customize_listeners = 0
        self._invalidate_listeners = 0
        self.epoch_count = 0
        self.deltas_applied = 0
        self.customize_notifications = 0
        self.invalidate_notifications = 0
        self.last_epoch: Optional[TrafficEpoch] = None

    # ------------------------------------------------------------------
    # subscription
    # ------------------------------------------------------------------
    def subscribe(self, listener) -> None:
        """Register a subscriber for future epochs.

        ``listener`` is either a callable taking the
        :class:`TrafficEpoch`, or an object exposing one of the two
        epoch verbs — ``customize_epoch`` (preferred when present: the
        listener *re-prices* precomputed state, e.g. an
        :class:`~repro.kernel.accel.Accelerator` overlay) or
        ``handle_epoch`` (the invalidation path: a ``RouteService`` or
        ``RelationalGraph`` drops/marks state). The two verbs are
        counted separately in :meth:`snapshot` — the customize path is
        what distinguishes "the epoch re-weighted the overlay" from
        "the epoch threw work away". Subscribers are notified in
        registration order, after the batch is fully applied and the
        fingerprint bumped.
        """
        customizer = getattr(listener, "customize_epoch", None)
        handler = customizer if callable(customizer) else None
        if handler is None:
            handler = getattr(listener, "handle_epoch", None)
            if not callable(handler):
                handler = listener
        kind = (
            "customize"
            if customizer is not None and handler is customizer
            else "invalidate"
        )
        # Idempotent: re-subscribing must not double-invalidate. Bound
        # methods compare equal when __self__ and __func__ match.
        if all(existing != handler for existing, _ in self._listeners):
            self._listeners.append((handler, kind))
            if kind == "customize":
                self._customize_listeners += 1
            else:
                self._invalidate_listeners += 1

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def apply(
        self,
        updates: Iterable[Tuple[NodeId, NodeId, float]],
        minutes: Optional[float] = None,
    ) -> TrafficEpoch:
        """Apply one batch of absolute edge costs as a single epoch.

        The entire batch is validated before any write (one bad
        reading rejects the batch, it cannot half-apply), costs change
        with exactly one fingerprint bump, and the fan-out completes
        before the graph's gate (held exclusively, so the epoch waits
        for in-flight queries) admits another query. A batch with no
        effective change produces an epoch with no deltas, an
        unchanged fingerprint and no notification.
        """
        with self.graph.gate.exclusive():
            previous = self.graph.fingerprint
            deltas = tuple(self.graph.apply_cost_updates(updates))
            epoch = TrafficEpoch(
                number=self.epoch_count + 1 if deltas else self.epoch_count,
                graph=self.graph,
                deltas=deltas,
                previous_fingerprint=previous,
                fingerprint=self.graph.fingerprint,
                minutes=minutes,
            )
            if not deltas:
                return epoch
            self.epoch_count = epoch.number
            self.deltas_applied += len(deltas)
            self.last_epoch = epoch
            # Notify every subscriber even when one raises (a fault
            # injected inside a handler must not starve the rest of the
            # epoch — a skipped RelationalGraph would serve stale costs
            # with nothing recording the gap, whereas a handler that
            # misses an epoch entirely breaks its fingerprint chain and
            # conservatively full-reloads). The first failure is
            # re-raised after the fan-out completes.
            first_failure: Optional[BaseException] = None
            for listener, kind in self._listeners:
                if kind == "customize":
                    self.customize_notifications += 1
                else:
                    self.invalidate_notifications += 1
                try:
                    listener(epoch)
                except BaseException as exc:  # noqa: BLE001 - refanned below
                    if first_failure is None:
                        first_failure = exc
            if first_failure is not None:
                raise first_failure
            return epoch

    def tick(
        self,
        profile,
        minutes: float,
        edges: Optional[Sequence[EdgeKey]] = None,
    ) -> TrafficEpoch:
        """Advance the simulation clock: re-price edges under a profile.

        Each edge's new cost is ``base_cost * profile.multiplier(u, v,
        minutes)`` — always relative to the free-flow baseline recorded
        at feed construction, so a day of ticks ends where it started.
        ``edges`` restricts the sweep (e.g. only arterials carry
        sensors); default is every edge of the graph.
        """
        targets = edges if edges is not None else list(self._base)
        updates = [
            (u, v, self._base[(u, v)] * profile.multiplier(u, v, minutes))
            for u, v in targets
        ]
        return self.apply(updates, minutes=minutes)

    def spike(
        self,
        edges: Sequence[EdgeKey],
        factor: float,
        minutes: Optional[float] = None,
    ) -> TrafficEpoch:
        """Multiply the *current* cost of ``edges`` by ``factor``.

        Unlike :meth:`tick` this compounds deliberately — an incident
        on top of whatever congestion already holds. ``factor`` below
        1.0 models clearing."""
        updates = [
            (u, v, self.graph.edge_cost(u, v) * factor) for u, v in edges
        ]
        return self.apply(updates, minutes=minutes)

    def rebase(self) -> None:
        """Re-snapshot current costs as the new free-flow baseline."""
        with self.graph.gate.exclusive():
            self._base = {
                (edge.source, edge.target): edge.cost
                for edge in self.graph.edges()
            }

    def base_cost(self, u: NodeId, v: NodeId) -> float:
        """The free-flow baseline cost the profiles multiply."""
        return self._base[(u, v)]

    def snapshot(self) -> Dict[str, float]:
        """Counter view, shaped like the other layers' snapshots."""
        return {
            "epochs": self.epoch_count,
            "deltas_applied": self.deltas_applied,
            "edges_tracked": len(self._base),
            "customize_listeners": self._customize_listeners,
            "invalidate_listeners": self._invalidate_listeners,
            "customize_notifications": self.customize_notifications,
            "invalidate_notifications": self.invalidate_notifications,
        }

    def __repr__(self) -> str:
        return (
            f"TrafficFeed({self.graph.name!r}, epochs={self.epoch_count}, "
            f"deltas={self.deltas_applied})"
        )
