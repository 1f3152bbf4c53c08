"""I/O accounting in the paper's cost units.

Every storage operation in the simulated DBMS funnels through one
:class:`IOStatistics` instance, charging block reads, block writes and
tuple updates at the Table 4A rates::

    t_read   = 0.035 units per block read
    t_write  = 0.050 units per block written
    t_update = 0.085 units per tuple update (a read + a write)

The weighted total is the "execution time" every figure of the paper
plots; Section 5 validates that this style of accounting predicts the
measured INGRES times within ten percent, which is the licence for this
reproduction to report cost units instead of wall-clock seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional
from contextlib import contextmanager


#: Table 4A default unit charges.
DEFAULT_T_READ = 0.035
DEFAULT_T_WRITE = 0.05
DEFAULT_T_UPDATE = 0.085
#: Table 4A fixed charges.
DEFAULT_CREATE_COST = 0.5  # I: creating a temporary relation
DEFAULT_DELETE_COST = 0.5  # D_t: deleting all tuples of a relation


@dataclass
class IOStatistics:
    """Mutable counter set with weighted cost reporting.

    ``phase`` labelling lets the engine attribute cost to the paper's
    numbered steps (initialization vs per-iteration work), which the
    A*-version experiments need ("the poor performance of version 2 in
    the straight-line path could be attributed to higher initialization
    costs").
    """

    t_read: float = DEFAULT_T_READ
    t_write: float = DEFAULT_T_WRITE
    t_update: float = DEFAULT_T_UPDATE
    create_cost: float = DEFAULT_CREATE_COST
    delete_cost: float = DEFAULT_DELETE_COST

    block_reads: int = 0
    block_writes: int = 0
    tuple_updates: int = 0
    relations_created: int = 0
    relations_deleted: int = 0
    #: Cost units charged directly for stalls — injected device latency
    #: and retry backoff. Zero unless a fault injector is active.
    latency_units: float = 0.0
    latency_events: int = 0
    #: Write-ahead-log traffic, kept separate from heap/index block I/O
    #: so durability overhead shows up as its own line in the cost
    #: ledger (scenario E13) while still being priced at the Table 4A
    #: block rates. Zero unless a WAL is attached.
    wal_writes: int = 0
    wal_reads: int = 0

    phase_costs: Dict[str, float] = field(default_factory=dict)
    _phase: Optional[str] = None

    # ------------------------------------------------------------------
    # charging primitives
    # ------------------------------------------------------------------
    def _attribute(self, cost: float) -> None:
        if self._phase is not None:
            self.phase_costs[self._phase] = (
                self.phase_costs.get(self._phase, 0.0) + cost
            )

    # The block and tuple charges, one call per storage access, inline
    # _attribute: the same single addition to the open phase per call,
    # so each phase's float sum adds the same terms in the same order.
    def charge_read(self, blocks: int = 1) -> None:
        """Charge ``blocks`` block reads."""
        if blocks < 0:
            raise ValueError("cannot charge a negative number of reads")
        self.block_reads += blocks
        phase = self._phase
        if phase is not None:
            costs = self.phase_costs
            costs[phase] = costs.get(phase, 0.0) + blocks * self.t_read

    def charge_reads(self, count: int) -> None:
        """Charge ``count`` single-block reads, as ``count`` calls of
        :meth:`charge_read` would: each read's ``t_read`` is added to
        the open phase on its own (an index descent, a bucket chain)."""
        if count < 0:
            raise ValueError("cannot charge a negative number of reads")
        self.block_reads += count
        phase = self._phase
        if phase is not None:
            costs = self.phase_costs
            units = costs.get(phase, 0.0)
            t_read = self.t_read
            for _read in range(count):
                units += t_read
            costs[phase] = units

    def charge_write(self, blocks: int = 1) -> None:
        """Charge ``blocks`` block writes."""
        if blocks < 0:
            raise ValueError("cannot charge a negative number of writes")
        self.block_writes += blocks
        phase = self._phase
        if phase is not None:
            costs = self.phase_costs
            costs[phase] = costs.get(phase, 0.0) + blocks * self.t_write

    def charge_update(self, tuples: int = 1) -> None:
        """Charge ``tuples`` in-place tuple updates (read + write)."""
        if tuples < 0:
            raise ValueError("cannot charge a negative number of updates")
        self.tuple_updates += tuples
        phase = self._phase
        if phase is not None:
            costs = self.phase_costs
            costs[phase] = costs.get(phase, 0.0) + tuples * self.t_update

    def charge_latency(self, units: float) -> None:
        """Charge ``units`` of stall time (injected latency / backoff).

        Latency is billed in the same cost units as block I/O so that
        injected retries show up on the paper's execution-time axis,
        but it is kept in its own counter: a fault-free run must report
        exactly zero latency.
        """
        if units < 0:
            raise ValueError("cannot charge negative latency")
        self.latency_units += units
        self.latency_events += 1
        self._attribute(units)

    def charge_wal_write(self, blocks: int = 1) -> None:
        """Charge ``blocks`` log-block writes (forced at commit)."""
        if blocks < 0:
            raise ValueError("cannot charge a negative number of WAL writes")
        self.wal_writes += blocks
        self._attribute(blocks * self.t_write)

    def charge_wal_read(self, blocks: int = 1) -> None:
        """Charge ``blocks`` log-block reads (recovery redo scan)."""
        if blocks < 0:
            raise ValueError("cannot charge a negative number of WAL reads")
        self.wal_reads += blocks
        self._attribute(blocks * self.t_read)

    def charge_create(self) -> None:
        """Charge the fixed temporary-relation creation cost I."""
        self.relations_created += 1
        self._attribute(self.create_cost)

    def charge_delete(self) -> None:
        """Charge the fixed relation-deletion cost D_t."""
        self.relations_deleted += 1
        self._attribute(self.delete_cost)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def cost(self) -> float:
        """Total weighted cost in the paper's units."""
        return (
            self.block_reads * self.t_read
            + self.block_writes * self.t_write
            + self.tuple_updates * self.t_update
            + self.relations_created * self.create_cost
            + self.relations_deleted * self.delete_cost
            + self.latency_units
            + self.wal_writes * self.t_write
            + self.wal_reads * self.t_read
        )

    def phase_cost(self, phase: str) -> float:
        """Weighted cost attributed to a named phase (0.0 if unused)."""
        return self.phase_costs.get(phase, 0.0)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all charges inside the block to ``name``.

        Phases may nest; the innermost label wins, which matches how
        the paper's step-by-step tables attribute each charge to
        exactly one step.
        """
        previous = self._phase
        self._phase = name
        try:
            yield
        finally:
            self._phase = previous

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict view for reports and tests."""
        return {
            "block_reads": self.block_reads,
            "block_writes": self.block_writes,
            "tuple_updates": self.tuple_updates,
            "relations_created": self.relations_created,
            "relations_deleted": self.relations_deleted,
            "latency_units": self.latency_units,
            "latency_events": self.latency_events,
            "wal_writes": self.wal_writes,
            "wal_reads": self.wal_reads,
            "cost": self.cost,
        }

    def reset(self) -> None:
        """Zero all counters and phase attributions."""
        self.block_reads = 0
        self.block_writes = 0
        self.tuple_updates = 0
        self.relations_created = 0
        self.relations_deleted = 0
        self.latency_units = 0.0
        self.latency_events = 0
        self.wal_writes = 0
        self.wal_reads = 0
        self.phase_costs.clear()

    def __repr__(self) -> str:
        return (
            f"IOStatistics(reads={self.block_reads}, writes={self.block_writes}, "
            f"updates={self.tuple_updates}, cost={self.cost:.3f})"
        )
