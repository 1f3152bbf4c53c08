"""Deterministic fault injection for the simulated storage stack.

The subsystem has three pieces:

* :class:`FaultPlan` — the seedable *policy*: one RNG draw per storage
  operation decides whether it faults (transient read/write error, torn
  page, latency), with every decision recorded so schedules can be
  compared across runs;
* :class:`FaultInjector` — the *mechanism*: raises the fault at the
  storage site before any state or cost changes, bills injected latency
  and retry backoff through :class:`IOStatistics`, and wraps engine
  phases in bounded retry (:meth:`FaultInjector.protect`);
* :func:`run_chaos` — the *proof*: a replay of faults × traffic epochs
  × concurrent serving that audits every answer as exact-or-flagged
  and distils the run into a single determinism key;
* :func:`run_crash_matrix` — the *durability* proof: kill the process
  at operation N for a sweep of N, recover from the write-ahead log,
  and audit committed-state survival (:mod:`repro.faults.crashmatrix`);
* :class:`WorkerFaultPlan` — the same seedable one-draw-per-operation
  discipline applied at the fleet's ``ShardWorker.submit`` boundary
  (transient task errors, injected latency, hung tasks, and
  no-extra-draw replica kills mirroring ``crash_at_op``), consumed by
  :mod:`repro.fleet` and proven by
  :mod:`repro.bench.fleet_chaos`.

A database without an injector — or with a rate-0 plan — runs the
exact seed code path: zero extra charges, zero behaviour change.
"""

from repro.exceptions import SimulatedCrash, TransientWorkerError, WorkerCrash
from repro.faults.chaos import ChaosConfig, ChaosReport, run_chaos
from repro.faults.crashmatrix import (
    CrashMatrixConfig,
    CrashMatrixReport,
    run_crash_matrix,
)
from repro.faults.injector import DEFAULT_BACKOFF_UNITS, FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.workerplan import WorkerFaultPlan

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "CrashMatrixConfig",
    "CrashMatrixReport",
    "DEFAULT_BACKOFF_UNITS",
    "FaultInjector",
    "FaultPlan",
    "SimulatedCrash",
    "TransientWorkerError",
    "WorkerCrash",
    "WorkerFaultPlan",
    "run_chaos",
    "run_crash_matrix",
]
