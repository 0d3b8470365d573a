"""The unified sweep execution engine.

Every way this repo runs a sweep — the serial loop, the in-machine
process pool, the distributed coordinator/worker fan-out, and the
always-on service — used to re-implement the same five concerns:
scheduling, warm-start reset, per-point failure isolation, telemetry
shipping, and checkpoint journaling.  This package is the one place
those concerns live now; the execution paths are thin adapters over it.

The pieces
----------

- :mod:`~repro.sweep.engine.points` — the per-point/per-batch solve
  loop (:func:`iter_partition_rows`, :func:`solve_point_row`,
  :func:`rows_from_solutions`) with the canonical failure taxonomy
  (:data:`SOLVE_FAILURE_TYPES` / :data:`METRIC_FAILURE_TYPES` /
  :data:`CONFIG_ERROR_TYPES`).
- :mod:`~repro.sweep.engine.plan` — :class:`ExecutionPlan` /
  :class:`Partition`: a sweep turned into explicit contiguous point
  partitions (sized against the backend's ``resolve_batch_size``) plus
  retry/poison budgets, consumed by every executor.
- :mod:`~repro.sweep.engine.executor` — the :class:`Executor` protocol
  with the in-process adapters (:class:`SerialExecutor`,
  :class:`PoolExecutor`); the distributed coordinator and the service
  pool are the out-of-process adapters built from the same parts.
- :mod:`~repro.sweep.engine.collector` — :class:`RowCollector`:
  first-write-wins row merging, exactly-once telemetry (counters merge
  unconditionally as drained deltas; spans merge only with their stored
  row), and checkpoint journaling.
- :mod:`~repro.sweep.engine.wire` — both ends of the worker wire: the
  worker-side streaming loop (:func:`stream_partition`, per-point
  ``row`` messages or batched ``rows`` frames) and the host-side task
  driver (:func:`run_task`) shared by the coordinator and the service.
"""

from repro.sweep.engine.collector import RowCollector
from repro.sweep.engine.executor import Executor, PoolExecutor, SerialExecutor
from repro.sweep.engine.plan import (
    ExecutionPlan,
    Partition,
    build_plan,
    contiguous_chunks,
    partition_indices,
    plan_fingerprint,
)
from repro.sweep.engine.points import (
    CONFIG_ERROR_TYPES,
    METRIC_FAILURE_TYPES,
    SOLVE_FAILURE_TYPES,
    iter_partition_rows,
    rows_from_solutions,
    solve_missing_rows,
    solve_point_row,
)
from repro.sweep.engine.wire import WorkerConfigError, stream_partition

__all__ = [
    "CONFIG_ERROR_TYPES",
    "METRIC_FAILURE_TYPES",
    "SOLVE_FAILURE_TYPES",
    "ExecutionPlan",
    "Executor",
    "Partition",
    "PoolExecutor",
    "RowCollector",
    "SerialExecutor",
    "WorkerConfigError",
    "build_plan",
    "contiguous_chunks",
    "iter_partition_rows",
    "partition_indices",
    "plan_fingerprint",
    "rows_from_solutions",
    "solve_missing_rows",
    "solve_point_row",
    "stream_partition",
]
