"""The sweep coordinator: the chunk queue of one distributed job.

:class:`SweepCoordinator` owns the authoritative state of one job — which
points are done, which are pending, how often each has been requeued —
and nothing else: it never talks to a worker.  The
:class:`~repro.sweep.distributed.pool.WorkerPool` drains it on both
hosts (one ``sweep --distributed`` run, or one ``serve`` request):
scheduling is pull-based, an idle worker checks out the next live
partition, so a slow host simply takes fewer of them.

Sharding is :func:`~repro.sweep.engine.plan.build_plan`: pending points
are split into *contiguous*, axis-ordered partitions, so iterative warm
starts inside a partition stay adjacent on the parameter grid and the
merged table is ordered exactly like the serial runner's.  On a
batch-capable backend the partition boundaries align to the backend's
preferred batch size, so each partition is a whole number of stacked
solves shipped back as batched ``rows`` frames (protocol v2).

Fault model
-----------

- **A point fails numerically** — the worker streams a NaN row with a
  :class:`~repro.sweep.results.PointFailure`; the job continues.
- **A worker dies mid-partition** (crash, kill, network partition) — on
  a pointwise-framing partition rows stream per point, so the pool
  requeues exactly the unfinished suffix at the *front* of the queue,
  blaming only the point in flight; surviving workers pick it up.  On a
  batch-framing partition a whole batch may be in flight, so the
  unfinished remainder is requeued *without blame* and the retry is
  downgraded to pointwise framing — a genuinely poisonous point is then
  isolated and blamed by the per-point machinery, and the healthy
  members of its batch never inherit strikes.
- **A point keeps killing workers** — after the plan's ``max_requeues``
  requeues it is poisoned: NaN row, ``stage="worker"`` error record,
  job continues.
- **Every worker is gone** — the pool aborts the job with
  :class:`DistributedSweepError`; completed rows are already in the
  checkpoint (when one is configured), so the next run resumes instead
  of restarting.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
from collections import deque
from typing import (
    Collection,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.sweep.backends.base import Metric
from repro.sweep.distributed.checkpoint import SweepCheckpoint
from repro.sweep.engine.collector import RowCollector
from repro.sweep.engine.plan import (
    DEFAULT_MAX_REQUEUES,
    Partition,
    build_plan,
)
from repro.sweep.results import PointFailure

__all__ = ["DEFAULT_MAX_REQUEUES", "DistributedSweepError", "SweepCoordinator"]

logger = logging.getLogger(__name__)


class DistributedSweepError(RuntimeError):
    """The distributed sweep cannot make progress (e.g. all workers died)."""


class SweepCoordinator:
    """Authoritative state of one distributed job: its partition queue.

    Parameters
    ----------
    model, metrics:
        The prepared sweep backend template and metric specs shipped to
        every worker.
    points:
        All grid points in enumeration order (the row indices of the
        result table).
    done_rows, done_errors:
        Rows already completed (e.g. loaded from a checkpoint); only the
        remaining points are sharded.
    done_requeues:
        Worker-death blame counts carried over from a checkpoint, so a
        point that crashed workers in a previous run keeps its record
        and eventually poisons instead of re-killing the fleet forever.
    n_chunks:
        Target partition count across the whole job (a one-shot sweep
        oversubscribes workers ~4x so pull-scheduling can balance load;
        a daemon request gets one per connected worker).
    checkpoint:
        Optional open :class:`~repro.sweep.distributed.checkpoint.SweepCheckpoint`
        to journal every completed row.
    max_requeues:
        Worker-death retries per point before poisoning it.
    wire_batching:
        When ``False``, a batch-capable backend is still sharded but
        every partition is dispatched with pointwise framing — the
        pre-``rows``-frame wire behaviour.  A benchmark baseline knob,
        not an operational one.
    """

    def __init__(
        self,
        model,
        metrics: Sequence[Metric],
        points: Sequence[Mapping[str, float]],
        *,
        n_chunks: int,
        done_rows: Optional[Dict[int, List[float]]] = None,
        done_errors: Optional[Dict[int, PointFailure]] = None,
        done_requeues: Optional[Dict[int, int]] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        wire_batching: bool = True,
    ) -> None:
        self.model = model
        self.metrics = list(metrics)
        self.points = [dict(p) for p in points]
        self._batch_capable = bool(getattr(model, "batch_capable", False))
        self.plan = build_plan(
            model,
            self.metrics,
            self.points,
            n_partitions=n_chunks,
            done=list(done_rows or ()),
            max_requeues=max_requeues,
            pointwise=self._batch_capable and not wire_batching,
        )
        self._checkpoint = checkpoint
        self._requeues: Dict[int, int] = dict(done_requeues or {})
        self._chunk_ids = itertools.count(len(self.plan.partitions))
        # The job-level trace (if the job runs with telemetry active),
        # captured in the caller's context: the pool records its
        # dispatch spans here too.
        self._trace = obs.current_trace()
        self._collector = RowCollector(
            len(self.metrics), trace=self._trace, checkpoint=checkpoint
        )
        self._collector.preload(done_rows or {}, done_errors or {})
        self._pending: Deque[Partition] = deque(self.plan.partitions)
        self._cond = asyncio.Condition()
        self._failure: Optional[BaseException] = None
        if self._trace is not None:
            self._note_queue_depth()

    @property
    def _rows(self) -> Dict[int, List[float]]:
        """Completed rows (the collector's first-write-wins map)."""
        return self._collector.rows

    # ------------------------------------------------------------------ #
    # progress
    # ------------------------------------------------------------------ #
    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_completed(self) -> int:
        """Rows done so far (including checkpointed and poisoned ones)."""
        return len(self._rows)

    def _complete(self) -> bool:
        return len(self._rows) == len(self.points)

    def result_rows(
        self,
    ) -> Tuple[Dict[int, List[float]], Dict[int, PointFailure]]:
        """The merged ``index -> row`` / ``index -> failure`` maps."""
        return dict(self._rows), dict(self._collector.errors)

    async def abort(self, exc: BaseException) -> None:
        """Fail the job: :meth:`wait` raises, no partition is handed out."""
        async with self._cond:
            if self._failure is None:
                self._failure = exc
            self._cond.notify_all()

    async def wait(self) -> None:
        """Block until every row is in (or the job aborted)."""
        async with self._cond:
            await self._cond.wait_for(
                lambda: self._failure is not None or self._complete()
            )
            if self._failure is not None:
                raise DistributedSweepError(
                    f"distributed sweep failed with "
                    f"{self.n_points - self.n_completed} of {self.n_points} "
                    f"points unfinished: {self._failure}"
                ) from self._failure

    # ------------------------------------------------------------------ #
    # bookkeeping (call while holding self._cond)
    # ------------------------------------------------------------------ #
    def _note_queue_depth(self) -> None:
        if self._trace is not None:
            self._trace.gauge("dist.queue.depth", len(self._pending))

    def _poison(self, index: int) -> None:
        count = self._requeues.get(index, 0)
        logger.warning(
            "point %d requeued %d times after killing its worker; "
            "recording a NaN row and moving on",
            index,
            count,
        )
        stored = self._collector.store(
            index,
            [float("nan")] * len(self.metrics),
            PointFailure(
                index=index,
                point=self.points[index],
                stage="worker",
                error_type="WorkerDied",
                message=(
                    f"worker died on this point {count} time(s); "
                    f"gave up after max_requeues={self.plan.max_requeues}"
                ),
            ),
        )
        if stored and self._trace is not None:
            # the worker that would have recorded this point's span died
            # with it — a synthetic zero-duration span keeps the merged
            # trace covering every grid point exactly once
            self._trace.incr("dist.points.poisoned")
            now = self._trace.now()
            self._trace.add_span(
                "sweep.point", now, now,
                index=index, stage="worker", poisoned=True,
            )

    def _partition(self, indices: List[int], pointwise: bool) -> Partition:
        return Partition(
            partition_id=next(self._chunk_ids),
            indices=indices,
            points=[self.points[i] for i in indices],
            pointwise=pointwise,
        )

    def _pop_live_chunk(self) -> Optional[Partition]:
        """Next partition with done and poisoned points filtered out (may
        finish the job)."""
        while self._pending:
            chunk = self._pending.popleft()
            live_indices: List[int] = []
            for index in chunk.indices:
                if index in self._rows:
                    continue  # completed elsewhere (duplicate after requeue)
                if self._requeues.get(index, 0) > self.plan.max_requeues:
                    self._poison(index)
                else:
                    live_indices.append(index)
            if live_indices:
                return self._partition(live_indices, chunk.pointwise)
        return None

    # ------------------------------------------------------------------ #
    # the pool's side of the queue
    # ------------------------------------------------------------------ #
    async def _checkout_chunk(self) -> Optional[Partition]:
        """The next live partition; ``None`` once the job is decided."""
        async with self._cond:
            while True:
                if self._failure is not None:
                    return None
                chunk = self._pop_live_chunk()
                if chunk is not None:
                    self._note_queue_depth()
                    return chunk
                if self._complete():
                    self._cond.notify_all()
                    return None
                # no pending work, job unfinished: a worker holds the
                # remaining partitions — wait in case it dies and they
                # come back
                await self._cond.wait()

    async def _notify(self) -> None:
        """Wake :meth:`_checkout_chunk` and :meth:`wait` after rows land."""
        async with self._cond:
            self._cond.notify_all()

    async def _requeue(
        self,
        chunk: Partition,
        done: Collection[int],
        reason: BaseException,
        blame: bool = True,
        pointwise: bool = False,
    ) -> None:
        async with self._cond:
            unfinished = [
                i for i in chunk.indices
                if i not in done and i not in self._rows
            ]
            if unfinished:
                # on a pointwise-framing partition rows stream per point
                # in order, so the first unfinished index is the one being
                # solved when the worker died — blame it alone; the
                # healthy tail must not inherit retry counts (it would get
                # poisoned wholesale).  No blame at all when the partition
                # never reached the worker (dispatch to an already-dead
                # socket) or when it was batch-framed (a whole batch was
                # in flight — the caller downgrades the retry to pointwise
                # instead, which isolates a genuine killer on the next
                # attempt).
                if blame:
                    self._requeues[unfinished[0]] = (
                        self._requeues.get(unfinished[0], 0) + 1
                    )
                    if self._checkpoint is not None:
                        self._checkpoint.append_requeue(unfinished[0])
                self._pending.appendleft(
                    self._partition(unfinished, pointwise or chunk.pointwise)
                )
                if self._trace is not None:
                    self._trace.incr("dist.requeues")
                    self._trace.event(
                        "dist.requeue",
                        index=unfinished[0],
                        n_points=len(unfinished),
                        blame=blame,
                        reason=type(reason).__name__,
                    )
                self._note_queue_depth()
                logger.warning(
                    "worker died mid-partition (%s); requeued %d unfinished "
                    "point(s) starting at index %d",
                    reason,
                    len(unfinished),
                    unfinished[0],
                )
            self._cond.notify_all()
