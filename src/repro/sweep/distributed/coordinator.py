"""The sweep coordinator: shard, dispatch, collect, survive.

:class:`SweepCoordinator` owns the authoritative state of one distributed
sweep — which points are done, which are pending, how often each has been
requeued — and serves any number of workers over an asyncio TCP server.
Scheduling is pull-based: an idle worker checks out the next pending
chunk; there is no static assignment, so a slow host simply takes fewer
chunks.

Sharding preserves the grid's axis order: pending points are split into
*contiguous* chunks (:func:`~repro.sweep.engine.plan.partition_indices`),
so iterative warm starts inside a chunk stay adjacent on the parameter
grid and the merged table is ordered exactly like the serial runner's.
On a batch-capable backend the chunk boundaries align to the backend's
preferred batch size, so each chunk is a whole number of stacked solves
shipped back as batched ``rows`` frames (protocol v2).

Fault model
-----------

- **A point fails numerically** — the worker streams a NaN row with a
  :class:`~repro.sweep.results.PointFailure`; the sweep continues.
- **A worker dies mid-chunk** (crash, kill, network partition) — on a
  pointwise-framing chunk rows stream per point, so the coordinator
  requeues exactly the unfinished suffix at the *front* of the queue,
  blaming only the point in flight; surviving workers pick it up.  On a
  batch-framing chunk a whole batch may be in flight, so the unfinished
  remainder is requeued *without blame* and the retry is downgraded to
  pointwise framing — a genuinely poisonous point is then isolated and
  blamed by the per-point machinery, and the healthy members of its
  batch never inherit strikes.
- **A point keeps killing workers** — after ``max_requeues`` requeues it
  is poisoned: NaN row, ``stage="worker"`` error record, sweep continues.
- **Every worker is gone** — the supervisor aborts with
  :class:`DistributedSweepError`; completed rows are already in the
  checkpoint (when one is configured), so the next run resumes instead of
  restarting.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
from collections import deque
from dataclasses import dataclass
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
from repro.sweep.distributed.protocol import (
    PEER_LOST,
    recv_message,
    send_message,
)
from repro.sweep.engine.collector import RowCollector
from repro.sweep.engine.plan import DEFAULT_MAX_REQUEUES, partition_indices
from repro.sweep.engine.wire import (
    TaskNotDelivered,
    WorkerFatal,
    run_task,
    welcome_worker,
)
from repro.sweep.results import PointFailure

__all__ = ["DEFAULT_MAX_REQUEUES", "DistributedSweepError", "SweepCoordinator"]

logger = logging.getLogger(__name__)

#: The key the coordinator ships its one template under (each worker
#: connection asks for it once, with ``need_template``).
_FINGERPRINT = "sweep"


class DistributedSweepError(RuntimeError):
    """The distributed sweep cannot make progress (e.g. all workers died)."""


@dataclass
class _Chunk:
    """One contiguous span of pending grid points.

    ``pointwise`` forces per-point framing on a batch-capable backend:
    set on requeued chunks so the retry isolates a poisonous point
    instead of losing (and re-blaming) whole batches.
    """

    chunk_id: int
    indices: List[int]
    points: List[Dict[str, float]]
    pointwise: bool = False


class SweepCoordinator:
    """Authoritative state + worker protocol handler of one sweep.

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
        Target chunk count across the whole sweep (oversubscribe workers
        ~4x so pull-scheduling can balance load).
    checkpoint:
        Optional open :class:`~repro.sweep.distributed.checkpoint.SweepCheckpoint`
        to journal every completed row.
    max_requeues:
        Worker-death retries per point before poisoning it.
    wire_batching:
        When ``False``, a batch-capable backend is still sharded but
        every chunk is dispatched with pointwise framing — the
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
        self.max_requeues = max_requeues
        self._checkpoint = checkpoint
        self._requeues: Dict[int, int] = dict(done_requeues or {})
        self._chunk_ids = itertools.count()
        # The run-level trace (if the sweep runs with telemetry active).
        # Captured here, in the runner's context, because the asyncio
        # server invokes handle_worker from the event loop's own context.
        self._trace = obs.current_trace()
        self._collector = RowCollector(
            len(self.metrics), trace=self._trace, checkpoint=checkpoint
        )
        self._collector.preload(done_rows or {}, done_errors or {})
        self._batch_capable = bool(getattr(model, "batch_capable", False))
        self._wire_batching = bool(wire_batching)
        self._pending: Deque[_Chunk] = deque(
            self._shard([i for i in range(len(points)) if i not in self._rows],
                        n_chunks)
        )
        self._cond = asyncio.Condition()
        self._failure: Optional[BaseException] = None
        self._n_connected = 0
        if self._trace is not None:
            self._note_queue_depth()

    @property
    def _rows(self) -> Dict[int, List[float]]:
        """Completed rows (the collector's first-write-wins map)."""
        return self._collector.rows

    # ------------------------------------------------------------------ #
    # sharding
    # ------------------------------------------------------------------ #
    def _shard(self, remaining: List[int], n_chunks: int) -> List[_Chunk]:
        """Contiguous chunks over the remaining indices.

        Delegates to the engine's partition planner: after a checkpoint
        resume the remaining indices may have gaps, and each maximal
        contiguous run is chunked separately so no chunk ever spans a
        gap (warm starts stay adjacent).  Batch-capable backends get
        chunk boundaries aligned to their preferred batch size, so each
        chunk is a whole number of stacked solves.
        """
        align = (
            max(1, self.model.resolve_batch_size(len(self.points)))
            if self._batch_capable and self._wire_batching
            else 1
        )
        return [
            _Chunk(
                chunk_id=next(self._chunk_ids),
                indices=indices,
                points=[self.points[i] for i in indices],
                pointwise=self._batch_capable and not self._wire_batching,
            )
            for indices in partition_indices(remaining, n_chunks, align=align)
        ]

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

    @property
    def n_connected(self) -> int:
        return self._n_connected

    def _complete(self) -> bool:
        return len(self._rows) == len(self.points)

    def result_rows(
        self,
    ) -> Tuple[Dict[int, List[float]], Dict[int, PointFailure]]:
        """The merged ``index -> row`` / ``index -> failure`` maps."""
        return dict(self._rows), dict(self._collector.errors)

    async def abort(self, exc: BaseException) -> None:
        """Fail the sweep: :meth:`wait` raises, workers get shut down."""
        async with self._cond:
            if self._failure is None:
                self._failure = exc
            self._cond.notify_all()

    async def wait(self) -> None:
        """Block until every row is in (or the sweep aborted)."""
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

    async def drain(self, timeout: float = 5.0) -> None:
        """Give connected workers time to complete the shutdown handshake.

        Called after :meth:`wait` succeeds, before the server closes —
        otherwise the final ``task_done``/``shutdown`` exchange races
        the teardown and healthy workers see their connection die.
        """
        async def _all_gone() -> None:
            async with self._cond:
                await self._cond.wait_for(lambda: self._n_connected == 0)

        try:
            await asyncio.wait_for(_all_gone(), timeout)
        except asyncio.TimeoutError:
            logger.warning(
                "%d worker(s) still connected after the %.1fs shutdown "
                "grace period; closing anyway",
                self._n_connected,
                timeout,
            )

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
                    f"gave up after max_requeues={self.max_requeues}"
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

    def _pop_live_chunk(self) -> Optional[_Chunk]:
        """Next chunk with poisoned points filtered out (may finish sweep)."""
        while self._pending:
            chunk = self._pending.popleft()
            live_indices: List[int] = []
            for index in chunk.indices:
                if index in self._rows:
                    continue  # completed elsewhere (duplicate after requeue)
                if self._requeues.get(index, 0) > self.max_requeues:
                    self._poison(index)
                else:
                    live_indices.append(index)
            if live_indices:
                return _Chunk(
                    chunk_id=next(self._chunk_ids),
                    indices=live_indices,
                    points=[self.points[i] for i in live_indices],
                    pointwise=chunk.pointwise,
                )
        return None

    async def _checkout_chunk(self) -> Optional[_Chunk]:
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
                # no pending work, sweep unfinished: another worker holds
                # the remaining chunks — wait in case it dies and they
                # come back
                await self._cond.wait()

    async def _requeue(
        self,
        chunk: _Chunk,
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
                # on a pointwise-framing chunk rows stream per point in
                # order, so the first unfinished index is the one being
                # solved when the worker died — blame it alone; the
                # healthy tail of the chunk must not inherit retry counts
                # (it would get poisoned wholesale).  No blame at all
                # when the chunk never reached the worker (dispatch to an
                # already-dead socket) or when it was batch-framed (a
                # whole batch was in flight — the caller downgrades the
                # retry to pointwise instead, which isolates a genuine
                # killer on the next attempt).
                if blame:
                    self._requeues[unfinished[0]] = (
                        self._requeues.get(unfinished[0], 0) + 1
                    )
                    if self._checkpoint is not None:
                        self._checkpoint.append_requeue(unfinished[0])
                self._pending.appendleft(
                    _Chunk(
                        chunk_id=next(self._chunk_ids),
                        indices=unfinished,
                        points=[self.points[i] for i in unfinished],
                        pointwise=pointwise or chunk.pointwise,
                    )
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
                    "worker died mid-chunk (%s); requeued %d unfinished "
                    "point(s) starting at index %d",
                    reason,
                    len(unfinished),
                    unfinished[0],
                )
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # the per-worker protocol handler (asyncio server callback)
    # ------------------------------------------------------------------ #
    async def handle_worker(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            worker_label = await welcome_worker(
                writer,
                await recv_message(reader),
                role="coordinator",
                capacity=1,
                telemetry=self._trace is not None,
            )
        except PEER_LOST as exc:
            logger.warning(
                "worker %s rejected during handshake: %s",
                writer.get_extra_info("peername"),
                exc,
            )
            writer.close()
            return
        logger.info("worker %s joined", worker_label)
        async with self._cond:
            self._n_connected += 1
            self._cond.notify_all()
        chunk: Optional[_Chunk] = None
        t_joined = self._trace.now() if self._trace is not None else 0.0
        t_dispatch = 0.0
        t_first_row: Optional[float] = None

        async def rows_in() -> None:
            nonlocal t_first_row
            if self._trace is not None and t_first_row is None:
                t_first_row = self._trace.now()
            async with self._cond:
                self._cond.notify_all()

        try:
            while True:
                chunk = await self._checkout_chunk()
                if chunk is None:
                    try:
                        await send_message(writer, {"kind": "shutdown"})
                    except (ConnectionError, OSError):
                        pass
                    break
                t_first_row = None
                if self._trace is not None:
                    t_dispatch = self._trace.now()
                    self._trace.incr("dist.chunks.dispatched")
                try:
                    await run_task(
                        reader,
                        writer,
                        {
                            "task_id": chunk.chunk_id,
                            "fingerprint": _FINGERPRINT,
                            "metrics": self.metrics,
                            "indices": chunk.indices,
                            "points": chunk.points,
                            "pointwise": chunk.pointwise,
                        },
                        self._collector,
                        template=lambda: self.model,
                        on_rows=rows_in,
                    )
                except WorkerFatal as exc:
                    # a configuration error: every point and every
                    # worker would fail identically — abort the sweep
                    # with the worker's diagnosis
                    chunk = None
                    await self.abort(
                        RuntimeError(f"worker {worker_label} hit a {exc}")
                    )
                    continue
                if self._trace is not None:
                    attrs: Dict[str, object] = {
                        "chunk_id": chunk.chunk_id,
                        "n_points": len(chunk.indices),
                        "label": worker_label,
                    }
                    if t_first_row is not None:
                        # dispatch latency: send to first row back
                        attrs["first_row_s"] = t_first_row - t_dispatch
                    self._trace.add_span(
                        "dist.chunk", t_dispatch, self._trace.now(), **attrs
                    )
                chunk = None
        except asyncio.CancelledError:
            # event-loop teardown (the sweep is already decided); exit
            # quietly so the cancellation is not logged as a server error
            pass
        except PEER_LOST as exc:
            logger.warning("worker %s lost: %s", worker_label, exc)
            if chunk is not None:
                # no blame when the chunk never reached the worker.  On a
                # batch-framed chunk a whole batch was in flight, so no
                # single point can be blamed either — requeue everything
                # unblamed and downgrade the retry to pointwise framing,
                # where the per-point blame machinery isolates a genuine
                # killer on the next attempt
                sent = not isinstance(exc, TaskNotDelivered)
                batched = sent and self._batch_capable and not chunk.pointwise
                # every row the worker delivered is already in the
                # collector, so nothing else counts as done
                await self._requeue(
                    chunk,
                    (),
                    exc,
                    blame=sent and not batched,
                    pointwise=batched,
                )
        finally:
            async with self._cond:
                self._n_connected -= 1
                self._cond.notify_all()
            if self._trace is not None:
                self._trace.add_span(
                    "dist.worker",
                    t_joined,
                    self._trace.now(),
                    label=worker_label,
                )
            writer.close()
            logger.info("worker %s left", worker_label)
