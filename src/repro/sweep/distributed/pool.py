"""The worker fleet: the only code that talks to workers, on both hosts.

A :class:`WorkerPool` adopts every worker that dials in — forked local
processes (:func:`~repro.sweep.distributed.worker.launch_workers`),
in-process asyncio tasks, or ``repro-experiments worker --connect``
processes — and drains a
:class:`~repro.sweep.distributed.coordinator.SweepCoordinator`'s
partition queue over them with :meth:`WorkerPool.run`.  A one-shot
``sweep --distributed`` run builds one pool for its one job; the
``serve`` daemon keeps one pool for its lifetime and runs one job per
request.

Scheduling is pull-based: every idle worker checks out the next live
partition and the shared host-side driver
(:func:`~repro.sweep.engine.wire.run_task`) drives it to ``task_done``,
preferring idle workers that were already shipped the job's template.
A worker lost mid-partition hands the partition back through the
coordinator's blame rules.  A worker the pool forked itself is replaced
(budget-capped); inline tasks and external workers are not.  When no
worker is connected and none can still join, the job fails with
:class:`~repro.sweep.distributed.coordinator.DistributedSweepError`.

Workers cache prepared templates in their own bounded LRU and ask for a
missing one with ``need_template`` — so a freshly respawned (empty)
worker self-heals on its first task, and repeat fingerprints skip the
template ship entirely.
"""

from __future__ import annotations

import asyncio
import logging
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro import obs
from repro.sweep.distributed.coordinator import (
    DistributedSweepError,
    SweepCoordinator,
)
from repro.sweep.distributed.protocol import (
    PEER_LOST,
    recv_message,
    send_message,
)
from repro.sweep.distributed.worker import (
    fault_hooks,
    launch_workers,
    run_worker,
)
from repro.sweep.engine.plan import Partition
from repro.sweep.engine.wire import (
    TaskNotDelivered,
    WorkerFatal,
    run_task,
    welcome_worker,
)

__all__ = ["WorkerPool"]

logger = logging.getLogger(__name__)

_ADOPTION_TIMEOUT = 30.0
_MONITOR_INTERVAL = 0.2
_EXIT_GRACE_S = 5.0


def _process_label(process: Any) -> str:
    """The label a forked worker says hello with (see ``run_worker``)."""
    return f"{socket.gethostname()}:{process.pid}"


@dataclass(eq=False)
class _Worker:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    label: str
    #: launched by this pool as a process, so replaced when it dies
    forked: bool = False
    #: fingerprints this worker has been shipped (scheduling hint — its
    #: LRU may have evicted them; ``need_template`` self-corrects)
    affinity: Set[str] = field(default_factory=set)


class WorkerPool:
    """Adopt, schedule, and replace the workers of one host.

    *n_workers* is how many workers :meth:`start` launches (``0``: only
    external ``worker --connect`` processes, waited for indefinitely);
    *max_retries* sizes the respawn budget; *fault* arms the
    fault-injection hooks of the launched workers (see
    :func:`~repro.sweep.distributed.worker.fault_hooks`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        n_workers: int,
        *,
        capacity: int = 4,
        max_retries: int = 2,
        fault: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.n_workers = int(n_workers)
        self.capacity = int(capacity)
        self.max_retries = int(max_retries)
        self.fault = dict(fault or {})
        self._procs: List[Any] = []
        self._tasks: List[asyncio.Task] = []
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._cond = asyncio.Condition()
        self._monitor: Optional[asyncio.Task] = None
        self._closed = False
        self.respawns = 0
        self.deaths = 0
        # enough to survive max_retries on every original worker, plus
        # slack for idle deaths; a backstop, not a scheduling knob
        self.max_respawns = self.n_workers * (self.max_retries + 1) + 2

    @property
    def n_connected(self) -> int:
        return len(self._workers)

    # -- fleet -------------------------------------------------------------

    async def start(self, *, inline: bool = False, wait: bool = True) -> None:
        """Launch the pool's own workers and the idle-death monitor.

        Forked processes, or with *inline* asyncio tasks on this loop (no
        parallelism, full protocol).  With *wait*, block until every one
        has been adopted; otherwise dispatch starts with the first.
        """
        if inline:
            self._tasks = [
                asyncio.create_task(
                    run_worker(
                        self.host, self.port, **fault_hooks(self.fault, i)
                    )
                )
                for i in range(self.n_workers)
            ]
        else:
            self._procs = launch_workers(
                self.n_workers, self.host, self.port, fault=self.fault
            )
        if wait:
            async with self._cond:
                await asyncio.wait_for(
                    self._cond.wait_for(
                        lambda: len(self._workers) >= self.n_workers
                    ),
                    timeout=_ADOPTION_TIMEOUT,
                )
        self._monitor = asyncio.create_task(self._monitor_loop())

    async def handle_hello(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: Optional[Dict[str, Any]] = None,
        *,
        role: str = "coordinator",
        refuse: Optional[str] = None,
    ) -> bool:
        """Welcome a dialling worker into the pool; ``True`` if adopted.

        The one-shot runner serves its socket with this, and the worker's
        ``hello`` is read here.  The daemon passes the *hello* it already
        read on its pickle port, its *role*, and *refuse* (the reason)
        when it takes no workers.
        """
        try:
            if hello is None:
                hello = await recv_message(reader)
            label = await welcome_worker(
                writer,
                hello,
                role=role,
                capacity=self.capacity,
                telemetry=obs.enabled(),
                refuse=refuse,
            )
        except PEER_LOST as exc:
            logger.warning(
                "worker %s rejected during handshake: %s",
                writer.get_extra_info("peername"),
                exc,
            )
            writer.close()
            return False
        worker = _Worker(
            reader,
            writer,
            label,
            forked=any(label == _process_label(p) for p in self._procs),
        )
        async with self._cond:
            adopted = not self._closed
            if adopted:
                self._workers.append(worker)
                self._idle.append(worker)
                self._cond.notify_all()
        if not adopted:
            await self._dismiss(worker)
            return False
        logger.info("worker %s joined", label)
        obs.incr("service.workers.adopted")
        return True

    def _stranded(self) -> bool:
        """No worker is connected and none can still join.

        A pool that launched no worker itself waits for external ones
        indefinitely.
        """
        if self._workers or not (self._procs or self._tasks):
            return False
        return not any(p.is_alive() for p in self._procs) and all(
            t.done() for t in self._tasks
        )

    async def _acquire(self, key: str) -> Optional[_Worker]:
        """An idle worker, preferring one shipped *key*'s template;
        ``None`` when stranded or shutting down."""
        while True:
            async with self._cond:
                await self._cond.wait_for(
                    lambda: self._idle or self._closed or self._stranded()
                )
                if not self._idle:
                    return None
                worker = next(
                    (w for w in self._idle if key in w.affinity),
                    self._idle[0],
                )
                self._idle.remove(worker)
            if not worker.reader.at_eof():
                return worker
            # died while idle and the monitor has not pruned it yet: a
            # task sent there would blame its first point for the death
            await self._note_death(worker)

    async def _release(self, worker: _Worker) -> None:
        async with self._cond:
            if worker in self._workers:
                self._idle.append(worker)
                self._cond.notify_all()

    async def _drop(self, worker: _Worker) -> None:
        async with self._cond:
            if worker in self._workers:
                self._workers.remove(worker)
            if worker in self._idle:
                self._idle.remove(worker)
            self._cond.notify_all()
        worker.writer.close()

    async def _note_death(self, worker: _Worker) -> None:
        """Prune a dead worker and fork a replacement (budget-capped)."""
        self.deaths += 1
        obs.incr("service.workers.died")
        await self._drop(worker)
        if worker.forked and not self._closed:
            self._maybe_respawn()

    def _maybe_respawn(self) -> None:
        if self.respawns >= self.max_respawns:
            return
        # replacements are never armed with the fault hook — the injected
        # crash is a one-shot test stimulus, not a heritable trait
        self._procs.extend(launch_workers(1, self.host, self.port))
        self.respawns += 1
        obs.incr("service.workers.respawned")

    async def _monitor_loop(self) -> None:
        """Prune workers that die while idle (their socket hits EOF)."""
        while not self._closed:
            await asyncio.sleep(_MONITOR_INTERVAL)
            async with self._cond:
                dead = [w for w in self._idle if w.reader.at_eof()]
                # process exits are polled, not signalled: dispatchers
                # waiting for a worker re-check whether one can still join
                self._cond.notify_all()
            for worker in dead:
                await self._note_death(worker)

    # -- execution ---------------------------------------------------------

    async def run(
        self, coordinator: SweepCoordinator, template: Optional[str] = None
    ) -> None:
        """Drain *coordinator*'s partition queue over the pool's workers.

        Rows merge into the coordinator's collector.  *template* is the
        key its model ships and is cached under in the workers' LRUs
        (default: the plan fingerprint).  Returns once every row is in;
        raises :class:`DistributedSweepError` when a worker reports a
        configuration error (the :class:`WorkerFatal` is its cause) or
        when no worker is connected and none can still join.
        """
        key = template or coordinator.plan.fingerprint
        # worker -> [first dispatch, last return] within this job
        spans: Dict[_Worker, List[float]] = {}
        drivers: List[asyncio.Task] = []
        try:
            while True:
                partition = await coordinator._checkout_chunk()
                if partition is None:
                    break
                worker = await self._acquire(key)
                if worker is None:
                    await coordinator.abort(
                        DistributedSweepError(
                            "no worker is connected and none can still join"
                        )
                    )
                    break
                if coordinator._failure is not None:
                    await self._release(worker)
                    break
                drivers.append(
                    asyncio.create_task(
                        self._drive(coordinator, worker, partition, key, spans)
                    )
                )
        except BaseException:
            for driver in drivers:
                driver.cancel()
            raise
        finally:
            await asyncio.gather(*drivers, return_exceptions=True)
            trace = coordinator._trace
            if trace is not None:
                for worker, (t0, t1) in spans.items():
                    trace.add_span("dist.worker", t0, t1, label=worker.label)
        await coordinator.wait()

    async def _drive(
        self,
        coordinator: SweepCoordinator,
        worker: _Worker,
        partition: Partition,
        key: str,
        spans: Dict[_Worker, List[float]],
    ) -> None:
        """Run one partition on *worker*; requeue it if the worker is lost."""
        trace = coordinator._trace
        t_dispatch = trace.now() if trace is not None else 0.0
        t_first_row: Optional[float] = None

        async def rows_in() -> None:
            nonlocal t_first_row
            if trace is not None and t_first_row is None:
                t_first_row = trace.now()

        def ship() -> Any:
            worker.affinity.add(key)
            obs.incr("service.templates.shipped")
            return coordinator.model

        if trace is not None:
            trace.incr("dist.chunks.dispatched")
        try:
            await run_task(
                worker.reader,
                worker.writer,
                {
                    "task_id": partition.partition_id,
                    "fingerprint": key,
                    "metrics": coordinator.metrics,
                    "indices": partition.indices,
                    "points": partition.points,
                    "pointwise": partition.pointwise,
                },
                coordinator._collector,
                template=ship,
                on_rows=rows_in,
            )
        except WorkerFatal as exc:
            # a configuration error: every point and every worker would
            # fail identically, so it fails the job; the worker itself
            # is healthy and stays in the pool (released after the abort,
            # so no dispatch of this job can take it first)
            await coordinator.abort(
                WorkerFatal(f"worker {worker.label} hit a {exc}")
            )
            await self._release(worker)
            return
        except PEER_LOST as exc:
            logger.warning("worker %s lost: %s", worker.label, exc)
            # no blame when the partition never reached the worker.  On a
            # batch-framed partition a whole batch was in flight, so no
            # single point can be blamed either — requeue everything
            # unblamed and downgrade the retry to pointwise framing, where
            # the per-point blame machinery isolates a genuine killer on
            # the next attempt.  Every row the worker delivered is already
            # in the collector, so nothing else counts as done.
            sent = not isinstance(exc, TaskNotDelivered)
            batched = (
                sent and coordinator._batch_capable and not partition.pointwise
            )
            await coordinator._requeue(
                partition,
                (),
                exc,
                blame=sent and not batched,
                pointwise=batched,
            )
            await self._note_death(worker)
            return
        except asyncio.CancelledError:
            # mid-task, the connection's protocol state is unknown
            await self._drop(worker)
            raise
        except Exception as exc:
            # a defect, not a lost worker: fail the job rather than leave
            # its partition checked out forever
            await self._drop(worker)
            await coordinator.abort(exc)
            raise
        finally:
            if trace is not None:
                t_end = trace.now()
                spans.setdefault(worker, [t_dispatch, t_end])[1] = t_end
        if trace is not None:
            attrs: Dict[str, object] = {
                "chunk_id": partition.partition_id,
                "n_points": len(partition.indices),
                "label": worker.label,
            }
            if t_first_row is not None:
                # dispatch latency: send to first row back
                attrs["first_row_s"] = t_first_row - t_dispatch
            trace.add_span("dist.chunk", t_dispatch, trace.now(), **attrs)
        await self._release(worker)
        await coordinator._notify()

    # -- lifecycle ---------------------------------------------------------

    async def _dismiss(self, worker: _Worker) -> None:
        try:
            await send_message(worker.writer, {"kind": "shutdown"})
        except (ConnectionError, OSError):
            pass
        worker.writer.close()

    async def shutdown(self) -> None:
        """Stop the monitor, tell workers to exit, reap what was started."""
        self._closed = True
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except asyncio.CancelledError:
                pass
        async with self._cond:
            workers = list(self._workers)
            self._workers.clear()
            self._idle.clear()
            self._cond.notify_all()
        joined = {w.label for w in workers}
        for proc in self._procs:
            if _process_label(proc) not in joined and proc.is_alive():
                # never joined (e.g. a replacement forked as the job
                # ended): it would keep dialling a closing host
                proc.terminate()
        for worker in workers:
            await self._dismiss(worker)
        if self._tasks:
            _, pending = await asyncio.wait(self._tasks, timeout=_EXIT_GRACE_S)
            for task in pending:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._procs:
            await asyncio.to_thread(self._reap)

    def _reap(self) -> None:
        for proc in self._procs:
            proc.join(timeout=_EXIT_GRACE_S)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_EXIT_GRACE_S)

    def stats(self) -> Dict[str, Any]:
        return {
            "configured": self.n_workers,
            "connected": len(self._workers),
            "idle": len(self._idle),
            "deaths": self.deaths,
            "respawns": self.respawns,
            "pids": [p.pid for p in self._procs if p.is_alive()],
        }
