"""Elastic pool of persistent service workers.

With ``--workers N`` the service forks N
:func:`~repro.sweep.distributed.worker.run_worker` processes — the same
worker program a one-shot coordinator uses — that dial back into the
service's own pickle port and stay connected across requests; an
external ``repro-experiments worker --connect`` joins the same way.
The pool hands one ``task`` (a request's remaining grid points) to one
worker at a time through the shared host-side driver
(:func:`~repro.sweep.engine.wire.run_task`), and is **elastic**: a
worker that dies — mid-request or idle — is pruned, a replacement is
forked (budget-capped), and the request's unfinished points are retried
on a survivor.  Only when one request has burned through
``max_retries + 1`` workers does it fail with
:class:`ServiceWorkerError`; the daemon itself keeps serving.

Workers cache prepared templates in their own bounded LRU and ask for a
missing one with ``need_template`` — so a freshly respawned (empty)
worker self-heals on its first task, and repeat fingerprints skip the
template ship entirely.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.sweep.distributed.protocol import PEER_LOST, send_message
from repro.sweep.distributed.worker import launch_workers
from repro.sweep.engine.collector import RowCollector
from repro.sweep.engine.wire import WorkerFatal, run_task
from repro.sweep.results import PointFailure
from repro.sweep.service.session import RequestError, ServiceRequest
from repro.sweep.service.template_cache import TemplateEntry

__all__ = ["ServiceWorkerError", "WorkerPool"]

_ADOPTION_TIMEOUT = 30.0
_MONITOR_INTERVAL = 0.2


class ServiceWorkerError(RuntimeError):
    """One request exhausted its worker-retry budget (HTTP 500)."""


@dataclass(eq=False)
class _Worker:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    label: str
    #: fingerprints this worker has been shipped (scheduling hint — its
    #: LRU may have evicted them; ``need_template`` self-corrects)
    affinity: Set[str] = field(default_factory=set)


class WorkerPool:
    """Fork, adopt, schedule, and replace persistent service workers."""

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
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._cond = asyncio.Condition()
        self._task_ids = itertools.count(1)
        self._monitor: Optional[asyncio.Task] = None
        self._closed = False
        self.respawns = 0
        self.deaths = 0
        # enough to survive max_retries on every original worker, plus
        # slack for idle deaths; a backstop, not a scheduling knob
        self.max_respawns = self.n_workers * (self.max_retries + 1) + 2

    async def start(self) -> None:
        """Fork the workers and wait until every one has been adopted."""
        if self.n_workers <= 0:
            return
        self._procs = launch_workers(
            self.n_workers, self.host, self.port, fault=self.fault
        )
        async with self._cond:
            await asyncio.wait_for(
                self._cond.wait_for(
                    lambda: len(self._workers) >= self.n_workers
                ),
                timeout=_ADOPTION_TIMEOUT,
            )
        self._monitor = asyncio.create_task(self._monitor_loop())

    async def adopt(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        label: str,
    ) -> None:
        """Take over a welcomed worker's connection."""
        worker = _Worker(reader, writer, label)
        async with self._cond:
            self._workers.append(worker)
            self._idle.append(worker)
            self._cond.notify_all()
        obs.incr("service.workers.adopted")

    # -- scheduling --------------------------------------------------------

    async def _acquire(self, fingerprint: Optional[str]) -> _Worker:
        async with self._cond:
            await self._cond.wait_for(
                lambda: self._idle or self._closed or not self._alive_procs()
            )
            if not self._idle:
                raise ServiceWorkerError(
                    "no live workers remain (respawn budget exhausted)"
                )
            worker = next(
                (w for w in self._idle if fingerprint in w.affinity), None
            )
            if worker is None:
                worker = self._idle[0]
            self._idle.remove(worker)
            return worker

    async def _release(self, worker: _Worker) -> None:
        async with self._cond:
            if worker in self._workers:
                self._idle.append(worker)
                self._cond.notify_all()

    def _alive_procs(self) -> int:
        return sum(1 for p in self._procs if p.is_alive())

    async def _note_death(self, worker: _Worker) -> None:
        """Prune a dead worker and fork a replacement (budget-capped)."""
        self.deaths += 1
        obs.incr("service.workers.died")
        async with self._cond:
            if worker in self._workers:
                self._workers.remove(worker)
            if worker in self._idle:
                self._idle.remove(worker)
            self._cond.notify_all()
        worker.writer.close()
        self._maybe_respawn()

    def _maybe_respawn(self) -> None:
        if self._closed or self.respawns >= self.max_respawns:
            return
        # elasticity is about *connected* workers: the dead shard's
        # process may linger as a zombie for a moment after its socket
        # died, and waiting for the OS to agree would miss the respawn
        if len(self._workers) >= self.n_workers:
            return
        # replacements are never armed with the fault hook — the injected
        # crash is a one-shot test stimulus, not a heritable trait
        self._procs.extend(
            launch_workers(1, self.host, self.port)
        )
        self.respawns += 1
        obs.incr("service.workers.respawned")

    async def _monitor_loop(self) -> None:
        """Prune workers that die while idle (their socket hits EOF)."""
        while not self._closed:
            await asyncio.sleep(_MONITOR_INTERVAL)
            async with self._cond:
                dead = [w for w in self._idle if w.reader.at_eof()]
            for worker in dead:
                await self._note_death(worker)

    # -- execution ---------------------------------------------------------

    async def run_points(
        self, request: ServiceRequest, entry: TemplateEntry
    ) -> Tuple[Dict[int, List[float]], Dict[int, PointFailure]]:
        """Solve every point of *request* on the pool, surviving deaths.

        Returns ``(rows, errors)`` keyed by point index.  Numeric
        failures become error records; a worker death requeues the
        unfinished points (``max_retries + 1`` attempts per request);
        a configuration error raises
        :class:`~repro.sweep.service.session.RequestError`.
        """
        # failures stay the request layer's concern: the collector counts
        # completions under the service's own name and skips the failed
        # counter (numeric failures are per-request result data here, not
        # sweep-level progress)
        collector = RowCollector(
            len(request.metrics),
            trace=obs.current_trace(),
            counter_completed="service.rows.completed",
            counter_failed=None,
        )
        deaths = 0
        while collector.n_completed < len(request.points):
            worker = await self._acquire(request.fingerprint)

            def ship() -> Any:
                worker.affinity.add(request.fingerprint or "")
                obs.incr("service.templates.shipped")
                return entry.backend

            pending = [
                i for i in range(len(request.points))
                if i not in collector.rows
            ]
            try:
                await run_task(
                    worker.reader,
                    worker.writer,
                    {
                        "task_id": next(self._task_ids),
                        "fingerprint": request.fingerprint,
                        "metrics": list(request.metrics),
                        "indices": pending,
                        "points": [request.points[i] for i in pending],
                        "pointwise": False,
                    },
                    collector,
                    template=ship,
                )
            except WorkerFatal as exc:
                # a configuration error is the request's fault, not the
                # worker's: it stays in the pool
                await self._release(worker)
                raise RequestError(str(exc)) from exc
            except PEER_LOST as exc:
                deaths += 1
                await self._note_death(worker)
                if deaths > self.max_retries:
                    raise ServiceWorkerError(
                        f"request killed {deaths} worker(s): "
                        f"{worker.label}: {exc}"
                    ) from exc
                continue
            await self._release(worker)
        return collector.rows, collector.errors

    # -- lifecycle ---------------------------------------------------------

    async def shutdown(self) -> None:
        """Stop monitors, tell workers to exit, reap the processes."""
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
        for worker in workers:
            try:
                await send_message(worker.writer, {"kind": "shutdown"})
            except (ConnectionError, OSError):
                pass
            worker.writer.close()
        await asyncio.to_thread(self._reap)

    def _reap(self) -> None:
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)

    def stats(self) -> Dict[str, Any]:
        return {
            "configured": self.n_workers,
            "connected": len(self._workers),
            "idle": len(self._idle),
            "deaths": self.deaths,
            "respawns": self.respawns,
            "pids": [p.pid for p in self._procs if p.is_alive()],
        }
