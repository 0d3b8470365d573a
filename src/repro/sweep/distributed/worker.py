"""The sweep worker: the solve side of every wire-connected host.

One worker program serves both hosts — a one-shot sweep coordinator
(``sweep --distributed``) and the always-on service (``serve``) — over
one dialect.  A worker dials in with ``hello``, gets a ``welcome``,
then loops: take one ``task`` (a contiguous span of grid points), ask for the
template with ``need_template`` when its own bounded LRU does not hold
that fingerprint, and stream the task back through the engine's shared
loop (:func:`~repro.sweep.engine.wire.stream_partition`) — warm start
reset at the task boundary, the same
:func:`~repro.sweep.engine.points.solve_point_row` plumbing as the
serial path, one ``row`` message per point, or (batch-capable backends,
protocol v2) one stacked ``solve_batch`` and one ``rows`` frame per
batch.  Per-point numerical failures become NaN rows with error
records, exactly like the serial runner; they never kill the worker.

Three ways to run one:

- ``repro-experiments worker --connect HOST:PORT`` — a separate process,
  possibly on another machine, pointed at a coordinator or a daemon;
- :func:`launch_workers` — forked local processes (what
  ``sweep --distributed --shards N`` and ``serve --workers N`` use);
- ``asyncio.create_task(run_worker(...))`` — in-process, sharing the
  host's event loop (tests and docs; no parallelism, full protocol).
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import os
import socket as socket_module
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.sweep.distributed.protocol import (
    CAPABILITIES,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.sweep.engine.wire import WorkerConfigError, stream_partition

__all__ = [
    "LRUTemplates",
    "fault_hooks",
    "launch_workers",
    "run_worker",
    "worker_main",
]

logger = logging.getLogger(__name__)

#: Connection retry schedule: the host may still be binding when a
#: freshly forked worker first dials.
CONNECT_RETRIES = 40
CONNECT_RETRY_DELAY = 0.25


class LRUTemplates:
    """A bounded least-recently-used map with usage accounting.

    ``get`` counts a hit (and refreshes recency) or a miss; ``put``
    inserts/updates (refreshing recency) and evicts the least recently
    *used* entries beyond ``capacity``, returning what it dropped.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def keys(self) -> List[str]:
        """Fingerprints, least recently used first."""
        return list(self._entries)

    def get(self, fingerprint: str) -> Optional[Any]:
        try:
            value = self._entries[fingerprint]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return value

    def put(self, fingerprint: str, value: Any) -> List[str]:
        """Insert/update; returns the fingerprints evicted (possibly [])."""
        self._entries[fingerprint] = value
        self._entries.move_to_end(fingerprint)
        evicted: List[str] = []
        while len(self._entries) > self.capacity:
            dropped, _ = self._entries.popitem(last=False)
            evicted.append(dropped)
            self.evictions += 1
        return evicted

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


async def _connect(
    host: str, port: int, retries: int, delay: float
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    last_error: Optional[Exception] = None
    for attempt in range(retries):
        try:
            return await asyncio.open_connection(host, port)
        except OSError as exc:
            last_error = exc
            await asyncio.sleep(delay)
    raise ConnectionError(
        f"could not reach {host}:{port} after {retries} attempts: "
        f"{last_error}"
    )


async def run_worker(
    host: str,
    port: int,
    *,
    connect_retries: int = CONNECT_RETRIES,
    connect_retry_delay: float = CONNECT_RETRY_DELAY,
    die_after_rows: Optional[int] = None,
    die_at_index: Optional[int] = None,
    trace: Optional[obs.Trace] = None,
) -> int:
    """Serve one coordinator or service until it sends ``shutdown``.

    Returns the number of rows solved.  The worker keeps a bounded LRU
    of prepared templates (capacity set by the host's ``welcome``) and
    asks for a missing one with ``need_template`` — a respawned worker
    starts empty and refills on demand.  A configuration error in a task
    is reported as ``fatal`` and the worker stays up for the next task.

    *die_after_rows* / *die_at_index* are fault-injection hooks for
    tests and benchmarks: the worker aborts its connection (RST, no
    goodbye — indistinguishable from a crash on the host side) before
    solving its Nth row across all tasks, or just before solving that
    global point index.

    *trace* is this worker's own :class:`repro.obs.Trace` (e.g. the one
    behind ``worker --trace FILE``); when the host's ``welcome`` asks
    for telemetry and none is given, a fresh one is created.  Either way
    the worker installs it for the duration of the connection — never the
    ambient trace it may have inherited by fork or by sharing the host's
    event loop, which would double-record segments that are also shipped
    over the wire.
    """
    reader, writer = await _connect(
        host, port, connect_retries, connect_retry_delay
    )
    label = f"{socket_module.gethostname()}:{os.getpid()}"
    rows_sent = 0
    obs_token = None
    try:
        await send_message(
            writer,
            {
                "kind": "hello",
                "version": PROTOCOL_VERSION,
                "capabilities": list(CAPABILITIES),
                "worker": label,
            },
        )
        welcome = await recv_message(reader)
        if welcome["kind"] == "reject":
            raise ConnectionError(
                f"host rejected this worker: {welcome.get('message')}"
            )
        if welcome["kind"] != "welcome":
            raise ProtocolError(
                f"expected a welcome, got {welcome['kind']!r}"
            )
        ship_telemetry = bool(welcome.get("telemetry"))
        if ship_telemetry and trace is None:
            trace = obs.Trace("sweep-worker", worker=label)
        if trace is not None:
            obs_token = obs.activate(trace)
        # everything recorded past this cursor has not been shipped yet;
        # the first point after a template ship therefore also carries
        # the template-preparation spans
        cursor = trace.mark() if trace is not None else 0
        templates = LRUTemplates(int(welcome.get("capacity", 4)))
        should_die = None
        if die_after_rows is not None or die_at_index is not None:
            should_die = lambda index, sent: (  # noqa: E731
                die_after_rows is not None and sent >= die_after_rows
            ) or (die_at_index is not None and index == die_at_index)
        logger.info("worker %s ready", label)
        while True:
            message = await recv_message(reader)
            kind = message["kind"]
            if kind == "shutdown":
                break
            if kind != "task":
                raise ProtocolError(f"expected a task, got {kind!r}")
            fingerprint = message["fingerprint"]
            model = templates.get(fingerprint)
            if model is None:
                await send_message(
                    writer,
                    {"kind": "need_template", "fingerprint": fingerprint},
                )
                shipped = await recv_message(reader)
                if (
                    shipped["kind"] != "template"
                    or shipped.get("fingerprint") != fingerprint
                ):
                    raise ProtocolError(
                        f"expected the {fingerprint[:12]} template, got "
                        f"{shipped['kind']!r}"
                    )
                model = shipped["model"]
                with obs.span(
                    "service.worker.template", fingerprint=fingerprint
                ):
                    model.prepare()
                templates.put(fingerprint, model)
            try:
                rows_sent, cursor, died = await stream_partition(
                    writer,
                    model,
                    message["metrics"],
                    message["indices"],
                    message["points"],
                    pointwise=bool(message.get("pointwise")),
                    trace=trace,
                    ship_telemetry=ship_telemetry,
                    cursor=cursor,
                    rows_sent=rows_sent,
                    should_die=should_die,
                    fault_label=f"worker {label}",
                )
            except WorkerConfigError as err:
                # a *configuration* error (bad metric spec, unknown
                # place) would fail on every point and every worker:
                # report the diagnosis so the host fails the sweep or
                # request with it, and stay up for the next task.
                # Worker-local failures (MemoryError, OSError…)
                # deliberately propagate instead: this worker dies and
                # the host requeues the points to roomier survivors.
                await send_message(
                    writer,
                    {
                        "kind": "fatal",
                        "index": err.index,
                        "error_type": type(err.error).__name__,
                        "message": str(err.error),
                    },
                )
                continue
            if died:
                return rows_sent
            await send_message(
                writer, {"kind": "task_done", "task_id": message["task_id"]}
            )
    finally:
        if obs_token is not None:
            obs.deactivate(obs_token)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return rows_sent


def worker_main(
    host: str,
    port: int,
    *,
    die_after_rows: Optional[int] = None,
    die_at_index: Optional[int] = None,
    trace: Optional[obs.Trace] = None,
) -> int:
    """Synchronous entry point: run one worker to completion.

    What the ``repro-experiments worker`` subcommand and
    :func:`launch_workers` execute.  Returns the number of rows solved;
    connection failures propagate as ``ConnectionError``.
    """
    return asyncio.run(
        run_worker(
            host,
            port,
            die_after_rows=die_after_rows,
            die_at_index=die_at_index,
            trace=trace,
        )
    )


def fault_hooks(fault: Mapping[str, Any], i: int) -> Dict[str, int]:
    """The fault-injection hooks armed on worker *i* of a fleet.

    *fault* may hold ``die_after_rows`` / ``die_at_index`` and
    ``die_worker``, the armed worker (default the first; ``-1`` arms
    every worker).
    """
    if (fault.get("die_worker") or 0) not in (i, -1):
        return {}
    return {
        key: fault[key]
        for key in ("die_after_rows", "die_at_index")
        if fault.get(key) is not None
    }


def _worker_process_main(host: str, port: int, hooks: Dict[str, int]) -> None:
    try:
        worker_main(host, port, **hooks)
    except Exception as exc:  # worker processes die quietly; the host requeues
        logger.warning("sweep worker failed: %s", exc)
        raise SystemExit(1)
    if hooks:
        # simulate a crash for fault-injection tests: no cleanup
        os._exit(17)
    raise SystemExit(0)


def launch_workers(
    n: int,
    host: str,
    port: int,
    *,
    fault: Optional[Mapping[str, Any]] = None,
) -> List[multiprocessing.Process]:
    """Fork *n* local worker processes pointed at ``host:port``.

    Uses the ``fork`` start method when the platform has it (workers
    inherit the loaded interpreter — startup is milliseconds, not a full
    reimport) and falls back to ``spawn`` elsewhere.  *fault* arms the
    fault-injection hooks (see :func:`fault_hooks`): the armed worker
    hard-exits mid-work, which is how the fault-tolerance tests and
    benchmarks kill a worker deterministically.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    processes: List[multiprocessing.Process] = []
    for i in range(n):
        process = ctx.Process(
            target=_worker_process_main,
            args=(host, port, fault_hooks(fault or {}, i)),
            name=f"sweep-worker-{i}",
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes
