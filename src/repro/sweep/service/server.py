"""The always-on sweep service daemon.

:class:`SweepService` binds two listeners on construction (so the
addresses are printable before the loop runs) and serves both wire
formats concurrently:

- the **pickle channel** — the distributed layer's length-prefixed
  framing (:mod:`repro.sweep.distributed.protocol`), one connection
  carrying many ``request``/``result`` cycles, exact floats; workers
  (forked by ``--workers N`` or started with ``worker --connect``) dial
  into the *same* port with a ``hello`` and are handed to the
  :class:`~repro.sweep.service.pool.WorkerPool`;
- the **HTTP/JSON front end** — ``GET /healthz``, ``GET /stats``,
  ``POST /v1/{sweep,steady,lint}`` with the same request payloads as
  JSON bodies, one request per connection.

Request lifecycle: parse (:class:`RequestError` → ``error``/400) →
admission (:class:`ServiceBusyError` → ``busy``/429,
:class:`ServiceDrainingError` → ``busy``/503) → template via the
single-flight :class:`~repro.sweep.service.template_cache.TemplateCache`
→ solve (through the :class:`~repro.sweep.service.batching.MicroBatcher`
in a thread — concurrent same-template requests coalesce into one
stacked solve, see ``--batch-window-ms`` — or fanned to the worker
pool) → reply.
Every request lands one ``service.request`` span (its segment merged
exactly once), one journal line, and a completed/failed counter.

Drain (:meth:`request_drain`, wired to SIGTERM by the CLI): in-flight
requests finish, waiters and new arrivals get ``busy {draining: true}``,
workers are told to shut down and reaped, listeners close, the journal
flushes — then :meth:`serve_until_drained` returns and the process can
exit 0.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.sweep.distributed.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.sweep.engine.wire import welcome_worker
from repro.sweep.nets import DEMO_NETS
from repro.sweep.service.admission import (
    AdmissionController,
    ServiceBusyError,
    ServiceDrainingError,
)
from repro.sweep.service.batching import MicroBatcher, run_traced
from repro.sweep.service.http import (
    HttpError,
    read_request,
    response_bytes,
)
from repro.sweep.service.pool import ServiceWorkerError, WorkerPool
from repro.sweep.service.session import (
    RequestError,
    ServiceRequest,
    build_backend,
    parse_request,
    solve_response,
)
from repro.sweep.service.template_cache import TemplateCache
from repro.verify import lint_net

__all__ = ["SweepService"]

logger = logging.getLogger(__name__)

#: grace between "admission fully drained" and cancelling the idle
#: keep-alive connections — covers the gap where a handler has released
#: its slot but is still writing the reply bytes
_DRAIN_GRACE_S = 0.1


def _bind(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    # listen immediately: the CLI prints the address before the event
    # loop starts serving, and a client racing that gap should queue in
    # the backlog rather than get ECONNREFUSED
    sock.listen(128)
    return sock


class SweepService:
    """One daemon serving sweeps, steady solves, and lint over two wires."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        http_host: Optional[str] = None,
        http_port: int = 0,
        n_workers: int = 0,
        cache_capacity: int = 8,
        max_inflight: Optional[int] = None,
        max_pending: int = 16,
        max_retries: int = 2,
        journal: Optional[str] = None,
        solve_delay: Optional[float] = None,
        batch_window_ms: float = 0.0,
        worker_fault: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._sock = _bind(host, port)
        self._http_sock = _bind(http_host or host, http_port)
        self.host, self.port = self._sock.getsockname()[:2]
        self.http_host, self.http_port = self._http_sock.getsockname()[:2]
        self.n_workers = int(n_workers)
        self.cache_capacity = int(cache_capacity)
        self.max_inflight = int(max_inflight or (n_workers or 4))
        self.max_pending = int(max_pending)
        self.max_retries = int(max_retries)
        self.journal_path = journal
        self.solve_delay = solve_delay
        self.batch_window_ms = float(batch_window_ms)
        self.worker_fault = worker_fault
        self.batcher = MicroBatcher(
            window_s=self.batch_window_ms / 1000.0,
            solve_delay=solve_delay,
        )
        self.started_at = time.time()
        self.completed = 0
        self.failed = 0
        self.cache = TemplateCache(self.cache_capacity)
        self.admission = AdmissionController(self.max_inflight, self.max_pending)
        self.pool = WorkerPool(
            self.host,
            self.port,
            self.n_workers,
            max_retries=self.max_retries,
            fault=worker_fault,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._connections: "set[asyncio.Task]" = set()
        self._drain_task: Optional[asyncio.Task] = None
        self._drained = asyncio.Event()
        self._journal_file: Any = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def http_address(self) -> Tuple[str, int]:
        return self.http_host, self.http_port

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start both listeners and (if configured) the worker pool."""
        self._loop = asyncio.get_running_loop()
        self.started_at = time.time()
        if self.journal_path:
            self._journal_file = open(self.journal_path, "a")
            self._journal({"event": "start", "workers": self.n_workers})
        self._servers = [
            await asyncio.start_server(self._handle_pickle, sock=self._sock),
            await asyncio.start_server(self._handle_http, sock=self._http_sock),
        ]
        await self.pool.start()
        logger.info(
            "sweep service on %s:%d (pickle) and %s:%d (http), %d worker(s)",
            self.host, self.port, self.http_host, self.http_port,
            self.n_workers,
        )

    async def __aenter__(self) -> "SweepService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        self.request_drain()
        await self.serve_until_drained()

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent; callable from sync code on
        the loop thread — signal handlers, ``call_soon_threadsafe``)."""
        if self._loop is None:
            self._drained.set()
            return
        if self._drain_task is None:
            self._drain_task = self._loop.create_task(self._drain())

    async def serve_until_drained(self) -> None:
        """Block until a requested drain has fully completed."""
        await self._drained.wait()

    async def _drain(self) -> None:
        logger.info("drain requested: finishing in-flight work")
        await self.admission.begin_drain()
        await self.admission.wait_drained()
        await self.batcher.drain()
        await asyncio.sleep(_DRAIN_GRACE_S)
        await self.pool.shutdown()
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._journal({"event": "drain", "completed": self.completed,
                       "failed": self.failed})
        if self._journal_file is not None:
            self._journal_file.close()
            self._journal_file = None
        logger.info("drain complete")
        self._drained.set()

    def _journal(self, record: Dict[str, Any]) -> None:
        if self._journal_file is None:
            return
        record = {"ts": round(time.time(), 3), **record}
        self._journal_file.write(json.dumps(record) + "\n")
        self._journal_file.flush()

    # -- request processing ------------------------------------------------

    async def process(self, payload: Any) -> Dict[str, Any]:
        """Execute one request payload; the service's public entry point.

        Returns the ``result`` reply dict.  Raises the typed service
        errors (:class:`RequestError`, :class:`ServiceBusyError`,
        :class:`ServiceDrainingError`, :class:`ServiceWorkerError`) —
        the wire handlers map them to replies/status codes.
        """
        request = parse_request(payload)
        if request.op == "ping":
            return {"kind": "result", "op": "ping", "id": request.id,
                    "ok": True, "draining": self.admission.draining}
        if request.op == "stats":
            return {"kind": "result", "op": "stats", "id": request.id,
                    "stats": self.stats()}
        await self.admission.admit()
        trace = obs.current_trace()
        t0 = trace.now() if trace is not None else 0.0
        status = "ok"
        try:
            if request.op == "lint":
                reply = await self._run_lint(request)
            else:
                reply = await self._run_solve(request)
        except BaseException as exc:
            status = type(exc).__name__
            raise
        finally:
            await self.admission.release()
            if status == "ok":
                self.completed += 1
                obs.incr("service.requests.completed")
            else:
                self.failed += 1
                obs.incr("service.requests.failed")
            if trace is not None:
                trace.add_span(
                    "service.request",
                    t0,
                    trace.now(),
                    op=request.op,
                    fingerprint=request.fingerprint,
                    status=status,
                )
            self._journal({
                "op": request.op,
                "id": request.id,
                "fingerprint": request.fingerprint,
                "status": status,
            })
        return reply

    async def _run_solve(self, request: ServiceRequest) -> Dict[str, Any]:
        assert request.model is not None and request.fingerprint is not None
        spec = request.model
        try:
            entry, hit = await self.cache.get_or_prepare(
                request.fingerprint, lambda: build_backend(spec)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RequestError(f"model rejected: {exc}") from exc
        if self.n_workers > 0:
            rows, errors = await self.pool.run_points(request, entry)
        else:
            # the batcher owns the template lock discipline: concurrent
            # same-fingerprint requests coalesce into one stacked solve
            # (with per-request failure isolation) instead of queueing
            # one full solve each behind entry.lock
            rows, errors = await self.batcher.submit(entry, request)
        return solve_response(request, rows, errors, cache_hit=hit)

    async def _run_lint(self, request: ServiceRequest) -> Dict[str, Any]:
        assert request.lint_net is not None
        factory, _ = DEMO_NETS[request.lint_net]
        level = request.lint_level
        max_markings = request.lint_max_markings

        def run() -> Any:
            kwargs = {} if max_markings is None else {"max_markings": max_markings}
            return lint_net(factory(), level=level, **kwargs)

        report, segment = await asyncio.to_thread(run_traced, run, "service-lint")
        trace = obs.current_trace()
        if trace is not None and segment is not None:
            trace.merge_segment(**segment)
        return {
            "kind": "result",
            "op": "lint",
            "id": request.id,
            "net": request.lint_net,
            "level": level,
            "ok": report.ok,
            "facts": list(report.facts),
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": d.severity.name.lower(),
                    "subject": d.subject,
                    "message": d.message,
                    "fix_hint": d.fix_hint,
                }
                for d in report.sorted()
            ],
        }

    async def _process_message(self, payload: Any) -> Dict[str, Any]:
        """Run one request, mapping typed errors to reply messages."""
        request_id = payload.get("id") if isinstance(payload, dict) else None
        try:
            return await self.process(payload)
        except RequestError as exc:
            return {"kind": "error", "code": "bad-request",
                    "message": str(exc), "id": request_id}
        except ServiceDrainingError as exc:
            return {"kind": "busy", "draining": True,
                    "message": str(exc), "id": request_id}
        except ServiceBusyError as exc:
            return {"kind": "busy", "draining": False,
                    "message": str(exc), "id": request_id}
        except ServiceWorkerError as exc:
            return {"kind": "error", "code": "worker",
                    "message": str(exc), "id": request_id}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            logger.exception("internal error serving a request")
            return {"kind": "error", "code": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                    "id": request_id}

    # -- pickle channel ----------------------------------------------------

    async def _handle_pickle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        adopted = False
        try:
            message = await recv_message(reader)
            if message.get("kind") == "hello":
                adopted = await self._maybe_adopt(reader, writer, message)
                if adopted:
                    self._connections.discard(task)
                return
            while True:
                if message.get("kind") != "request":
                    await send_message(writer, {
                        "kind": "error", "code": "bad-request",
                        "message": f"expected a request, got "
                                   f"{message.get('kind')!r}",
                    })
                    return
                if message.get("version") != PROTOCOL_VERSION:
                    await send_message(writer, {
                        "kind": "error", "code": "bad-request",
                        "message": f"protocol version "
                                   f"{message.get('version')!r} != "
                                   f"{PROTOCOL_VERSION}",
                    })
                    return
                reply = await self._process_message(message)
                await send_message(writer, reply)
                message = await recv_message(reader)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # peer went away — their prerogative, any time
        except ProtocolError as exc:
            obs.incr("service.protocol.rejected")
            try:
                await send_message(writer, {
                    "kind": "error", "code": "bad-request",
                    "message": str(exc),
                })
            except (ConnectionError, OSError):
                pass
        except asyncio.CancelledError:
            pass  # drain is cancelling idle keep-alive connections
        finally:
            self._connections.discard(task)
            if not adopted:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _maybe_adopt(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: Dict[str, Any],
    ) -> bool:
        """Handle a ``hello``: welcome the worker into the pool, or reject
        it (the shared handshake names both protocol versions)."""
        try:
            label = await welcome_worker(
                writer,
                hello,
                role="service",
                capacity=self.pool.capacity,
                telemetry=obs.enabled(),
            )
        except ProtocolError:
            return False
        await self.pool.adopt(reader, writer, label)
        return True

    # -- HTTP channel ------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            try:
                parsed = await read_request(reader)
                if parsed is None:
                    return
                method, path, _headers, body = parsed
                status, payload = await self._route_http(method, path, body)
            except HttpError as exc:
                obs.incr("service.protocol.rejected")
                writer.write(response_bytes(
                    exc.status, {"error": exc.message}, allow=exc.allow
                ))
            else:
                writer.write(response_bytes(status, payload))
            await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route_http(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, f"{method} not allowed", allow=("GET",))
            return 200, {"ok": True, "draining": self.admission.draining}
        if path == "/stats":
            if method != "GET":
                raise HttpError(405, f"{method} not allowed", allow=("GET",))
            return 200, {"stats": self.stats()}
        if path in ("/v1/sweep", "/v1/steady", "/v1/lint"):
            if method != "POST":
                raise HttpError(405, f"{method} not allowed", allow=("POST",))
            op = path.rsplit("/", 1)[-1]
            try:
                payload = json.loads(body.decode() or "{}")
            except (ValueError, UnicodeDecodeError) as exc:
                raise HttpError(400, f"invalid JSON body: {exc}") from exc
            if not isinstance(payload, dict):
                raise HttpError(400, "request body must be a JSON object")
            if payload.setdefault("op", op) != op:
                raise HttpError(
                    400, f"op {payload['op']!r} does not match route {path}"
                )
            try:
                return 200, await self.process(payload)
            except RequestError as exc:
                raise HttpError(400, str(exc)) from exc
            except ServiceDrainingError as exc:
                raise HttpError(503, str(exc)) from exc
            except ServiceBusyError as exc:
                raise HttpError(429, str(exc)) from exc
            except ServiceWorkerError as exc:
                raise HttpError(500, str(exc)) from exc
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                logger.exception("internal error serving an HTTP request")
                raise HttpError(
                    500, f"{type(exc).__name__}: {exc}"
                ) from exc
        raise HttpError(404, f"no route {method} {path}")

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "draining": self.admission.draining,
            "inflight": self.admission.inflight,
            "waiting": self.admission.waiting,
            "open_connections": len(self._connections),
            "requests": {"completed": self.completed, "failed": self.failed},
            "cache": self.cache.stats(),
            "batching": self.batcher.stats(),
            "workers": self.pool.stats(),
        }
