"""Both ends of the worker wire (:mod:`repro.sweep.distributed.protocol`).

One worker program serves both hosts, the distributed coordinator and
the service, and this module holds what every worker and host share:

- **worker side** — :func:`stream_partition` solves one task's points:
  reset the warm start at the partition boundary, solve, and stream
  results back with exactly-once telemetry framing.  Two framings exist:

  - **pointwise** (``pointwise=True``, or a backend that is not
    batch-capable): per point one ``telemetry`` message (spans since the
    last cursor + drained counter deltas) *ahead of* one ``row``
    message, so the receiver merges each stored row's spans exactly once
    and a mid-partition death loses at most the point in flight.
  - **batched** (protocol v2): a batch-capable backend solves the
    partition in stacked batches (``solve_batch`` under a
    ``sweep.batch`` span) and ships one ``rows`` frame per batch — all
    the batch's rows, its per-point span segments keyed by index, and
    one counters delta.  Sub-millisecond points stop being
    framing-bound: one frame amortises over the whole batch instead of
    two messages per row.

  Configuration errors (:data:`~repro.sweep.engine.points.CONFIG_ERROR_TYPES`)
  raise :class:`WorkerConfigError` carrying the offending index; the
  worker reports it as a ``fatal`` frame and stays alive for the next
  task.

- **host side** — :func:`welcome_worker` answers a ``hello`` and
  :func:`run_task` drives one ``task`` to its ``task_done``.  The
  coordinator and the service pool keep only their own policies on top
  (chunk queueing, blame and poison; per-request retries and respawn).
"""

from __future__ import annotations

import logging
import socket
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.sweep.backends.base import Metric, SweepBackend
from repro.sweep.engine.points import (
    CONFIG_ERROR_TYPES,
    rows_from_solutions,
    solve_point_row,
)

__all__ = [
    "TaskNotDelivered",
    "WorkerConfigError",
    "WorkerFatal",
    "run_task",
    "stream_partition",
    "welcome_worker",
]

logger = logging.getLogger(__name__)

#: Kernel dead-peer probing for worker sockets: a silent partition (no
#: RST ever arrives) still surfaces as a connection error after about
#: 90 s instead of hanging a task forever (the Linux default idle time
#: before the first probe is 2 h).
_KEEPALIVE = (("TCP_KEEPIDLE", 30), ("TCP_KEEPINTVL", 10), ("TCP_KEEPCNT", 6))


class WorkerConfigError(Exception):
    """A configuration error hit while streaming — carries the index.

    Wraps one of :data:`~repro.sweep.engine.points.CONFIG_ERROR_TYPES`
    (bad metric spec, unknown place/axis): it would fail on every point
    and every worker, so the caller reports a ``fatal`` diagnosis
    instead of letting the whole fleet die one connection at a time.
    """

    def __init__(self, index: int, error: BaseException) -> None:
        super().__init__(str(error))
        self.index = index
        self.error = error


async def stream_partition(
    writer,
    model: SweepBackend,
    metrics: Sequence[Metric],
    indices: Sequence[int],
    points: Sequence[Mapping[str, float]],
    *,
    pointwise: bool = False,
    trace: Optional["obs.Trace"] = None,
    ship_telemetry: bool = False,
    cursor: int = 0,
    rows_sent: int = 0,
    should_die: Optional[Callable[[int, int], bool]] = None,
    fault_label: str = "worker",
) -> Tuple[int, int, bool]:
    """Solve one partition and stream its rows; returns
    ``(rows_sent, cursor, died)``.

    The warm start is reset at entry (the previous partition may be a
    far-away span of the grid — never warm-start across it) and carried
    point-to-point within the partition.  *rows_sent* / *cursor* thread
    the connection-lifetime totals through successive calls.

    *should_die* is the fault-injection hook (``(index, rows_sent) ->
    bool``): when it fires the connection is aborted (RST, no goodbye —
    indistinguishable from a crash on the receiving side) and ``died``
    is ``True``; the caller stops serving.

    Worker-local failures (``MemoryError``, ``OSError``…) deliberately
    propagate: this worker dies and the partition is requeued to
    roomier survivors.
    """
    from repro.sweep.distributed.protocol import send_message

    model.reset_point_state()
    batch = (
        max(1, model.resolve_batch_size(len(points)))
        if getattr(model, "batch_capable", False)
        else 1
    )
    if pointwise or batch <= 1:
        # the pointwise-framing downgrade keeps the stacked solve kernel
        # (one-point batches) when the backend would have batched: the
        # downgrade changes the wire granularity for blame isolation,
        # never the numerics — a requeued point stays bit-identical to
        # the batched frame it replaces
        batch_kernel = batch > 1
        for index, point in zip(indices, points):
            if should_die is not None and should_die(index, rows_sent):
                logger.warning(
                    "%s: injected fault before point %d", fault_label, index
                )
                writer.transport.abort()
                return rows_sent, cursor, True
            try:
                if batch_kernel:
                    ((_, row, failure),) = list(
                        rows_from_solutions(
                            model,
                            metrics,
                            [point],
                            model.solve_batch([point]),
                            indices=[index],
                        )
                    )
                else:
                    row, failure = solve_point_row(
                        model, metrics, point, index
                    )
            except CONFIG_ERROR_TYPES as exc:
                raise WorkerConfigError(index, exc) from exc
            if ship_telemetry and trace is not None:
                # the point's trace segment travels *ahead* of its row:
                # the receiver stashes it and merges it only if the row
                # is actually stored, so a stored row always has its
                # spans and a duplicate delivery (requeue race) never
                # double-counts them
                await send_message(
                    writer,
                    {
                        "kind": "telemetry",
                        "index": index,
                        "spans": trace.slice_spans(cursor),
                        "counters": trace.drain_counters(),
                    },
                )
                cursor = trace.mark()
            await send_message(
                writer,
                {
                    "kind": "row",
                    "index": index,
                    "values": row,
                    "error": failure,
                },
            )
            rows_sent += 1
        return rows_sent, cursor, False

    for base in range(0, len(points), batch):
        sub_indices = list(indices[base : base + batch])
        sub_points = list(points[base : base + batch])
        if should_die is not None and any(
            should_die(i, rows_sent) for i in sub_indices
        ):
            logger.warning(
                "%s: injected fault before point %d",
                fault_label,
                sub_indices[0],
            )
            writer.transport.abort()
            return rows_sent, cursor, True
        with obs.span(
            "sweep.batch", start=sub_indices[0], points=len(sub_points)
        ):
            try:
                solutions = model.solve_batch(sub_points)
            except CONFIG_ERROR_TYPES as exc:
                raise WorkerConfigError(sub_indices[0], exc) from exc
        frame_rows: List[Dict[str, object]] = []
        frame_spans: Dict[int, List[Dict[str, object]]] = {}
        produced = rows_from_solutions(
            model, metrics, sub_points, solutions, indices=sub_indices
        )
        try:
            for index, row, failure in produced:
                frame_rows.append(
                    {"index": index, "values": row, "error": failure}
                )
                if ship_telemetry and trace is not None:
                    # per-point span segments, keyed by index inside the
                    # frame — same exactly-once discipline as the
                    # telemetry-before-row convention, one frame instead
                    # of 2xN messages
                    frame_spans[index] = trace.slice_spans(cursor)
                    cursor = trace.mark()
        except CONFIG_ERROR_TYPES as exc:
            # the generator yields in order, so the next unyielded
            # position is the point whose metrics raised
            raise WorkerConfigError(
                sub_indices[len(frame_rows)], exc
            ) from exc
        frame: Dict[str, object] = {"kind": "rows", "rows": frame_rows}
        if ship_telemetry and trace is not None:
            frame["spans"] = frame_spans
            frame["counters"] = trace.drain_counters()
        await send_message(writer, frame)
        rows_sent += len(frame_rows)
    return rows_sent, cursor, False


# ---------------------------------------------------------------------- #
# host side
# ---------------------------------------------------------------------- #
class WorkerFatal(Exception):
    """The worker reported a configuration error (a ``fatal`` frame).

    It belongs to the work, not the worker: the coordinator aborts the
    sweep with it, the service fails the request with it.
    """


class TaskNotDelivered(ConnectionError):
    """The ``task`` frame never reached the worker (its socket was dead).

    A :class:`ConnectionError` like any other lost worker, but no point
    of the task was in flight, so none may be blamed for the death.
    """


async def welcome_worker(
    writer,
    hello: Mapping[str, Any],
    *,
    role: str,
    capacity: int,
    telemetry: bool,
) -> str:
    """Answer a worker's ``hello``; returns the worker's label.

    A bad hello gets a ``reject`` naming this side's *role*, both
    protocol versions and this side's capabilities, then raises
    :class:`ProtocolError`.  An accepted worker's socket gets TCP
    keepalive, then a ``welcome`` with its template-LRU *capacity* and
    whether to ship *telemetry*.
    """
    from repro.sweep.distributed.protocol import (
        CAPABILITIES,
        PROTOCOL_VERSION,
        ProtocolError,
        send_message,
    )

    if hello.get("kind") != "hello" or hello.get("version") != PROTOCOL_VERSION:
        message = (
            f"protocol version mismatch: {role} {PROTOCOL_VERSION} "
            f"(capabilities: {', '.join(CAPABILITIES)}), worker "
            f"{hello.get('version')}"
            if hello.get("kind") == "hello"
            else f"expected hello, got {hello.get('kind')!r}"
        )
        try:
            await send_message(writer, {"kind": "reject", "message": message})
        except (ConnectionError, OSError):
            pass
        raise ProtocolError(message)
    sock = writer.get_extra_info("socket")
    if sock is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        for option, value in _KEEPALIVE:
            if hasattr(socket, option):
                sock.setsockopt(
                    socket.IPPROTO_TCP, getattr(socket, option), value
                )
    await send_message(
        writer,
        {
            "kind": "welcome",
            "version": PROTOCOL_VERSION,
            "capacity": capacity,
            "telemetry": telemetry,
        },
    )
    return str(hello.get("worker", writer.get_extra_info("peername")))


async def run_task(
    reader,
    writer,
    task: Mapping[str, Any],
    collector,
    *,
    template: Callable[[], SweepBackend],
    on_rows: Optional[Callable[[], Awaitable[None]]] = None,
) -> None:
    """Send one ``task`` to a welcomed worker and drive it to ``task_done``.

    *task* carries ``task_id``, ``fingerprint``, ``metrics``,
    ``indices``, ``points`` and ``pointwise``.  *template* is called on
    ``need_template`` and returns the backend to ship.  Row and
    telemetry frames merge into *collector* (a
    :class:`~repro.sweep.engine.collector.RowCollector`); *on_rows* is
    awaited after each frame that carried rows.

    Raises :class:`TaskNotDelivered` when the task cannot be sent,
    :class:`WorkerFatal` on ``fatal``, :class:`ProtocolError` on a frame
    out of place, and lets transport errors propagate; rows that arrived
    before a failure are already in *collector*.
    """
    from repro.sweep.distributed.protocol import (
        ProtocolError,
        recv_message,
        send_message,
    )

    try:
        await send_message(writer, {"kind": "task", **task})
    except (ConnectionError, OSError) as exc:
        raise TaskNotDelivered(str(exc)) from exc
    expected = set(task["indices"])
    received = set()
    while True:
        message = await recv_message(reader)
        kind = message["kind"]
        if kind == "need_template":
            await send_message(
                writer,
                {
                    "kind": "template",
                    "fingerprint": task["fingerprint"],
                    "model": template(),
                },
            )
        elif kind in ("telemetry", "row", "rows"):
            payloads = collector.apply_frame(message)
            for payload in payloads:
                index = payload["index"]
                if index not in expected:
                    raise ProtocolError(
                        f"row for index {index} outside task "
                        f"{task['task_id']}"
                    )
                received.add(index)
                collector.store(index, payload["values"], payload.get("error"))
            if payloads and on_rows is not None:
                await on_rows()
        elif kind == "fatal":
            raise WorkerFatal(
                f"configuration error on point {message.get('index')}: "
                f"{message.get('error_type')}: {message.get('message')}"
            )
        elif kind == "task_done":
            missing = expected - received
            if missing:
                raise ProtocolError(
                    f"worker finished task {task['task_id']} but never "
                    f"sent rows for {sorted(missing)}"
                )
            return
        else:
            raise ProtocolError(
                f"unexpected message {kind!r} while a task is out"
            )
