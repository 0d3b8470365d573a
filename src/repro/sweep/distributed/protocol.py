"""Length-prefixed pickle framing for the host/worker TCP channel.

Every message is one Python object (a ``dict`` with a ``"kind"`` key)
serialised with pickle and framed as an 8-byte big-endian length prefix
followed by the payload.  Pickle is what lets a host ship the *sweep
backend template itself* — a prepared
:class:`~repro.sweep.backends.base.SweepBackend` — to a worker in one
message, exactly as the in-machine process pool does through its
initializer.

Worker dialect
--------------

One worker program (:mod:`repro.sweep.distributed.worker`) serves both
hosts, a sweep coordinator and the service; both drive it through the
shared task driver in :mod:`repro.sweep.engine.wire`::

======================  =========  ==========================================
kind                    direction  payload
======================  =========  ==========================================
``hello``               w -> h     ``version``, ``capabilities``, ``worker``
                                   (host:pid label)
``reject``              h -> w     ``message`` — handshake refused (names
                                   both versions and the host's
                                   capabilities)
``welcome``             h -> w     ``version``, ``capacity`` (worker-side
                                   template-LRU size), ``telemetry`` (bool:
                                   ship trace segments back)
``task``                h -> w     ``task_id``, ``fingerprint``,
                                   ``metrics``, ``indices``, ``points`` —
                                   one *contiguous, axis-ordered* span;
                                   ``pointwise`` (bool) forces per-point
                                   framing on a batch-capable backend
``need_template``       w -> h     ``fingerprint`` not in the worker's LRU
``template``            h -> w     ``fingerprint``, ``model`` (the backend)
``telemetry``           w -> h     ``index``, ``spans``, ``counters`` — the
                                   segment recorded while solving that
                                   point, sent *before* its ``row`` (so a
                                   stored row always has its spans and a
                                   requeued one never double-counts them)
``row``                 w -> h     ``index``, ``values``, optional ``error``
                                   (a ``PointFailure``) — streamed per point
``rows``                w -> h     *(v2)* ``rows`` (per-row ``{index,
                                   values, error}`` payloads), ``spans``
                                   keyed by index, ``counters`` — one frame
                                   per stacked ``solve_batch``
``fatal``               w -> h     ``index``, ``error_type``, ``message`` —
                                   a configuration error; fails the sweep
                                   or request, the worker stays up
``task_done``           w -> h     ``task_id``
``shutdown``            h -> w     —
======================  =========  ==========================================

The one-shot dialect's chunk frames are retired: a coordinator chunk
travels as a ``task``.

Client dialect
--------------

The service speaks the same framing on the same port to clients (one
connection may carry many request/reply cycles)::

======================  =========  ==========================================
kind                    direction  payload
======================  =========  ==========================================
``request``             cl -> s    ``version``, ``op`` (``sweep``/
                                   ``steady``/``lint``/``ping``/``stats``),
                                   ``model`` spec, ``axes``, ``metrics``,
                                   optional ``id``
``result``              s -> cl    the op's reply (rows, errors, stats…)
``busy``                s -> cl    queue full (or ``draining: true``) —
                                   backpressure, not failure; retry later
``error``               s -> cl    ``message``, ``code``
                                   (``bad-request``/``worker``/``internal``)
======================  =========  ==========================================

Row framing comes in two granularities.  On a backend without batch
support, rows stream back *per point*: when a worker dies mid-chunk the
coordinator knows exactly which points of that chunk finished and
requeues only the unfinished suffix, blaming the in-flight point alone.
On a batch-capable backend (protocol v2), a worker solves each stacked
batch as one block-diagonal system and ships one ``rows`` frame per
batch — sub-millisecond points stop paying two protocol messages each.
Worker death then loses at most one batch: the coordinator requeues the
whole unfinished remainder *without blaming anyone* and downgrades the
retry to pointwise framing (``task.pointwise``), so a genuinely
poisonous point is isolated and blamed by the per-point machinery on
the next attempt.  Both framings carry the same exactly-once telemetry:
span segments are keyed to their row (stashed until the row is stored),
so the merged run-level trace covers each stored row's solve exactly
once however many times the point was attempted.

.. warning::
   Pickle executes arbitrary code on load, so the channel is only as
   trustworthy as its peers.  The coordinator and the service bind
   ``127.0.0.1`` by default; bind non-loopback addresses only on
   networks where every host is trusted (see ``docs/distributed.md``).
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Any, Dict

__all__ = [
    "CAPABILITIES",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "PEER_LOST",
    "ProtocolError",
    "recv_message",
    "send_message",
]

#: Bumped on incompatible wire changes; a host refuses mismatched
#: workers (with a ``reject`` message naming the versions).
#: v2 added the batched ``rows`` frame and the ``pointwise`` task flag.
PROTOCOL_VERSION = 2

#: Feature names this build speaks, advertised in ``hello`` and named
#: in a ``reject``.  Capabilities travel *with* the version so a
#: rejected peer's operator sees what the other side wanted (e.g. an old
#: v1 ``worker --connect`` pointed at a batch-framing coordinator gets a
#: ``reject`` naming both versions and the missing ``rows`` capability,
#: not a mid-sweep frame error).
CAPABILITIES = ("rows",)

#: Upper bound on one frame (a template for a very large state space is
#: tens of MB; a corrupted length prefix would otherwise ask for petabytes).
MAX_FRAME_BYTES = 1 << 31

_LEN = struct.Struct(">Q")


class ProtocolError(RuntimeError):
    """A peer sent a malformed or unexpected message."""


#: What one side sees when its peer is gone or talks out of turn: EOF
#: mid-frame, a reset or refused socket, or a frame out of place.  Hosts
#: treat all of them as a lost worker (requeue, respawn).
PEER_LOST = (asyncio.IncompleteReadError, ConnectionError, OSError, ProtocolError)


async def send_message(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
    """Frame and send one message, draining the transport."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    writer.write(_LEN.pack(len(payload)) + payload)
    await writer.drain()


async def recv_message(reader: asyncio.StreamReader) -> Dict[str, Any]:
    """Receive one framed message.

    Raises
    ------
    asyncio.IncompleteReadError
        If the peer closed the connection (cleanly or not) mid-frame —
        the coordinator treats this as worker death.
    ProtocolError
        If the frame is oversized or does not decode to a ``dict`` with a
        ``"kind"`` key.
    """
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            "limit (corrupt stream?)"
        )
    payload = await reader.readexactly(length)
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "kind" not in message:
        raise ProtocolError(
            f"expected a message dict with a 'kind', got {type(message).__name__}"
        )
    return message
