"""Exactly-once row + telemetry collection.

:class:`RowCollector` is the receiving half of every remote execution
path: the host-side task driver (:func:`~repro.sweep.engine.wire.run_task`,
which the worker pool calls on both hosts) feeds
it the frames a worker streams back, and it enforces the merge
discipline the telemetry layer depends on:

- **rows are first-write-wins** — a requeue race can deliver one index
  twice; the duplicate is dropped (and its spans with it);
- **counter deltas merge unconditionally** — they measure solver work
  actually done, duplicated or not (workers ``drain_counters()``, so
  deltas are never double-counted at the source);
- **spans merge only with their stored row** — a span segment arriving
  ahead of its row (the ``telemetry``-before-``row`` convention) or
  inside a batched ``rows`` frame is stashed per index and merged
  exactly when that row is first stored, keeping the merged trace
  covering every grid point exactly once;
- **completed rows journal to the checkpoint** at the same moment they
  count as completed, so a resume never re-solves a merged row.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.sweep.results import PointFailure

__all__ = ["RowCollector"]

#: progress counters bumped per first-stored row
COUNTER_COMPLETED = "sweep.rows.completed"
COUNTER_FAILED = "sweep.rows.failed"


class RowCollector:
    """Merge worker-streamed rows, spans, and counters exactly once.

    Parameters
    ----------
    n_metrics:
        Row width (used only for sanity — rows are stored as sent).
    trace:
        The run-level trace to merge telemetry into (``None`` disables
        all telemetry handling; rows still merge).
    checkpoint:
        Optional open checkpoint; every first-stored row is journalled.

    Every first-stored row bumps the :data:`COUNTER_COMPLETED` progress
    counter, and a failed one :data:`COUNTER_FAILED` too.
    """

    def __init__(self, n_metrics: int, *, trace=None, checkpoint=None) -> None:
        self.n_metrics = n_metrics
        self.rows: Dict[int, List[float]] = {}
        self.errors: Dict[int, PointFailure] = {}
        self._trace = trace
        self._checkpoint = checkpoint
        self._stashed_spans: Dict[int, List[Dict[str, object]]] = {}

    def preload(
        self,
        rows: Mapping[int, Sequence[float]],
        errors: Mapping[int, PointFailure],
        *,
        count: bool = True,
    ) -> None:
        """Seed already-completed rows (checkpoint resume).

        With ``count=True`` the resumed rows bump the progress counters,
        so a resumed sweep's counters start from the resumed offset.
        """
        for index, values in rows.items():
            self.rows[index] = [float(v) for v in values]
        self.errors.update(errors)
        if count and self._trace is not None and rows:
            self._trace.incr(COUNTER_COMPLETED, len(rows))
            resumed_failed = sum(1 for i in errors if i in rows)
            if resumed_failed:
                self._trace.incr(COUNTER_FAILED, resumed_failed)

    def store(
        self,
        index: int,
        values: Sequence[float],
        error: Optional[PointFailure] = None,
    ) -> bool:
        """Record one completed row; ``False`` on duplicate delivery
        (requeue race — first write wins, telemetry must not merge)."""
        if index in self.rows:
            self._stashed_spans.pop(index, None)
            return False
        self.rows[index] = [float(v) for v in values]
        if error is not None:
            self.errors[index] = error
        if self._trace is not None:
            self._trace.incr(COUNTER_COMPLETED)
            if error is not None:
                self._trace.incr(COUNTER_FAILED)
        if self._checkpoint is not None:
            self._checkpoint.append_row(index, values, error)
        spans = self._stashed_spans.pop(index, None)
        if spans and self._trace is not None:
            self._trace.merge_segment(spans=spans)
        return True

    def apply_frame(self, message: Mapping[str, Any]) -> List[Mapping[str, Any]]:
        """Take in one ``telemetry``, ``row`` or ``rows`` frame.

        Counter deltas merge now (unconditionally — see module doc); span
        segments are stashed per index until that row is first stored.
        Returns the frame's row payloads (``{"index", "values",
        "error"}``) for the caller to :meth:`store`.
        """
        kind = message["kind"]
        if self._trace is not None:
            if message.get("counters"):
                self._trace.merge_segment(counters=message["counters"])
            spans = (
                {message["index"]: message.get("spans")}
                if kind == "telemetry"
                else message.get("spans") or {}
            )
            for index, segment in spans.items():
                if segment:
                    self._stashed_spans[index] = list(segment)
        if kind == "rows":
            return list(message["rows"])
        return [message] if kind == "row" else []

    @property
    def n_completed(self) -> int:
        return len(self.rows)
