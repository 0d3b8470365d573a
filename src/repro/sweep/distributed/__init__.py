"""Distributed sweep fan-out: shard one grid across workers over TCP.

The paper's experiments are dense parameter sweeps (the Figure 4/5
threshold and delay grids); this package scales them past one machine.
A :class:`~repro.sweep.distributed.runner.DistributedSweepRunner` shards
a :class:`~repro.sweep.grid.SweepGrid` into contiguous, axis-ordered
chunks (so iterative warm starts stay adjacent) queued on a
:class:`~repro.sweep.distributed.coordinator.SweepCoordinator`; a
:class:`~repro.sweep.distributed.pool.WorkerPool` — the same one the
``serve`` daemon uses — hands them to whichever workers connect (forked
local processes, in-process asyncio tasks, or
``repro-experiments worker --connect`` processes on other machines) and
streams the result rows back into a
:class:`~repro.sweep.results.SweepResult` ordered exactly like the
serial runner's (bit-identical under the direct solvers).

The layer is fault-tolerant at three granularities: a point that fails
numerically yields a NaN row plus an error record; a worker that dies
mid-chunk gets its unfinished points requeued to the survivors; an
interrupted sweep resumes from a row-level
:class:`~repro.sweep.distributed.checkpoint.SweepCheckpoint` instead of
restarting.  See ``docs/distributed.md`` for topology, failure
semantics, and the checkpoint format.
"""

from repro.sweep.distributed.checkpoint import (
    CheckpointMismatchError,
    SweepCheckpoint,
    sweep_fingerprint,
)
from repro.sweep.distributed.coordinator import (
    DistributedSweepError,
    SweepCoordinator,
)
from repro.sweep.distributed.pool import WorkerPool
from repro.sweep.distributed.protocol import PROTOCOL_VERSION, ProtocolError
from repro.sweep.distributed.runner import DistributedSweepRunner
from repro.sweep.distributed.worker import (
    launch_workers,
    run_worker,
    worker_main,
)

__all__ = [
    "PROTOCOL_VERSION",
    "CheckpointMismatchError",
    "DistributedSweepError",
    "DistributedSweepRunner",
    "ProtocolError",
    "SweepCheckpoint",
    "SweepCoordinator",
    "WorkerPool",
    "launch_workers",
    "run_worker",
    "sweep_fingerprint",
    "worker_main",
]
