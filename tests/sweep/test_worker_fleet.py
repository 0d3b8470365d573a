"""One worker program for both hosts.

The same :func:`~repro.sweep.distributed.worker.worker_main` — what
``repro-experiments worker --connect`` runs — joins a one-shot
:class:`~repro.sweep.distributed.DistributedSweepRunner` and an
always-on :class:`~repro.sweep.service.SweepService`, and the rows it
solves are bit-identical to the serial runner's either way.
"""

import socket
import threading
import time

import numpy as np

from repro.sweep import SweepGrid, SweepRunner, build_mm1k_net
from repro.sweep.distributed import DistributedSweepRunner, worker_main
from tests.sweep.service.fixture import (
    MM1K_METRICS,
    ServiceFixture,
    mm1k_sweep_payload,
)


class _ExternalWorker:
    """``worker_main`` on a thread, as a separate ``worker`` process would
    run it; :attr:`solved` is its row count once the host shut it down."""

    def __init__(self, host: str, port: int) -> None:
        self.solved = None
        self._thread = threading.Thread(
            target=self._main, args=(host, port), daemon=True
        )
        self._thread.start()

    def _main(self, host: str, port: int) -> None:
        self.solved = worker_main(host, port)

    def join(self) -> int:
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "worker never got its shutdown"
        return self.solved


def _wait_connected(svc: ServiceFixture, n: int) -> None:
    deadline = time.monotonic() + 30
    while svc.stats()["workers"]["connected"] < n:
        assert time.monotonic() < deadline, "external worker never joined"
        time.sleep(0.05)


def _assert_rows_match_serial(reply, buffer: int) -> None:
    reference = SweepRunner(build_mm1k_net(K=buffer), MM1K_METRICS).run(
        SweepGrid.from_specs(mm1k_sweep_payload(8)["axes"])
    )
    assert reply["kind"] == "result"
    assert reply["errors"] == []
    for i, name in enumerate(MM1K_METRICS):
        got = np.array([row[i] for row in reply["rows"]])
        assert np.array_equal(got, reference.column(name)), name


class TestOneWorkerBothHosts:
    def test_same_worker_main_serves_coordinator_and_service(self):
        grid = SweepGrid({"arrive": [0.1 * i + 0.1 for i in range(12)]})
        runner = DistributedSweepRunner(
            build_mm1k_net(), MM1K_METRICS, n_shards=0
        )
        worker = _ExternalWorker(*runner.address)
        result = runner.run(grid)
        reference = SweepRunner(build_mm1k_net(), MM1K_METRICS).run(grid)
        for name in MM1K_METRICS:
            assert np.array_equal(result.column(name), reference.column(name))
        assert result.errors == []
        assert worker.join() == 12

        svc = ServiceFixture(telemetry=False, n_workers=1)
        with svc:
            worker = _ExternalWorker(*svc.address)
            _wait_connected(svc, 2)
            assert svc.stats()["workers"]["connected"] == 2
            # the forked worker takes the first request and goes to the
            # back of the idle list; a second model has no affinity yet,
            # so it goes to the external worker
            first = svc.request(mm1k_sweep_payload(8))
            second = svc.request(mm1k_sweep_payload(8, buffer=12))
        _assert_rows_match_serial(first, 10)
        _assert_rows_match_serial(second, 12)
        assert worker.join() > 0


class TestKeepalive:
    def test_adopted_service_worker_socket_has_keepalive(self):
        """A busy worker that vanishes without an RST must still surface
        as a connection error, not a request that hangs forever."""
        with ServiceFixture(telemetry=False, n_workers=1) as svc:
            (adopted,) = svc.service.pool._workers
            sock = adopted.writer.get_extra_info("socket")
            assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE) == 1
