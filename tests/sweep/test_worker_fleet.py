"""One worker program for both hosts.

The same :func:`~repro.sweep.distributed.worker.worker_main` — what
``repro-experiments worker --connect`` runs — joins a one-shot
:class:`~repro.sweep.distributed.DistributedSweepRunner` and an
always-on :class:`~repro.sweep.service.SweepService`, and the rows it
solves are bit-identical to the serial runner's either way.
"""

import math
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


def _serial_columns(n_points: int, buffer: int = 10):
    reference = SweepRunner(build_mm1k_net(K=buffer), MM1K_METRICS).run(
        SweepGrid.from_specs(mm1k_sweep_payload(n_points)["axes"])
    )
    return [reference.column(name) for name in MM1K_METRICS]


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


class TestOneShotRespawn:
    def test_forked_worker_is_replaced(self):
        """The only forked worker dies mid-sweep: the pool forks a
        replacement, as the daemon does, instead of failing the run."""
        grid = SweepGrid({"arrive": [0.1 * i + 0.1 for i in range(12)]})
        result = DistributedSweepRunner(
            build_mm1k_net(), MM1K_METRICS, n_shards=1,
            _fault_injection={"die_after_rows": 3},
        ).run(grid)
        reference = SweepRunner(build_mm1k_net(), MM1K_METRICS).run(grid)
        for name in MM1K_METRICS:
            assert np.array_equal(result.column(name), reference.column(name))
        assert result.errors == []


class TestDaemonScheduling:
    """The daemon drives requests through the same pool and partition
    queue as a one-shot distributed sweep."""

    def test_request_spreads_over_all_workers(self):
        with ServiceFixture(n_workers=2) as svc:
            reply = svc.request(mm1k_sweep_payload(16))
        assert reply["kind"] == "result"
        assert reply["errors"] == []
        for i, want in enumerate(_serial_columns(16)):
            got = np.array([row[i] for row in reply["rows"]])
            assert np.array_equal(got, want)
        labels = {sp.attrs["label"] for sp in svc.spans("dist.chunk")}
        assert len(labels) == 2

    def test_killer_point_is_poisoned_not_the_request(self):
        svc = ServiceFixture(
            telemetry=False,
            n_workers=2,
            max_retries=0,
            worker_fault={"die_worker": -1, "die_at_index": 5},
        )
        with svc:
            reply = svc.request(mm1k_sweep_payload(16))
            again = svc.request(mm1k_sweep_payload(4))
        assert reply["kind"] == "result"
        (error,) = reply["errors"]
        assert error["index"] == 5 and error["stage"] == "worker"
        rows = np.array(reply["rows"])
        assert all(math.isnan(v) for v in rows[5])
        keep = np.arange(16) != 5
        for i, want in enumerate(_serial_columns(16)):
            assert np.array_equal(rows[keep, i], want[keep])
        assert again["kind"] == "result"
        assert again["errors"] == []


class TestNoWorkersDaemon:
    def test_workers_zero_rejects_a_valid_hello(self):
        """A daemon started with ``--workers 0`` never dispatches to
        workers, so it must not adopt one that dials in."""
        refused = []

        def dial(host: str, port: int) -> None:
            try:
                worker_main(host, port)
            except ConnectionError as exc:
                refused.append(str(exc))

        with ServiceFixture(telemetry=False, n_workers=0) as svc:
            thread = threading.Thread(
                target=dial, args=svc.address, daemon=True
            )
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive(), "the daemon adopted the worker"
            (message,) = refused
            assert "host rejected this worker" in message
            assert "--workers 0" in message
            assert svc.stats()["workers"]["connected"] == 0
            reply = svc.request(mm1k_sweep_payload(8))
        _assert_rows_match_serial(reply, 10)
