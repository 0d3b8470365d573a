"""Protocol fuzz & negative tests: garbage in, clean rejects out.

Every case feeds the daemon malformed input — truncated frames, absurd
length prefixes, non-pickle bytes, bad HTTP — and asserts the *same two
things*: the offending connection gets a clean reject (an ``error``
reply or a 4xx) or a clean close, and the daemon still serves a
well-formed request afterwards.  No tracebacks, no dead event loop.

One daemon instance serves the whole module (class-scoped fixtures):
surviving the previous case *is* part of the next case's setup.
"""

import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sweep.distributed.protocol import MAX_FRAME_BYTES
from tests.sweep.service.fixture import (
    ServiceFixture,
    exchange_on,
    mm1k_sweep_payload,
    recv_frame,
    send_frame,
)


@pytest.fixture(scope="module")
def svc():
    with ServiceFixture(telemetry=False) as fixture:
        yield fixture


def assert_connection_closed(sock: socket.socket) -> None:
    """The peer must close; give it a moment, then expect EOF."""
    sock.settimeout(10)
    try:
        data = sock.recv(1 << 16)
    except (ConnectionError, socket.timeout):
        return
    assert data == b"", f"expected EOF, got {len(data)} byte(s)"


def assert_still_serving(svc: ServiceFixture) -> None:
    assert svc.request({"op": "ping"})["ok"] is True


class TestPickleChannelFuzz:
    def test_truncated_frame(self, svc):
        with svc.open_socket() as sock:
            sock.sendall(struct.pack(">Q", 4096) + b"y" * 100)
            sock.shutdown(socket.SHUT_WR)
            assert_connection_closed(sock)
        assert_still_serving(svc)

    def test_oversized_length_prefix(self, svc):
        with svc.open_socket() as sock:
            sock.sendall(struct.pack(">Q", MAX_FRAME_BYTES + 1))
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert reply["code"] == "bad-request"
            assert_connection_closed(sock)
        assert_still_serving(svc)

    def test_ludicrous_length_prefix(self, svc):
        with svc.open_socket() as sock:
            sock.sendall(struct.pack(">Q", 1 << 40))
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
        assert_still_serving(svc)

    def test_non_pickle_payload(self, svc):
        junk = b"GET / HTTP/1.1\r\n\r\n"  # speaking HTTP at the pickle port
        with svc.open_socket() as sock:
            sock.sendall(struct.pack(">Q", len(junk)) + junk)
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert reply["code"] == "bad-request"
        assert_still_serving(svc)

    def test_pickled_non_dict(self, svc):
        import pickle

        payload = pickle.dumps([1, 2, 3])
        with svc.open_socket() as sock:
            sock.sendall(struct.pack(">Q", len(payload)) + payload)
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
        assert_still_serving(svc)

    def test_well_formed_frame_wrong_kind(self, svc):
        with svc.open_socket() as sock:
            send_frame(sock, {"kind": "chunk", "indices": [0]})
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert "expected a request" in reply["message"]
        assert_still_serving(svc)

    def test_one_shot_worker_hello_rejected(self, svc):
        """A worker built for another protocol version (e.g. a stale
        one-shot worker) gets a reject naming both versions, and the
        daemon keeps serving."""
        from repro.sweep.distributed.protocol import PROTOCOL_VERSION

        stale = PROTOCOL_VERSION - 1
        with svc.open_socket() as sock:
            send_frame(sock, {
                "kind": "hello", "version": stale, "worker": "host:1",
            })
            reply = recv_frame(sock)
            assert reply["kind"] == "reject"
            assert f"service {PROTOCOL_VERSION}" in reply["message"]
            assert f"worker {stale}" in reply["message"]
            assert_connection_closed(sock)
        assert svc.service.pool.stats()["connected"] == 0
        assert_still_serving(svc)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(junk=st.binary(min_size=1, max_size=256))
    def test_random_bytes_never_kill_the_daemon(self, svc, junk):
        with svc.open_socket() as sock:
            sock.sendall(junk)
            sock.shutdown(socket.SHUT_WR)
            # whatever happens — error reply, EOF — the socket must end
            sock.settimeout(10)
            try:
                while sock.recv(1 << 16):
                    pass
            except (ConnectionError, socket.timeout):
                pass
        assert_still_serving(svc)


class TestHttpFuzz:
    def test_unknown_route_404(self, svc):
        status, body = svc.http("GET", "/v1/teleport")
        assert status == 404
        assert "error" in body

    def test_wrong_verb_405_with_allow(self, svc):
        import http.client

        host, port = svc.http_address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/v1/sweep")
            resp = conn.getresponse()
            assert resp.status == 405
            assert resp.getheader("Allow") == "POST"
            resp.read()
        finally:
            conn.close()
        status, _ = svc.http("POST", "/healthz", {})
        assert status == 405

    def test_invalid_json_body_400(self, svc):
        import http.client

        host, port = svc.http_address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/v1/sweep", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
            resp.read()
        finally:
            conn.close()
        assert_still_serving(svc)

    def test_oversized_body_413(self, svc):
        host, port = svc.http_address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/sweep HTTP/1.1\r\n"
                b"Content-Length: 99999999\r\n\r\n"
            )
            data = sock.recv(1 << 16)
        assert b"413" in data.split(b"\r\n", 1)[0]
        assert_still_serving(svc)

    def test_garbage_request_line_400(self, svc):
        host, port = svc.http_address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"\x00\x01\x02 garbage\r\n\r\n")
            data = sock.recv(1 << 16)
        assert b"400" in data.split(b"\r\n", 1)[0]
        assert_still_serving(svc)

    def test_chunked_encoding_unsupported_400(self, svc):
        host, port = svc.http_address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/sweep HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            data = sock.recv(1 << 16)
        assert b"400" in data.split(b"\r\n", 1)[0]

    def test_bad_op_in_body_mismatch_400(self, svc):
        status, body = svc.http("POST", "/v1/sweep", {"op": "steady"})
        assert status == 400
        assert "does not match route" in body["error"]

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(junk=st.binary(min_size=1, max_size=200))
    def test_random_bytes_at_http_port(self, svc, junk):
        host, port = svc.http_address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(junk)
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(10)
            try:
                while sock.recv(1 << 16):
                    pass
            except (ConnectionError, socket.timeout):
                pass
        assert_still_serving(svc)


class TestDaemonSurvivedItAll:
    def test_full_request_still_works_after_the_gauntlet(self, svc):
        reply = svc.request(mm1k_sweep_payload(3))
        assert reply["kind"] == "result"
        assert len(reply["rows"]) == 3
        with svc.open_socket() as sock:
            assert exchange_on(sock, {"op": "ping"})["ok"] is True
