"""Fault injection: the server must stay serviceable through failures.

Each test drives one production failure mode — a misbehaving client, a
backend tick that dies or stalls, a worker pool torn down under load —
and asserts the same invariant: the front-end answers what it can,
counts what it cannot, and keeps serving everyone else.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.api import Codec
from repro.exceptions import DeadlineExpired
from repro.parallel.pool import WorkerPool
from repro.serving import (
    FaultInjectingSession,
    ServerError,
    ServerHarness,
    ServingClient,
    fetch_json,
)
from repro.serving import protocol
from repro.serving.protocol import ErrorCode, Frame, FrameType
from repro.serving.testing import garbage_frame_bytes, truncated_frame_bytes


def _codec(seed=13):
    return Codec(dim=8, compressed_dim=2, compression_layers=3,
                 reconstruction_layers=3, seed=seed)


def _x(seed=2):
    return np.abs(np.random.default_rng(seed).normal(size=8)) + 0.1


@pytest.fixture()
def served():
    codec = _codec()
    session = codec.session(flush_latency=0.002)
    faulty = FaultInjectingSession(session)
    with ServerHarness(faulty) as harness:
        yield harness, faulty
    session.close()


class TestClientFaults:
    def test_slow_client_does_not_block_others(self, served):
        """A connection dribbling half a frame must not stall anyone."""
        harness, _ = served
        slow = socket.create_connection((harness.host, harness.port),
                                        timeout=10.0)
        try:
            slow.sendall(truncated_frame_bytes(12))  # ...and goes quiet
            with ServingClient(harness.host, harness.port) as client:
                assert client.ping()
                out = client.reconstruct(_x())
                assert out.shape == (8,)
        finally:
            slow.close()
        # the half-frame connection dying is not a protocol violation
        # the server charges anyone for
        with ServingClient(harness.host, harness.port) as client:
            assert client.ping()

    def test_disconnect_mid_request_keeps_serving(self, served):
        """A client that sends a request and vanishes before the answer
        costs the server nothing but a dropped response."""
        harness, faulty = served
        faulty.delay_next(1, 0.2)
        ghost = socket.create_connection((harness.host, harness.port),
                                         timeout=10.0)
        ghost.sendall(protocol.encode_frame(Frame(
            type=FrameType.RECONSTRUCT, req_id=1,
            payload=protocol.encode_arrays([_x()]),
        )))
        time.sleep(0.05)  # admitted; its tick is stalling
        ghost.close()
        with ServingClient(harness.host, harness.port) as client:
            assert client.reconstruct(_x()).shape == (8,)
        stats = fetch_json(harness.host, harness.port, "/stats")
        assert stats["server"]["accepted"] >= 2
        assert stats["server"]["inflight"] == 0

    def test_malformed_frame_answered_once_then_closed(self, served):
        """Garbage bytes get one 400 and a hangup — a byte stream with a
        corrupt length prefix cannot be resynchronised."""
        harness, _ = served
        with socket.create_connection(
            (harness.host, harness.port), timeout=10.0
        ) as sock:
            sock.sendall(garbage_frame_bytes(24))
            stream = sock.makefile("rb")
            reply = protocol.read_frame(stream)
            assert reply.type == FrameType.ERROR
            assert reply.error()[0] == ErrorCode.BAD_REQUEST
            assert stream.read(1) == b""  # server hung up
        stats = fetch_json(harness.host, harness.port, "/stats")
        assert stats["server"]["protocol_errors"] >= 1
        with ServingClient(harness.host, harness.port) as client:
            assert client.ping()

    def test_wrong_direction_frame_rejected(self, served):
        """A client sending a response-type frame gets a 400, not a
        crash."""
        harness, _ = served
        with socket.create_connection(
            (harness.host, harness.port), timeout=10.0
        ) as sock:
            sock.sendall(protocol.encode_frame(Frame(
                type=FrameType.RESULT, req_id=5, payload=b"",
            )))
            reply = protocol.read_frame(sock.makefile("rb"))
        assert reply.type == FrameType.ERROR
        assert reply.error()[0] == ErrorCode.BAD_REQUEST


class TestBackendFaults:
    def test_deadline_expires_mid_queue(self, served):
        """A request whose deadline passes while a slow tick holds the
        executor is dropped before its GEMM and answered with 408."""
        harness, faulty = served
        faulty.delay_next(1, 0.4)

        slow_result = {}

        def occupy():
            with ServingClient(harness.host, harness.port) as client:
                slow_result["out"] = client.reconstruct(_x())

        blocker = threading.Thread(target=occupy)
        blocker.start()
        time.sleep(0.15)  # the no-deadline request's tick is stalling
        with ServingClient(harness.host, harness.port) as client:
            with pytest.raises(DeadlineExpired):
                client.reconstruct(_x(), deadline_ms=50)
        blocker.join(timeout=10.0)
        assert slow_result["out"].shape == (8,)  # slow work still served
        stats = fetch_json(harness.host, harness.port, "/stats")
        assert stats["server"]["expired"] >= 1
        assert stats["batcher"]["expired_requests"] >= 1
        # and the server is none the worse for it
        with ServingClient(harness.host, harness.port) as client:
            assert client.reconstruct(_x()).shape == (8,)

    def test_tick_failure_maps_to_500_and_recovers(self, served):
        """A tick dying server-side (what a torn-down worker pool looks
        like mid-flight) answers 500 and the next request succeeds."""
        harness, faulty = served
        faulty.fail_next(1, RuntimeError("worker pool torn down"))
        with ServingClient(harness.host, harness.port) as client:
            with pytest.raises(ServerError):
                client.reconstruct(_x())
            assert client.reconstruct(_x()).shape == (8,)
        stats = fetch_json(harness.host, harness.port, "/stats")
        assert stats["server"]["internal_errors"] >= 1
        assert stats["server"]["served"] >= 1

    def test_repeated_failures_do_not_leak_inflight(self, served):
        """The admission gauge returns to zero through a failure storm
        (a leak here would eventually shed all traffic forever)."""
        harness, faulty = served
        faulty.fail_next(5, RuntimeError("flaky backend"))
        with ServingClient(harness.host, harness.port) as client:
            for _ in range(5):
                with pytest.raises(ServerError):
                    client.reconstruct(_x())
            assert client.reconstruct(_x()).shape == (8,)
        stats = fetch_json(harness.host, harness.port, "/stats")
        assert stats["server"]["inflight"] == 0
        assert stats["server"]["internal_errors"] == 5


@pytest.mark.slow
class TestWorkerPoolTeardown:
    def test_pool_closed_between_requests_recovers(self):
        """Closing the attached WorkerPool mid-session must not kill the
        server: the pool respawns lazily on the next tick."""
        codec = _codec()
        pool = WorkerPool(processes=2)
        session = codec.session(flush_latency=0.002, pool=pool)
        X = np.abs(np.random.default_rng(3).normal(size=(24, 8))) + 0.1
        try:
            with ServerHarness(session) as harness:
                with ServingClient(harness.host, harness.port) as client:
                    first = client.reconstruct(X)
                    pool.close()  # deploy-cycle teardown under the server
                    second = client.reconstruct(X)
                stats = fetch_json(harness.host, harness.port, "/stats")
            assert np.array_equal(first, second)
            assert stats["server"]["served"] == 2
            assert stats["server"]["internal_errors"] == 0
        finally:
            session.close()
            pool.close()
