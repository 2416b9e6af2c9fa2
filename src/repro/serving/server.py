"""Asyncio network front-end over :class:`~repro.api.session.InferenceSession`.

This is the layer that turns the in-process serving stack (the
micro-batcher and its pool-attached ticks) into something external
traffic can hit.  One listening socket speaks two dialects:

- the **binary protocol** of :mod:`repro.serving.protocol` for
  compress / decompress / reconstruct requests (length-prefixed frames,
  per-request deadlines, pipelining per connection);
- plain **HTTP GET** for ``/healthz`` and ``/stats`` — the header magic
  can never collide with an HTTP method, so operators can point a probe
  at the serving port directly.

Production semantics, in one place:

- **Bounded admission.**  At most ``max_inflight`` requests are admitted
  and unanswered at any instant; request ``max_inflight + 1`` is
  *shed* immediately with error code 429 (cheap rejection beats
  unbounded queueing — the client learns in one RTT, the server's
  memory stays bounded).
- **Per-request deadlines.**  A frame's ``deadline_ms`` budget becomes
  an absolute expiry at admission.  Work that expires while queued is
  dropped at tick-drain time — *before* the GEMM — and answered with
  error code 408, so a backlog of dead requests cannot waste FLOPs.
- **Adaptive tick sizing.**  Single-sample reconstruct requests stream
  through :meth:`InferenceSession.submit`; the session's
  :class:`~repro.api.batcher.MicroBatcher` owns the tick schedule (an
  EWMA backlog target, a ``flush_latency`` window and deadline-clipped
  early ticks, all on its own flusher thread), so the front-end never
  fires a tick itself.
- **Graceful drain.**  :meth:`stop` refuses new work (503), serves every
  admitted request, waits out an attached
  :class:`~repro.parallel.pool.WorkerPool` via its drain hook, then
  closes connections — a deploy never drops accepted work.

Batch-shaped requests (a 2-D ``COMPRESS``/``DECOMPRESS``/``RECONSTRUCT``
payload) are already GEMM-sized, so they bypass the micro-batcher and
run as their own tick on the serving executor — the in-process result is
therefore *bit-identical* to ``InferenceSession.compress`` on the same
matrix, which the wire-format property suite asserts.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

import numpy as np

from repro.api.codec import CompressedBatch
from repro.exceptions import (
    DeadlineExpired,
    DimensionError,
    ProtocolError,
    ServingError,
)
from repro.serving import protocol
from repro.serving.protocol import ErrorCode, Frame, FrameType
from repro.serving.stats import LatencyHistogram

__all__ = ["ServingFrontend", "run_frontend"]

#: First four bytes of every HTTP method the stats endpoint answers.
_HTTP_PREFIXES = (b"GET ", b"HEAD", b"POST", b"PUT ", b"DELE", b"OPTI",
                  b"PATC")
_HTTP_HEADER_LIMIT = 16 * 1024


class ServingFrontend:
    """The asyncio serving front-end; one instance per listening socket.

    Parameters
    ----------
    session:
        The compiled :class:`~repro.api.session.InferenceSession` to
        serve.  Its micro-batcher's ``flush_latency`` must be set (it
        bounds how long a single-sample request waits for tick-mates);
        a session built with ``flush_latency=None`` would never serve
        single requests and raises :class:`ServingError`.  The
        session's ``max_batch_size`` caps tick width.
    host, port:
        Bind address; port 0 picks a free port (read :attr:`port` after
        :meth:`start`).
    max_inflight:
        Admission bound — requests admitted but not yet answered.
        Anything beyond is shed with error 429.
    default_deadline_ms:
        Deadline applied to requests that do not carry their own
        (0 disables).
    drain_timeout:
        Seconds :meth:`stop` waits for admitted work (and the attached
        worker pool) before closing connections anyway.
    """

    def __init__(
        self,
        session,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 256,
        default_deadline_ms: int = 0,
        drain_timeout: float = 10.0,
    ) -> None:
        if max_inflight < 1:
            raise ServingError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if session.batcher.flush_latency is None:
            raise ServingError(
                "session has flush_latency=None: single requests would "
                "wait forever for a tick; build it with a flush_latency"
            )
        self.session = session
        self.host = host
        self._requested_port = port
        self.max_inflight = int(max_inflight)
        self.default_deadline_ms = int(default_deadline_ms)
        self.drain_timeout = float(drain_timeout)
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-tick"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self._started_at = time.monotonic()
        self._writers: set = set()
        # -- telemetry (single event loop thread mutates; reads are
        #    snapshots) ---------------------------------------------------
        self._inflight = 0
        self._max_inflight_seen = 0
        self._counters: Dict[str, int] = {
            "accepted": 0,
            "served": 0,
            "shed": 0,
            "expired": 0,
            "bad_request": 0,
            "internal_errors": 0,
            "protocol_errors": 0,
            "responses_dropped": 0,
            "connections_total": 0,
            "connections_active": 0,
            "http_requests": 0,
        }
        self._request_hist = LatencyHistogram()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ServingFrontend":
        """Bind the socket; returns ``self``."""
        if self._server is not None:
            raise ServingError("front-end already started")
        self._loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        return self

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or cancellation)."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Graceful drain: refuse new work, serve admitted work, close.

        Idempotent.  Ordering matters: the listener closes first (no new
        admissions), the batcher keeps ticking until every admitted
        request is answered (or ``drain_timeout`` passes), the attached
        worker pool drains, and only then do connections close.
        """
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.drain_timeout
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        pool = getattr(self.session, "pool", None)
        if pool is not None:
            remaining = max(0.0, deadline - time.monotonic())
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.drain(timeout=remaining)
            )
        self._executor.shutdown(wait=True)
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._counters["connections_total"] += 1
        self._counters["connections_active"] += 1
        self._writers.add(writer)
        lock = asyncio.Lock()
        tasks: set = set()
        try:
            try:
                first = await reader.readexactly(4)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if first in _HTTP_PREFIXES:
                await self._serve_http(first, reader, writer)
                return
            while True:
                try:
                    frame = await protocol.read_frame_async(reader, first)
                    first = b""
                except (ProtocolError, ConnectionError) as exc:
                    if isinstance(exc, ProtocolError):
                        self._counters["protocol_errors"] += 1
                        # The framing is broken — answer once, then close:
                        # there is no way to resynchronise a byte stream
                        # with a corrupt length prefix.
                        await self._write_error(
                            writer, lock, 0, ErrorCode.BAD_REQUEST, str(exc)
                        )
                    return
                if frame is None:
                    return  # clean EOF at a frame boundary
                task = self._dispatch(frame, writer, lock)
                if task is not None:
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
        finally:
            # Responses for requests still in flight on this connection
            # are attempted (the tasks own the writer); once they settle
            # the connection closes for real.
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._writers.discard(writer)
            self._counters["connections_active"] -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    def _dispatch(self, frame: Frame, writer, lock) -> Optional[asyncio.Task]:
        """Admission control + routing for one request frame."""
        if frame.type == FrameType.PING:
            return asyncio.ensure_future(self._write_frame(
                writer, lock, Frame(type=FrameType.PONG, req_id=frame.req_id)
            ))
        if frame.type not in FrameType.REQUESTS:
            self._counters["protocol_errors"] += 1
            return asyncio.ensure_future(self._write_error(
                writer, lock, frame.req_id, ErrorCode.BAD_REQUEST,
                f"unexpected frame type {frame.type}",
            ))
        if self._stopping:
            return asyncio.ensure_future(self._write_error(
                writer, lock, frame.req_id, ErrorCode.CLOSING,
                "server is draining",
            ))
        if self._inflight >= self.max_inflight:
            self._counters["shed"] += 1
            return asyncio.ensure_future(self._write_error(
                writer, lock, frame.req_id, ErrorCode.SHED,
                f"admission queue full ({self.max_inflight} in flight)",
            ))
        self._inflight += 1
        self._max_inflight_seen = max(self._max_inflight_seen,
                                      self._inflight)
        self._counters["accepted"] += 1
        return asyncio.ensure_future(
            self._serve_request(frame, writer, lock)
        )

    def _deadline_of(self, frame: Frame) -> Optional[float]:
        budget_ms = frame.deadline_ms or self.default_deadline_ms
        if budget_ms <= 0:
            return None
        return time.monotonic() + budget_ms / 1000.0

    async def _serve_request(self, frame: Frame, writer, lock) -> None:
        """Serve one admitted request end to end (always answers)."""
        t0 = time.monotonic()
        deadline = self._deadline_of(frame)
        loop = asyncio.get_running_loop()
        try:
            arrays = frame.arrays()
            if frame.type == FrameType.RECONSTRUCT and (
                len(arrays) == 1 and arrays[0].ndim == 1
            ):
                # Single sample: ride the micro-batcher so concurrent
                # clients share GEMM ticks.
                future = self.session.submit(arrays[0], deadline=deadline)
                result = [await asyncio.wrap_future(future)]
            else:
                # Batch-shaped work is already tick-sized: run it as its
                # own job on the one-thread serving executor, off the
                # event loop (micro-batched ticks run on the batcher's
                # flusher thread), so batch GEMMs queue behind each other.
                result = await loop.run_in_executor(
                    self._executor,
                    lambda: self._run_batch_job(frame.type, arrays, deadline),
                )
            payload = protocol.encode_arrays(result)
            self._counters["served"] += 1
            self._request_hist.record(time.monotonic() - t0)
            await self._write_frame(writer, lock, Frame(
                type=FrameType.RESULT, req_id=frame.req_id, payload=payload,
            ))
        except DeadlineExpired as exc:
            self._counters["expired"] += 1
            await self._write_error(writer, lock, frame.req_id,
                                    ErrorCode.DEADLINE, str(exc))
        except (ProtocolError, DimensionError, ServingError) as exc:
            self._counters["bad_request"] += 1
            await self._write_error(writer, lock, frame.req_id,
                                    ErrorCode.BAD_REQUEST, str(exc))
        except Exception as exc:  # noqa: BLE001 - a tick died server-side
            self._counters["internal_errors"] += 1
            await self._write_error(writer, lock, frame.req_id,
                                    ErrorCode.INTERNAL,
                                    f"{type(exc).__name__}: {exc}")
        finally:
            self._inflight -= 1

    def _run_batch_job(
        self, ftype: int, arrays: List[np.ndarray], deadline: Optional[float]
    ) -> List[np.ndarray]:
        """One batch-shaped request = one tick (runs on the executor)."""
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExpired(
                "request deadline passed while queued for execution"
            )
        if ftype == FrameType.COMPRESS:
            (X,) = _expect_arrays(arrays, 1, "COMPRESS")
            payload = self.session.compress(np.atleast_2d(X))
            return [payload.codes, payload.squared_norms]
        if ftype == FrameType.DECOMPRESS:
            codes, norms = _expect_arrays(arrays, 2, "DECOMPRESS")
            batch = CompressedBatch(codes=codes, squared_norms=norms)
            return [self.session.decompress(batch)]
        if ftype == FrameType.RECONSTRUCT:
            (X,) = _expect_arrays(arrays, 1, "RECONSTRUCT")
            return [self.session.reconstruct(np.atleast_2d(X))]
        raise ProtocolError(f"unroutable frame type {ftype}")

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    async def _write_frame(self, writer, lock, frame: Frame) -> None:
        data = protocol.encode_frame(frame)
        try:
            async with lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            # The client went away before its answer did; the server
            # keeps serving everyone else.
            self._counters["responses_dropped"] += 1

    async def _write_error(
        self, writer, lock, req_id: int, code: int, message: str
    ) -> None:
        await self._write_frame(writer, lock, Frame(
            type=FrameType.ERROR,
            req_id=req_id,
            payload=protocol.encode_error(code, message),
        ))

    # ------------------------------------------------------------------
    # stats / healthz
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The `/stats` payload: front-end counters + batcher stats."""
        return {
            "server": {
                **self._counters,
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "max_inflight_observed": self._max_inflight_seen,
                "default_deadline_ms": self.default_deadline_ms,
                "uptime_s": time.monotonic() - self._started_at,
                "draining": self._stopping,
                "dim": self.session.dim,
                "compressed_dim": self.session.compressed_dim,
                "request_latency": self._request_hist.summary(),
            },
            "batcher": self.session.batcher.stats,
        }

    def healthz(self) -> dict:
        return {
            "status": "draining" if self._stopping else "ok",
            "inflight": self._inflight,
            "uptime_s": time.monotonic() - self._started_at,
        }

    async def _serve_http(self, first: bytes, reader, writer) -> None:
        """Minimal HTTP/1.1 for probes: GET /healthz and GET /stats."""
        self._counters["http_requests"] += 1
        try:
            raw = first + await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5.0
            )
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError, ConnectionError):
            return
        if len(raw) > _HTTP_HEADER_LIMIT:
            return
        request_line = raw.split(b"\r\n", 1)[0].decode("latin-1")
        parts = request_line.split()
        path = parts[1] if len(parts) >= 2 else "/"
        if path.startswith("/healthz"):
            status, body = 200, self.healthz()
        elif path.startswith("/stats"):
            status, body = 200, self.stats()
        else:
            status, body = 404, {"error": f"no such endpoint: {path}"}
        text = json.dumps(body, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 404: "Not Found"}[status]
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(text)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + text)
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover
            self._counters["responses_dropped"] += 1

    def __repr__(self) -> str:
        state = "draining" if self._stopping else (
            "listening" if self._server is not None else "idle"
        )
        return (
            f"ServingFrontend({self.host}:{self.port}, "
            f"max_inflight={self.max_inflight}, {state})"
        )


def _expect_arrays(arrays: List[np.ndarray], n: int, kind: str):
    if len(arrays) != n:
        raise ProtocolError(
            f"{kind} expects {n} array(s) in its payload, got {len(arrays)}"
        )
    return arrays


async def run_frontend(
    session,
    duration: Optional[float] = None,
    ready_callback=None,
    **kwargs,
) -> dict:
    """Start a front-end, serve until ``duration``/cancellation, drain.

    The CLI's serving loop: installs SIGINT/SIGTERM handlers when the
    platform supports them, calls ``ready_callback(frontend)`` once
    bound (the smoke tests use it to learn the port), and always runs
    the graceful drain on the way out.  Returns the final stats payload.
    """
    import contextlib
    import signal

    frontend = ServingFrontend(session, **kwargs)
    await frontend.start()
    if ready_callback is not None:
        ready_callback(frontend)
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(sig, stop_event.set)
            installed.append(sig)
    try:
        if duration is not None and duration > 0:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop_event.wait(), timeout=duration)
        else:
            await stop_event.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await frontend.stop()
        stats = frontend.stats()
    return stats
