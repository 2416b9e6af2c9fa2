"""Load generator for the serving front end: open-loop and closed-loop phases.

One process, one thread, at most ``nproc`` connections.

- **Open loop** (:meth:`LoadGenerator.open_loop`): requests go out on a
  schedule fixed before the phase starts (seeded Poisson arrivals), so a
  slow server receives the same load as a fast one and its queue can
  grow.  Each request is timed from when it was *due*, not from when it
  was actually written: a stall of the generator or of the server is
  charged to every request scheduled during it.  How late the generator
  itself ran is reported as its lag.
- **Closed loop** (:meth:`LoadGenerator.closed_loop`): a fixed number of
  requests is kept in flight and the next one is sent as soon as one is
  answered, so the server is saturated without a growing queue.

Frames are built from the serving protocol's public header struct and
array codec; request payloads are encoded once, before timing starts.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from perfbench.stats import due_latencies


@dataclass
class Schedule:
    """When each request of a phase is due and what it carries."""

    due: np.ndarray  #: seconds after phase start, non-decreasing
    kinds: np.ndarray  #: index into the payload families
    items: np.ndarray  #: index into the family's payload list

    @classmethod
    def poisson(cls, rate: float, seconds: float, batch_every: int,
                rng: np.random.Generator, items: Sequence[int]
                ) -> "Schedule":
        """Seeded Poisson arrivals at ``rate`` for ``seconds``; one
        request in ``batch_every`` is of kind 1 (a batch)."""
        n = max(1, int(round(rate * seconds)))
        due = np.cumsum(rng.exponential(1.0 / rate, size=n))
        kinds = (rng.random(n) < 1.0 / batch_every).astype(np.int64)
        picks = np.array([rng.integers(0, items[k]) for k in kinds],
                         dtype=np.int64)
        return cls(due=due, kinds=kinds, items=picks)


@dataclass
class PhaseResult:
    name: str
    rate: float  #: offered rate (open loop) or requests in flight (closed)
    seconds: float
    due: np.ndarray
    kinds: np.ndarray
    sent: List[Optional[float]]
    done: List[Optional[float]]
    errors: Dict[int, int] = field(default_factory=dict)
    timed_out: int = 0
    samples: Dict[int, bytes] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def succeeded(self) -> int:
        return sum(1 for t in self.done if t is not None)

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    def latencies(self, kind: Optional[int] = None) -> List[float]:
        """Due-time latencies in seconds (``inf`` for failures)."""
        lat = due_latencies(list(self.due), self.done)
        if kind is None:
            return lat
        return [x for x, k in zip(lat, self.kinds) if k == kind]

    def lags(self) -> List[float]:
        return [s - d for s, d in zip(self.sent, self.due) if s is not None]

    def achieved_rate(self) -> float:
        """Succeeded requests per second of the phase."""
        span = float(self.due[-1]) if len(self.due) else 0.0
        return self.succeeded / span if span > 0 else 0.0


class LoadGenerator:
    """Drives a set of connected sockets through load phases."""

    def __init__(self, host: str, port: int, connections: int,
                 payloads: Sequence[Sequence[bytes]],
                 frame_types: Sequence[int], deadline_ms: int) -> None:
        from repro.serving import protocol

        self._protocol = protocol
        self.payloads = payloads
        self.frame_types = frame_types
        self.deadline_ms = int(deadline_ms)
        self.socks = []
        for _ in range(connections):
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.socks.append(sock)
        self._next_id = 1
        # Byte streams outlive a phase: a late answer or a frame split
        # across reads must not desynchronise the next phase.
        self._outbox = [bytearray() for _ in self.socks]
        self._inbox = [bytearray() for _ in self.socks]

    def close(self) -> None:
        for sock in self.socks:
            sock.close()
        self.socks = []

    def __enter__(self) -> "LoadGenerator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def open_loop(self, name: str, rate: float, seconds: float,
                  schedule: Schedule, grace: float, sample_every: int = 0
                  ) -> PhaseResult:
        """Send ``schedule`` on time; wait up to ``grace`` seconds after
        the last due time for answers.  Unanswered requests count as
        failed.  ``sample_every`` > 0 keeps every such request's response
        payload for verification."""
        return self._drive(name, rate, seconds, schedule, grace,
                           sample_every, window=None)

    def closed_loop(self, name: str, window: int, seconds: float,
                    schedule: Schedule, grace: float, sample_every: int = 0
                    ) -> PhaseResult:
        """Keep ``window`` requests in flight for ``seconds``, taking
        payloads from ``schedule`` in order (its due times are ignored;
        each request is due when it is sent)."""
        zero = Schedule(due=np.zeros(len(schedule.due)),
                        kinds=schedule.kinds, items=schedule.items)
        return self._drive(name, float(window), seconds, zero, grace,
                           sample_every, window=window)

    def _drive(self, name, rate, seconds, schedule, grace, sample_every,
               window: Optional[int]) -> PhaseResult:
        header = self._protocol.HEADER
        magic, version = self._protocol.MAGIC, self._protocol.VERSION
        result_type = self._protocol.FrameType.RESULT
        error_type = self._protocol.FrameType.ERROR
        decode_error = self._protocol.decode_error
        hsize = header.size

        n = len(schedule.due)
        due = schedule.due.tolist()
        base = self._next_id
        self._next_id += n
        sent: List[Optional[float]] = [None] * n
        done: List[Optional[float]] = [None] * n
        errors: Dict[int, int] = {}
        samples: Dict[int, bytes] = {}
        frames = [
            header.pack(magic, version, self.frame_types[k], base + i,
                        self.deadline_ms, len(self.payloads[k][j]))
            + self.payloads[k][j]
            for i, (k, j) in enumerate(zip(schedule.kinds, schedule.items))
        ]
        socks = self.socks
        nconn = len(socks)
        outbox, inbox = self._outbox, self._inbox
        sel = selectors.DefaultSelector()
        for c, sock in enumerate(socks):
            sel.register(sock, selectors.EVENT_READ, c)
        cap = (1 << 62) if window is None else window
        last_due = due[-1] if window is None else seconds
        outstanding = 0
        i = 0
        clock = time.perf_counter
        t0 = clock() + 0.01
        try:
            while True:
                now = clock() - t0
                if window is not None and now >= seconds:
                    n = i  # closed loop: the phase is over, send no more
                while i < n and due[i] <= now and outstanding < cap:
                    if window is not None:
                        due[i] = now
                    outbox[i % nconn] += frames[i]
                    sent[i] = now
                    i += 1
                    outstanding += 1
                for c in range(nconn):
                    if outbox[c]:
                        try:
                            k = socks[c].send(outbox[c])
                        except BlockingIOError:
                            continue
                        del outbox[c][:k]
                if i >= n and (outstanding == 0 or now > last_due + grace):
                    break
                if window is not None or i >= n:
                    wait = 0.005
                else:
                    wait = max(due[i] - (clock() - t0), 0.0)
                for key, _ in sel.select(wait):
                    c = key.data
                    try:
                        chunk = socks[c].recv(1 << 20)
                    except BlockingIOError:
                        continue
                    if not chunk:
                        raise ConnectionError("server closed a connection")
                    buf = inbox[c]
                    buf += chunk
                    at = clock() - t0
                    pos = 0
                    while len(buf) - pos >= hsize:
                        _, _, ftype, rid, _, length = header.unpack_from(
                            buf, pos)
                        end = pos + hsize + length
                        if len(buf) < end:
                            break
                        idx = rid - base
                        if 0 <= idx < i and done[idx] is None:
                            outstanding -= 1
                            if ftype == result_type:
                                done[idx] = at
                                if sample_every and idx % sample_every == 0:
                                    samples[idx] = bytes(buf[pos + hsize:end])
                            elif ftype == error_type:
                                code, _ = decode_error(
                                    bytes(buf[pos + hsize:end]))
                                errors[code] = errors.get(code, 0) + 1
                        pos = end
                    del buf[:pos]
        finally:
            sel.close()
        # Answers arriving after this carry ids outside the next phase's
        # range and are dropped there.
        return PhaseResult(
            name=name, rate=rate, seconds=seconds,
            due=np.asarray(due[:n]), kinds=schedule.kinds[:n],
            sent=sent[:n], done=done[:n], errors=errors,
            timed_out=outstanding, samples=samples,
        )
