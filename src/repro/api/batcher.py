""":class:`MicroBatcher` — accumulate single requests into GEMM-sized ticks.

Individual inference requests (one image each) are worth almost nothing
to a BLAS-backed pipeline — the win comes from batching them into one
``(N, M)`` tick and serving the tick with a single matrix product.  The
batcher owns the whole tick schedule:

- a tick flushes as soon as ``max_batch_size`` requests are pending
  (*size trigger*, served inline on the submitting thread — no idle wait
  under load);
- with ``flush_latency`` set, one daemon *flusher thread* (started by the
  first :meth:`submit`, stopped by :meth:`close`) fires adaptive ticks.
  It keeps an EWMA tick target — ``0.5 * target + 0.5 * backlog`` per
  tick, starting at 1 and clipped to ``max_batch_size`` — and fires as
  soon as the backlog reaches it.  Below the target it waits up to
  ``flush_latency`` for tick-mates, but never past the earliest queued
  deadline (less a wake-up margin).  Bursts grow the target toward wide, GEMM-efficient
  ticks; trickle traffic decays it to 1, so a lone request is served at
  once;
- the caller may also :meth:`flush` / :meth:`close` explicitly.

Each :meth:`submit` returns a :class:`concurrent.futures.Future`
resolving to that request's reconstructed ``(N,)`` vector, so callers
from any threading model can await results.  Ticks wider than the
session's ``chunk_size`` are transparently streamed in column chunks
(:func:`repro.parallel.batch.chunked_apply`) — an oversized burst costs
memory-bounded GEMMs, never an error.

Requests may carry a **deadline** (an absolute ``time.monotonic()``
instant).  Expired requests are dropped at *drain* time — before the
GEMM, so dead work never widens a tick — and their futures fail with
:class:`~repro.exceptions.DeadlineExpired`.  :attr:`stats` exposes the
full `/healthz` surface: queue depth, served/rejected/expired counters
(all monotone non-decreasing) and a per-flush latency histogram.
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import Future
from typing import List, Optional, Tuple

import numpy as np

from repro.encoding.amplitude import _ZERO_NORM_ATOL
from repro.exceptions import DeadlineExpired, ServingError
from repro.serving.stats import LatencyHistogram

__all__ = ["MicroBatcher"]

#: (sample, future, absolute monotonic deadline or None)
_Entry = Tuple[np.ndarray, Future, Optional[float]]

#: Seconds before the earliest queued deadline that a clipped tick fires,
#: to cover the flusher's wake-up, its wait for the interpreter lock (up
#: to the 5 ms switch interval) and the drain.  On 2 busy CPUs a 1 ms
#: margin let 2 of 400 clipped requests expire at drain; 5 ms let none.
_DEADLINE_MARGIN = 5e-3

#: How often an idle flusher thread checks whether its batcher was
#: garbage-collected without :meth:`MicroBatcher.close`.
_IDLE_POLL = 1.0


class MicroBatcher:
    """Request accumulator in front of an :class:`InferenceSession`.

    Parameters
    ----------
    session:
        Any object with ``reconstruct((M, N)) -> (M, N)`` and a ``dim``
        attribute — in practice an
        :class:`~repro.api.session.InferenceSession`.
    max_batch_size:
        Tick width that triggers an immediate flush.
    flush_latency:
        Longest wait, in seconds, for tick-mates once the flusher thread
        sees a backlog below its target; ``None`` starts no flusher (size/manual flushes only — the
        deterministic mode the in-process tests and benchmarks use).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.network.autoencoder import QuantumAutoencoder
    >>> from repro.api.session import InferenceSession
    >>> ae = QuantumAutoencoder(4, 2, 2, 2).initialize(rng=np.random.default_rng(0))
    >>> batcher = MicroBatcher(InferenceSession(ae), max_batch_size=8,
    ...                        flush_latency=None)
    >>> futures = [batcher.submit([1.0, 0.0, 0.0, float(i)]) for i in range(3)]
    >>> batcher.flush()
    3
    >>> futures[0].result().shape
    (4,)
    >>> batcher.stats["queue_depth"], batcher.stats["rejected_requests"]
    (0, 0)
    """

    def __init__(
        self,
        session,
        max_batch_size: int = 64,
        flush_latency: Optional[float] = 0.005,
    ) -> None:
        if max_batch_size < 1:
            raise ServingError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if flush_latency is not None and flush_latency <= 0:
            raise ServingError(
                f"flush_latency must be > 0 or None, got {flush_latency}"
            )
        self.session = session
        self.max_batch_size = int(max_batch_size)
        self.flush_latency = flush_latency
        self._cond = threading.Condition()
        self._pending: List[_Entry] = []
        self._window_start: Optional[float] = None
        self._tick_target = 1.0
        self._flusher: Optional[threading.Thread] = None
        self._closed = False
        # -- stats (read via the `stats` property) ---------------------
        self._served = 0
        self._ticks = 0
        self._largest_tick = 0
        self._rejected = 0
        self._expired = 0
        self._flush_hist = LatencyHistogram()

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests waiting for the next tick."""
        with self._cond:
            return len(self._pending)

    @property
    def stats(self) -> dict:
        """Counters + per-flush latency histogram for capacity planning.

        Every counter is monotone non-decreasing over the batcher's
        lifetime; ``queue_depth`` (= ``pending``, kept for
        back-compat) and ``tick_target`` (the flusher's EWMA backlog
        target) are gauges; ``window_s`` echoes ``flush_latency``, and
        the ``flush_latency`` key is the
        :meth:`~repro.serving.stats.LatencyHistogram.summary` of
        wall-clock seconds each tick spent in the session call.
        """
        with self._cond:
            return {
                "served_requests": self._served,
                "ticks": self._ticks,
                "largest_tick": self._largest_tick,
                "pending": len(self._pending),
                "queue_depth": len(self._pending),
                "rejected_requests": self._rejected,
                "expired_requests": self._expired,
                "tick_target": round(self._tick_target, 3),
                "window_s": self.flush_latency,
                "flush_latency": self._flush_hist.summary(),
            }

    # ------------------------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline: Optional[float] = None
    ) -> Future:
        """Enqueue one ``(N,)`` classical sample; returns its Future.

        Shape/finiteness/encodability are validated here, per request, so
        those failures raise at their own submit call instead of
        poisoning a whole tick (each such raise counts as a *rejection*
        in :attr:`stats`).  Failures only detectable inside the batched
        pass (a ``renormalize`` session hitting a sample with near-zero
        mass in the kept subspace) still fail tick-wide: the exception is
        set on every future of that tick.

        ``deadline`` is an absolute :func:`time.monotonic` instant; a
        request still queued when it passes is dropped at drain time
        (before the GEMM) and its future fails with
        :class:`~repro.exceptions.DeadlineExpired`.
        """
        try:
            arr = np.asarray(x, dtype=np.float64).ravel()
            if arr.size != self.session.dim:
                raise ServingError(
                    f"request length {arr.size} != session dim "
                    f"{self.session.dim}"
                )
            if not np.all(np.isfinite(arr)):
                raise ServingError("request contains NaN or Inf")
            if float(arr @ arr) <= _ZERO_NORM_ATOL:
                raise ServingError(
                    "all-zero request cannot be amplitude-encoded (Eq. 1 "
                    "divides by its norm)"
                )
        except ServingError:
            with self._cond:
                self._rejected += 1
            raise
        future: Future = Future()
        batch = None
        with self._cond:
            if self._closed:
                self._rejected += 1
                raise ServingError("micro-batcher is closed")
            self._pending.append((arr, future, deadline))
            if len(self._pending) >= self.max_batch_size:
                batch = self._drain_locked()
            elif self.flush_latency is not None:
                if self._flusher is None:
                    self._flusher = threading.Thread(
                        target=_flush_loop,
                        args=(weakref.ref(self), self._cond),
                        name="repro-batcher-flush",
                        daemon=True,
                    )
                    self._flusher.start()
                self._cond.notify()
        if batch is not None:
            self._serve(batch)
        return future

    def flush(self) -> int:
        """Serve everything pending now; returns how many requests were
        actually delivered (caller-cancelled and deadline-expired ones
        are excluded, matching ``stats['served_requests']``)."""
        with self._cond:
            batch = self._drain_locked()
        return self._serve(batch)

    def close(self) -> None:
        """Flush pending requests, stop the flusher thread and reject
        future submits (idempotent)."""
        with self._cond:
            self._closed = True
            batch = self._drain_locked()
            self._cond.notify()
            flusher = self._flusher
        self._serve(batch)
        # A future's done-callback may close the batcher from the
        # flusher thread itself, which cannot join itself.
        if flusher is not None and flusher is not threading.current_thread():
            flusher.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _drain_locked(self) -> List[_Entry]:
        """Take the pending list and close the flusher's window; caller
        holds the lock."""
        batch, self._pending = self._pending, []
        self._window_start = None
        return batch

    def _tick_wait_locked(self) -> Optional[float]:
        """The adaptive tick policy; caller holds the lock.

        Returns how many seconds the flusher should still wait for
        tick-mates (``None``: nothing is pending), or ``0.0`` when a tick
        is due — in which case its backlog is already folded into the
        EWMA target.
        """
        if not self._pending:
            return None
        backlog = len(self._pending)
        if backlog < round(self._tick_target):
            if self._window_start is None:
                self._window_start = time.monotonic()
            fire_at = self._window_start + self.flush_latency
            deadlines = [d for _, _, d in self._pending if d is not None]
            if deadlines:
                fire_at = min(fire_at, min(deadlines) - _DEADLINE_MARGIN)
            wait = fire_at - time.monotonic()
            if wait > 0:
                return wait
        self._tick_target = min(
            float(self.max_batch_size),
            0.5 * self._tick_target + 0.5 * backlog,
        )
        return 0.0

    def _serve(self, batch: List[_Entry]) -> int:
        """Run one tick outside the lock: one GEMM for the whole batch.

        Returns the number of requests delivered (cancelled and expired
        excluded).  Expired requests are failed *before* the GEMM so a
        tick never spends FLOPs on work nobody is waiting for.
        """
        if not batch:
            return 0
        now = time.monotonic()
        expired = [
            (arr, future)
            for arr, future, deadline in batch
            if deadline is not None and deadline <= now
        ]
        for _, future in expired:
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    DeadlineExpired(
                        "request deadline passed while queued for a tick"
                    )
                )
        if expired:
            with self._cond:
                self._expired += len(expired)
            alive = [
                entry for entry in batch
                if not (entry[2] is not None and entry[2] <= now)
            ]
        else:
            alive = batch
        # Claim each future first; a caller-cancelled one must neither
        # raise InvalidStateError here nor strand the rest of its tick.
        live = [
            (i, future)
            for i, (_, future, _) in enumerate(alive)
            if future.set_running_or_notify_cancel()
        ]
        if not live:
            return 0  # every request cancelled/expired; skip the GEMM
        tick = np.stack([arr for arr, _, _ in alive])
        t0 = time.perf_counter()
        try:
            out = self.session.reconstruct(tick)
        except Exception as exc:
            with self._cond:
                self._flush_hist.record(time.perf_counter() - t0)
            for _, future in live:
                future.set_exception(exc)
            return 0
        seconds = time.perf_counter() - t0
        # Count before resolving: a caller that reads stats() after its
        # result must see its own request served.
        with self._cond:
            self._served += len(live)
            self._ticks += 1
            self._largest_tick = max(self._largest_tick, len(alive))
            self._flush_hist.record(seconds)
        for i, future in live:
            future.set_result(out[i])
        return len(live)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"MicroBatcher(max_batch_size={self.max_batch_size}, "
            f"flush_latency={self.flush_latency}, {state})"
        )


def _flush_loop(ref: "weakref.ref[MicroBatcher]", cond) -> None:
    """Body of a batcher's flusher thread; each tick is a
    :meth:`MicroBatcher.flush`.  It waits holding only a weak reference,
    so a batcher dropped without :meth:`~MicroBatcher.close` is still
    collected and the thread exits within ``_IDLE_POLL`` seconds."""
    while True:
        with cond:
            batcher = ref()
            if batcher is None or batcher._closed:
                return
            wait = batcher._tick_wait_locked()
            if wait is None or wait > 0:
                batcher = None
                cond.wait(_IDLE_POLL if wait is None else wait)
                continue
        batcher.flush()
