"""Tests for repro.api.batcher (MicroBatcher)."""

import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import InferenceSession, MicroBatcher
from repro.exceptions import ServingError
from repro.network.autoencoder import QuantumAutoencoder
from repro.serving import FaultInjectingSession


def _session(**kwargs):
    ae = QuantumAutoencoder(4, 2, 2, 2).initialize(
        "uniform", rng=np.random.default_rng(0)
    )
    return InferenceSession(ae, **kwargs)


def _requests(m=5, seed=1):
    return np.abs(np.random.default_rng(seed).normal(size=(m, 4))) + 0.1


class TestValidation:
    def test_bad_construction(self):
        session = _session()
        with pytest.raises(ServingError):
            MicroBatcher(session, max_batch_size=0)
        with pytest.raises(ServingError):
            MicroBatcher(session, flush_latency=0.0)

    def test_bad_requests_rejected_at_submit(self):
        batcher = MicroBatcher(_session(), flush_latency=None)
        with pytest.raises(ServingError):
            batcher.submit(np.ones(3))  # wrong length
        with pytest.raises(ServingError):
            batcher.submit(np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(ServingError):
            batcher.submit(np.zeros(4))  # not encodable
        assert batcher.pending == 0


class TestFlushTriggers:
    def test_manual_flush_serves_everything(self):
        session = _session()
        batcher = MicroBatcher(session, max_batch_size=64, flush_latency=None)
        X = _requests()
        futures = [batcher.submit(x) for x in X]
        assert batcher.pending == len(X)
        assert not futures[0].done()
        assert batcher.flush() == len(X)
        expected = session.reconstruct(X)
        for i, future in enumerate(futures):
            assert np.array_equal(future.result(timeout=1.0), expected[i])

    def test_size_trigger_flushes_inline(self):
        batcher = MicroBatcher(_session(), max_batch_size=3,
                               flush_latency=None)
        X = _requests(m=7)
        futures = [batcher.submit(x) for x in X]
        # 7 submits with max 3 -> two full ticks served, one pending.
        assert [f.done() for f in futures] == [True] * 6 + [False]
        assert batcher.pending == 1
        assert batcher.flush() == 1
        stats = batcher.stats
        assert stats["ticks"] == 3
        assert stats["largest_tick"] == 3
        assert stats["served_requests"] == 7

    def test_latency_trigger_fires(self):
        batcher = MicroBatcher(_session(), max_batch_size=1024,
                               flush_latency=0.02)
        future = batcher.submit(_requests(m=1)[0])
        assert future.result(timeout=5.0).shape == (4,)
        assert batcher.stats["ticks"] == 1

    def test_results_are_per_request_rows(self):
        session = _session()
        batcher = MicroBatcher(session, flush_latency=None)
        X = _requests(m=4)
        futures = [batcher.submit(x) for x in X]
        batcher.flush()
        # Order must be preserved: request i gets row i of the tick.
        expected = session.reconstruct(X)
        for i, future in enumerate(futures):
            assert np.array_equal(future.result(timeout=1.0), expected[i])


class TestCancellation:
    def test_cancelled_future_does_not_poison_tick(self):
        session = _session()
        batcher = MicroBatcher(session, flush_latency=None)
        X = _requests(m=3)
        futures = [batcher.submit(x) for x in X]
        assert futures[0].cancel()
        # The tick still runs for everyone else; the return value counts
        # deliveries, consistent with stats["served_requests"].
        assert batcher.flush() == 2
        assert futures[0].cancelled()
        expected = session.reconstruct(X)
        for i in (1, 2):
            assert np.array_equal(futures[i].result(timeout=1.0), expected[i])
        assert batcher.stats["served_requests"] == 2


class TestLifecycle:
    def test_close_flushes_then_rejects(self):
        batcher = MicroBatcher(_session(), flush_latency=None)
        future = batcher.submit(_requests(m=1)[0])
        batcher.close()
        assert future.result(timeout=1.0).shape == (4,)
        with pytest.raises(ServingError):
            batcher.submit(_requests(m=1)[0])
        batcher.close()  # idempotent

    def test_flusher_is_one_thread_stopped_by_close(self):
        """Latency-triggered ticks share one long-lived flusher thread;
        close() still serves what is pending, then stops it."""
        faulty = FaultInjectingSession(_session(flush_latency=0.005))
        batcher = faulty.batcher
        X = _requests(m=20)
        before = set(threading.enumerate())
        for x in X:
            assert batcher.submit(x).result(timeout=5.0).shape == (4,)
        assert batcher.stats["ticks"] == 20
        added = set(threading.enumerate()) - before
        assert len(added) == 1
        faulty.delay_next(1, 0.3)
        busy = batcher.submit(X[0])  # the flusher stalls on this tick
        time.sleep(0.1)
        queued = batcher.submit(X[1])
        assert batcher.pending == 1
        batcher.close()
        assert queued.result(timeout=0).shape == (4,)
        assert busy.result(timeout=0).shape == (4,)
        assert not any(thread.is_alive() for thread in added)

    def test_dropped_batcher_stops_its_flusher(self):
        batcher = MicroBatcher(_session(), flush_latency=0.005)
        before = set(threading.enumerate())
        batcher.submit(_requests(m=1)[0]).result(timeout=5.0)
        (flusher,) = set(threading.enumerate()) - before
        del batcher
        gc.collect()
        flusher.join(timeout=5.0)
        assert not flusher.is_alive()

    def test_context_manager(self):
        with MicroBatcher(_session(), flush_latency=None) as batcher:
            future = batcher.submit(_requests(m=1)[0])
        assert future.done()

    def test_flush_empty_is_zero(self):
        assert MicroBatcher(_session(), flush_latency=None).flush() == 0

    def test_repr(self):
        assert "open" in repr(MicroBatcher(_session(), flush_latency=None))


class TestConcurrency:
    def test_racing_submitters_each_get_their_row(self):
        """More submitting threads than cores, a tiny switch interval,
        and size-triggered drains racing the flusher: every request is
        served exactly once, with its own row."""
        session = _session()
        batcher = MicroBatcher(session, max_batch_size=8,
                               flush_latency=0.001)
        X = _requests(m=40, seed=3)
        expected = session.reconstruct(X)
        results = {}

        def worker(rows):
            for i in rows:
                results[i] = batcher.submit(X[i]).result(timeout=10.0)

        threads = [threading.Thread(target=worker, args=(range(k, 40, 8),))
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
            batcher.close()
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(40))
        for i, row in results.items():
            assert np.allclose(row, expected[i], rtol=0, atol=1e-12)
        assert batcher.stats["served_requests"] == 40


class TestSessionIntegration:
    def test_submit_via_session(self):
        session = _session(max_batch_size=2, flush_latency=None)
        X = _requests(m=4)
        futures = [session.submit(x) for x in X]
        assert all(f.done() for f in futures)  # two size-triggered ticks
        expected_a = session.reconstruct(X[:2])
        expected_b = session.reconstruct(X[2:])
        assert np.array_equal(futures[0].result(), expected_a[0])
        assert np.array_equal(futures[3].result(), expected_b[1])
        assert session.batcher.stats["ticks"] == 2
