"""Benchmark-owned launcher for ``repro serve`` in a child process.

Runs the CLI's ``serve`` command in this process.  With ``--trace 1`` it
first wraps the public functions the front end calls (protocol codec,
micro-batcher, session) in spans, so the serving layers are timed from
outside.  When the server has drained it writes its CPU time after
start-up (and, traced, the span summary) to ``--dump``::

    python -m perfbench.serve_child --trace 1 --dump spans.json -- \\
        --checkpoint model.npz --port 0
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import List


class QueueWait:
    """Submit-to-flush-start wait of each micro-batched request.

    ``MicroBatcher.submit`` runs on the event loop and ``flush`` on the
    serving executor; a flush starting serves every request submitted
    before it, so each pending submit time is charged to the next flush
    start (or to its own submit, when the size trigger served it
    inline).
    """

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self._pending: List[float] = []
        self._lock = threading.Lock()

    def install(self, rec) -> None:
        from repro.api.batcher import MicroBatcher

        submit, flush = MicroBatcher.submit, MicroBatcher.flush

        def timed_submit(batcher, *args, **kwargs):
            t = time.perf_counter()
            with self._lock:
                self._pending.append(t)
            future = submit(batcher, *args, **kwargs)
            if future.done():
                self._charge(t)
            return future

        def timed_flush(batcher, *args, **kwargs):
            self._charge(time.perf_counter())
            return flush(batcher, *args, **kwargs)

        rec.replace(MicroBatcher, "submit", timed_submit)
        rec.replace(MicroBatcher, "flush", timed_flush)
        # The flush span wraps the timing hook, so it sees the tick.
        rec.wrap(MicroBatcher, "flush", "api.batcher.flush")

    def _charge(self, start: float) -> None:
        with self._lock:
            self.count += len(self._pending)
            self.total_s += sum(start - t for t in self._pending)
            self._pending.clear()


def install_spans(rec) -> QueueWait:
    import repro.serving.protocol as protocol
    from repro.api.session import InferenceSession

    for name in ("decode_header", "decode_arrays", "encode_arrays",
                 "encode_frame"):
        rec.wrap(protocol, name, f"serving.protocol.{name}")
    rec.wrap(InferenceSession, "reconstruct", "api.session.reconstruct")
    rec.wrap(InferenceSession, "compress", "api.session.compress")
    waits = QueueWait()
    waits.install(rec)
    return waits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.experiments.cli import main as cli_main
    from repro.serving.server import ServingFrontend

    marks = {}
    start = ServingFrontend.start

    async def marked_start(frontend):
        result = await start(frontend)
        marks["cpu_ready"] = time.process_time()
        return result

    ServingFrontend.start = marked_start
    rec = waits = None
    if args.trace:
        from perfbench.spans import SpanRecorder

        rec = SpanRecorder()
        waits = install_spans(rec)
    code = cli_main(["serve", *serve_args])
    marks["cpu_end"] = time.process_time()
    if rec is not None:
        marks["queue_wait_n"] = waits.count
        marks["queue_wait_s"] = waits.total_s
        rec.dump(args.dump, marks)
    else:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
