"""In-memory span recorder for the traced run.

A span is recorded around a call into one layer's public function, from
the benchmark's own files: :meth:`SpanRecorder.wrap` replaces the
attribute a caller looks the function up by (a module global such as
``repro.imaging.container.compress_bytes``, or a class attribute such as
``InferenceSession.compress``) and :meth:`SpanRecorder.restore` puts the
originals back.  Spans nest per thread, so a span's parent is the span
open on the same thread when it started, and its self time is its
duration minus the part its children cover.

Spans are kept in memory and written out once, when the traced run ends.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.stats import Span, aggregate

Counter = Callable[[tuple, object], Dict[str, float]]


class SpanRecorder:
    """Collects spans and counters; not active until something is wrapped."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span named ``name``."""
        return _SpanContext(self, name)

    def _open(self) -> Tuple[int, Optional[int]]:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name: str, start: float, end: float,
               parent: Optional[int]) -> None:
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, name, start, end, parent))

    def count(self, values: Dict[str, float]) -> None:
        with self._lock:
            for key, value in values.items():
                self.counters[key] = self.counters.get(key, 0.0) + value

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             counter: Optional[Counter] = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``counter(args, result)`` may add counters."""
        raw = _raw(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        recorder = self

        def traced(*args, **kwargs):
            start = time.perf_counter()
            sid, parent = recorder._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(sid, name, start, time.perf_counter(), parent)
            if counter is not None:
                recorder.count(counter(args, result))
            return result

        traced.__wrapped__ = fn
        self.replace(owner, attr, kind(traced) if kind is not None else traced)

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr = new`` until :meth:`restore`, for hooks
        :meth:`wrap` cannot express (generators, timing marks)."""
        self._patched.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Undo every :meth:`wrap` and :meth:`replace`, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        with self._lock:
            return aggregate(list(self.spans))

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write the span summary, counters and ``extra`` as JSON."""
        payload = {"spans": self.summary(), "counters": dict(self.counters)}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _raw(owner, attr: str):
    """The attribute as stored: a class's own ``__dict__`` entry (keeping
    ``classmethod``/``staticmethod`` wrappers), or a module's global."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        self.sid, self.parent = self.recorder._open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder._close(self.sid, self.name, self.start,
                             time.perf_counter(), self.parent)


def mean_ms(summary: Dict[str, Dict[str, float]], name: str,
            key: str = "total_s") -> float:
    """Mean milliseconds per call of span ``name`` (0 when never called)."""
    row = summary.get(name)
    if not row or not row["calls"]:
        return 0.0
    return 1e3 * row[key] / row["calls"]
