"""The benchmark's own arithmetic: percentiles, due-time latency, the
rate ladder and span self time.

Everything here is pure (no clocks, no I/O) so the unit tests in
``test_perfbench.py`` can pin it exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between
    closest ranks, the same rule as ``numpy.percentile``'s default."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    if frac == 0.0 or ordered[hi] == ordered[lo]:
        return float(ordered[lo])
    if math.isinf(ordered[hi]):
        return math.inf  # interpolating toward a failure misses any limit
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th
    percentile's rank."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least ``MIN_BEYOND``
    samples beyond it, or ``None`` when ``n`` supports none."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def timing_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and supported tail of a timing sample, with its count.

    ``tail_q`` is the percentile the tail was taken at; when the sample
    is too small for any candidate the tail is the maximum (``tail_q``
    100).
    """
    n = len(values)
    q = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail_q": 100.0 if q is None else q,
        "tail": max(values) if q is None else percentile(values, q),
    }


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def due_latencies(
    due: Sequence[float], done: Sequence[Optional[float]]
) -> List[float]:
    """Latency of each request timed from when it was *due* to be sent.

    ``done[i]`` is ``None`` for a request that never succeeded; it is
    returned as ``inf`` so it misses any latency limit.  Timing from the
    due time (not the send time) charges a generator or server stall to
    every request scheduled during it.
    """
    if len(due) != len(done):
        raise ValueError("due and done must have equal length")
    return [
        math.inf if t is None else t - d for d, t in zip(due, done)
    ]


def windowed_percentile(
    times: Sequence[float], values: Sequence[float], width: float, q: float,
    min_count: int = 1,
) -> List[float]:
    """The ``q``-th percentile of ``values`` in each ``width``-second
    window of ``times``; windows with fewer than ``min_count`` samples
    (a ragged last window) are skipped."""
    groups: Dict[int, List[float]] = {}
    for t, v in zip(times, values):
        groups.setdefault(int(t // width), []).append(v)
    return [percentile(groups[k], q) for k in sorted(groups)
            if len(groups[k]) >= min_count]


def meets_limit(
    latencies: Sequence[float], limit: float, q: float, max_fail: float
) -> bool:
    """Whether a phase meets its latency limit at percentile ``q`` with
    a failure share (``inf`` entries) of at most ``max_fail``."""
    if not latencies:
        return False
    failed = sum(1 for x in latencies if math.isinf(x))
    if failed > max_fail * len(latencies):
        return False
    return percentile(latencies, q) <= limit


def ladder(base: float, step: float, rungs: int) -> List[float]:
    """Fixed geometric rates ``base * step**k`` for ``k < rungs``."""
    if step <= 1.0:
        raise ValueError("ladder step must exceed 1")
    return [base * step ** k for k in range(rungs)]


def ladder_search(
    passes: Callable[[int], bool], top: int, first: int, stride: int
) -> Tuple[int, List[Tuple[int, bool]]]:
    """Find the highest rung index that passes, rung 0 assumed passing.

    Climbs from ``first`` in strides of ``stride`` rungs until a rung
    fails (or ``top`` passes), then bisects between the highest pass and
    the lowest fail, so the answer is a rung whose next rung failed.
    Returns ``(rung, probes)`` with every ``(rung, passed)`` probed, in
    order.
    """
    if not 0 < first <= top or stride < 1:
        raise ValueError("need 0 < first <= top and stride >= 1")
    probes: List[Tuple[int, bool]] = []

    def probe(k: int) -> bool:
        ok = bool(passes(k))
        probes.append((k, ok))
        return ok

    lo, hi = 0, None
    k = first
    while True:
        if probe(k):
            lo = k
            if k == top:
                return lo, probes
            k = min(k + stride, top)
        else:
            hi = k
            break
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo, probes


Span = Tuple[int, str, float, float, Optional[int]]
"""``(span_id, name, start, end, parent_id)``."""


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``[start, end]`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    bounds = {sid: (start, end) for sid, _, start, end, _ in spans}
    for sid, _, start, end, parent in spans:
        if parent is None or parent not in bounds:
            continue
        p_start, p_end = bounds[parent]
        lo, hi = max(start, p_start), min(end, p_end)
        if hi > lo:
            children.setdefault(parent, []).append((lo, hi))
    return {
        sid: (end - start) - covered(children.get(sid, ()))
        for sid, _, start, end, _ in spans
    }


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds and total self seconds."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for sid, name, start, end, _ in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
    return out
