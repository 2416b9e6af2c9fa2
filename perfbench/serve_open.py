"""Workload ``serve_open``: the network front end under open-loop load.

``repro serve`` runs in a child process (through the benchmark-owned
launcher :mod:`perfbench.serve_child`), serving a codec fitted at
set-up.  One generator process sends over at most ``nproc`` connections:
single-sample ``RECONSTRUCT`` requests carrying image tile vectors, and
one request in 64 a 256-row ``COMPRESS`` batch, the executor path that
bypasses the micro-batcher.  Phases, in order:

1. **reference** — open loop at 1500 req/s; latency from each request's
   due time;
2. **saturation** — closed loop with 32 requests in flight: the server's
   capacity and its latency at that load;
3. **ladder** — open loop at fixed rates 5% apart, searched for the
   highest one whose p99 due-time latency meets 50 ms with at most 1% of
   requests failed.

The gated throughput and latency come from the saturation phase: on a
shared 2-CPU host the open-loop tails of phases 1 and 3 move 2-4x between
runs with the host's scheduling delays, while a saturated closed loop
does not wait on wake-ups.  The open-loop figures are reported by name on
every run.  Sampled responses of every phase are checked against an
in-process ``InferenceSession``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from perfbench import common
from perfbench.loadgen import LoadGenerator, PhaseResult, Schedule
from perfbench.spans import mean_ms
from perfbench.stats import (
    MIN_BEYOND,
    ladder,
    ladder_search,
    median,
    meets_limit,
    percentile,
    timing_summary,
    windowed_percentile,
)

REFERENCE_RATE = 1500.0
LIMIT_S = 0.050
LIMIT_Q = 99.0
MAX_FAIL = 0.01
BATCH_EVERY = 64
BATCH_ROWS = 256
#: Requests in flight in the saturation phase: enough to keep the server
#: busy, far below its 256-request admission bound.
SATURATION_WINDOW = 32
#: Gated tail percentile of the saturation phase.  Its p99 is printed
#: too, but one host stall holds up all 32 requests in flight, which is
#: 1% of a second's requests, so p99 tracks the host, not the server.
SATURATION_TAIL_Q = 90.0
#: Frames prepared per second of the saturation phase: about twice the
#: highest rate the server has been measured to sustain.
SATURATION_FRAMES_PER_S = 12000.0
#: Ladder rungs are 5% apart, from the reference rate up.
LADDER_STEP = 1.05
LADDER_RUNGS = 41
LADDER_FIRST = 18
LADDER_STRIDE = 4
SINGLES = 2048
BATCHES = 8
SAMPLE_EVERY = 11
VERIFY_TOL = 1e-10
WARMUP_S = 1.0
#: The reference phase is summarized per window of this many seconds
#: (>= 1000 requests, so p99 has >= 10 beyond it); the median over
#: windows is reported, so one host stall moves one window, not the run.
WINDOW_S = 1.0
WINDOW_MIN = round(MIN_BEYOND * 100 / (100 - LIMIT_Q))
GRACE_S = 1.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


class ServerChild:
    """One ``repro serve`` child; always stopped by :meth:`stop`."""

    def __init__(self, checkpoint: str, trace: bool, tag: str) -> None:
        common.OUT.mkdir(exist_ok=True)
        stem = common.OUT / f"serve-{os.getpid()}-{tag}"
        self.log_path = stem.with_suffix(".log")
        self.dump_path = stem.with_suffix(".json")
        self.dump_path.unlink(missing_ok=True)
        self._log = open(self.log_path, "w", encoding="utf-8")
        cmd = [
            sys.executable, "-m", "perfbench.serve_child",
            "--trace", str(int(trace)), "--dump", str(self.dump_path), "--",
            "--checkpoint", checkpoint, "--port", "0",
        ]
        self.proc = subprocess.Popen(cmd, cwd=common.ROOT, stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    def wait_ready(self) -> "ServerChild":
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return self
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode}:\n"
                    f"{self.log_path.read_text()[-2000:]}")
            time.sleep(0.005)
        raise TimeoutError("server did not start listening")

    def stats(self) -> dict:
        from repro.serving.client import fetch_json

        return fetch_json(self.host, self.port, "/stats")

    def stop(self) -> dict:
        """Drain and stop the child; its dump (empty if it died)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        if self.dump_path.is_file():
            return json.loads(self.dump_path.read_text())
        return {}


class Inputs:
    """Seeded request payloads, encoded once, and the answer checks."""

    def __init__(self, seed: int, session) -> None:
        from repro.serving.protocol import FrameType, encode_arrays

        self.singles = common.tile_vectors(seed, SINGLES)
        self.batches = common.tile_vectors(seed + 1, BATCHES * BATCH_ROWS
                                           ).reshape(BATCHES, BATCH_ROWS, -1)
        self.payloads = [
            [encode_arrays([x]) for x in self.singles],
            [encode_arrays([X]) for X in self.batches],
        ]
        self.frame_types = [FrameType.RECONSTRUCT, FrameType.COMPRESS]
        self.pixels = [common.DIM, BATCH_ROWS * common.DIM]
        self.session = session
        self.wrong = 0
        #: (served reconstruction, request vector) of sampled singles.
        self.pairs: list = []
        self._expected_batch: Dict[int, tuple] = {}

    def schedule(self, rate: float, seconds: float, rng) -> Schedule:
        return Schedule.poisson(rate, seconds, BATCH_EVERY, rng,
                                [SINGLES, BATCHES])

    def verify(self, phase: PhaseResult, schedule: Schedule) -> int:
        """Check sampled responses; returns how many were wrong."""
        from repro.serving.protocol import decode_arrays

        wrong = 0
        for idx, payload in phase.samples.items():
            kind, item = int(schedule.kinds[idx]), int(schedule.items[idx])
            arrays = decode_arrays(payload)
            if kind == 0:
                x = self.singles[item]
                want = [self.session.reconstruct(x[None, :])[0]]
                if len(arrays) == 1:
                    self.pairs.append((arrays[0], x))
            else:
                if item not in self._expected_batch:
                    out = self.session.compress(self.batches[item])
                    self._expected_batch[item] = (out.codes,
                                                  out.squared_norms)
                want = list(self._expected_batch[item])
            ok = len(arrays) == len(want) and all(
                a.shape == w.shape and float(np.max(np.abs(a - w)))
                <= VERIFY_TOL for a, w in zip(arrays, want))
            wrong += not ok
        self.wrong += wrong
        return wrong

    def served_pixels(self, phase: PhaseResult) -> int:
        return sum(self.pixels[int(k)]
                   for k, t in zip(phase.kinds, phase.done) if t is not None)

    def psnr_db(self) -> float:
        err = sum(float(np.sum((a - x) ** 2)) for a, x in self.pairs)
        count = sum(x.size for _, x in self.pairs)
        return float(10.0 * np.log10(count / err))


def _start_server(trace: bool, tag: str):
    codec = common.fit_codec()
    path = str(common.OUT / f"serve-{os.getpid()}.npz")
    common.OUT.mkdir(exist_ok=True)
    codec.save(path)
    child = ServerChild(path, trace, tag)
    try:
        return path, child.wait_ready()
    except BaseException:
        child.stop()
        raise


def _generator(server: ServerChild, inputs: Inputs) -> LoadGenerator:
    connections = max(1, min(2, len(os.sched_getaffinity(0))))
    return LoadGenerator(server.host, server.port, connections,
                      inputs.payloads, inputs.frame_types,
                      int(LIMIT_S * 1e3))


def _open_phase(gen, inputs, lines, name, rate, seconds, rng
                ) -> PhaseResult:
    schedule = inputs.schedule(rate, seconds, rng)
    res = gen.open_loop(name, rate, seconds, schedule, GRACE_S,
                           sample_every=SAMPLE_EVERY)
    lines.append(_phase_line(res, inputs.verify(res, schedule)))
    return res


def _phase_line(res: PhaseResult, wrong: int) -> str:
    errors = ",".join(f"{k}:{v}" for k, v in sorted(res.errors.items()))
    return (f"phase {res.name} load={res.rate:g} sent={res.attempted} "
            f"succeeded={res.succeeded} failed={res.failed} (errors "
            f"{errors or 'none'}, timed out {res.timed_out}, wrong {wrong}) "
            f"generator_lag_p99_ms={1e3 * percentile(res.lags(), 99.0):.3f}")


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.api import Codec

    if trace:
        return _run_traced(seed, seconds)
    setup_times: List[float] = []
    lines: List[str] = []
    server = None
    try:
        for r in range(common.SETUP_REPEATS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            path, server = _start_server(False, f"setup{r}")
            setup_times.append(time.perf_counter() - t0)
        inputs = Inputs(seed, Codec.load(path).session(flush_latency=None))
        rng = np.random.default_rng([seed, 17])
        rates = ladder(REFERENCE_RATE, LADDER_STEP, LADDER_RUNGS)
        probe_s = max(1.5, 0.1 * seconds)
        with common.IdleGuard(), _generator(server, inputs) as gen:
            _open_phase(gen, inputs, lines, "warmup", REFERENCE_RATE,
                        WARMUP_S, rng)
            ref = _open_phase(gen, inputs, lines, "reference",
                              REFERENCE_RATE, 0.25 * seconds, rng)
            sat_s = 0.25 * seconds
            schedule = inputs.schedule(SATURATION_FRAMES_PER_S, sat_s, rng)
            sat = gen.closed_loop("saturation", SATURATION_WINDOW, sat_s,
                                     schedule, GRACE_S, SAMPLE_EVERY)
            lines.append(_phase_line(sat, inputs.verify(sat, schedule)))
            probes: Dict[int, PhaseResult] = {0: ref}

            def probe(k: int, tag: str) -> bool:
                res = _open_phase(gen, inputs, lines, f"rung{k}{tag}",
                                  rates[k], probe_s, rng)
                probes[k] = res
                return meets_limit(res.latencies(), LIMIT_S, LIMIT_Q,
                                   MAX_FAIL)

            def passes(k: int) -> bool:
                # One stall can sink a single probe's p99; a rung fails
                # only when a second probe at the same rate fails too.
                return probe(k, "") or probe(k, "-retry")

            best, path_taken = ladder_search(passes, LADDER_RUNGS - 1,
                                             LADDER_FIRST, LADDER_STRIDE)
        stats = server.stats()
    finally:
        if server is not None:
            server.stop()

    # Open-loop reference latency, per 1-s window.
    single_ms = [1e3 * x for x in ref.latencies(0) if np.isfinite(x)]
    single_due = [d for d, k, t in zip(ref.due, ref.kinds, ref.done)
                  if k == 0 and t is not None]
    win_p50 = windowed_percentile(single_due, single_ms, WINDOW_S, 50.0,
                                  WINDOW_MIN)
    win_p99 = windowed_percentile(single_due, single_ms, WINDOW_S, LIMIT_Q,
                                  WINDOW_MIN)
    batch_ms = [1e3 * x for x in ref.latencies(1) if np.isfinite(x)]
    ref_lat = timing_summary(single_ms)
    batch = timing_summary(batch_ms) if batch_ms else {"p50": 0.0, "n": 0}
    # Saturation: latency from send (= due in a closed loop); its tail is
    # the median over 1-s windows, like the reference phase's.
    sat_ms = [1e3 * x for x in sat.latencies() if np.isfinite(x)]
    sat_due = [d for d, t in zip(sat.due, sat.done) if t is not None]
    sat_tail = windowed_percentile(
        sat_due, sat_ms, WINDOW_S, SATURATION_TAIL_Q,
        round(MIN_BEYOND * 100 / (100 - SATURATION_TAIL_Q)))
    sat_lat = timing_summary(sat_ms)
    sat_span = float(sat.due[-1])
    top = probes[best]
    max_rate = top.achieved_rate()
    failed = ref.failed + sat.failed + inputs.wrong
    attempted = ref.attempted + sat.attempted
    values = {
        "setup_s": float(np.median(setup_times)),
        "success_ratio": (attempted - failed) / attempted,
        "throughput_mpix_s": inputs.served_pixels(sat) / sat_span / 1e6,
        "latency_p50_ms": sat_lat["p50"],
        "latency_tail_ms": (median(sat_tail) if sat_tail
                            else percentile(sat_ms, SATURATION_TAIL_Q)),
        "psnr_db": inputs.psnr_db(),
    }
    server_stats = stats.get("server", {})
    report = [
        f"setup_s={values['setup_s']:.4f} s (median of "
        f"{common.SETUP_REPEATS} codec fits + server launches)",
        *lines,
        f"ladder probes {path_taken} -> rung {best}",
        f"reference latency_p50_ms={median(win_p50):.3f} ms at "
        f"{REFERENCE_RATE:g} req/s from due time, median of {len(win_p50)} "
        f"{WINDOW_S:g}-s windows (n={ref_lat['n']} single requests; pooled "
        f"p50 {ref_lat['p50']:.3f} ms)",
        f"reference latency_p99_ms={median(win_p99):.3f} ms, median of "
        f"window p99s {[round(x, 2) for x in win_p99]} (n={ref_lat['n']}; "
        f"pooled p99 {percentile(single_ms, LIMIT_Q):.3f} ms)",
        f"batch_latency_p50_ms={batch['p50']:.3f} ms (n={batch['n']} "
        f"{BATCH_ROWS}-row COMPRESS batches at the reference rate)",
        f"max_rate_req_s={max_rate:.1f} req/s (rung {best}, "
        f"{rates[best]:.1f} offered, p{LIMIT_Q:g} <= {1e3 * LIMIT_S:g} ms, "
        f"fail <= {100 * MAX_FAIL:g}%, n={top.attempted})",
        f"saturation: {sat.succeeded / sat_span:.1f} req/s with "
        f"{SATURATION_WINDOW} in flight; throughput_mpix_s="
        f"{values['throughput_mpix_s']:.4f} Mpix/s, latency_p50_ms="
        f"{sat_lat['p50']:.3f} ms, latency_tail_ms=p"
        f"{SATURATION_TAIL_Q:g} {values['latency_tail_ms']:.3f} ms, median "
        f"of window p{SATURATION_TAIL_Q:g}s "
        f"{[round(x, 2) for x in sat_tail]} (n={sat_lat['n']}; pooled "
        f"p{LIMIT_Q:g} {percentile(sat_ms, LIMIT_Q):.3f} ms)",
        f"psnr_db={values['psnr_db']:.4f} dB over {len(inputs.pairs)} "
        f"sampled reconstructions",
        f"fail_ratio={failed / attempted:.6f} over the reference and "
        f"saturation phases ({failed} of {attempted}, wrong outputs "
        f"{inputs.wrong} in all phases)",
        f"server shed={server_stats.get('shed')} expired="
        f"{server_stats.get('expired')} over the whole run",
    ]
    return {
        "correct": inputs.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": common.metrics(values, common.END_TO_END),
        "report": report,
    }


def _run_traced(seed: int, seconds: float) -> dict:
    """Reference phase against an untraced, then a traced server."""
    from repro.api import Codec

    rng = np.random.default_rng([seed, 17])
    results, lines = {}, []
    path, server = _start_server(False, "plain")
    inputs = Inputs(seed, Codec.load(path).session(flush_latency=None))
    for traced in (False, True):
        if traced:
            server = ServerChild(path, True, "traced")
        try:
            server.wait_ready()
            with common.IdleGuard(), _generator(server, inputs) as gen:
                _open_phase(gen, inputs, lines, "warmup", REFERENCE_RATE,
                            WARMUP_S, rng)
                res = _open_phase(gen, inputs, lines,
                                  "traced" if traced else "untraced",
                                  REFERENCE_RATE, seconds / 2, rng)
            stats = server.stats()
        finally:
            dump = server.stop()
        cpu = dump.get("cpu_end", 0.0) - dump.get("cpu_ready", 0.0)
        results[traced] = {"res": res, "stats": stats, "dump": dump,
                           "cpu_per_req": cpu / max(stats["server"]["served"],
                                                    1)}

    traced = results[True]
    spans = traced["dump"].get("spans", {})
    batcher = traced["stats"]["batcher"]
    server_stats = traced["stats"]["server"]

    def per_frame_us(names, frames_name):
        total = sum(spans.get(n, {}).get("total_s", 0.0) for n in names)
        frames = spans.get(frames_name, {}).get("calls", 0)
        return 1e6 * total / frames if frames else 0.0

    waits_n = traced["dump"].get("queue_wait_n", 0)
    values = {
        "api.session.reconstruct_ms": mean_ms(spans,
                                              "api.session.reconstruct"),
        "api.session.compress_ms": mean_ms(spans, "api.session.compress"),
        "serving.protocol.decode_us": per_frame_us(
            ("serving.protocol.decode_header",
             "serving.protocol.decode_arrays"),
            "serving.protocol.decode_header"),
        "serving.protocol.encode_us": per_frame_us(
            ("serving.protocol.encode_arrays",
             "serving.protocol.encode_frame"),
            "serving.protocol.encode_frame"),
        "api.batcher.queue_wait_ms": (
            1e3 * traced["dump"].get("queue_wait_s", 0.0) / waits_n
            if waits_n else 0.0),
        "api.batcher.flush_ms": mean_ms(spans, "api.batcher.flush"),
        "api.batcher.tick_width": batcher["served_requests"]
        / max(batcher["ticks"], 1),
        "serving.server.shed": server_stats["shed"],
        "serving.server.expired": server_stats["expired"],
        "serve.generator_lag_ms": 1e3 * percentile(traced["res"].lags(),
                                                   99.0),
        "trace.overhead_pct": 100.0 * (
            traced["cpu_per_req"] / results[False]["cpu_per_req"] - 1.0),
    }
    lines += [f"{name}: calls={row['calls']} total={row['total_s']:.4f} s "
              f"self={row['self_s']:.4f} s" for name, row in
              sorted(spans.items())]
    lines.append(f"server cpu per request: untraced "
                 f"{1e6 * results[False]['cpu_per_req']:.1f} us, traced "
                 f"{1e6 * traced['cpu_per_req']:.1f} us")
    attempted = sum(r["res"].attempted for r in results.values())
    failed = sum(r["res"].failed for r in results.values()) + inputs.wrong
    return {
        "correct": inputs.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": common.layer_metrics(values),
        "report": lines,
    }
