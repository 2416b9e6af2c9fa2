"""Front-end benchmark: socket round-trip fidelity, throughput, overload.

The network front-end (PR 7) puts a wire protocol, admission control and
deadlines between the client and the compiled
:class:`~repro.api.session.InferenceSession`.  None of that may cost
correctness, and the overload machinery has to actually shed.  Three
gate groups:

- **fidelity** (always): compress/decompress/reconstruct through a real
  socket match the in-process :class:`~repro.api.codec.Codec` to
  <= 1e-10, with the compressed payload surviving the wire **bitwise**
  (identical to what the serving session produces in-process — the
  protocol adds zero numerical error);
- **sustained** (>= 4 CPUs): an open-loop stream of single-image
  requests sustains >= 1000 req/s with p99 latency under the configured
  deadline;
- **burst** (>= 4 CPUs): against a deterministically throttled session
  driven at ~2x its capacity, the server sheds (shed rate > 0) while the
  p99 of *accepted* requests stays within the deadline — overload
  degrades by refusing work, not by serving everyone late.

On hosts with fewer than 4 CPUs the perf groups are skipped with a
logged reason (the fidelity gate always runs); the skip is recorded in
the JSON so the perf trajectory shows *why* a point is missing.

Run standalone (``PYTHONPATH=src python benchmarks/bench_frontend.py
[output.json]``) or via pytest (``pytest benchmarks/bench_frontend.py``);
set ``BENCH_FRONTEND_JSON`` to archive the JSON from the pytest run.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from typing import Dict, List

import numpy as np

from repro.api import Codec
from repro.serving import (
    FaultInjectingSession,
    ServerHarness,
    ServingClient,
    fetch_json,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
from loadgen import run_load  # noqa: E402 - needs the tools/ dir on path

PAPER_DIM = 16
PAPER_COMPRESSED = 4
PAPER_LC = 12
PAPER_LR = 14

MATCH_TOL = 1e-10
MIN_CPUS = 4
#: Micro-batcher window of every served session (the CLI's default).
SERVER_FLUSH_LATENCY = 0.002

# sustained-load gate
SUSTAINED_RATE = 1200.0     # offered req/s
SUSTAINED_FLOOR = 1000.0    # gate: achieved req/s
SUSTAINED_SECONDS = 3.0
SUSTAINED_DEADLINE_MS = 50

# burst gate: throttle each serving tick to TICK_DELAY_S so capacity is
# known, then offer ~2x that capacity.
BURST_TICK_DELAY_S = 0.02
BURST_MAX_INFLIGHT = 8
BURST_DEADLINE_MS = 250
BURST_SECONDS = 1.5
BURST_RATE = 800.0


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _codec(seed: int = 2024) -> Codec:
    return Codec(
        dim=PAPER_DIM,
        compressed_dim=PAPER_COMPRESSED,
        compression_layers=PAPER_LC,
        reconstruction_layers=PAPER_LR,
        seed=seed,
    )


# ----------------------------------------------------------------------
# gate groups
# ----------------------------------------------------------------------
def measure_fidelity() -> Dict:
    """Socket round-trips vs the in-process codec (always gated)."""
    codec = _codec()
    session = codec.session(flush_latency=SERVER_FLUSH_LATENCY)
    rng = np.random.default_rng(7)
    X = np.abs(rng.normal(size=(25, PAPER_DIM))) + 0.05
    x_hat_local = codec.forward(X).x_hat
    payload_local = codec.compress(X)
    payload_sess = session.compress(X)  # same engine the server runs
    try:
        with ServerHarness(session) as harness:
            with ServingClient(harness.host, harness.port) as client:
                payload_net = client.compress(X)
                x_hat_net = client.decompress(payload_net)
                x_batch_net = client.reconstruct(X)
                x_one_net = client.reconstruct(X[0])
            stats = fetch_json(harness.host, harness.port, "/stats")
    finally:
        session.close()
    return {
        "compress_bitwise": bool(
            np.array_equal(payload_net.codes, payload_sess.codes)
            and np.array_equal(
                payload_net.squared_norms, payload_sess.squared_norms
            )
        ),
        "compress_match": float(max(
            np.max(np.abs(payload_net.codes - payload_local.codes)),
            np.max(np.abs(
                payload_net.squared_norms - payload_local.squared_norms
            )),
        )),
        "decompress_match": float(np.max(np.abs(x_hat_net - x_hat_local))),
        "reconstruct_batch_match": float(
            np.max(np.abs(x_batch_net - x_hat_local))
        ),
        "reconstruct_single_match": float(
            np.max(np.abs(x_one_net - x_hat_local[0]))
        ),
        "server_served": int(stats["server"]["served"]),
        "match_tol": MATCH_TOL,
    }


def measure_sustained() -> Dict:
    """Open-loop throughput against an unthrottled session."""
    codec = _codec()
    session = codec.session(flush_latency=SERVER_FLUSH_LATENCY)
    try:
        with ServerHarness(session, max_inflight=4096) as harness:
            load = asyncio.run(run_load(
                host=harness.host,
                port=harness.port,
                clients=4,
                rate=SUSTAINED_RATE,
                duration=SUSTAINED_SECONDS,
                deadline_ms=SUSTAINED_DEADLINE_MS,
                dim=PAPER_DIM,
            ))
    finally:
        session.close()
    load["throughput_floor_req_per_s"] = SUSTAINED_FLOOR
    load["deadline_s"] = SUSTAINED_DEADLINE_MS / 1000.0
    return load


def measure_burst() -> Dict:
    """2x-capacity burst against a deterministically throttled session."""
    codec = _codec()
    session = codec.session(flush_latency=SERVER_FLUSH_LATENCY)
    faulty = FaultInjectingSession(session)
    faulty.delay_next(10 ** 9, BURST_TICK_DELAY_S)
    try:
        with ServerHarness(
            faulty,
            max_inflight=BURST_MAX_INFLIGHT,
            default_deadline_ms=BURST_DEADLINE_MS,
        ) as harness:
            load = asyncio.run(run_load(
                host=harness.host,
                port=harness.port,
                clients=4,
                rate=BURST_RATE,
                duration=BURST_SECONDS,
                deadline_ms=BURST_DEADLINE_MS,
                dim=PAPER_DIM,
            ))
            stats = fetch_json(harness.host, harness.port, "/stats")
    finally:
        session.close()
    load["deadline_s"] = BURST_DEADLINE_MS / 1000.0
    load["server_shed"] = int(stats["server"]["shed"])
    load["max_inflight_observed"] = int(
        stats["server"]["max_inflight_observed"]
    )
    load["max_inflight"] = BURST_MAX_INFLIGHT
    return load


def run_benchmarks() -> Dict:
    cpus = _cpu_count()
    perf_ok = cpus >= MIN_CPUS
    payload: Dict = {
        "config": {
            "dim": PAPER_DIM,
            "compressed_dim": PAPER_COMPRESSED,
            "compression_layers": PAPER_LC,
            "reconstruction_layers": PAPER_LR,
            "cpus": cpus,
            "min_cpus_for_perf_gates": MIN_CPUS,
        },
        "fidelity": measure_fidelity(),
    }
    if perf_ok:
        payload["sustained"] = measure_sustained()
        payload["burst"] = measure_burst()
    else:
        reason = (
            f"perf gates skipped: {cpus} CPU(s) available, "
            f"need >= {MIN_CPUS}"
        )
        print(reason, file=sys.stderr)
        payload["sustained"] = {"skipped": True, "reason": reason}
        payload["burst"] = {"skipped": True, "reason": reason}
    return payload


def _gates_pass(payload: Dict) -> bool:
    """The full gate set — shared by the pytest and CLI entry points."""
    fid = payload["fidelity"]
    if not (
        fid["compress_bitwise"]
        and fid["compress_match"] <= MATCH_TOL
        and fid["decompress_match"] <= MATCH_TOL
        and fid["reconstruct_batch_match"] <= MATCH_TOL
        and fid["reconstruct_single_match"] <= MATCH_TOL
    ):
        return False
    sustained = payload["sustained"]
    if not sustained.get("skipped"):
        if (
            sustained["achieved_req_per_s"] < SUSTAINED_FLOOR
            or sustained["latency_p99_s"] > sustained["deadline_s"]
        ):
            return False
    burst = payload["burst"]
    if not burst.get("skipped"):
        if (
            burst["shed"] <= 0
            or burst["latency_p99_s"] > burst["deadline_s"]
            or burst["max_inflight_observed"] > burst["max_inflight"]
        ):
            return False
    return True


def _emit(payload: Dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"\nbenchmark JSON written to {path}", file=sys.stderr)


def test_frontend_benchmark():
    """Perf-trajectory gate: socket fidelity <= 1e-10 always; >= 1k req/s
    sustained and shed-under-burst when >= 4 CPUs are available."""
    payload = run_benchmarks()
    print()
    _emit(payload, os.environ.get("BENCH_FRONTEND_JSON"))
    assert _gates_pass(payload), json.dumps(payload, indent=2)


def main(argv: List[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = args[0] if args else os.environ.get("BENCH_FRONTEND_JSON")
    payload = run_benchmarks()
    _emit(payload, path)
    return 0 if _gates_pass(payload) else 1


if __name__ == "__main__":
    sys.exit(main())
