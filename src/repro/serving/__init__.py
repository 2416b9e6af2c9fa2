"""Network serving front-end: wire protocol, asyncio server, clients.

The deployable layer over :mod:`repro.api`: a length-prefixed binary
protocol (:mod:`~repro.serving.protocol`), an asyncio front-end with
bounded admission, load-shedding, per-request deadlines, adaptive tick
sizing and graceful drain (:mod:`~repro.serving.server`), blocking and
pipelined clients (:mod:`~repro.serving.client`), shared latency
telemetry (:mod:`~repro.serving.stats`) and a fault-injection harness
(:mod:`~repro.serving.testing`).

Start a server with the CLI (``python -m repro serve --checkpoint
model.npz``) or in-process::

    from repro.api import Codec
    from repro.serving import ServerHarness, ServingClient

    session = Codec.load("model.npz").session(flush_latency=0.002)
    with ServerHarness(session) as harness:
        with ServingClient(harness.host, harness.port) as client:
            payload = client.compress(X)

See ``docs/serving.md`` for the frame layout, overload semantics and
the deadline contract.
"""

from repro.serving.client import (
    AsyncServingClient,
    RequestShed,
    ServerClosing,
    ServerError,
    ServingClient,
    fetch_json,
)
from repro.serving.protocol import ErrorCode, Frame, FrameType
from repro.serving.server import ServingFrontend, run_frontend
from repro.serving.stats import LatencyHistogram
from repro.serving.testing import FaultInjectingSession, ServerHarness

__all__ = [
    "AsyncServingClient",
    "ErrorCode",
    "FaultInjectingSession",
    "Frame",
    "FrameType",
    "LatencyHistogram",
    "RequestShed",
    "ServerClosing",
    "ServerError",
    "ServerHarness",
    "ServingClient",
    "ServingFrontend",
    "fetch_json",
    "run_frontend",
]
