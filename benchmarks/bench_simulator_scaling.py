"""Performance bench (exp id perf): simulator scaling.

Not a paper artefact — this characterises the substrate so the other
benches' timings are interpretable:

- forward cost per layer scales ~O(N * M) (N-1 gates, two rows each);
- the adjoint gradient costs a small constant multiple of a forward pass,
  independent of the parameter count (vs. FD's (P+1)x);
- memory-bounded streaming of wide batches is not timed here: it is the
  serving path's folded GEMM (``InferenceSession(chunk_size=...)`` over
  ``repro.parallel.batch.chunked_apply``), whose agreement with the
  unchunked pass ``tests/api/test_session.py`` pins.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.quantum_network import QuantumNetwork
from repro.training.gradients import loss_and_gradient


@pytest.mark.parametrize("dim", [8, 16, 32, 64, 128])
def test_forward_scaling_with_dimension(benchmark, dim):
    rng = np.random.default_rng(dim)
    net = QuantumNetwork(dim, 4).initialize("uniform", rng=rng)
    x = rng.normal(size=(dim, 64))
    x /= np.linalg.norm(x, axis=0)
    out = benchmark(net.forward, x)
    assert np.allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-9)


@pytest.mark.parametrize("batch", [16, 256, 4096])
def test_forward_scaling_with_batch(benchmark, batch):
    rng = np.random.default_rng(batch)
    net = QuantumNetwork(16, 12).initialize("uniform", rng=rng)
    x = rng.normal(size=(16, batch))
    out = benchmark(net.forward, x)
    assert out.shape == (16, batch)


def test_adjoint_gradient_overhead(benchmark):
    """The adjoint gradient should cost only a few forward passes."""
    rng = np.random.default_rng(0)
    net = QuantumNetwork(16, 12).initialize("uniform", rng=rng)
    x = rng.normal(size=(16, 25))
    x /= np.linalg.norm(x, axis=0)
    t = rng.normal(size=(16, 25))
    t /= np.linalg.norm(t, axis=0)
    loss, grad = benchmark(loss_and_gradient, net, x, t, method="adjoint")
    assert grad.shape == (180,)
