#!/usr/bin/env python
"""Sender/receiver scenario: ship only the compressed payload.

The paper motivates compression by "saving storage space and transmission
bandwidth".  This example splits the pipeline across a simulated channel:

- sender: encodes images, runs U_C + P1, transmits the (d, M) compact
  codes plus one norm scalar per image;
- receiver: embeds the codes, runs U_R, decodes — never seeing the
  originals;
- also streams a large batch through a precompiled
  :class:`~repro.api.InferenceSession` in 512-column chunks to show the
  memory-bounded execution path.

Run:  python examples/transmission_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro import QuantumAutoencoder, Trainer, paper_accuracy
from repro.api import InferenceSession
from repro.data import paper_dataset, rank_limited_binary_dataset
from repro.network.targets import TruncatedInputTarget
from repro.training.optimizers import MomentumGD


def main() -> None:
    dataset = paper_dataset()
    X = dataset.matrix()

    ae = QuantumAutoencoder(
        dim=16, compressed_dim=4,
        compression_layers=12, reconstruction_layers=14,
    ).initialize("uniform", rng=np.random.default_rng(2024))
    Trainer(
        iterations=200,
        gradient_method="adjoint",
        optimizer_factory=lambda: MomentumGD(0.01, 0.9),
    ).train(ae, X, target_strategy=TruncatedInputTarget.from_pca(ae.projection, X))

    # --- sender side -----------------------------------------------------
    enc = ae.codec.encode(X)
    codes = ae.compression.compact_codes(enc.states)       # (d, M)
    norms = enc.squared_norms                              # (M,)
    payload_floats = codes.size + norms.size
    raw_floats = X.size
    print(
        f"transmitting {payload_floats} floats instead of {raw_floats} "
        f"({payload_floats / raw_floats:.0%} of raw)"
    )

    # --- receiver side (no access to X) ----------------------------------
    x_hat = ae.reconstruct_from_codes(codes, norms)
    print(f"receiver-side accuracy: {paper_accuracy(x_hat, X):.2f}%")

    # --- bulk streaming path ---------------------------------------------
    bulk = rank_limited_binary_dataset(
        num_samples=5000, rank=4, image_size=4, seed=3
    )
    Xbulk = bulk.matrix()
    session = InferenceSession(ae, chunk_size=512, flush_latency=None)
    x_bulk = session.reconstruct(Xbulk)
    print(
        f"streamed {len(bulk)} images through the chunked session; "
        f"accuracy {paper_accuracy(x_bulk, Xbulk):.2f}%"
    )
    gap = np.max(np.abs(x_bulk - ae.forward(Xbulk).x_hat))
    print(f"chunked vs one-pass reconstruction: max deviation {gap:.1e}")
    print(
        "(the bulk set is rank-4 stripe patterns, not the training glyphs; "
        "it exercises the memory-bounded path, not generalisation)"
    )


if __name__ == "__main__":
    main()
