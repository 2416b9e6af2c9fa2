#!/usr/bin/env python
"""Deployment: program a physical interferometer from a trained network.

Section III-C: trained reflectivities "can also be directly set into the
corresponding position interferometer for physical implementation".  This
example

1. trains a small compression network,
2. reads out its per-gate settings table (layer, modes, theta,
   reflectivity cos(theta)) — the values a lab would program,
3. verifies the programmed mesh reproduces the trained transfer matrix,
   and programs the same angles into a chip with angle miscalibration
   and insertion loss (a :class:`~repro.noise.NoiseModel`),
4. synthesises an *arbitrary* target orthogonal via the Reck
   decomposition, showing any unitary the training might land on is
   programmable,
5. saves and reloads the trained model (NPZ round trip).

Run:  python examples/interferometer_export.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.io import load_network, save_network
from repro.network import QuantumNetwork
from repro.noise import NoiseModel
from repro.optics import Interferometer, circuit_from_orthogonal
from repro.simulator.unitary import random_orthogonal
from repro.utils.ascii_art import render_table


def main() -> None:
    rng = np.random.default_rng(17)
    net = QuantumNetwork(dim=8, num_layers=4).initialize("uniform", rng=rng)

    # 2. The programmable settings table (first layer shown).
    rows = []
    for k, theta in enumerate(net.layers[0].thetas):
        rows.append(
            {
                "layer": 0,
                "modes": f"({k},{k + 1})",
                "theta": f"{theta:.4f}",
                "reflectivity cos(theta)": f"{np.cos(theta):.4f}",
            }
        )
    print(render_table(rows, title="interferometer settings (layer 0)"))

    # 3. Programmed device == trained network.
    device = Interferometer.from_network(net)
    err = np.max(np.abs(device.transfer_matrix() - net.unitary()))
    print(f"\nprogrammed-mesh fidelity: max|T_device - U_net| = {err:.2e}")
    chip = Interferometer.from_network(
        net,
        noise=NoiseModel(theta_sigma=0.01, loss_per_gate=0.005),
        rng=np.random.default_rng(5),
    )
    chip_err = np.max(np.abs(chip.transfer_matrix() - net.unitary()))
    print(
        f"imperfect chip: max|T_chip - U_net| = {chip_err:.2e}, "
        f"worst-case transmission {chip.total_transmission():.3f}"
    )

    # 4. Any SO(N) target is synthesisable (Reck/Givens chain).
    target = random_orthogonal(8, rng, special=True)
    circuit = circuit_from_orthogonal(target)
    synth_err = np.max(np.abs(circuit.unitary() - target))
    print(
        f"Reck synthesis of a random SO(8) target: {circuit.num_gates} "
        f"gates, max error {synth_err:.2e}"
    )

    # 5. Model persistence round trip.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "uc.npz"
        save_network(net, path)
        clone = load_network(path)
        same = np.allclose(clone.unitary(), net.unitary())
        print(f"NPZ save/load round trip identical: {same}")


if __name__ == "__main__":
    main()
