"""Programmable multiport interferometer on the shared noise model.

The paper's deployment story is that trained parameters "can also be
directly set into the corresponding position interferometer for physical
implementation" (Section III-C).  :class:`Interferometer` models that
device: a rectangular mesh whose splitting angles are programmed from a
trained :class:`~repro.network.quantum_network.QuantumNetwork`.

Its hardware errors are the mesh fields of a
:class:`~repro.noise.model.NoiseModel`:

- ``theta_sigma`` — Gaussian miscalibration of each programmed angle
  (thermo-optic phase-setting error), frozen at programming time;
- ``loss_per_gate`` — fractional power loss per beamsplitter crossing
  (insertion loss), making the transfer sub-unitary.

The device folds its transfer matrix once, at construction, with
:func:`repro.noise.trajectory.sample_mesh_matrix` — the same fold, and
under the same ``rng`` the same draws, as every noisy execution path.
The model's off-mesh fields (``dephasing``, ``depolarizing``, ``shots``)
are rejected rather than ignored; finite-shot readout of the device
output is :func:`repro.simulator.measurement.estimate_probabilities`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import NetworkConfigError, NoiseError
from repro.network.quantum_network import QuantumNetwork
from repro.noise.model import NoiseModel
from repro.noise.trajectory import sample_mesh_matrix
from repro.utils.rng import ensure_rng

__all__ = ["Interferometer"]


class Interferometer:
    """A mesh of beamsplitters programmed with explicit angle settings.

    Parameters
    ----------
    dim:
        Number of optical modes.
    thetas:
        ``(layers, dim - 1)`` programmed angles.
    descending:
        Gate order within a layer (matches the source network).
    noise:
        Optional :class:`~repro.noise.model.NoiseModel`; defaults to
        ideal.  Only its mesh fields (``theta_sigma``, ``loss_per_gate``)
        describe a device; a model with ``dephasing``, ``depolarizing``
        or ``shots`` set raises :class:`~repro.exceptions.NoiseError`.
    rng:
        Generator used to draw the *frozen* miscalibration: angle errors
        are sampled once at programming time (a fabricated/calibrated chip
        has a fixed error, not a fresh one per shot).

    Examples
    --------
    >>> import numpy as np
    >>> net = QuantumNetwork(4, 2).initialize("uniform", rng=np.random.default_rng(0))
    >>> device = Interferometer.from_network(net)
    >>> bool(np.allclose(device.transfer_matrix(), net.unitary()))
    True
    """

    def __init__(
        self,
        dim: int,
        thetas: np.ndarray,
        descending: bool = False,
        noise: Optional[NoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        theta = np.asarray(thetas, dtype=np.float64)
        if theta.ndim != 2 or theta.shape[1] != dim - 1:
            raise NetworkConfigError(
                f"thetas must be (layers, {dim - 1}), got {theta.shape}"
            )
        if not np.all(np.isfinite(theta)):
            raise NetworkConfigError("thetas contain NaN or Inf")
        noise = NoiseModel() if noise is None else noise
        if noise.dephasing or noise.depolarizing or noise.shots is not None:
            raise NoiseError(
                "an interferometer models only the mesh (theta_sigma, "
                "loss_per_gate); dephasing, depolarizing and shots act off "
                "the mesh — run them through repro.noise instead"
            )
        self.dim = int(dim)
        self.descending = bool(descending)
        self.noise = noise
        self.programmed_thetas = theta.copy()
        mesh = QuantumNetwork(self.dim, theta.shape[0], descending=descending)
        # Flat parameters are the theta matrix in row-major order.
        self._transfer = sample_mesh_matrix(
            mesh, theta.ravel(), noise, ensure_rng(rng)
        )
        self._transfer.flags.writeable = False

    # ------------------------------------------------------------------
    @classmethod
    def from_network(
        cls,
        network: QuantumNetwork,
        noise: Optional[NoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "Interferometer":
        """Program an interferometer with a trained network's angles."""
        if network.allow_phase:
            raise NetworkConfigError(
                "Interferometer models the paper's real mesh; complex "
                "networks would additionally need phase shifters"
            )
        return cls(
            network.dim,
            network.theta_matrix,
            descending=network.descending,
            noise=noise,
            rng=rng,
        )

    @property
    def num_layers(self) -> int:
        return self.programmed_thetas.shape[0]

    @property
    def num_gates(self) -> int:
        return self.num_layers * (self.dim - 1)

    def total_transmission(self) -> float:
        """Worst-case power transmission through the full mesh.

        Every mode crosses at most ``2`` gates per layer (its left and
        right neighbours); with per-gate power loss ``l`` the deepest path
        sees ``(1 - l)`` per crossing.  We report the uniform-loss figure
        ``(1 - l)^(2 * layers)``, the standard depth-loss estimate for
        rectangular meshes.
        """
        keep = 1.0 - self.noise.loss_per_gate
        return float(keep ** (2 * self.num_layers))

    # ------------------------------------------------------------------
    def apply(self, data: np.ndarray) -> np.ndarray:
        """Propagate ``(N, M)`` amplitudes through the (imperfect) mesh.

        With loss, output columns are sub-normalised; renormalising and
        resampling is the caller's choice (the benches post-select).
        """
        arr = np.asarray(data, dtype=np.float64)
        out = self._transfer @ arr.reshape(self.dim, -1)
        return out.ravel() if arr.ndim == 1 else out

    def transfer_matrix(self) -> np.ndarray:
        """The (sub-)unitary ``N x N`` transfer matrix of the device."""
        return self._transfer.copy()

    def __repr__(self) -> str:
        return (
            f"Interferometer(dim={self.dim}, layers={self.num_layers}, "
            f"theta_sigma={self.noise.theta_sigma}, "
            f"loss={self.noise.loss_per_gate})"
        )
