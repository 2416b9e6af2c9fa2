"""Hardware-style training: finite-shot objectives and SPSA.

The paper trains in simulation, where signed amplitudes are directly
readable.  On a physical interferometer only *probabilities* are
observable, each estimated from finitely many detection events.  This
module implements the training loop that setting actually permits:

- :class:`ShotBasedObjective` — the probability-domain loss
  ``L = sum_ij (p_ij - q_ij)^2`` where ``p`` comes from ``shots``
  measurements of the **full** network output (all ``N`` modes: photons
  landing in trash modes are detectable events, counted and penalised
  against the targets' zeros there — exactly the compression pressure of
  ``L_C``).  With ``shots=None`` it is the exact probability-domain loss
  (useful for isolating sampling noise from the sign-blindness effect).
  Shots are drawn by
  :func:`~repro.simulator.measurement.estimate_probabilities`, the same
  per-column multinomial loop that reads out ``NoiseModel(shots=...)`` on
  the noisy execution paths;
- :class:`SPSA` — simultaneous-perturbation stochastic approximation
  (Spall 1992), the standard optimizer for noisy black-box objectives:
  two evaluations per iteration regardless of parameter count, robust to
  shot noise where coordinate-wise finite differences drown in it;
- :func:`train_hardware_style` — the Algorithm-1 analogue under these
  constraints, returning the same history type as the exact trainer.

Targets must be supplied as probabilities (``b**2`` patterns); note that
probability-domain training cannot distinguish ``+a`` from ``-a`` — for
the paper's non-negative image data this is harmless (decoding uses
magnitudes anyway, Eq. 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.encoding.amplitude import EncodedBatch
from repro.exceptions import MeasurementError, OptimizerError, TrainingError
from repro.network.autoencoder import QuantumAutoencoder
from repro.network.projection import Projection
from repro.network.quantum_network import QuantumNetwork
from repro.simulator.measurement import estimate_probabilities
from repro.utils.rng import ensure_rng

__all__ = ["ShotBasedObjective", "SPSA", "HardwareTrainingResult",
           "train_hardware_style"]


class ShotBasedObjective:
    """Probability-domain loss estimated from finite measurement shots.

    Parameters
    ----------
    network:
        The trainable network (its parameters are set per evaluation).
    inputs:
        ``(N, M)`` prepared input amplitudes (fixed).
    target_probabilities:
        ``(N, M)`` target probability patterns (columns sum to <= 1).
    projection:
        Optional ``P1`` declaring which modes the targets live on; used
        for validation only — measurement always covers all modes (trash
        detections are physical events), so targets must vanish outside
        the kept subspace.
    shots:
        Measurement shots per sample per evaluation; ``None`` = exact.
    rng:
        Generator driving the measurement sampling.
    """

    def __init__(
        self,
        network: QuantumNetwork,
        inputs: np.ndarray,
        target_probabilities: np.ndarray,
        projection: Optional[Projection] = None,
        shots: Optional[int] = 1024,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        x = np.asarray(inputs, dtype=np.float64)
        q = np.asarray(target_probabilities, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != network.dim:
            raise TrainingError(
                f"inputs must be (N={network.dim}, M), got {x.shape}"
            )
        if q.shape != x.shape:
            raise TrainingError(
                f"target shape {q.shape} != inputs shape {x.shape}"
            )
        if np.any(q < 0) or np.any(q > 1 + 1e-9):
            raise TrainingError("target probabilities must lie in [0, 1]")
        if shots is not None and shots < 1:
            raise MeasurementError(f"shots must be >= 1, got {shots}")
        if projection is not None:
            outside = np.delete(q, projection.keep, axis=0)
            if outside.size and np.max(np.abs(outside)) > 1e-9:
                raise TrainingError(
                    "targets have support outside the projection's kept "
                    "subspace; trash-mode targets must be zero"
                )
        self.network = network
        self.inputs = x
        self.targets = q
        self.projection = projection
        self.shots = shots
        self.rng = ensure_rng(rng)
        self.evaluations = 0

    def __call__(self, params: np.ndarray) -> float:
        """Loss at ``params`` from one (noisy) measurement round."""
        saved = self.network.get_flat_params()
        try:
            self.network.set_flat_params(params)
            # Measure the full (unit-norm) output: the multinomial model
            # is only valid on a complete distribution, and trash-mode
            # detections are real events the loss must see.
            out = self.network.forward(self.inputs)
            probs = estimate_probabilities(out, self.shots, rng=self.rng)
        finally:
            self.network.set_flat_params(saved)
        self.evaluations += 1
        diff = probs - self.targets
        return float(np.sum(diff * diff))


class SPSA:
    """Simultaneous-perturbation stochastic approximation.

    Gradient estimate from exactly two objective evaluations:
    ``g_hat = [f(theta + c delta) - f(theta - c delta)] / (2 c) * delta``
    with Rademacher ``delta``.  Gain sequences follow Spall's standard
    ``a_k = a / (k + 1 + A)^alpha``, ``c_k = c / (k + 1)^gamma``.

    Examples
    --------
    >>> import numpy as np
    >>> opt = SPSA(a=0.2, c=0.1, rng=np.random.default_rng(0))
    >>> f = lambda p: float(np.sum(p**2))
    >>> p = np.array([2.0, -1.5])
    >>> for _ in range(200):
    ...     p = opt.step(f, p)
    >>> bool(np.linalg.norm(p) < 0.4)
    True
    """

    def __init__(
        self,
        a: float = 0.1,
        c: float = 0.1,
        alpha: float = 0.602,
        gamma: float = 0.101,
        stability: float = 10.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        for name, value in (("a", a), ("c", c)):
            if value <= 0 or not math.isfinite(value):
                raise OptimizerError(f"{name} must be positive, got {value}")
        if not 0.5 < alpha <= 1.0:
            raise OptimizerError(f"alpha must be in (0.5, 1], got {alpha}")
        if not 0.0 < gamma < 0.5:
            raise OptimizerError(f"gamma must be in (0, 0.5), got {gamma}")
        if stability < 0:
            raise OptimizerError(
                f"stability must be >= 0, got {stability}"
            )
        self.a = float(a)
        self.c = float(c)
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.stability = float(stability)
        self.rng = ensure_rng(rng)
        self.k = 0

    def step(self, objective, params: np.ndarray) -> np.ndarray:
        """One SPSA update; calls ``objective`` exactly twice."""
        theta = np.asarray(params, dtype=np.float64)
        ak = self.a / (self.k + 1 + self.stability) ** self.alpha
        ck = self.c / (self.k + 1) ** self.gamma
        delta = self.rng.choice([-1.0, 1.0], size=theta.shape)
        f_plus = float(objective(theta + ck * delta))
        f_minus = float(objective(theta - ck * delta))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise OptimizerError("objective returned a non-finite value")
        g_hat = (f_plus - f_minus) / (2.0 * ck) * delta
        self.k += 1
        return theta - ak * g_hat

    def reset(self) -> None:
        self.k = 0


@dataclass
class HardwareTrainingResult:
    """History of a shot-based training run."""

    loss_c: List[float] = field(default_factory=list)
    loss_r: List[float] = field(default_factory=list)
    shots: Optional[int] = None
    total_measurement_rounds: int = 0

    @property
    def num_iterations(self) -> int:
        return len(self.loss_r)


def train_hardware_style(
    autoencoder: QuantumAutoencoder,
    encoded: EncodedBatch,
    target_probabilities: np.ndarray,
    iterations: int = 200,
    shots: Optional[int] = 1024,
    spsa_a: float = 0.3,
    spsa_c: float = 0.15,
    seed: int = 0,
) -> HardwareTrainingResult:
    """Algorithm 1 under hardware constraints (probabilities + shots).

    Trains ``U_C`` against ``target_probabilities`` (the ``b^2`` pattern,
    supported on the kept subspace) and ``U_R`` against the input
    probability pattern ``A^2``, both via SPSA on shot-estimated losses.

    Parameters mirror :class:`repro.training.trainer.Trainer` where
    meaningful; the returned history records the *measured* (noisy)
    losses, which is all a hardware run would see.
    """
    if iterations < 1:
        raise TrainingError(f"iterations must be >= 1, got {iterations}")
    rng = ensure_rng(seed)
    a_in = encoded.amplitudes()
    q_targets = np.asarray(target_probabilities, dtype=np.float64)
    obj_c = ShotBasedObjective(
        autoencoder.uc,
        a_in,
        q_targets,
        projection=autoencoder.projection,
        shots=shots,
        rng=rng,
    )
    opt_c = SPSA(a=spsa_a, c=spsa_c, rng=rng)
    opt_r = SPSA(a=spsa_a, c=spsa_c, rng=rng)
    result = HardwareTrainingResult(shots=shots)
    input_probs = a_in**2
    for _ in range(iterations):
        params_c = autoencoder.uc.get_flat_params()
        autoencoder.uc.set_flat_params(opt_c.step(obj_c, params_c))
        result.loss_c.append(obj_c(autoencoder.uc.get_flat_params()))

        # Hardware feeds U_R the post-selected compressed state (unit
        # norm): conditioning on the photon exiting in a kept mode.
        compressed = autoencoder.compression.compress(
            a_in, renormalize=True
        )
        obj_r = ShotBasedObjective(
            autoencoder.ur,
            compressed,
            input_probs,
            projection=None,
            shots=shots,
            rng=rng,
        )
        params_r = autoencoder.ur.get_flat_params()
        autoencoder.ur.set_flat_params(opt_r.step(obj_r, params_r))
        result.loss_r.append(obj_r(autoencoder.ur.get_flat_params()))
        result.total_measurement_rounds += (
            obj_c.evaluations + obj_r.evaluations
        )
        obj_c.evaluations = 0
    return result
