"""Measurement of output states.

The paper obtains the probability amplitudes of the compression/
reconstruction outputs "by measuring the state" (Eqs. 2-4).  In the exact
simulation this is simply reading off Born probabilities; on hardware it
would be a finite number of projective measurements in the computational
basis.  Both are provided:

- :func:`born_probabilities` — exact ``|amplitude|^2``;
- :func:`sample_counts` / :func:`estimate_probabilities` — multinomial
  finite-shot sampling of a state, the hardware-realism model used by the
  shot-noise ablation benches and
  :class:`~repro.training.hardware.ShotBasedObjective`;
- :func:`measure_probabilities` — the same sampling applied to an
  already-computed (possibly sub-normalized) probability batch, the
  readout of :class:`~repro.noise.NoiseModel`'s ``shots`` on the density,
  trajectory and serving paths;
- :func:`measurement_expectation` — expectation of a diagonal observable.

All finite-shot functions share one per-column multinomial loop.  Each
column is sampled from its conditional click distribution ``p / sum(p)``
and estimates are rescaled by that column total, so a lossy
(sub-normalized) state keeps its transmission in expectation: a lost
photon is a no-click shot.

Note on signs: measurement yields ``|B_j|^2``, so the decoded classical data
of Eq. (2) uses ``sqrt(|B_j|^2 * sum x^2) = |B_j| * sqrt(sum x^2)``.  Sign
information is lost, which is harmless for the paper's non-negative pixel
data; the exact-simulation code paths keep signed amplitudes available for
loss computation (the losses of Eq. 5 are on amplitudes, evaluated in
simulation).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import MeasurementError, NoiseError
from repro.simulator.state import QuantumState, StateBatch
from repro.utils.rng import ensure_rng

__all__ = [
    "born_probabilities",
    "sample_counts",
    "estimate_probabilities",
    "estimate_amplitudes",
    "measure_probabilities",
    "measurement_expectation",
]

StateLike = Union[QuantumState, StateBatch, np.ndarray]


def _amplitudes_matrix(state: StateLike) -> np.ndarray:
    """Return an ``(N, M)`` amplitude matrix view of any accepted input."""
    if isinstance(state, QuantumState):
        return state.amplitudes.reshape(-1, 1)
    if isinstance(state, StateBatch):
        return state.data
    arr = np.asarray(state)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    if arr.ndim == 2:
        return arr
    raise MeasurementError(f"cannot measure array of shape {arr.shape}")


def born_probabilities(state: StateLike) -> np.ndarray:
    """Exact Born probabilities ``|A_j|^2`` per state.

    Returns ``(N,)`` for a single state, ``(N, M)`` for a batch.
    """
    amps = _amplitudes_matrix(state)
    probs = np.abs(amps) ** 2
    if isinstance(state, QuantumState) or (
        isinstance(state, np.ndarray) and state.ndim == 1
    ):
        return probs.ravel()
    return probs


def _validated_shots(shots) -> int:
    if (
        isinstance(shots, bool)
        or not isinstance(shots, (int, np.integer))
        or shots <= 0
    ):
        raise MeasurementError(f"shots must be a positive int, got {shots!r}")
    return int(shots)


def _multinomial_columns(
    mat: np.ndarray, shots: int, gen: np.random.Generator, skip_empty: bool
):
    """Draw ``shots`` clicks per column of ``(N, M)`` probabilities.

    Returns ``(counts, totals)``.  Tiny negative rounding is clipped away
    before each column is normalized by its total.  A column with zero
    total probability raises :class:`MeasurementError`, or, with
    ``skip_empty``, gets zero counts (every photon was lost).
    """
    counts = np.zeros(mat.shape, dtype=np.int64)
    totals = np.zeros(mat.shape[1], dtype=np.float64)
    for m in range(mat.shape[1]):
        p = np.clip(mat[:, m], 0.0, None)
        total = float(p.sum())
        if total <= 0.0:
            if skip_empty:
                continue
            raise MeasurementError("state has zero total probability")
        counts[:, m] = gen.multinomial(shots, p / total)
        totals[m] = total
    return counts, totals


def sample_counts(
    state: StateLike,
    shots: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample computational-basis measurement counts (multinomial).

    Returns an integer array of the same shape as
    :func:`born_probabilities`, with each column summing to ``shots``.
    """
    shots = _validated_shots(shots)
    probs = born_probabilities(state)
    counts, _ = _multinomial_columns(
        probs.reshape(probs.shape[0], -1), shots, ensure_rng(rng), False
    )
    return counts.reshape(probs.shape)


def estimate_probabilities(
    state: StateLike,
    shots: Optional[int],
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Estimated probabilities from ``shots`` measurements.

    ``shots=None`` returns the exact Born probabilities — the paper's
    (infinite-shot, simulator) regime.  Finite-shot frequencies are
    rescaled by each state's total probability, so the estimate of a
    sub-normalized state sums to its norm squared, as the exact one does.
    """
    probs = born_probabilities(state)
    if shots is None:
        return probs
    shots = _validated_shots(shots)
    counts, totals = _multinomial_columns(
        probs.reshape(probs.shape[0], -1), shots, ensure_rng(rng), False
    )
    return (counts * (totals / shots)).reshape(probs.shape)


def measure_probabilities(
    probabilities: np.ndarray,
    shots: Optional[int],
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Finite-shot estimate of (possibly sub-normalized) probabilities.

    Samples ``shots`` multinomial draws per column from the *conditional*
    click distribution and rescales by the column's total probability, so
    the estimate is unbiased for the unconditional ``p`` even under loss
    (a lost photon is simply a no-click shot).  A column with no
    probability left stays zero.  ``shots=None`` returns the exact
    probabilities unchanged; finite shots need an explicit ``rng``
    (the noise paths draw from a dedicated measurement stream).

    >>> p = np.array([[0.3], [0.1]])
    >>> est = measure_probabilities(p, 1000, np.random.default_rng(0))
    >>> bool(np.isclose(est.sum(), 0.4))
    True
    """
    if shots is None:
        return probabilities
    if rng is None:
        raise NoiseError("finite shots require an rng")
    shots = _validated_shots(shots)
    mat = probabilities.reshape(probabilities.shape[0], -1)
    counts, totals = _multinomial_columns(mat, shots, rng, True)
    return (counts * (totals / shots)).reshape(probabilities.shape)


def estimate_amplitudes(
    state: StateLike,
    shots: Optional[int],
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Magnitude-only amplitude estimates ``sqrt(p_hat)``.

    This is what a hardware run of the paper's pipeline would feed into the
    decoding map of Eq. (2).  Signs are unrecoverable from projective
    counts; see the module docstring.
    """
    return np.sqrt(estimate_probabilities(state, shots, rng=rng))


def measurement_expectation(
    state: StateLike, observable_diagonal: np.ndarray
) -> Union[float, np.ndarray]:
    """Expectation value of a diagonal observable ``sum_j o_j |A_j|^2``.

    Returns a scalar for a single state, an ``(M,)`` vector for a batch.
    """
    diag = np.asarray(observable_diagonal, dtype=np.float64).ravel()
    probs = born_probabilities(state)
    if probs.ndim == 1:
        if diag.size != probs.size:
            raise MeasurementError(
                f"observable size {diag.size} != state dim {probs.size}"
            )
        return float(diag @ probs)
    if diag.size != probs.shape[0]:
        raise MeasurementError(
            f"observable size {diag.size} != state dim {probs.shape[0]}"
        )
    return diag @ probs
