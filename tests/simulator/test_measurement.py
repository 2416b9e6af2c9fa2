"""Tests for repro.simulator.measurement."""

import numpy as np
import pytest

from repro.exceptions import MeasurementError
from repro.simulator.measurement import (
    born_probabilities,
    estimate_amplitudes,
    estimate_probabilities,
    measure_probabilities,
    measurement_expectation,
    sample_counts,
)
from repro.simulator.state import QuantumState, StateBatch


class TestBornProbabilities:
    def test_single_state(self):
        s = QuantumState([0.6, 0.8])
        assert born_probabilities(s).tolist() == pytest.approx([0.36, 0.64])

    def test_batch_shape(self, unit_batch):
        probs = born_probabilities(StateBatch(unit_batch))
        assert probs.shape == (8, 5)
        assert np.allclose(probs.sum(axis=0), 1.0)

    def test_raw_1d_array(self):
        assert born_probabilities(np.array([1.0, 0.0])).shape == (2,)

    def test_complex_amplitudes(self):
        s = np.array([1.0, 1j]) / np.sqrt(2)
        assert np.allclose(born_probabilities(s), [0.5, 0.5])

    def test_3d_rejected(self):
        with pytest.raises(MeasurementError):
            born_probabilities(np.zeros((2, 2, 2)))


class TestSampling:
    def test_counts_sum_to_shots(self, rng):
        s = QuantumState([1.0, 1.0, 1.0, 1.0])
        counts = sample_counts(s, shots=1000, rng=rng)
        assert counts.sum() == 1000

    def test_batch_counts_per_column(self, rng, unit_batch):
        counts = sample_counts(StateBatch(unit_batch), 50, rng=rng)
        assert np.all(counts.sum(axis=0) == 50)

    def test_deterministic_state_sampling(self, rng):
        counts = sample_counts(QuantumState.basis(4, 2), 100, rng=rng)
        assert counts[2] == 100

    def test_invalid_shots(self):
        with pytest.raises(MeasurementError):
            sample_counts(QuantumState.basis(2, 0), 0)
        with pytest.raises(MeasurementError):
            sample_counts(QuantumState.basis(2, 0), -5)
        with pytest.raises(MeasurementError):
            sample_counts(QuantumState.basis(2, 0), 1.5)

    def test_estimate_converges(self, rng):
        s = QuantumState([1.0, 2.0, 1.0, 0.0])
        est = estimate_probabilities(s, shots=200000, rng=rng)
        assert np.allclose(est, s.probabilities(), atol=0.01)

    def test_estimate_none_is_exact(self):
        s = QuantumState([0.6, 0.8])
        assert np.allclose(
            estimate_probabilities(s, None), s.probabilities()
        )

    def test_estimate_amplitudes_loses_sign(self, rng):
        s = np.array([-0.6, 0.8])
        amps = estimate_amplitudes(s, None)
        assert np.allclose(amps, [0.6, 0.8])

    def test_seeded_reproducibility(self):
        s = QuantumState([1.0, 1.0])
        a = sample_counts(s, 100, rng=np.random.default_rng(5))
        b = sample_counts(s, 100, rng=np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_zero_probability_column_rejected(self):
        state = np.array([[0.6, 0.0], [0.8, 0.0]])
        with pytest.raises(MeasurementError, match="zero total"):
            sample_counts(state, 10, rng=np.random.default_rng(0))
        with pytest.raises(MeasurementError, match="zero total"):
            estimate_probabilities(state, 10, rng=np.random.default_rng(0))


class TestSharedSampler:
    """``estimate_probabilities`` and ``measure_probabilities`` draw from
    one per-column multinomial loop with one shot validation."""

    @pytest.mark.parametrize("shots", [0, -3, 1.5])
    @pytest.mark.parametrize(
        "sample",
        [
            lambda p, shots: estimate_probabilities(
                np.sqrt(p), shots, rng=np.random.default_rng(0)
            ),
            lambda p, shots: measure_probabilities(
                p, shots, np.random.default_rng(0)
            ),
        ],
        ids=["estimate_probabilities", "measure_probabilities"],
    )
    def test_bad_shots_raise_measurement_error(self, sample, shots):
        with pytest.raises(MeasurementError, match="shots"):
            sample(np.array([0.5, 0.5]), shots)

    def test_sub_normalized_estimate_keeps_total(self):
        """A lossy state's estimate sums to its norm squared, not to 1."""
        state = np.array([[0.5, 0.3], [0.5, 0.4], [0.0, 0.1]])
        exact = estimate_probabilities(state, None)
        sampled = estimate_probabilities(
            state, 10000, rng=np.random.default_rng(1)
        )
        np.testing.assert_allclose(
            sampled.sum(axis=0), exact.sum(axis=0), rtol=1e-12, atol=0
        )
        assert np.allclose(sampled, exact, atol=0.02)

    def test_paths_agree_under_one_seed(self):
        state = np.array([[0.5, 0.3], [0.5, 0.4], [0.0, 0.1]])
        via_state = estimate_probabilities(
            state, 500, rng=np.random.default_rng(4)
        )
        via_probs = measure_probabilities(
            np.abs(state) ** 2, 500, np.random.default_rng(4)
        )
        assert np.array_equal(via_state, via_probs)

    def test_measure_leaves_empty_column_zero(self):
        p = np.array([[0.3, 0.0], [0.1, 0.0]])
        est = measure_probabilities(p, 50, np.random.default_rng(3))
        assert np.array_equal(est[:, 1], [0.0, 0.0])
        assert est[:, 0].sum() == pytest.approx(0.4)


class TestExpectation:
    def test_scalar_for_single_state(self):
        s = QuantumState([1.0, 1.0])
        val = measurement_expectation(s, np.array([0.0, 2.0]))
        assert val == pytest.approx(1.0)

    def test_vector_for_batch(self, unit_batch):
        vals = measurement_expectation(
            StateBatch(unit_batch), np.arange(8.0)
        )
        assert vals.shape == (5,)

    def test_size_mismatch_raises(self):
        with pytest.raises(MeasurementError):
            measurement_expectation(QuantumState([1.0, 0.0]), np.ones(3))

    def test_batch_size_mismatch_raises(self, unit_batch):
        with pytest.raises(MeasurementError):
            measurement_expectation(StateBatch(unit_batch), np.ones(3))
