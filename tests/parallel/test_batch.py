"""Tests for repro.parallel.batch."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import DimensionError
from repro.parallel.batch import chunked_apply


class TestChunkedApply:
    def test_matches_matmul(self, rng):
        m = rng.normal(size=(3, 5))
        x = rng.normal(size=(5, 17))
        assert np.allclose(chunked_apply(m, x, chunk_size=4), m @ x)

    def test_out_buffer_used(self, rng):
        m, x = rng.normal(size=(4, 4)), rng.normal(size=(4, 10))
        out = np.empty((4, 10))
        assert chunked_apply(m, x, chunk_size=4, out=out) is out
        assert np.allclose(out, m @ x)

    def test_out_shape_validated(self):
        with pytest.raises(DimensionError):
            chunked_apply(np.eye(4), np.ones((4, 3)), out=np.empty((4, 5)))

    def test_invalid_chunk_size(self):
        with pytest.raises(DimensionError):
            chunked_apply(np.eye(4), np.ones((4, 3)), chunk_size=0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            chunked_apply(np.eye(4), np.ones((8, 3)))

    def test_real_out_buffer_rejected_for_complex_result(self):
        with pytest.raises(DimensionError, match="complex"):
            chunked_apply(
                np.eye(4, dtype=np.complex128),
                np.ones((4, 3)),
                out=np.empty((4, 3)),
            )

    def test_lossy_out_buffer_rejected(self):
        with pytest.raises(DimensionError, match="cannot safely hold"):
            chunked_apply(
                np.eye(4), np.ones((4, 3)), out=np.empty((4, 3), dtype=np.int64)
            )

    def test_chunk_larger_than_batch(self, rng):
        m, x = rng.normal(size=(4, 4)), rng.normal(size=(4, 3))
        assert np.allclose(chunked_apply(m, x, chunk_size=100), m @ x)

    def test_complex_input_preserved(self, rng):
        m = rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 11)) + 1j * rng.normal(size=(4, 11))
        out = chunked_apply(m, x, chunk_size=3)
        assert np.iscomplexobj(out)
        assert np.allclose(out, m @ x)

    def test_complex_out_buffer_accepted(self, rng):
        m = rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        out = np.empty((4, 5), dtype=np.complex128)
        assert chunked_apply(m, x, chunk_size=2, out=out) is out
        assert np.allclose(out, m @ x)

    @given(
        rows=st.integers(min_value=1, max_value=6),
        inner=st.integers(min_value=1, max_value=6),
        cols=st.integers(min_value=1, max_value=40),
        chunk=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_caller_out_never_aliases_or_mutates_input(
        self, rows, inner, cols, chunk, seed
    ):
        """Property: with a caller-owned out buffer, the input batch is
        bitwise untouched and the result shares no memory with it."""
        gen = np.random.default_rng(seed)
        m = gen.normal(size=(rows, inner))
        x = gen.normal(size=(inner, cols))
        x_before = x.copy()
        out = np.full((rows, cols), np.nan)
        result = chunked_apply(m, x, chunk_size=chunk, out=out)
        assert result is out
        assert not np.shares_memory(result, x)
        assert not np.shares_memory(result, m)
        assert np.array_equal(x, x_before)
        assert np.allclose(result, m @ x)
