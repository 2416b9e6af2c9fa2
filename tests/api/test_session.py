"""Tests for repro.api.session (InferenceSession)."""

import numpy as np
import pytest

from repro.api import Codec, CodecSpec, InferenceSession
from repro.data.binary_images import paper_dataset
from repro.exceptions import DimensionError, ServingError
from repro.network.autoencoder import QuantumAutoencoder

TOL = 1e-10


def _autoencoder(seed=0, **kwargs):
    return QuantumAutoencoder(4, 2, 2, 2, **kwargs).initialize(
        "uniform", rng=np.random.default_rng(seed)
    )


def _data(m=6, n=4, seed=1):
    return np.abs(np.random.default_rng(seed).normal(size=(m, n))) + 0.1


class TestEagerParity:
    def test_paper_config_parity(self):
        """Compiled single-GEMM pass == eager forward to <= 1e-10."""
        codec = Codec(CodecSpec(iterations=3, backend="fused"))
        X = paper_dataset().matrix()
        codec.fit(X)
        session = codec.session()
        np.testing.assert_allclose(
            session.reconstruct(X), codec.forward(X).x_hat, atol=TOL, rtol=0
        )

    @pytest.mark.parametrize("allow_phase", [False, True])
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_parity_matrix(self, allow_phase, renormalize):
        ae = _autoencoder(allow_phase=allow_phase, renormalize=renormalize)
        session = InferenceSession(ae)
        X = _data()
        np.testing.assert_allclose(
            session.reconstruct(X), ae.forward(X).x_hat, atol=TOL, rtol=0
        )

    def test_compress_decompress_parity(self):
        ae = _autoencoder()
        session = InferenceSession(ae)
        X = _data()
        eager = ae.forward(X)
        payload = session.compress(X)
        np.testing.assert_allclose(
            payload.codes, eager.compact_codes, atol=TOL, rtol=0
        )
        np.testing.assert_allclose(
            session.decompress(payload), eager.x_hat, atol=TOL, rtol=0
        )

    def test_decompress_raw_codes(self):
        session = InferenceSession(_autoencoder())
        X = _data()
        payload = session.compress(X)
        with pytest.raises(DimensionError):
            session.decompress(payload.codes)
        with pytest.raises(DimensionError):
            session.decompress(np.zeros((3, 2)), np.ones(2))
        assert np.array_equal(
            session.decompress(payload.codes, payload.squared_norms),
            session.decompress(payload),
        )


class TestImmutability:
    def test_later_training_does_not_leak(self):
        ae = _autoencoder()
        session = InferenceSession(ae)
        X = _data()
        before = session.reconstruct(X)
        ae.uc.set_flat_params(
            np.random.default_rng(5).normal(size=ae.uc.num_parameters)
        )
        assert np.array_equal(session.reconstruct(X), before)
        assert not np.allclose(ae.forward(X).x_hat, before)

    def test_operator_is_read_only_copy(self):
        session = InferenceSession(_autoencoder())
        op = session.pipeline_operator()
        op[:] = 0.0  # mutating the copy ...
        assert not np.allclose(session.pipeline_operator(), 0.0)

    def test_source_network_backend_untouched(self):
        ae = _autoencoder(backend="loop")
        InferenceSession(ae)
        assert ae.uc.backend.name == "loop"


class TestChunking:
    def test_oversized_tick_streams_in_chunks(self):
        ae = _autoencoder()
        session = InferenceSession(ae, chunk_size=7)
        wide = InferenceSession(ae)
        X = _data(m=50)
        # Chunk boundaries change BLAS blocking, so equality is to
        # rounding, not bitwise.
        np.testing.assert_allclose(
            session.reconstruct(X), wide.reconstruct(X), atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(
            session.compress(X).codes, wide.compress(X).codes,
            atol=1e-12, rtol=0,
        )

    def test_allow_phase_chunks_match_eager(self):
        """Phase-bearing pipelines stream complex codes through chunks."""
        ae = _autoencoder(allow_phase=True)
        session = InferenceSession(ae, chunk_size=5, flush_latency=None)
        X = _data(m=12)
        eager = ae.forward(X)
        codes = session.compress(X).codes
        assert np.iscomplexobj(codes)
        assert np.any(np.abs(codes.imag) > 1e-12)
        np.testing.assert_allclose(codes, eager.compact_codes, atol=TOL, rtol=0)
        np.testing.assert_allclose(
            session.reconstruct(X), eager.x_hat, atol=TOL, rtol=0
        )

    def test_reconstruct_dtype_follows_eager_result(self):
        """Chunked and eager reconstructions of a phase-bearing
        autoencoder agree in dtype, not only in value."""
        ae = _autoencoder(allow_phase=True)
        X = _data(m=9)
        direct = ae.forward(X).x_hat
        chunked = InferenceSession(
            ae, chunk_size=4, flush_latency=None
        ).reconstruct(X)
        assert chunked.dtype == direct.dtype
        np.testing.assert_allclose(chunked, direct, atol=TOL, rtol=0)

    def test_empty_batch_rejected(self):
        session = InferenceSession(_autoencoder(), flush_latency=None)
        with pytest.raises(DimensionError):
            session.reconstruct(np.empty((0, 4)))

    def test_chunk_size_validated(self):
        with pytest.raises(ServingError):
            InferenceSession(_autoencoder(), chunk_size=0)


class TestLifecycle:
    def test_from_codec(self):
        codec = Codec(
            CodecSpec(dim=4, compressed_dim=2, compression_layers=2,
                      reconstruction_layers=2, iterations=2)
        )
        session = codec.session(chunk_size=128)
        assert session.dim == 4
        assert session.chunk_size == 128

    def test_context_manager_closes_batcher(self):
        with InferenceSession(_autoencoder(), flush_latency=None) as session:
            future = session.submit(_data(m=1)[0])
            session.flush()
        assert future.result(timeout=1.0).shape == (4,)
        with pytest.raises(ServingError):
            session.submit(_data(m=1)[0])

    def test_flush_without_batcher_is_noop(self):
        assert InferenceSession(_autoencoder()).flush() == 0

    def test_close_before_any_submit_still_closes(self):
        """A never-used session must not resurrect through the lazy
        batcher after close()."""
        session = InferenceSession(_autoencoder(), flush_latency=None)
        session.close()
        with pytest.raises(ServingError):
            session.submit(_data(m=1)[0])

    def test_repr_mentions_shape(self):
        assert "dim=4" in repr(InferenceSession(_autoencoder()))


class TestPoolAttachment:
    def test_pool_defaults_to_none(self):
        session = InferenceSession(_autoencoder())
        assert session.pool is None
        assert "pool" not in repr(session)

    def test_small_ticks_never_touch_the_pool(self):
        class Exploder:
            processes = 2

            def apply_dense(self, *a, **k):  # pragma: no cover - guard
                raise AssertionError("small tick scattered to the pool")

        session = InferenceSession(
            _autoencoder(), chunk_size=64, pool=Exploder()
        )
        X = _data(m=10)
        ref = InferenceSession(_autoencoder(), chunk_size=64)
        np.testing.assert_allclose(
            session.reconstruct(X), ref.reconstruct(X), atol=0, rtol=0
        )

    @pytest.mark.slow
    def test_oversized_ticks_scatter_and_match(self):
        from repro.parallel.pool import WorkerPool

        ae = _autoencoder()
        with WorkerPool(processes=2) as pool:
            sharded = InferenceSession(ae, chunk_size=16, pool=pool)
            plain = InferenceSession(ae, chunk_size=16)
            assert sharded.pool is pool
            assert "pool=2 workers" in repr(sharded)
            X = _data(m=200, seed=5)
            np.testing.assert_allclose(
                sharded.reconstruct(X), plain.reconstruct(X),
                atol=TOL, rtol=0,
            )
            payload = sharded.compress(X)
            np.testing.assert_allclose(
                payload.codes, plain.compress(X).codes, atol=TOL, rtol=0
            )
            np.testing.assert_allclose(
                sharded.decompress(payload), plain.decompress(payload),
                atol=TOL, rtol=0,
            )

    @pytest.mark.slow
    def test_renormalize_path_through_pool(self):
        from repro.parallel.pool import WorkerPool

        ae = _autoencoder(renormalize=True)
        with WorkerPool(processes=2) as pool:
            sharded = InferenceSession(ae, chunk_size=16, pool=pool)
            plain = InferenceSession(ae, chunk_size=16)
            X = _data(m=120, seed=8)
            np.testing.assert_allclose(
                sharded.reconstruct(X), plain.reconstruct(X),
                atol=TOL, rtol=0,
            )
