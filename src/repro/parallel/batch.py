"""Memory-bounded application of a dense operator to a wide batch.

Serving folds a frozen pipeline into dense operators (see
:class:`repro.api.InferenceSession`), so streaming a large batch is one
GEMM per column chunk.  :func:`chunked_apply` bounds the ``(N, M)``
working set to one ``(rows, chunk_size)`` block and can write into a
caller-owned output array.  Streaming a whole autoencoder pipeline in
chunks is ``InferenceSession(ae, chunk_size=...).reconstruct(X)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import DimensionError

__all__ = ["chunked_apply"]


def chunked_apply(
    matrix: np.ndarray,
    data: np.ndarray,
    chunk_size: int = 4096,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``matrix @ data`` computed in column chunks of ``data``.

    Peak extra memory is bounded by one ``(rows, chunk_size)`` block, so
    oversized serving ticks (see :class:`repro.api.MicroBatcher`) stream
    through a precompiled operator without materialising a second
    full-width batch.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> m, x = rng.normal(size=(3, 4)), rng.normal(size=(4, 10))
    >>> bool(np.allclose(chunked_apply(m, x, chunk_size=3), m @ x))
    True
    """
    if chunk_size < 1:
        raise DimensionError(f"chunk_size must be >= 1, got {chunk_size}")
    mat = np.asarray(matrix)
    arr = np.asarray(data)
    if mat.ndim != 2 or arr.ndim != 2 or mat.shape[1] != arr.shape[0]:
        raise DimensionError(
            f"cannot apply {mat.shape} operator to {arr.shape} batch"
        )
    dtype = np.result_type(mat.dtype, arr.dtype)
    shape = (mat.shape[0], arr.shape[1])
    if out is None:
        out = np.empty(shape, dtype=dtype)
    elif out.shape != shape:
        raise DimensionError(f"out shape {out.shape} != result shape {shape}")
    elif not np.can_cast(dtype, out.dtype, casting="safe"):
        raise DimensionError(
            f"out buffer dtype {out.dtype} cannot safely hold the {dtype} "
            "product"
        )
    for start in range(0, arr.shape[1], chunk_size):
        stop = min(start + chunk_size, arr.shape[1])
        np.matmul(mat, arr[:, start:stop], out=out[:, start:stop])
    return out
