"""HPC execution layer: chunking, sharding and process-pool execution.

Following the scientific-Python optimisation guidance (vectorise across
samples, bound working-set size, parallelise embarrassingly parallel
work with processes), this subpackage provides:

- :mod:`~repro.parallel.batch` — :func:`chunked_apply`, memory-bounded
  column-chunked application of a dense operator (the serving path's
  streaming GEMM);
- :mod:`~repro.parallel.sharding` — column-shard planning for scattering
  ``(N, M)`` batches across workers (pure index arithmetic);
- :mod:`~repro.parallel.pool` — :class:`WorkerPool`, the persistent
  spawn-context process pool with shared-memory block transfer, behind
  both the ``sharded`` execution backend and pool-attached serving
  sessions;
- :mod:`~repro.parallel.reducer` — :class:`GradientReducer`, the
  data-parallel training engine: per-shard ``loss_and_gradient`` on the
  pool (batch or perturbation-stack sharding) combined by a
  deterministic :func:`tree_reduce`, behind ``Trainer(parallel="pool")``;
- :mod:`~repro.parallel.sweep` — a seeded multiprocessing executor for
  parameter sweeps (layer counts, learning rates, noise levels), used by
  the ablation experiments and built on :class:`WorkerPool`.
"""

from repro.parallel.batch import chunked_apply
from repro.parallel.pool import (
    WorkerPool,
    default_worker_count,
    worker_index,
    worker_rng,
)
from repro.parallel.reducer import (
    GradientReducer,
    resolve_parallel_workers,
    tree_reduce,
    validate_parallel_spec,
)
from repro.parallel.sharding import Shard, plan_shards, shard_views
from repro.parallel.sweep import SweepResult, run_sweep, sweep_grid

__all__ = [
    "chunked_apply",
    "GradientReducer",
    "Shard",
    "SweepResult",
    "WorkerPool",
    "default_worker_count",
    "plan_shards",
    "resolve_parallel_workers",
    "run_sweep",
    "shard_views",
    "sweep_grid",
    "tree_reduce",
    "validate_parallel_spec",
    "worker_index",
    "worker_rng",
]
