"""Workload ``train_pool``: data-parallel training on a worker pool.

``Trainer`` runs Algorithm 1 on 16384 seeded tile-magnitude vectors with
``parallel="pool:2"`` (a :class:`~repro.parallel.reducer.GradientReducer`
over a two-process :class:`~repro.parallel.pool.WorkerPool`), 1024-sample
mini-batches streamed by ``MiniBatchStream``, adjoint gradients, Adam at
0.01 on the mean loss and the ``fused`` backend.  Each iteration is timed
by a public ``Callback``.  Two short repeat runs re-measure set-up and
must reproduce the main run's first losses bitwise.
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import List

import numpy as np

from perfbench import common
from perfbench.spans import SpanRecorder, mean_ms
from perfbench.stats import percentile, timing_summary

SAMPLES = 16384
BATCH = 1024
WORKERS = 2
LEARNING_RATE = 0.01
MODEL_SEED = 7
#: Iterations per second of ``--seconds``: the count is fixed by the
#: arguments, never by the clock, so the final loss repeats bitwise.
ITERATIONS_PER_SECOND = 15
CHECK_ITERATIONS = 3
#: Iterations left out of the step statistics (pool warm-up).
WARMUP_ITERATIONS = 2


def _callback_class():
    from repro.training.callbacks import Callback

    class StepTimer(Callback):
        """Wall-clock time at train start and at each iteration's end."""

        def __init__(self) -> None:
            self.marks: List[float] = []

        def on_train_start(self, context: dict) -> None:
            self.marks.append(time.perf_counter())

        def on_iteration_end(self, iteration: int, record: dict) -> bool:
            self.marks.append(time.perf_counter())
            return False

    return StepTimer


def train_once(seed: int, iterations: int) -> dict:
    """Set up and train; set-up runs until the first iteration ends."""
    from repro.api import CodecSpec
    from repro.exceptions import TrainingError
    from repro.network.targets import TruncatedInputTarget
    from repro.training.optimizers import Adam
    from repro.training.trainer import Trainer

    t0 = time.perf_counter()
    X = common.tile_vectors(seed, SAMPLES)
    # The initial model is part of the system under test, not an input.
    ae = CodecSpec(dim=common.DIM, compressed_dim=common.COMPRESSED_DIM,
                   seed=MODEL_SEED).build_autoencoder()
    target = TruncatedInputTarget.from_pca(ae.projection, X)
    timer = _callback_class()()
    trainer = Trainer(
        iterations=iterations,
        gradient_method="adjoint",
        optimizer_factory=partial(Adam, LEARNING_RATE),
        update_reduction="mean",
        batch_size=BATCH,
        batch_seed=seed,
        backend="fused",
        parallel=f"pool:{WORKERS}",
        record_theta_every=None,
        callbacks=[timer],
    )
    error = None
    try:
        with common.IdleGuard():
            result = trainer.train(ae, X, target_strategy=target)
    except TrainingError as exc:  # NaNGuard: a non-finite loss
        result, error = None, str(exc)
    marks = timer.marks
    steps = [b - a for a, b in zip(marks[:-1], marks[1:])]
    return {
        "setup_s": marks[1] - t0 if len(marks) > 1 else math.inf,
        "steps_s": steps,
        "result": result,
        "error": error,
        "X": X,
    }


def install_spans(rec: SpanRecorder) -> None:
    from repro.data.stream import MiniBatchStream
    from repro.network.autoencoder import QuantumAutoencoder
    from repro.parallel.pool import WorkerPool
    from repro.parallel.reducer import GradientReducer
    from repro.training.optimizers import Adam

    rec.wrap(WorkerPool, "map", "parallel.pool.map")
    rec.wrap(GradientReducer, "loss_and_gradient", "parallel.reducer")
    rec.wrap(Adam, "step", "training.optimizers.step")
    rec.wrap(QuantumAutoencoder, "forward_encoded",
             "network.autoencoder.forward")
    batches = MiniBatchStream.batches

    def timed_batches(stream, *args, **kwargs):
        inner = batches(stream, *args, **kwargs)
        try:
            while True:
                with rec.span("data.stream.batch_wait"):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                yield item
        finally:
            inner.close()

    rec.replace(MiniBatchStream, "batches", timed_batches)


def _losses(run: dict) -> List[float]:
    history = run["result"].history
    return list(history.loss_c.values()) + list(history.loss_r.values())


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.training.metrics import psnr

    if trace:
        return _run_traced(seed, seconds)
    iterations = max(30, int(seconds * ITERATIONS_PER_SECOND))
    main = train_once(seed, iterations)
    checks = [train_once(seed, CHECK_ITERATIONS) for _ in range(2)]
    setup_s = float(np.median([r["setup_s"] for r in [main, *checks]]))
    result = main["result"]
    steps_ms = [1e3 * s for s in main["steps_s"][WARMUP_ITERATIONS:]]
    done = len(main["steps_s"])
    correct = result is not None and all(c["result"] is not None
                                         for c in checks)
    final_loss = math.nan
    psnr_db = 0.0
    if correct:
        history = result.history
        final_loss = float(history.loss_r[-1])
        main_prefix = (list(history.loss_c[:CHECK_ITERATIONS])
                       + list(history.loss_r[:CHECK_ITERATIONS]))
        correct = (math.isfinite(final_loss)
                   and all(_losses(c) == main_prefix for c in checks))
        psnr_db = float(psnr(result.final_x_hat, main["X"]))
    lat = timing_summary(steps_ms)
    ok_steps = done if correct else 0
    values = {
        "setup_s": setup_s,
        "success_ratio": ok_steps / iterations,
        "throughput_mpix_s": BATCH * common.DIM / (lat["p50"] / 1e3) / 1e6,
        "latency_p50_ms": lat["p50"],
        "latency_tail_ms": lat["tail"],
        "psnr_db": psnr_db,
    }
    report = [
        f"setup_s={setup_s:.4f} s (median of 3: inputs, model, pool "
        f"spawn and first iteration)",
        f"iterations={done} of {iterations}, {SAMPLES} samples, batch "
        f"{BATCH}, pool:{WORKERS}",
        f"step_p50_ms={lat['p50']:.3f} ms per iteration (n={lat['n']})",
        f"step_p{lat['tail_q']:g}_ms={lat['tail']:.3f} ms (n={lat['n']})",
        f"final_loss={final_loss!r} (loss_r after {done} iterations; "
        f"first {CHECK_ITERATIONS} iterations bitwise equal in 2 repeat "
        f"runs: {correct})",
        f"throughput_mpix_s={values['throughput_mpix_s']:.4f} Mpix/s of "
        f"training vectors at step_p50",
        f"psnr_db={psnr_db:.4f} dB final reconstruction of the training set",
        f"fail_ratio={(iterations - ok_steps) / iterations:.6f}",
    ]
    return {
        "correct": bool(correct),
        "attempted": iterations,
        "failed": iterations - ok_steps,
        "metrics": common.metrics(values, common.END_TO_END),
        "report": report,
    }


def _run_traced(seed: int, seconds: float) -> dict:
    iterations = max(20, int(seconds / 2 * ITERATIONS_PER_SECOND))
    plain = train_once(seed, iterations)
    rec = SpanRecorder()
    install_spans(rec)
    try:
        traced = train_once(seed, iterations)
    finally:
        rec.restore()
    spans = rec.summary()
    runs = (plain, traced)
    ok = all(r["result"] is not None for r in runs)
    p50 = [percentile(r["steps_s"][WARMUP_ITERATIONS:], 50.0) for r in runs]
    done = len(traced["steps_s"])
    maps = spans.get("parallel.pool.map", {}).get("calls", 0)
    values = {
        "parallel.pool.map_ms": mean_ms(spans, "parallel.pool.map"),
        "parallel.pool.maps_per_step": maps / max(done, 1),
        "parallel.reducer.self_ms": mean_ms(spans, "parallel.reducer",
                                            "self_s"),
        "data.stream.batch_wait_ms": mean_ms(spans,
                                             "data.stream.batch_wait"),
        "training.optimizers.step_ms": mean_ms(spans,
                                               "training.optimizers.step"),
        "network.autoencoder.forward_ms": mean_ms(
            spans, "network.autoencoder.forward"),
        "trace.overhead_pct": 100.0 * (p50[1] / p50[0] - 1.0),
    }
    report = [f"{name}: calls={row['calls']} total={row['total_s']:.4f} s "
              f"self={row['self_s']:.4f} s" for name, row in
              sorted(spans.items())]
    report.append(f"step_p50_ms untraced {1e3 * p50[0]:.3f}, traced "
                  f"{1e3 * p50[1]:.3f} (n={done - WARMUP_ITERATIONS} each)")
    failed = sum(iterations - len(r["steps_s"]) for r in runs)
    return {
        "correct": ok,
        "attempted": 2 * iterations,
        "failed": failed if ok else 2 * iterations,
        "metrics": common.layer_metrics(values),
        "report": report,
    }
