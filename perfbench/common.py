"""Shared pieces: paths, metric tables, seeded inputs and the set-up codec.

Every input a workload feeds the program is made here from the run's
``--seed``; the program only ever sees the generated arrays.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
#: Scratch space for one run (checkpoints, span dumps, child logs).
OUT = ROOT / ".perfbench"
PHOTO = ROOT / "benchmarks" / "data" / "photo.pgm"

#: Gated end-to-end metrics and their units; every workload reports all.
END_TO_END = {
    "setup_s": "s",
    "success_ratio": "ratio",
    "throughput_mpix_s": "Mpix/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "psnr_db": "dB",
}

#: Per-layer metrics of the traced run; a layer a workload bypasses
#: reports 0.
PER_LAYER = {
    "imaging.entropy.encode_ms": "ms",
    "imaging.entropy.decode_ms": "ms",
    "imaging.entropy.bytes_in": "bytes",
    "imaging.entropy.bytes_out": "bytes",
    "imaging.container.self_ms": "ms",
    "imaging.tiler.ms": "ms",
    "imaging.transform.ms": "ms",
    "imaging.quantize.ms": "ms",
    "api.session.compress_ms": "ms",
    "api.session.decompress_ms": "ms",
    "api.session.reconstruct_ms": "ms",
    "serving.protocol.decode_us": "us",
    "serving.protocol.encode_us": "us",
    "api.batcher.queue_wait_ms": "ms",
    "api.batcher.flush_ms": "ms",
    "api.batcher.tick_width": "count",
    "serving.server.shed": "count",
    "serving.server.expired": "count",
    "serve.generator_lag_ms": "ms",
    "parallel.pool.map_ms": "ms",
    "parallel.pool.maps_per_step": "count",
    "parallel.reducer.self_ms": "ms",
    "data.stream.batch_wait_ms": "ms",
    "training.optimizers.step_ms": "ms",
    "network.autoencoder.forward_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Tile side and code width of every codec the benchmark builds.
TILE = 4
DIM = TILE * TILE
COMPRESSED_DIM = 4
SETUP_REPEATS = 3
CODEC_DATA_SEED = 2024


def metrics(values: Dict[str, float], table: Dict[str, str]) -> dict:
    """``{name: {"value", "unit"}}`` for every metric of ``table``."""
    missing = set(table) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in table.items()
    }


def layer_metrics(values: Dict[str, float]) -> dict:
    """Per-layer metrics, 0 for every layer the workload did not touch."""
    return metrics({name: values.get(name, 0.0) for name in PER_LAYER},
                   PER_LAYER)


class IdleGuard:
    """Keeps every CPU busy with a lowest-priority spinner while load runs.

    On a virtual machine an idle CPU is handed back to the host, and
    waking it again takes the host anywhere from microseconds to tens of
    milliseconds, depending on its other tenants.  Every workload hands
    work between threads or processes (server threads, pool workers, BLAS
    threads), so that wake-up time, not the program, would set the
    measured time.  A ``nice 19`` spinner per CPU keeps the CPUs awake;
    any runnable thread of the program preempts it at once.  This is the
    virtual-machine analogue of disabling CPU idle states for a latency
    benchmark.
    """

    _SPIN = "import os\nos.nice(19)\nwhile True:\n    pass\n"

    def __enter__(self) -> "IdleGuard":
        self.procs = [
            subprocess.Popen([sys.executable, "-c", self._SPIN])
            for _ in range(len(os.sched_getaffinity(0)))
        ]
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


def timed_median(fn: Callable[[], object], repeats: int = SETUP_REPEATS
                 ) -> Tuple[float, object]:
    """Run ``fn`` ``repeats`` times; median seconds and the last result."""
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


# ----------------------------------------------------------------------
# seeded images
# ----------------------------------------------------------------------
def load_photo() -> np.ndarray:
    from repro.io.image_io import read_pgm

    return read_pgm(PHOTO)


def photo_tiling(photo: np.ndarray, size: int,
                 rng: np.random.Generator) -> np.ndarray:
    """A ``size x size`` crop of a tiling of randomly flipped photos."""
    h, w = photo.shape
    reps_y, reps_x = size // h + 2, size // w + 2
    rows = []
    for _ in range(reps_y):
        row = []
        for _ in range(reps_x):
            tile = photo
            if rng.random() < 0.5:
                tile = tile[::-1, :]
            if rng.random() < 0.5:
                tile = tile[:, ::-1]
            row.append(tile)
        rows.append(np.hstack(row))
    big = np.vstack(rows)
    y = int(rng.integers(0, big.shape[0] - size + 1))
    x = int(rng.integers(0, big.shape[1] - size + 1))
    return np.ascontiguousarray(big[y:y + size, x:x + size])


def synthetic_scene(size: int, rng: np.random.Generator) -> np.ndarray:
    """Ramp, oriented texture, soft blobs and sensor noise."""
    yy, xx = np.meshgrid(np.linspace(0.0, 1.0, size),
                         np.linspace(0.0, 1.0, size), indexing="ij")
    angle = rng.uniform(0.0, np.pi)
    ramp = np.cos(angle) * yy + np.sin(angle) * xx
    freq = rng.uniform(4.0, 9.0)
    scene = 0.45 * ramp + 0.2 * np.sin(freq * np.pi * (xx + 0.3 * yy)) ** 2
    for _ in range(3):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        r = rng.uniform(0.05, 0.2)
        scene += 0.2 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r * r))
    scene += 0.08 * rng.random((size, size))
    scene -= scene.min()
    return scene / scene.max()


#: The image workload's fixed mix: every size at every quality, photo
#: tilings and synthetic scenes in turn; the seed only moves content.
IMAGE_SIZES = (96, 192, 384, 768)
IMAGE_QUALITIES = (30, 60, 90)


def image_set(seed: int) -> List[Tuple[str, np.ndarray, int]]:
    """``(label, image, quality)`` for the image workload, seeded."""
    rng = np.random.default_rng(seed)
    photo = load_photo()
    out = []
    for s, size in enumerate(IMAGE_SIZES):
        for i, quality in enumerate(IMAGE_QUALITIES):
            if (i + s) % 2 == 0:
                label, image = "photo", photo_tiling(photo, size, rng)
            else:
                label, image = "scene", synthetic_scene(size, rng)
            out.append((f"{label}{size}q{quality}", image, quality))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


#: Tile vectors are drawn from at least this many 128^2 images, so one
#: image's content never sets a run's statistics.
VECTOR_IMAGES = 32
VECTOR_IMAGE_SIZE = 128


def tile_vectors(seed: int, count: int) -> np.ndarray:
    """``count`` unit-norm tile-magnitude vectors from seeded images —
    the codec's real input distribution (DCT, quality 90)."""
    from repro.imaging import tile_magnitudes

    rng = np.random.default_rng(seed)
    photo = load_photo()
    rows = []
    have = 0
    while have < count or len(rows) < VECTOR_IMAGES:
        size = VECTOR_IMAGE_SIZE
        image = (photo_tiling(photo, size, rng) if len(rows) % 2 == 0
                 else synthetic_scene(size, rng))
        prep = tile_magnitudes(image, tile_size=TILE, quality=90)
        mags = prep.magnitudes[~prep.zero_tiles]
        rows.append(mags)
        have += len(mags)
    X = np.vstack(rows)
    X = X[rng.permutation(len(X))[:count]]
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def fit_codec(samples: int = 512, iterations: int = 60):
    """The tile codec trained at set-up (``dim=16``, ``d=4``, fused).

    Its training tiles are fixed, not drawn from the run's seed: the
    codec is the system under test, the seed only varies its inputs.
    """
    from repro.api import Codec, CodecSpec

    spec = CodecSpec(
        dim=DIM,
        compressed_dim=COMPRESSED_DIM,
        iterations=iterations,
        backend="fused",
        optimizer="adam",
        loss_mode="mean",
        seed=7,
        tile_size=TILE,
    )
    return Codec(spec).fit(tile_vectors(CODEC_DATA_SEED, samples))
