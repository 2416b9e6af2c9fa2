"""Workload ``image_roundtrip``: the paper's pipeline on whole images.

Closed loop, one caller.  Each image is compressed in quantum mode
through a compiled :class:`~repro.api.session.InferenceSession` of the
tile codec trained at set-up, serialized with ``to_bytes``, parsed back
with ``from_bytes`` and reconstructed with ``decompress_image``.  The
loop cycles over the seeded image set until the time is up; every round
trip is checked (exact container round trip, PSNR above a floor).
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from perfbench import common
from perfbench.spans import SpanRecorder, mean_ms
from perfbench.stats import timing_summary

#: Below this a reconstruction is wrong, not just lossy (the codec
#: measures 27-29 dB on these images).
PSNR_FLOOR_DB = 20.0
#: Latencies are reported per 384^2 image.
REFERENCE_PIXELS = 384 * 384


def install_spans(rec: SpanRecorder) -> None:
    """Wrap each imaging layer where the pipeline looks it up."""
    import repro.imaging.container as container
    import repro.imaging.pipeline as pipeline
    from repro.api.session import InferenceSession
    from repro.imaging.container import CompressedImage
    from repro.imaging.quantize import QuantizationTable
    from repro.imaging.tiler import TileGrid
    from repro.imaging.transform import TileTransform

    rec.wrap(container, "compress_bytes", "imaging.entropy.encode",
             lambda args, out: {"entropy.bytes_in": len(args[0]),
                                "entropy.bytes_out": len(out)})
    rec.wrap(container, "decompress_bytes_from", "imaging.entropy.decode")
    rec.wrap(CompressedImage, "to_bytes", "imaging.container")
    rec.wrap(CompressedImage, "from_bytes", "imaging.container")
    rec.wrap(pipeline, "split_tiles", "imaging.tiler")
    rec.wrap(TileGrid, "assemble", "imaging.tiler")
    rec.wrap(TileTransform, "forward", "imaging.transform")
    rec.wrap(TileTransform, "inverse", "imaging.transform")
    rec.wrap(QuantizationTable, "quantize", "imaging.quantize")
    rec.wrap(QuantizationTable, "dequantize", "imaging.quantize")
    rec.wrap(InferenceSession, "compress", "api.session.compress")
    rec.wrap(InferenceSession, "decompress", "api.session.decompress")


def _setup():
    return common.fit_codec().session(flush_latency=None)


def _round_trips(session, images, seconds: float) -> Dict[str, List]:
    """Cycle over ``images`` for ``seconds``; per-image timings."""
    from repro.imaging import CompressedImage, compress_image, decompress_image
    from repro.training.metrics import psnr

    rows: Dict[str, List] = {
        "compress_s": [], "decompress_s": [], "pixels": [], "bytes": [],
        "sq_err": [], "ok": [],
    }
    clock = time.perf_counter
    end = clock() + seconds
    passes = 0
    with common.IdleGuard():
        while clock() < end or passes == 0:
            for _, image, quality in images:
                t0 = clock()
                blob = compress_image(image, session, quality=quality)
                data = blob.to_bytes()
                t1 = clock()
                back = CompressedImage.from_bytes(data)
                out = decompress_image(back, session)
                t2 = clock()
                ok = (back == blob and out.shape == image.shape
                      and bool(np.all(np.isfinite(out)))
                      and psnr(out, image) >= PSNR_FLOOR_DB)
                rows["compress_s"].append(t1 - t0)
                rows["decompress_s"].append(t2 - t1)
                rows["pixels"].append(image.size)
                rows["bytes"].append(len(data))
                rows["sq_err"].append(float(np.sum((out - image) ** 2)))
                rows["ok"].append(bool(ok))
            passes += 1
    rows["passes"] = passes
    return rows


def _summarize(rows, images) -> Dict[str, float]:
    n = len(rows["ok"])
    pixels = float(sum(rows["pixels"]))
    comp = float(sum(rows["compress_s"]))
    decomp = float(sum(rows["decompress_s"]))
    # Each round trip scaled to a 384^2 image: the sizes span 64x in
    # pixels, so unscaled percentiles would only say which size sits at
    # the rank.
    per_image_ms = [1e3 * (c + d) * REFERENCE_PIXELS / p for c, d, p in
                    zip(rows["compress_s"], rows["decompress_s"],
                        rows["pixels"])]
    lat = timing_summary(per_image_ms)
    mse = sum(rows["sq_err"]) / pixels
    return {
        "n": n,
        "passes": rows["passes"],
        "ok": sum(rows["ok"]),
        "compress_mpix_s": pixels / comp / 1e6,
        "decompress_mpix_s": pixels / decomp / 1e6,
        "throughput_mpix_s": pixels / (comp + decomp) / 1e6,
        "bpp": 8.0 * sum(rows["bytes"]) / pixels,
        "psnr_db": float(10.0 * np.log10(1.0 / mse)),
        "latency": lat,
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    images = common.image_set(seed)
    setup_s, session = common.timed_median(_setup)
    # Warm-up: one untimed round trip of the smallest image fills lazy
    # caches (operator folds, transform plans).
    smallest = min(images, key=lambda item: item[1].size)
    _round_trips(session, [smallest], 0.0)

    if not trace:
        rows = _round_trips(session, images, seconds)
        s = _summarize(rows, images)
        lat = s["latency"]
        values = {
            "setup_s": setup_s,
            "success_ratio": s["ok"] / s["n"],
            "throughput_mpix_s": s["throughput_mpix_s"],
            "latency_p50_ms": lat["p50"],
            "latency_tail_ms": lat["tail"],
            "psnr_db": s["psnr_db"],
        }
        report = [
            f"setup_s={setup_s:.4f} s (median of {common.SETUP_REPEATS} "
            f"fits + session compiles)",
            f"images={s['n']} in {s['passes']} passes over {len(images)} "
            f"images, 96^2..768^2 at q30/q60/q90",
            f"compress_mpix_s={s['compress_mpix_s']:.4f} Mpix/s "
            f"(n={s['n']} images)",
            f"decompress_mpix_s={s['decompress_mpix_s']:.4f} Mpix/s "
            f"(n={s['n']} images)",
            f"throughput_mpix_s={s['throughput_mpix_s']:.4f} Mpix/s round "
            f"trip (all pixels over all round-trip time, n={s['n']})",
            f"latency_p50_ms={lat['p50']:.3f} ms, latency_tail_ms="
            f"p{lat['tail_q']:g} {lat['tail']:.3f} ms per round trip, "
            f"scaled to a 384^2 image (n={lat['n']} images)",
            f"bpp={s['bpp']:.4f} bits/pixel (measured bytes, n={s['n']})",
            f"psnr_db={s['psnr_db']:.4f} dB (pooled MSE, n={s['n']})",
            f"fail_ratio={(s['n'] - s['ok']) / s['n']:.6f} "
            f"({s['n'] - s['ok']} of {s['n']})",
        ]
        return {
            "correct": s["ok"] == s["n"],
            "attempted": s["n"],
            "failed": s["n"] - s["ok"],
            "metrics": common.metrics(values, common.END_TO_END),
            "report": report,
        }

    # Traced run: half untraced, half traced; the rate difference is the
    # tracing overhead.
    plain = _summarize(_round_trips(session, images, seconds / 2), images)
    rec = SpanRecorder()
    install_spans(rec)
    try:
        rows = _round_trips(session, images, seconds / 2)
    finally:
        rec.restore()
    traced = _summarize(rows, images)
    spans = rec.summary()
    n_enc = max(spans.get("imaging.entropy.encode", {}).get("calls", 0), 1)
    values = {
        "imaging.entropy.encode_ms": mean_ms(spans, "imaging.entropy.encode"),
        "imaging.entropy.decode_ms": mean_ms(spans, "imaging.entropy.decode"),
        "imaging.entropy.bytes_in": rec.counters.get("entropy.bytes_in", 0)
        / n_enc,
        "imaging.entropy.bytes_out": rec.counters.get("entropy.bytes_out", 0)
        / n_enc,
        "imaging.container.self_ms": mean_ms(spans, "imaging.container",
                                             "self_s"),
        "imaging.tiler.ms": mean_ms(spans, "imaging.tiler"),
        "imaging.transform.ms": mean_ms(spans, "imaging.transform"),
        "imaging.quantize.ms": mean_ms(spans, "imaging.quantize"),
        "api.session.compress_ms": mean_ms(spans, "api.session.compress"),
        "api.session.decompress_ms": mean_ms(spans, "api.session.decompress"),
        "trace.overhead_pct": 100.0 * (
            plain["throughput_mpix_s"] / traced["throughput_mpix_s"] - 1.0),
    }
    report = [f"{name}: calls={row['calls']} total={row['total_s']:.4f} s "
              f"self={row['self_s']:.4f} s" for name, row in
              sorted(spans.items())]
    return {
        "correct": traced["ok"] == traced["n"] and plain["ok"] == plain["n"],
        "attempted": traced["n"] + plain["n"],
        "failed": traced["n"] - traced["ok"] + plain["n"] - plain["ok"],
        "metrics": common.layer_metrics(values),
        "report": report,
    }
