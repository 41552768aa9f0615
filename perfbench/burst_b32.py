"""``burst-b32``: back-to-back 32-window forwards at the paper configuration.

Buffered burst scoring of the paper's model (``HybridConfig()``, width 64):
one caller runs :class:`PackedModel` forwards on 32-window batches, closed
loop.  Matmul gathers are nearly all of the time (conv1 and the pointwise
layers most of it) and the tree is under 1 %, so scratch-budget, per-layer
plan and BLAS changes show here and tree changes do not.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from common import (
    Result,
    SpeedProbe,
    block_ops_per_s,
    block_percentile_ms,
    image_bytes,
    keyword_streams,
    median_setup_s,
    peak_alloc_bytes,
    percentile_ms,
    same_bits,
    stream_windows,
)
from repro.core.hybrid import HybridConfig
from repro.deploy.image import ModelImage
from repro.evaluation import StreamingConfig
from repro.serving import PackedModel
from repro.serving.kernels_fast import resolve_backend
from tracing import LayerTimingBackend

WIDTH = HybridConfig().width
BATCH = 32
#: distinct batches cycled by the caller (their reference scores are
#: computed once, before timing)
DISTINCT_BATCHES = 4
SETUP_REPEATS = 31


def run(seed: int, seconds: float, trace: bool) -> Result:
    """Measure the workload for ``seconds``; per-layer metrics when ``trace``.

    The traced run alternates forwards between an untraced and a traced
    model, so ``trace.overhead_ms`` compares like with like.
    """
    config = StreamingConfig()
    blob = image_bytes(WIDTH)
    windows = stream_windows(keyword_streams(seed, 2), config)
    if len(windows) < BATCH * DISTINCT_BATCHES:
        raise RuntimeError(f"only {len(windows)} windows synthesised")
    order = np.random.default_rng(seed).permutation(len(windows))
    batches = [windows[order[i * BATCH : (i + 1) * BATCH]] for i in range(DISTINCT_BATCHES)]
    reference = PackedModel(ModelImage.from_bytes(blob), kernel="reference")
    expected = [reference(batch) for batch in batches]
    # a buffered burst must be scored before the next buffer of audio fills
    slo_s = BATCH * config.hop_ms / 1000.0
    parse_s: List[float] = []
    decode_s: List[float] = []

    def build(traced: bool):
        start = time.perf_counter()
        image = ModelImage.from_bytes(blob)
        parsed = time.perf_counter()
        kernel = LayerTimingBackend(resolve_backend(None), image) if traced else None
        packed = PackedModel(image, kernel=kernel)
        parse_s.append(parsed - start)
        decode_s.append(time.perf_counter() - parsed)
        return image, packed

    probe = SpeedProbe()
    setup_s, setup_wall_s, (image, packed) = median_setup_s(
        lambda: build(trace), SETUP_REPEATS, probe
    )
    models = [packed]
    if trace:
        packed.kernel_backend.check_complete()
        models.insert(0, build(False)[1])
    peak = 0 if trace else peak_alloc_bytes(lambda: packed(batches[0]))
    for model in models:
        model(batches[0])  # warm-up, outside every counter below
    if trace:
        packed.kernel_backend.reset()

    latencies: List[List[float]] = [[] for _ in models]
    probes: List[float] = []  # a SpeedProbe pass after each forward
    attempted = failed = slo_met = 0
    calls = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        which = calls % len(models)
        k = (calls // len(models)) % DISTINCT_BATCHES
        calls += 1
        start = time.perf_counter()
        scores = models[which](batches[k])
        latency = time.perf_counter() - start
        latencies[which].append(latency)
        probes.append(probe())
        ok = same_bits(scores, expected[k])
        attempted += 1
        failed += not ok
        slo_met += ok and latency <= slo_s

    measured = latencies[-1]
    forwards = len(measured)
    info = {"operations": attempted, "batch": BATCH, "slo_ms": slo_s * 1e3}
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": block_percentile_ms(measured, 50, probes=probes),
            # about a hundred forwards a run: this reads close to the slowest
            "latency_p99_ms": percentile_ms(measured, 99),
            "windows_per_s": BATCH * block_ops_per_s(measured, probes=probes),
            "slo_met_frac": slo_met / attempted,
            "ok_frac": (attempted - failed) / attempted,
            "image_bytes": image.total_bytes(),
            "resident_bytes": packed.decoded_bytes(),
            "peak_alloc_bytes": peak,
            "wall.setup_s": setup_wall_s,
            "wall.latency_p50_ms": block_percentile_ms(measured, 50),
            "wall.windows_per_s": BATCH * block_ops_per_s(measured),
            "probe_ms": percentile_ms(probes, 50),
        }
    else:
        metrics = {
            "deploy.load_ms": float(np.median(parse_s)) * 1e3,
            "packed.decode_ms": float(np.median(decode_s)) * 1e3,
            **packed.kernel_backend.metrics(forwards, BATCH * forwards, sum(measured) * 1e3),
            "trace.overhead_ms": percentile_ms(measured, 50) - percentile_ms(latencies[0], 50),
        }
    return Result(attempted > 0 and failed == 0, attempted, failed, metrics, info)
