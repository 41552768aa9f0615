"""``stream-b1``: one KWS session at width 8, fed hop by hop, closed loop.

The realtime on-device case at batch 1.  Seeded keyword streams are fed in
250 ms chunks into a :class:`StreamSessionManager` over a synchronous
:class:`BatchingEngine` over :class:`PackedModel`; the single client feeds
the next hop only after the previous hop's smoothed decision is out.  At
this size the 34 tiny tree matmuls, per-call overhead and MFCC dominate,
and gather volume barely matters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

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
from repro.deploy.image import ModelImage
from repro.evaluation import StreamingConfig, StreamingDetector
from repro.serving import BatchingEngine, PackedModel, StreamSessionManager
from repro.serving.kernels_fast import resolve_backend
from tracing import LayerTimingBackend, Stopwatch

WIDTH = 8
#: distinct streams (about 30 s of audio each) the client cycles through
POOL_STREAMS = 4
SETUP_REPEATS = 31


@dataclass
class Stack:
    """One image -> PackedModel -> engine -> manager stack and its tallies."""

    image: ModelImage
    packed: PackedModel
    engine: BatchingEngine
    manager: StreamSessionManager
    latencies: List[float] = field(default_factory=list)
    #: a SpeedProbe pass after each hop, in time order
    probes: List[float] = field(default_factory=list)
    feed_s: float = 0.0
    collect_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    slo_met: int = 0
    model: Optional[Stopwatch] = None
    submit: Optional[Stopwatch] = None
    flush: Optional[Stopwatch] = None

    def instrument(self) -> None:
        """Time the engine's model call and its own submit/flush work."""
        self.model, self.submit, self.flush = Stopwatch(), Stopwatch(), Stopwatch()
        self.engine.model = self.model.wrap(self.engine.model)
        self.engine.submit_many = self.submit.wrap(self.engine.submit_many)
        self.engine.flush = self.flush.wrap(self.engine.flush)


def feed_stream(
    stack: Stack, waveform, expected, hop: int, slo_s: float, deadline: float, probe: SpeedProbe
) -> None:
    """Feed one stream hop by hop into a new session, then check its bits.

    The host's speed is probed after each hop, outside its timing.
    """
    session = stack.manager.open()
    latencies: List[float] = []
    for lo in range(0, len(waveform), hop):
        t0 = time.perf_counter()
        ready = session.feed(waveform[lo : lo + hop])
        t1 = time.perf_counter()
        stack.manager.pump()
        t2 = time.perf_counter()
        stack.manager.collect()
        t3 = time.perf_counter()
        stack.feed_s += t1 - t0
        stack.collect_s += t3 - t2
        latencies.extend([t3 - t0] * ready)
        stack.probes.append(probe())
        if t3 >= deadline:
            break
    session.close()
    _, probs = session.posteriors()
    for i, latency in enumerate(latencies):
        ok = i < len(probs) and same_bits(probs[i], expected[i])
        stack.attempted += 1
        stack.failed += not ok
        stack.slo_met += ok and latency <= slo_s
    stack.latencies.extend(latencies)


def run(seed: int, seconds: float, trace: bool) -> Result:
    """Measure the workload for ``seconds``; per-layer metrics when ``trace``.

    The traced run alternates stream passes between an untraced and a
    traced stack, so ``trace.overhead_ms`` compares like with like.
    """
    config = StreamingConfig()
    blob = image_bytes(WIDTH)
    waveforms = keyword_streams(seed, POOL_STREAMS)
    solo = StreamingDetector(PackedModel(ModelImage.from_bytes(blob)), config)
    expected = [solo.posteriors(waveform)[1] for waveform in waveforms]
    window = stream_windows(waveforms[:1], config)[:1]
    # a decision is realtime when it is out before the next hop arrives
    slo_s = config.hop_ms / 1000.0
    parse_s: List[float] = []
    decode_s: List[float] = []

    def build(traced: bool) -> Stack:
        start = time.perf_counter()
        image = ModelImage.from_bytes(blob)
        parsed = time.perf_counter()
        kernel = LayerTimingBackend(resolve_backend(None), image) if traced else None
        packed = PackedModel(image, kernel=kernel)
        decoded = time.perf_counter()
        parse_s.append(parsed - start)
        decode_s.append(decoded - parsed)
        engine = BatchingEngine(packed)
        return Stack(image, packed, engine, StreamSessionManager(engine=engine, config=config))

    probe = SpeedProbe()
    setup_s, setup_wall_s, stack = median_setup_s(lambda: build(trace), SETUP_REPEATS, probe)
    stacks = [stack]
    if trace:
        stack.packed.kernel_backend.check_complete()
        stack.instrument()
        stacks.insert(0, build(False))
    peak = 0 if trace else peak_alloc_bytes(lambda: stack.packed(window))
    for each in stacks:
        each.packed(window)  # warm-up, outside every counter below
    if trace:
        stack.packed.kernel_backend.reset()

    passes = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        k = (passes // len(stacks)) % POOL_STREAMS
        feed_stream(
            stacks[passes % len(stacks)], waveforms[k], expected[k],
            config.hop_samples, slo_s, deadline, probe,
        )
        passes += 1

    attempted = sum(each.attempted for each in stacks)
    failed = sum(each.failed for each in stacks)
    windows = len(stack.latencies)
    info = {"operations": windows, "stream_passes": passes, "slo_ms": slo_s * 1e3}
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": block_percentile_ms(stack.latencies, 50, probes=stack.probes),
            "latency_p99_ms": percentile_ms(stack.latencies, 99),
            "windows_per_s": block_ops_per_s(stack.latencies, probes=stack.probes),
            "slo_met_frac": stack.slo_met / stack.attempted,
            "ok_frac": (stack.attempted - stack.failed) / stack.attempted,
            "image_bytes": stack.image.total_bytes(),
            "resident_bytes": stack.packed.decoded_bytes(),
            "peak_alloc_bytes": peak,
            "wall.setup_s": setup_wall_s,
            "wall.latency_p50_ms": block_percentile_ms(stack.latencies, 50),
            "wall.windows_per_s": block_ops_per_s(stack.latencies),
            "probe_ms": percentile_ms(stack.probes, 50),
        }
    else:
        forward_ms = stack.model.seconds * 1e3
        engine_ms = (stack.submit.seconds + stack.flush.seconds) * 1e3
        metrics = {
            "deploy.load_ms": float(np.median(parse_s)) * 1e3,
            "packed.decode_ms": float(np.median(decode_s)) * 1e3,
            **stack.packed.kernel_backend.metrics(stack.model.calls, windows, forward_ms),
            "streams.feed_ms": stack.feed_s * 1e3 / windows,
            "streams.collect_ms": stack.collect_s * 1e3 / windows,
            "batching.overhead_ms": (engine_ms - forward_ms) / stack.flush.calls,
            "trace.overhead_ms": percentile_ms(stack.latencies, 50)
            - percentile_ms(stacks[0].latencies, 50),
        }
    return Result(attempted > 0 and failed == 0, attempted, failed, metrics, info)
