"""``cluster-hop``: hop-paced single-window requests through a one-worker cluster.

The fleet-serving path.  75 simulated devices each send one MFCC window per
250 ms hop, each in its own seeded slot of the hop (300 requests/s), through
``ClusterRouter(workers=1)`` over its default shared-memory transport,
serving width 8.  The load is open loop: one generator thread sends every
request when it is due, whatever came back, and each request is timed from
when it was due, so a stall also charges the requests queued behind it.
Admission, encode, transport and worker coalescing dominate a small
forward, so kernel changes should barely move this workload.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from common import (
    Result,
    SpeedProbe,
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
from repro.errors import AdmissionError
from repro.evaluation import StreamingConfig
from repro.serving import ClusterRouter, PackedModel
from repro.serving.kernels_fast import resolve_backend
from tracing import LayerTimingBackend

WIDTH = 8
MODEL = "kws"
DEVICES = 75
HOP_S = 0.25
#: a request meets its limit when correct scores are back this soon after
#: it was due (about 3x the p99 this path showed when the limit was set)
SLO_S = 0.025
SETUP_REPEATS = 5
#: fraction of requests whose lifecycle spans the traced run collects
TRACE_SAMPLE_RATE = 0.25
#: how often (in requests sent) the generator reads finished traces; the
#: router keeps only the most recent 256
TRACE_POLL_EVERY = 64
RESULT_TIMEOUT_S = 30.0
#: latency blocks per run (2 s each in a 50 s run): a host episode of
#: 10-20 s then spoils at most 10 of them, well short of the lower quartile
LATENCY_BLOCKS = 25
#: the generator probes the host's speed after every this many requests
#: (12 a second), right after a send, when the next is over 3 ms away
PROBE_EVERY = 25


@dataclass
class Phase:
    """What one open-loop pass through a router observed."""

    latencies: List[float] = field(default_factory=list)
    submit_s: List[float] = field(default_factory=list)
    resolve_s: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    spans: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    slo_met: int = 0
    windows_per_s: float = 0.0
    threads_max: int = 0


def start_cluster(blob: bytes, window: np.ndarray, trace_rate: float) -> ClusterRouter:
    """Router start, worker spawn, register, and the first result back."""
    router = ClusterRouter(workers=1, trace_sample_rate=trace_rate)
    try:
        router.start()
        router.register(MODEL, blob)
        router.submit(window, model=MODEL).result(timeout=RESULT_TIMEOUT_S)
    except BaseException:
        router.stop()
        raise
    return router


def drive(
    router: ClusterRouter,
    due_s: np.ndarray,
    picks: np.ndarray,
    windows: np.ndarray,
    expected: np.ndarray,
    traced: bool,
    probe: SpeedProbe,
) -> Phase:
    """Send every request when due, then wait for and check every result.

    Futures are not kept: the done-callback stores the completion time and
    the result row, so the benchmark's own heap (and the interpreter's
    garbage-collection passes over it) stays flat however long it runs.
    """
    phase = Phase(threads_max=threading.active_count())
    n = len(due_s)
    done_at = [0.0] * n
    returned_at = [0.0] * n
    rows: List[Optional[np.ndarray]] = [None] * n
    completed: List[int] = []

    def on_done(future, j: int) -> None:
        done_at[j] = time.perf_counter()
        if not future.cancelled() and future.exception() is None:
            rows[j] = future.result()
        completed.append(j)

    seen_traces = set()

    def read_traces() -> None:
        for trace in router.traces():
            if trace.trace_id not in seen_traces:
                seen_traces.add(trace.trace_id)
                for span in trace.spans:
                    phase.spans.setdefault(span.name, []).append(span.duration_s)

    sent = 0
    origin = time.perf_counter() + 0.05
    for j in range(n):
        due = origin + due_s[j]
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        start = time.perf_counter()
        phase.lags.append(start - due)
        try:
            future = router.submit(windows[picks[j]], model=MODEL)
        except AdmissionError:
            continue  # shed: counted as attempted and failed below
        returned_at[j] = time.perf_counter()
        phase.submit_s.append(returned_at[j] - start)
        sent += 1
        future.add_done_callback(lambda f, j=j: on_done(f, j))
        del future
        phase.threads_max = max(phase.threads_max, threading.active_count())
        if traced and j % TRACE_POLL_EVERY == 0:
            read_traces()
        if j % PROBE_EVERY == 0:
            phase.probes.append(probe())
    give_up = time.perf_counter() + RESULT_TIMEOUT_S
    while len(completed) < sent and time.perf_counter() < give_up:
        time.sleep(0.005)

    last_done = origin
    for j in range(n):
        phase.attempted += 1
        if rows[j] is None or not same_bits(rows[j], expected[picks[j]]):
            phase.failed += 1  # shed, failed, timed out or wrong bits
            continue
        latency = done_at[j] - (origin + due_s[j])
        phase.latencies.append(latency)
        phase.resolve_s.append(done_at[j] - returned_at[j])
        phase.slo_met += latency <= SLO_S
        last_done = max(last_done, done_at[j])
    phase.windows_per_s = (phase.attempted - phase.failed) / (last_done - origin - due_s[0])
    if traced:
        read_traces()
    return phase


def run(seed: int, seconds: float, trace: bool) -> Result:
    """Measure the workload for ``seconds``; per-layer metrics when ``trace``.

    The traced run drives an untraced router for half the time, then a
    traced one (sampled spans, submit timers) for the other half, so
    ``trace.overhead_ms`` compares like with like.
    """
    config = StreamingConfig()
    blob = image_bytes(WIDTH)
    windows = stream_windows(keyword_streams(seed, 2), config)
    rng = np.random.default_rng(seed)
    # the hop's evenly spaced slots, dealt to devices by seed: with random
    # phases, how many requests nearly coincide in each hop (and with it the
    # tail) would depend on the seed rather than on the program
    phases = rng.permutation(DEVICES) * (HOP_S / DEVICES)

    def schedule(span_s: float):
        hops = max(1, int(round(span_s / HOP_S)))
        due = (phases[None, :] + HOP_S * np.arange(hops)[:, None]).ravel()
        order = np.argsort(due, kind="stable")
        return due[order], rng.integers(0, len(windows), size=due.size)

    parse_start = time.perf_counter()
    image = ModelImage.from_bytes(blob)
    parse_ms = (time.perf_counter() - parse_start) * 1e3
    decode_start = time.perf_counter()
    kernel = LayerTimingBackend(resolve_backend(None), image) if trace else None
    local = PackedModel(image, kernel=kernel)
    decode_ms = (time.perf_counter() - decode_start) * 1e3
    peak = 0 if trace else peak_alloc_bytes(lambda: local(windows[:1]))
    local(windows[:1])  # warm-up, outside the kernel tallies
    forward_s = 0.0
    if trace:
        local.kernel_backend.check_complete()
        local.kernel_backend.reset()
    rows = []
    for i in range(len(windows)):
        start = time.perf_counter()
        rows.append(local(windows[i : i + 1])[0])
        forward_s += time.perf_counter() - start
    expected = np.stack(rows)

    info = {"devices": DEVICES, "offered_per_s": DEVICES / HOP_S, "slo_ms": SLO_S * 1e3}
    probe = SpeedProbe()
    if not trace:
        setup_s, setup_wall_s, router = median_setup_s(
            lambda: start_cluster(blob, windows[0], 0.0),
            SETUP_REPEATS,
            probe,
            close=ClusterRouter.stop,
        )
        try:
            phase = drive(router, *schedule(seconds), windows, expected, False, probe)
            resident = router.snapshot().resident_bytes
        finally:
            router.stop()
        info["operations"] = phase.attempted
        info["lag_p99_ms"] = percentile_ms(phase.lags, 99)
        metrics = {
            "setup_s": setup_s,
            # host stalls only ever add to this path's latency (it waits on
            # two processes waking up), so the lower quartile across blocks
            # is its steady figure; see block_percentile_ms
            "latency_p50_ms": block_percentile_ms(
                phase.latencies, 50, across=25, probes=phase.probes, blocks=LATENCY_BLOCKS
            ),
            "latency_p99_ms": percentile_ms(phase.latencies, 99),
            "windows_per_s": phase.windows_per_s,
            "slo_met_frac": phase.slo_met / phase.attempted,
            "ok_frac": (phase.attempted - phase.failed) / phase.attempted,
            "image_bytes": image.total_bytes(),
            "resident_bytes": resident,
            "peak_alloc_bytes": peak,
            "wall.setup_s": setup_wall_s,
            "wall.latency_p50_ms": block_percentile_ms(
                phase.latencies, 50, across=25, blocks=LATENCY_BLOCKS
            ),
            # the delivered rate of an open loop: never rescaled
            "wall.windows_per_s": phase.windows_per_s,
            "probe_ms": percentile_ms(phase.probes, 50),
        }
        return Result(phase.failed == 0, phase.attempted, phase.failed, metrics, info)

    passes = []
    for traced in (False, True):
        router = start_cluster(blob, windows[0], TRACE_SAMPLE_RATE if traced else 0.0)
        try:
            passes.append(
                drive(router, *schedule(seconds / 2), windows, expected, traced, probe)
            )
            stats = router.snapshot()
        finally:
            router.stop()
    untraced, phase = passes
    transport = stats.transport
    carried = transport["shm_requests"] + transport["pipe_requests"]
    info["operations"] = phase.attempted
    info["traces"] = len(phase.spans.get("kernel", ()))
    metrics = {
        "deploy.load_ms": parse_ms,
        "packed.decode_ms": decode_ms,
        **local.kernel_backend.metrics(len(windows), len(windows), forward_s * 1e3),
        "cluster.submit_ms": percentile_ms(phase.submit_s, 50),
        "cluster.resolve_p50_ms": percentile_ms(phase.resolve_s, 50),
        "cluster.resolve_p99_ms": percentile_ms(phase.resolve_s, 99),
        "cluster.transport_ms": percentile_ms(phase.spans["transport"], 50),
        "cluster.worker_queue_ms": percentile_ms(phase.spans["queue"], 50),
        "cluster.worker_kernel_ms": percentile_ms(phase.spans["kernel"], 50),
        "shm.slab_frac": transport["shm_requests"] / carried,
        "cluster.shed": stats.shed,
        "cluster.errors": sum(stats.errors_by_type.values()),
        "loadgen.lag_p99_ms": percentile_ms(phase.lags, 99),
        "proc.threads_max": phase.threads_max,
        "trace.overhead_ms": percentile_ms(phase.latencies, 50)
        - percentile_ms(untraced.latencies, 50),
    }
    attempted = untraced.attempted + phase.attempted
    failed = untraced.failed + phase.failed
    return Result(failed == 0, attempted, failed, metrics, info)
