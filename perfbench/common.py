"""Shared pieces of the end-to-end benchmark: images, inputs, statistics, results.

Every workload measures the same fixed model per width (``MODEL_SEED``), so
a run-to-run difference is the serving stack's, never a different weight
draw; ``--seed`` drives everything the program is *fed*: keyword streams,
analysis windows and device phases.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.audio.mfcc import MFCC
from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.datasets.speech_commands import TARGET_WORDS
from repro.deploy import build_image
from repro.evaluation import StreamingConfig
from repro.serving.loadgen import build_arrivals

#: weight seed of every benchmarked image (inputs are seeded by ``--seed``)
MODEL_SEED = 0

#: all ten target words, so one stream visits every keyword once
STREAM_KEYWORDS: Tuple[str, ...] = TARGET_WORDS


@dataclass
class Result:
    """One run's outcome: the JSON line the command prints last.

    ``metrics`` maps metric names to values (``run.py`` owns the units);
    ``info`` is printed on an earlier line and carries what explains the
    numbers (sample counts, limits), never a metric.
    """

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    info: Dict[str, object] = field(default_factory=dict)


def image_bytes(width: int) -> bytes:
    """Serialized image of the seeded, frozen ST-HybridNet at ``width``."""
    model = STHybridNet(HybridConfig(width=width), rng=MODEL_SEED)
    freeze_all(model)
    model.eval()
    return build_image(model).to_bytes()


def keyword_streams(seed: int, count: int) -> List[np.ndarray]:
    """``count`` distinct seeded keyword streams (all ten words, noise gaps)."""
    arrivals = build_arrivals(count, keywords=STREAM_KEYWORDS, pool_size=count, seed=seed)
    return [arrival.waveform for arrival in arrivals]


def stream_windows(waveforms: Sequence[np.ndarray], config: StreamingConfig) -> np.ndarray:
    """Every hop-spaced analysis window of the streams as an MFCC batch."""
    extractor = MFCC(config.mfcc)
    windows = []
    for waveform in waveforms:
        last = len(waveform) - config.window_samples
        for start in range(0, last + 1, config.hop_samples):
            windows.append(extractor(waveform[start : start + config.window_samples]))
    return np.stack(windows).astype(np.float32)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality: dtype, shape and every byte (so ``-0.0 != 0.0``)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of durations (linear interpolation), in ms."""
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q)) * 1e3


#: a run's operations are split, in time order, into this many blocks (about
#: 5 s each in a 50 s run); the end-to-end timings are taken per block and
#: then summarised across the blocks
BLOCKS = 9

#: end-to-end timings are reported at a reference host speed: that of a host
#: on which one SpeedProbe pass takes this much CPU time
REFERENCE_PROBE_S = 250e-6
#: probe passes timed before, and again after, each set-up repeat
SETUP_PROBES = 9


class SpeedProbe:
    """A fixed slice of interpreter and small-array NumPy work: how fast the
    host computes right now.

    Other tenants of a shared host change how fast this process computes,
    by nearly 2x for minutes at a time, in CPU time as much as in wall time
    (so it is not CPU steal; it looks like a busy sibling hyperthread or
    shared cache).  No figure taken inside one run can remove a change that
    lasts the whole run, so the workloads time this probe between their
    operations and report each timing times :func:`reference_scale` of the
    probes in the same stretch of time: the timing on a host of the
    reference speed.

    The work is the same on every run (its own fixed seed) and calls
    nothing in ``repro``, so a change to the program moves the rescaled
    timings and never the probe.  A pass is timed in thread CPU time, so
    neither waiting for the interpreter lock nor being descheduled counts,
    and it touches its arrays before timing, so the cache the program left
    behind does not either.
    """

    SEED = 0

    def __init__(self) -> None:
        rng = np.random.default_rng(self.SEED)
        self.values = rng.standard_normal(4096).astype(np.float32)
        self.picks = [rng.integers(0, len(self.values), size=600) for _ in range(16)]
        self.bounds = np.sort(rng.choice(600, size=60, replace=False))
        self.bounds[0] = 0
        self.matrix = rng.standard_normal((64, 64)).astype(np.float32)

    def __call__(self) -> float:
        """Run one pass; its thread CPU time in seconds."""
        warm = self.values.sum() + self.matrix.sum()
        start = time.thread_time()
        total = 0
        for i in range(2500):
            total += (i * 7) % 13
        for picks in self.picks:
            gathered = self.values[picks]
            warm += np.add.reduceat(gathered, self.bounds).sum()
            warm += (self.matrix @ gathered[:64]).max()
        return time.thread_time() - start


def reference_scale(probes: Sequence[float]) -> float:
    """Factor from timings taken alongside ``probes`` to the reference speed."""
    return REFERENCE_PROBE_S / float(np.median(probes))


def _blocks(seconds: Sequence[float], blocks: int = BLOCKS) -> List[np.ndarray]:
    values = np.asarray(seconds, dtype=np.float64)
    return np.array_split(values, min(blocks, len(values)))


def _block_scales(probes: Optional[Sequence[float]], count: int) -> List[float]:
    """Each block's factor to the reference speed (1 without probes).

    ``probes`` were timed between the operations, in time order, so the
    n-th of ``count`` equal slices covers the n-th block's stretch of time.
    """
    if probes is None:
        return [1.0] * count
    return [reference_scale(part) for part in np.array_split(np.asarray(probes), count)]


def block_percentile_ms(
    seconds: Sequence[float],
    q: float,
    across: float = 50,
    probes: Optional[Sequence[float]] = None,
    blocks: int = BLOCKS,
) -> float:
    """Each block's ``q``-th percentile, then their ``across``-th, in ms.

    Other tenants of a shared host change every process's speed in
    episodes of 10-20 s, so one figure pooled over a run measures the
    episodes as much as the program; a change to the program moves every
    block, an episode only the blocks it covers.  The median across blocks
    (the default) suits loops that compute without pause, whose speed moves
    both ways with the neighbours' memory traffic.  With ``probes`` (see
    :class:`SpeedProbe`) each block's figure is first rescaled to the
    reference host speed.
    """
    parts = _blocks(seconds, blocks)
    scales = _block_scales(probes, len(parts))
    figures = [np.percentile(part, q) * scale for part, scale in zip(parts, scales)]
    return float(np.percentile(figures, across)) * 1e3


def block_ops_per_s(
    seconds: Sequence[float], probes: Optional[Sequence[float]] = None
) -> float:
    """Median across blocks of each block's operations per second busy
    (at the reference host speed, with ``probes``)."""
    blocks = _blocks(seconds)
    scales = _block_scales(probes, len(blocks))
    return float(np.median([len(block) / block.sum() / s for block, s in zip(blocks, scales)]))


def median_setup_s(
    build: Callable[[], object],
    repeats: int,
    probe: SpeedProbe,
    close: Optional[Callable[[object], None]] = None,
) -> Tuple[float, float, object]:
    """Run ``build`` ``repeats`` times; median seconds and the last product.

    Returns the median at the reference host speed (each repeat rescaled by
    the probe passes timed just before and just after it), the median wall
    time, and the last product.  Each earlier product is released
    (``close``, untimed) before the next repeat, so every repeat pays the
    full set-up cost.
    """
    times = []
    scaled = []
    product = None
    for _ in range(repeats):
        if product is not None and close is not None:
            close(product)
        product = None
        probes = [probe() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - start)
        probes.extend(probe() for _ in range(SETUP_PROBES))
        scaled.append(times[-1] * reference_scale(probes))
    return float(np.median(scaled)), float(np.median(times)), product


def peak_alloc_bytes(fn: Callable[[], object]) -> int:
    """``tracemalloc`` peak over one call (Python and NumPy allocations)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: how long a child process may take to exit before it is killed
CHILD_JOIN_TIMEOUT_S = 10.0


def stop_child_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    The cluster's workers are joined by ``ClusterRouter.stop``; this also
    catches any a failed run left behind.  Spawning workers and creating
    shared memory start ``multiprocessing``'s resource tracker, which would
    otherwise outlive the benchmark until it saw end-of-file on its pipe.
    Its pipe closes for good once the last worker has ended, so it is
    stopped after them, and reaped here rather than left to become a zombie.
    """
    for child in multiprocessing.active_children():
        child.join(CHILD_JOIN_TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()
    # ResourceTracker has no public stop; _stop closes the pipe and waits
    resource_tracker._resource_tracker._stop()


def environment(kernel: str) -> Dict[str, object]:
    """What the numbers were measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernel,
        "platform": sys.platform,
    }
