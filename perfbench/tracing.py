"""Per-layer attribution from outside the program, for the traced runs.

Nothing here edits or reaches into ``repro``: a delegating
:class:`~repro.serving.kernels_fast.KernelBackend` is passed as
``PackedModel(kernel=...)``, callables are wrapped around the public
functions the workloads already call, and the cluster's own sampled trace
spans are read back through ``ClusterRouter.traces()``.  Every wrapper
returns exactly what it wrapped returned, so traced outputs keep their bits.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List

import numpy as np

from repro.deploy.image import ModelImage
from repro.serving.kernels_fast import KernelBackend

#: the named layers a forward's matmuls are attributed to (every tree.*
#: linear counts as "tree")
LAYER_GROUPS = ("conv1", "ds0.dw", "ds0.pw", "ds1.dw", "ds1.pw", "tree")


class LayerTimingBackend(KernelBackend):
    """Delegates to another backend and times each matmul per named layer.

    ``PackedModel`` prepares plane pairs in ``image.layers`` order — W_b
    then W_c, depthwise layers W_b only — so the n-th ``prepare`` call
    belongs to the n-th expected layer; the prepared object's identity tags
    every later ``matmul``.  Additions are counted as rows gathered times
    the plane's non-zeros, and gathered bytes are computed from the same
    shapes (rows x non-zeros x itemsize), not measured.
    """

    def __init__(self, inner: KernelBackend, image: ModelImage) -> None:
        self.inner = inner
        self.name = inner.name
        self._pending = deque()
        for record in image.layers:
            group = "tree" if record.name.startswith("tree.") else record.name
            self._pending.extend([group] * (1 if record.kind == "dw" else 2))
        self._group_of: Dict[int, str] = {}
        self._prepared: List[object] = []  # keeps ids unique while tagged
        self.seconds: Dict[str, float] = {}
        self.calls = 0
        self.adds = 0
        self.gathered_bytes = 0

    def prepare(self, planes):
        """The inner backend's layout, tagged with its layer."""
        if not self._pending:
            raise RuntimeError("more plane pairs prepared than the image has layers")
        prepared = self.inner.prepare(planes)
        self._group_of[id(prepared)] = self._pending.popleft()
        self._prepared.append(prepared)
        return prepared

    def check_complete(self) -> None:
        """Fail loudly if decode prepared fewer planes than expected."""
        if self._pending:
            raise RuntimeError(f"{len(self._pending)} expected plane pairs never prepared")

    def matmul(self, x: np.ndarray, prepared) -> np.ndarray:
        """The inner matmul, timed and counted under its layer."""
        start = time.perf_counter()
        out = self.inner.matmul(x, prepared)
        elapsed = time.perf_counter() - start
        group = self._group_of[id(prepared)]
        self.seconds[group] = self.seconds.get(group, 0.0) + elapsed
        self.calls += 1
        self.adds += x.shape[0] * prepared.nnz
        self.gathered_bytes += x.shape[0] * prepared.nnz * x.dtype.itemsize
        return out

    def reset(self) -> None:
        """Zero the tallies (the layer tags stay)."""
        self.seconds = {}
        self.calls = 0
        self.adds = 0
        self.gathered_bytes = 0

    def metrics(self, forwards: int, windows: int, forward_ms: float) -> Dict[str, float]:
        """The ``kernels.*`` rows plus ``packed.nonkernel_ms``.

        ``forward_ms`` is the wall time of the ``forwards`` model calls
        these matmuls ran inside; what the matmuls did not take of it is
        the packed runtime's own work (patches, scaling, tree routing).
        """
        metrics = {"kernels.calls": self.calls / forwards}
        for group in LAYER_GROUPS:
            metrics[f"kernels.{group}_ms"] = self.seconds.get(group, 0.0) * 1e3 / forwards
        metrics["kernels.adds"] = self.adds / windows
        metrics["kernels.gather_mb"] = self.gathered_bytes / windows / 1e6
        matmul_ms = sum(self.seconds.values()) * 1e3
        metrics["packed.nonkernel_ms"] = (forward_ms - matmul_ms) / forwards
        return metrics


class Stopwatch:
    """Accumulated wall time and call count of wrapped calls."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def wrap(self, fn: Callable) -> Callable:
        """``fn`` with its wall time added to this stopwatch."""

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1

        return timed
