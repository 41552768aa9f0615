"""The fused single-pass ternary kernel, and where a backend is chosen.

The reference kernel (:mod:`repro.serving.kernels`) executes a ternary
matmul as **two** gather-accumulate passes — one per sign plane — each
materialising its own scratch slab and walking the activations
independently.  :class:`FusedBackend` concatenates the +/− planes into
**one** index array at prepare time, so each matmul runs one gather, one
``reduceat`` over ``2 × rows`` segments, and one signed combine
(``plus_half - minus_half``) instead of two full passes and two scratch
slabs.  Orientation is adaptive: gather-heavy shapes transpose the
activation chunk so ``reduceat`` runs along axis 0, where every
accumulation step is a contiguous SIMD-friendly row addition.

Two backends exist, ``"reference"`` and ``"fused"`` (the default), and
:class:`~repro.serving.packed.PackedModel` (``kernel=``) is the one place
that picks between them, through :func:`resolve_backend`.  The fused
backend keeps the reference's per-segment left-to-right summation order,
so it is **bitwise identical** on every dtype and the serving stack's
identity guarantees hold whichever runs (property-tested in
``tests/test_kernels_fast.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ConfigError
from repro.serving.kernels import (
    TernaryPlanes,
    gather_chunk_rows,
    get_kernel_profile,
    ternary_matmul,
)


@dataclass(frozen=True)
class FusedPlanes:
    """Both sign planes of one ternary matrix as a single segment array.

    ``indices`` is the reference's ``plus_indices`` and ``minus_indices``
    back to back; segment ``j < rows`` is row ``j``'s +1 columns and
    segment ``rows + j`` its −1 columns, delimited by ``bounds`` (the 2 ×
    rows segment starts).  ``empty`` lists the segments with no entries —
    ``reduceat`` emits a stray element for those, which the matmul zeroes —
    with ``nonempty`` / ``nonempty_bounds`` the prepare-time complement the
    hot path reduces over (fixed per layout, so never recomputed per call).
    """

    rows: int
    cols: int
    indices: np.ndarray
    bounds: np.ndarray
    empty: np.ndarray
    nonempty: np.ndarray
    nonempty_bounds: np.ndarray

    @property
    def nnz(self) -> int:
        """Non-zero weights across both sign planes."""
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Decoded in-memory footprint of the fused layout."""
        return (
            self.indices.nbytes
            + self.bounds.nbytes
            + self.empty.nbytes
            + self.nonempty.nbytes
            + self.nonempty_bounds.nbytes
        )


def _fuse(planes: TernaryPlanes) -> FusedPlanes:
    """Concatenate a plane pair into the single-gather segment layout."""
    indices = np.concatenate([planes.plus_indices, planes.minus_indices])
    starts = np.concatenate(
        [planes.plus_ptr[:-1], planes.plus_indices.size + planes.minus_ptr[:-1]]
    ).astype(np.intp)
    ends = np.concatenate(
        [planes.plus_ptr[1:], planes.plus_indices.size + planes.minus_ptr[1:]]
    ).astype(np.intp)
    lengths = ends - starts
    nonempty = np.flatnonzero(lengths)
    return FusedPlanes(
        rows=planes.rows,
        cols=planes.cols,
        indices=np.ascontiguousarray(indices, dtype=np.intp),
        bounds=np.ascontiguousarray(starts),
        empty=np.flatnonzero(lengths == 0),
        nonempty=nonempty,
        nonempty_bounds=np.ascontiguousarray(starts[nonempty]),
    )


class KernelBackend:
    """One ternary-matmul execution strategy.

    ``prepare`` runs once per decoded plane pair (at
    :class:`~repro.serving.packed.PackedModel` decode time) and returns the
    backend's plan-resident layout; ``matmul`` is the hot path.  Backends
    must be bitwise identical to
    :func:`repro.serving.kernels.ternary_matmul`, and must expose ``rows`` /
    ``cols`` / ``nnz`` / ``nbytes`` on the prepared object so plan byte
    accounting stays honest.
    """

    #: the name profiles attribute gathers to; subclasses override
    name = "abstract"

    def prepare(self, planes: TernaryPlanes):
        """Build the backend's plan-resident layout for one plane pair."""
        raise NotImplementedError

    def matmul(self, x: np.ndarray, prepared) -> np.ndarray:
        """``x @ W.T`` against the prepared ternary layout."""
        raise NotImplementedError


class ReferenceBackend(KernelBackend):
    """The two-pass reference kernel, unchanged — the identity baseline."""

    name = "reference"

    def prepare(self, planes: TernaryPlanes) -> TernaryPlanes:
        """The reference executes straight off the CSR planes."""
        return planes

    def matmul(self, x: np.ndarray, prepared: TernaryPlanes) -> np.ndarray:
        """Two gather-accumulate passes (profiling is recorded inside)."""
        return ternary_matmul(x, prepared)


class FusedBackend(KernelBackend):
    """Single-pass gather: one scratch slab, one ``reduceat``, one combine.

    The gather has two orientations.  Batch-major gathers
    ``x[chunk, indices]`` and reduces along axis 1 (the reference's
    orientation); feature-major transposes the activation chunk and reduces
    along axis 0 — every accumulation step is then a contiguous row-wise
    vector add, which wins whenever the gather volume amortises the
    transpose.  :meth:`_feature_major` chooses per plane: feature-major when
    the plane has at least as many non-zeros as input columns *and*
    segments are long enough to vectorise.

    Both orientations perform the per-segment additions in the exact same
    left-to-right order, so the choice never changes a single output bit.
    """

    name = "fused"

    #: feature-major needs segments at least this long before the axis-0
    #: vector adds beat the reference's axis-1 scalar loop
    MIN_VECTOR_SEGMENT = 8

    def prepare(self, planes: TernaryPlanes) -> FusedPlanes:
        """Concatenate the sign planes into the single-gather layout."""
        return _fuse(planes)

    def matmul(self, x: np.ndarray, prepared: FusedPlanes) -> np.ndarray:
        """One gather + one ``reduceat`` + one signed combine."""
        if x.shape[1] != prepared.cols:
            raise ValueError(
                f"input has {x.shape[1]} features, planes expect {prepared.cols}"
            )
        profile = get_kernel_profile()
        start = time.perf_counter() if profile is not None else 0.0
        out = self._segment_sums(x, prepared)
        result = out[:, : prepared.rows] - out[:, prepared.rows :]
        if profile is not None:
            profile.record_gather(time.perf_counter() - start, self.name)
        return result

    def _feature_major(self, prepared: FusedPlanes) -> bool:
        """The orientation rule: gather-heavy, long-segment planes go feature-major."""
        segments = 2 * prepared.rows
        if not segments:
            return False
        return (
            prepared.nnz >= prepared.cols
            and prepared.nnz // segments >= self.MIN_VECTOR_SEGMENT
        )

    def _segment_sums(self, x: np.ndarray, prepared: FusedPlanes) -> np.ndarray:
        """The ``(M, 2 * rows)`` per-segment sums, empty segments zeroed."""
        segments = 2 * prepared.rows
        if prepared.nnz == 0 or x.shape[0] == 0:
            return np.zeros((x.shape[0], segments), dtype=x.dtype)
        if self._feature_major(prepared):
            return self._sums_feature_major(x, prepared)
        return self._sums_batch_major(x, prepared)

    def _sums_batch_major(self, x: np.ndarray, prepared: FusedPlanes) -> np.ndarray:
        """Gather ``x[chunk, indices]`` and reduce along axis 1."""
        segments = 2 * prepared.rows
        out = np.empty((x.shape[0], segments), dtype=x.dtype)
        # scratch per batch row: the gathered slab + the reduceat output
        chunk = gather_chunk_rows(prepared.nnz + segments, x.dtype.itemsize)
        if prepared.empty.size == 0:
            # every bound starts a real segment, so reduceat can write
            # straight into the output — no scatter pass
            for lo in range(0, x.shape[0], chunk):
                gathered = x[lo : lo + chunk, prepared.indices]
                np.add.reduceat(gathered, prepared.bounds, axis=1, out=out[lo : lo + chunk])
            return out
        # empty segments would make reduceat read past the index array (a
        # trailing empty bound equals nnz) or emit strays — reduce only the
        # populated segments and scatter, exactly like the reference
        nonempty = prepared.nonempty
        bounds = prepared.nonempty_bounds
        out[:] = 0
        for lo in range(0, x.shape[0], chunk):
            gathered = x[lo : lo + chunk, prepared.indices]
            out[lo : lo + chunk, nonempty] = np.add.reduceat(gathered, bounds, axis=1)
        return out

    def _sums_feature_major(self, x: np.ndarray, prepared: FusedPlanes) -> np.ndarray:
        """Transpose the chunk, gather whole rows, reduce along axis 0.

        ``reduceat`` along the leading axis accumulates full contiguous
        batch rows per step — SIMD-width adds instead of per-element scalar
        loops — while visiting each segment's entries in the identical
        order, so the sums are bit-for-bit the batch-major ones.
        """
        segments = 2 * prepared.rows
        out = np.empty((x.shape[0], segments), dtype=x.dtype)
        # scratch per batch row: transposed copy + gathered slab + reduce out
        chunk = gather_chunk_rows(
            prepared.nnz + segments + prepared.cols, x.dtype.itemsize
        )
        if prepared.empty.size == 0:
            nonempty = None
            bounds = prepared.bounds
        else:
            nonempty = prepared.nonempty
            bounds = prepared.nonempty_bounds
            out[:] = 0
        for lo in range(0, x.shape[0], chunk):
            xt = np.ascontiguousarray(x[lo : lo + chunk].T)
            gathered = xt[prepared.indices]
            sums = np.add.reduceat(gathered, bounds, axis=0)
            if nonempty is None:
                out[lo : lo + chunk] = sums.T
            else:
                out[lo : lo + chunk, nonempty] = sums.T
        return out


#: the name table ``kernel=`` strings resolve through; backends are
#: stateless, so one shared instance per name serves every model
_BACKENDS = {backend.name: backend for backend in (ReferenceBackend(), FusedBackend())}


def resolve_backend(kernel: Union[str, KernelBackend, None] = None) -> KernelBackend:
    """Resolve a ``kernel=`` argument: an instance, a backend name, or
    ``None`` for the default, ``"fused"``."""
    if kernel is None:
        kernel = "fused"
    if isinstance(kernel, KernelBackend):
        return kernel
    if not isinstance(kernel, str):
        raise ConfigError(
            f"kernel must be a backend name or KernelBackend, got {type(kernel).__name__}"
        )
    backend = _BACKENDS.get(kernel)
    if backend is None:
        raise ConfigError(f"unknown kernel backend {kernel!r}: pick one of {sorted(_BACKENDS)}")
    return backend


__all__ = [
    "FusedPlanes",
    "KernelBackend",
    "ReferenceBackend",
    "FusedBackend",
    "resolve_backend",
]
