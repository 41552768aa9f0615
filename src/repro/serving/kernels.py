"""Packed-ternary execution kernels: bit-plane decode + gather-accumulate.

TNN-style packed execution (Alemdar et al., *Ternary Neural Networks for
Resource-Efficient AI Applications*): a ternary matrix is stored as two
*index planes* — the +1 positions and the −1 positions — and a matmul
against it reduces to two gather-accumulate passes per output row::

    out[:, j] = sum(x[:, plus[j]], axis=1) - sum(x[:, minus[j]], axis=1)

No dense float weight matrix is materialised on the hot path: the planes
are decoded **once** from the 2-bit blob (CSR layout: one flat index array
shared by both signs, plus segment bounds) and reused for every forward
call.  The accumulation itself is vectorised with ``np.add.reduceat`` over
a single gather, so the summation order is fixed — two calls on the same
input are bitwise identical, which is what lets the cached and on-the-fly
serving modes agree exactly.  That order is NumPy's, not left to right:
each row's first gathered entry plus the pairwise sum of the rest (see
:mod:`repro.serving.kernels_fast`, whose fused backend reproduces it).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.deploy.packing import CODE_MINUS, CODE_PLUS, unpack_codes
from repro.errors import ConfigError

#: opt-in profiling hook (a ``telemetry.KernelProfile`` or anything with a
#: ``record_gather(elapsed_s, backend)`` method, ``backend`` naming the
#: kernel backend that ran the pass); ``None`` keeps the hot path at a
#: single global load per gather pass.  Install via
#: :func:`repro.serving.telemetry.profile_kernels`.
_PROFILE = None


def set_kernel_profile(profile: Optional[object]) -> None:
    """Install (or with ``None`` remove) the global gather-timing hook."""
    global _PROFILE
    _PROFILE = profile


def get_kernel_profile() -> Optional[object]:
    """The currently installed gather-timing hook, if any."""
    return _PROFILE


#: the unsigned widths a plan stores indices at, narrowest first, each with
#: its largest value (``np.iinfo`` per call would cost a decode 70 µs)
_INDEX_DTYPES = tuple(
    (np.iinfo(code).max, np.dtype(code)) for code in (np.uint8, np.uint16, np.uint32)
)


def index_dtype(largest: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every index in ``[0, largest]``.

    Both backends store each index array a prepared plan keeps at this
    width, chosen once per plane from the array's bound (``cols - 1`` for a
    column, the non-zero count for a CSR bound or a slab row): a plane of
    at most 256 columns keeps one byte per column index.  ``take``, fancy
    indexing and ``reduceat`` widen any such index to intp on every call,
    as they widen int32.  A bound past uint32 stays intp, since
    ``reduceat`` refuses uint64 indices.
    """
    for top, dtype in _INDEX_DTYPES:
        if largest <= top:
            return dtype
    return np.dtype(np.intp)


@dataclass(frozen=True)
class TernaryPlanes:
    """A ternary (rows × cols) matrix as +1/−1 index planes in CSR form.

    Both planes share one index array: segment ``j < rows`` is row ``j``'s
    +1 columns and segment ``rows + j`` its −1 columns, each ascending and
    delimited by ``ptr`` (``2 * rows + 1`` bounds).  ``plus_indices[
    plus_ptr[j]:plus_ptr[j+1]]`` are the column positions of the +1 entries
    of row ``j``, and symmetrically for minus.

    :func:`decode_planes` and :func:`as_block_diagonal` build intp planes;
    the reference backend keeps ``indices`` and ``ptr`` at their
    :func:`index_dtype` widths (``cols - 1`` and ``nnz``), each in memory
    of its own.  :func:`ternary_matmul` runs either, with the same bits.
    """

    rows: int
    cols: int
    indices: np.ndarray
    ptr: np.ndarray

    @property
    def plus_indices(self) -> np.ndarray:
        """Column indices of the +1 entries, row by row."""
        return self.indices[: self.ptr[self.rows]]

    @property
    def plus_ptr(self) -> np.ndarray:
        """Row bounds into :attr:`plus_indices`."""
        return self.ptr[: self.rows + 1]

    @property
    def minus_indices(self) -> np.ndarray:
        """Column indices of the −1 entries, row by row."""
        return self.indices[self.ptr[self.rows] :]

    @property
    def minus_ptr(self) -> np.ndarray:
        """Row bounds into :attr:`minus_indices`."""
        return self.ptr[self.rows :] - self.ptr[self.rows]

    @property
    def nnz(self) -> int:
        """Number of non-zero weights across both planes."""
        return len(self.indices)

    @property
    def nbytes(self) -> int:
        """Decoded in-memory footprint of the index planes."""
        return self.indices.nbytes + self.ptr.nbytes


#: the codes of the +1 and −1 planes, shaped to broadcast a (rows, cols)
#: code matrix into both sign masks at once
_SIGN_CODES = np.array([CODE_PLUS, CODE_MINUS], dtype=np.uint8)[:, None, None]


def decode_planes(blob: bytes, shape: Tuple[int, ...]) -> TernaryPlanes:
    """Decode a 2-bit blob into index planes, one decode for the plan's life.

    ``shape`` is the logical tensor shape; it is flattened to
    ``(shape[0], prod(shape[1:]))`` — matching how the ternary transforms
    are applied (each output row gathers over the flattened remainder).
    Both sign masks are stacked as ``2 * rows`` mask rows (row ``j``'s +1
    cells, then, from row ``rows``, the −1 cells), so a single
    ``np.nonzero`` yields both planes' ascending column indices.
    """
    if not shape:
        raise ConfigError(
            "decode_planes needs a non-empty shape: shape=() has no rows to "
            "decode (a scalar cannot be a ternary transform)"
        )
    if any(dim < 0 for dim in shape):
        raise ConfigError(f"decode_planes shape {shape!r} has a negative dimension")
    rows = int(shape[0])
    cols = math.prod(int(dim) for dim in shape[1:])
    codes = unpack_codes(blob, rows * cols).reshape(rows, cols)
    masks = codes == _SIGN_CODES  # (2, rows, cols): the +1 cells, then the −1 cells
    segments, indices = np.nonzero(masks.reshape(2 * rows, cols))
    ptr = np.zeros(2 * rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(segments, minlength=2 * rows), out=ptr[1:])
    return TernaryPlanes(rows=rows, cols=cols, indices=indices, ptr=ptr)


def as_block_diagonal(
    planes: TernaryPlanes, block_cols: int, block_rows: Optional[Sequence[int]] = None
) -> TernaryPlanes:
    """Re-index row-stacked planes into a block-diagonal column space.

    Block ``b`` is ``block_rows[b]`` consecutive rows (one row per block
    when ``block_rows`` is ``None``); its indices are shifted by
    ``b * block_cols``, so it reads only columns
    ``[b*block_cols, (b+1)*block_cols)`` and one gather-accumulate serves
    every block.  A depthwise filter stored as (C, K) — one K-tap ternary
    filter per channel — runs over a (M, C*K) patch matrix this way, and
    the stacked tree's W_c runs each node's rows over its own ``r`` hidden
    columns.  Each row keeps its ascending index order, so every row's
    summation order is the unstacked one.
    """
    if planes.cols != block_cols:
        raise ValueError(f"planes have {planes.cols} cols, expected {block_cols}")
    if block_rows is None:
        row_offsets = np.arange(planes.rows, dtype=np.intp) * block_cols
        blocks = planes.rows
    else:
        block_rows = np.asarray(block_rows, dtype=np.intp)
        if block_rows.sum() != planes.rows or (block_rows < 1).any():
            raise ValueError(
                f"block rows {block_rows.tolist()} must be >= 1 and sum to {planes.rows}"
            )
        blocks = block_rows.size
        row_offsets = np.repeat(np.arange(blocks, dtype=np.intp) * block_cols, block_rows)
    # each segment (a row's +1 or −1 columns) moves into its row's block
    shifts = np.repeat(np.concatenate([row_offsets, row_offsets]), np.diff(planes.ptr))
    return TernaryPlanes(
        rows=planes.rows,
        cols=blocks * block_cols,
        indices=planes.indices + shifts,
        ptr=planes.ptr,
    )


#: peak bytes of gather scratch `_plane_sums` may materialise per call; the
#: batch axis is chunked to stay under it (module-level so tests can shrink
#: it to force chunking on small inputs)
GATHER_SCRATCH_BYTES = 8 * 1024 * 1024


def gather_chunk_rows(scratch_cols: int, itemsize: int) -> int:
    """Batch rows per gather chunk so scratch stays under the byte budget.

    ``scratch_cols`` counts *every* scratch element a single batch row
    materialises during one chunk — the gathered ``(chunk, nnz)`` slab
    **plus** the ``reduceat`` output that coexists with it before being
    written into the result.  The previous bound counted only the gather
    slab, so peak scratch could overshoot :data:`GATHER_SCRATCH_BYTES` by
    the reduce output's size; this helper is the single corrected formula
    shared by the reference kernel and every
    :mod:`repro.serving.kernels_fast` backend.
    """
    return max(1, GATHER_SCRATCH_BYTES // max(1, scratch_cols * itemsize))


def _plane_sums(x: np.ndarray, indices: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Per-row gather-accumulate: ``out[:, j] = x[:, idx in row j].sum()``.

    One fancy-index gather then a single ``reduceat`` per batch chunk; empty
    rows are skipped from the reduce boundaries (``reduceat`` would
    otherwise emit a stray single element for them) and stay exactly zero.

    The gather materialises an ``(M, nnz)`` scratch array, which for a
    large-batch × large-nnz layer can dwarf the model itself, so the batch
    axis is processed in chunks bounded by :data:`GATHER_SCRATCH_BYTES` —
    the bound counts both the gathered slab and the ``reduceat`` output
    that coexists with it (:func:`gather_chunk_rows`).  Chunking splits
    only the batch dimension — each row's summation order is untouched —
    so the output is bitwise identical to the unchunked gather.
    """
    profile = _PROFILE
    start = time.perf_counter() if profile is not None else 0.0
    rows = len(ptr) - 1
    out = np.zeros((x.shape[0], rows), dtype=x.dtype)
    starts, ends = ptr[:-1], ptr[1:]
    nonempty = np.flatnonzero(ends > starts)
    if nonempty.size:
        chunk = gather_chunk_rows(indices.size + nonempty.size, x.dtype.itemsize)
        bounds = starts[nonempty]
        for lo in range(0, x.shape[0], chunk):
            gathered = x[lo : lo + chunk, indices]
            out[lo : lo + chunk, nonempty] = np.add.reduceat(gathered, bounds, axis=1)
    if profile is not None:
        profile.record_gather(time.perf_counter() - start, "reference")
    return out


def ternary_matmul(x: np.ndarray, planes: TernaryPlanes) -> np.ndarray:
    """``x @ W.T`` for a packed ternary ``W`` — two gather-accumulate passes.

    ``x`` is (M, cols); the result is (M, rows) with dtype of ``x``.
    """
    if x.shape[1] != planes.cols:
        raise ValueError(f"input has {x.shape[1]} features, planes expect {planes.cols}")
    return _plane_sums(x, planes.plus_indices, planes.plus_ptr) - _plane_sums(
        x, planes.minus_indices, planes.minus_ptr
    )
