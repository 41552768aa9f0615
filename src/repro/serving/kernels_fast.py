"""The fused single-pass ternary kernel, and where a backend is chosen.

The reference kernel (:mod:`repro.serving.kernels`) executes a ternary
matmul as **two** gather-accumulate passes — one per sign plane — each
ending in ``np.add.reduceat``, which makes one inner-loop call per (batch
row, segment).  :class:`FusedBackend` runs both planes as one gather and
replaces that per-segment loop with a *lane schedule* built at prepare time:
a short, fixed sequence of in-place vector adds over whole slabs of one
feature-major gather, so a matmul costs a constant number of NumPy calls.

The schedule reproduces ``reduceat``'s association exactly.  NumPy sums a
segment ``a0, a1, …, a(n-1)`` as ``a0 + pairwise(a1 … a(n-1))``, and its
pairwise sum of ``k`` elements is

* ``k < 8``: a sequential sum (from ``-0.0``, which changes no value);
* ``8 <= k <= 128``: eight lanes ``r_j = a_j + a_(j+8) + …``, combined as
  ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the ``k % 8`` leftover
  elements added in order;
* ``k > 128``: a recursive split, which the schedule does not emulate.

Floats therefore do **not** sum left to right: ``reduceat([1, 1e8, -1e8])``
is 1.0 in float32, where a left-to-right sum gives 0.0.  Integer sums are
exact in any order.  So the fused backend is **bitwise identical** to the
reference on every dtype (property-tested in ``tests/test_kernels_fast.py``).

Two backends exist, ``"reference"`` and ``"fused"`` (the default), and
:class:`~repro.serving.packed.PackedModel` (``kernel=``) is the one place
that picks between them, through :func:`resolve_backend`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.serving.kernels import (
    TernaryPlanes,
    gather_chunk_rows,
    get_kernel_profile,
    index_dtype,
    ternary_matmul,
)

#: NumPy's pairwise-sum block: a reduce of at most this many elements runs
#: in eight lanes; a longer one splits recursively
_PAIRWISE_BLOCK = 128
#: the longest segment a lane schedule sums: a first element plus one block
MAX_LANE_SEGMENT = _PAIRWISE_BLOCK + 1
#: lane ``j`` of an 8-lane block is stored at position ``_LANE_SLOT[j]``, so
#: the positions hold lanes 0, 4, 2, 6, 1, 5, 3, 7 and the lane combine is
#: three halvings of contiguous rows
_LANE_SLOT = np.array([0, 4, 2, 6, 1, 5, 3, 7])
#: dtypes whose ``reduceat`` the schedule reproduces: float32/float64 sum
#: in the pairwise order above, integers are exact in any order (float16
#: accumulates in float32 inside NumPy, so it takes the ``reduceat`` pass)
_LANE_DTYPES = frozenset(np.dtype(code) for code in "fd" + np.typecodes["AllInteger"])


#: entry offset, from its segment's start, of each position of each block:
#: position ``s`` of block ``k`` holds rest entry ``8k + _LANE_SLOT[s]``
_BLOCK_ENTRIES = (1 + 8 * np.arange(_PAIRWISE_BLOCK // 8)[:, None] + _LANE_SLOT)[:, :, None]


def _sort_keys() -> np.ndarray:
    """A segment's sort key by its length ``L``: ``0..6`` short segments
    (2–8 entries) by ascending tail, ``7..14`` lane segments (9–129
    entries) by descending tail, ``15`` single entries, ``16`` empty ones."""
    lengths = np.arange(MAX_LANE_SEGMENT + 1)
    keys = np.where(lengths <= 8, lengths - 2, 14 - (lengths - 1) % 8)
    keys[:2] = (16, 15)
    return keys.astype(np.uint8)


_SORT_KEYS = _sort_keys()


class LaneSchedule(NamedTuple):
    """The summation steps of one plane pair, as rows of its gathered slab.

    The slab holds one row per gathered element (feature-major: each row is
    a whole batch column), plus a zero row at index ``nnz`` when a segment
    is empty.  Its blocks, in order:

    * every non-empty segment's first element, in sum order: short
      segments (2–8 entries) by ascending tail, lane segments (9–129) by
      descending tail, then single entries;
    * tail step 0 — the short segments' second elements, directly followed
      by the lane accumulators, so the rows that sum each segment's rest
      (one per segment with a rest, in sum order) are contiguous;
    * the lane accumulators (block 0) and each further block ``k``: eight
      positions of ``count`` lane segments each, position-major, lane
      segments here ordered by descending block count, so the segments
      with a block ``k`` are a prefix;
    * tail steps 1…: the segments still holding an element at that step,
      short ones (a suffix of theirs) then lane ones (a prefix).

    Each step is one in-place add of contiguous rows (the level adds run
    over a position-major view of such rows).  The two index arrays are
    stored at their :func:`~repro.serving.kernels.index_dtype` widths, of
    ``nnz`` and ``lanes - 1``; the slices and counts are Python objects.
    """

    #: (2 * rows,) slab row holding each segment's sum; ``nnz`` if empty
    sums_index: np.ndarray
    #: whether a segment is empty, so the slab needs its zero row
    zero_row: bool
    #: segments summed in eight lanes, and the rows of their accumulators
    lanes: int
    acc: slice
    #: (count, rows) of each further block, added into the first ``count``
    levels: Tuple[Tuple[int, slice], ...]
    #: accumulator row of each lane segment in sum order; None if the same
    lane_order: Optional[np.ndarray]
    #: ``slab[rows] += slab[source]`` for each tail step, then once more to
    #: add each segment's rest to its first element
    steps: Tuple[Tuple[slice, slice], ...]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the schedule's index arrays."""
        order = 0 if self.lane_order is None else self.lane_order.nbytes
        return self.sums_index.nbytes + order


def _lane_layout(
    lengths: np.ndarray, starts: np.ndarray, nnz: int
) -> Tuple[LaneSchedule, np.ndarray]:
    """The schedule for segments of ``lengths`` (each at most
    :data:`MAX_LANE_SEGMENT`) starting at ``starts`` in a segment-major
    index array, and, per slab row, the position of its element there.

    One argsort orders the segments (a second one, over the lane segments
    only, orders their blocks); each slab block is then one arithmetic
    step on its segments' start positions.  That arithmetic runs in intp;
    the schedule's own index arrays are built in their stored widths.
    """
    segments = lengths.size
    keys = _SORT_KEYS[lengths]
    order = keys.argsort(kind="stable")
    # totals[i]: segments with key <= i
    totals = list(itertools.accumulate(np.bincount(keys, minlength=17).tolist()))
    shorts, lanes, first = totals[6], totals[14] - totals[6], totals[15]
    heads = starts[order[:first]]  # first elements, in sum order
    # the element a segment adds at tail step j is rest[j]: a short
    # segment's entry j + 1, a lane segment's entry 8 * blocks + j
    rest = heads[: shorts + lanes] + 1
    pieces = [heads, rest[:shorts]]
    row = first + shorts  # the lane accumulators
    levels = []
    lane_order = None
    if lanes:
        blocks = (lengths[order[shorts : shorts + lanes]] - 1) >> 3
        rest[shorts:] += 8 * blocks - 1
        lane_heads = heads[shorts : shorts + lanes]
        if (blocks[1:] > blocks[:-1]).any():
            # blocks list lane segments by descending block count, so the
            # ones with a block k are a prefix; lane_order maps them back
            by_blocks = (-blocks).argsort(kind="stable")
            lane_order = np.empty(lanes, dtype=index_dtype(lanes - 1))
            lane_order[by_blocks] = np.arange(lanes, dtype=lane_order.dtype)
            lane_heads = lane_heads[by_blocks]
        with_block = list(itertools.accumulate(np.bincount(blocks)[:0:-1].tolist()))[::-1]
        for k, count in enumerate(with_block):  # lane segments with a block k
            pieces.append((lane_heads[:count] + _BLOCK_ENTRIES[k]).ravel())
            if k:
                levels.append((count, slice(row, row + 8 * count)))
            row += 8 * count
    steps = []
    for j in range(1, 8):
        lo = totals[j - 1]  # short segments with a shorter tail
        hi = shorts + totals[14 - j] - totals[6]  # lane segments with tail >= j
        if hi <= lo:
            break
        pieces.append(rest[lo:hi] + j)
        steps.append((slice(first + lo, first + hi), slice(row, row + hi - lo)))
        row += hi - lo
    steps.append((slice(0, shorts + lanes), slice(first, first + shorts + lanes)))

    # a non-empty segment's sum lands in its first element's row, the
    # segment's rank in sum order (< first <= nnz); an empty one reads the
    # zero row at nnz
    sums_index = np.empty(segments, dtype=index_dtype(nnz))
    sums_index[order[:first]] = np.arange(first, dtype=sums_index.dtype)
    sums_index[order[first:]] = nnz
    schedule = LaneSchedule(
        sums_index=sums_index,
        zero_row=first < segments,
        lanes=lanes,
        acc=slice(first + shorts, first + shorts + 8 * lanes),
        levels=tuple(levels),
        lane_order=lane_order,
        steps=tuple(steps),
    )
    return schedule, np.concatenate(pieces)


@dataclass(frozen=True)
class FusedPlanes:
    """Both sign planes of one ternary matrix as one gather and its sum plan.

    Segment ``j < rows`` is row ``j``'s +1 columns and segment ``rows + j``
    its −1 columns; ``lengths`` counts their entries.  With a ``schedule``,
    ``order`` gathers the columns slot-major, in the slab layout the
    schedule sums; without one (a segment longer than
    :data:`MAX_LANE_SEGMENT`, or a failed probe) ``order`` is segment-major,
    ascending within each segment, for the batch-major ``reduceat`` pass.
    ``order`` is stored at the :func:`~repro.serving.kernels.index_dtype`
    width of ``cols - 1``, and ``lengths`` at that of its longest possible
    segment (:data:`MAX_LANE_SEGMENT` under a schedule, ``cols`` without):
    at every served width, one byte per column index and per length.
    """

    rows: int
    cols: int
    order: np.ndarray
    lengths: np.ndarray
    schedule: Optional[LaneSchedule]

    @property
    def nnz(self) -> int:
        """Non-zero weights across both sign planes."""
        return self.order.size

    @property
    def nbytes(self) -> int:
        """Decoded in-memory footprint of the fused layout."""
        total = self.order.nbytes + self.lengths.nbytes
        return total + (0 if self.schedule is None else self.schedule.nbytes)


def _fuse(planes: TernaryPlanes, lanes: bool) -> FusedPlanes:
    """Both sign planes as one gather: lane-scheduled when ``lanes`` allows
    and every segment fits :data:`MAX_LANE_SEGMENT`, segment-major otherwise."""
    lengths = planes.ptr[1:] - planes.ptr[:-1]
    column = index_dtype(planes.cols - 1)
    if not lanes or lengths.max(initial=0) > MAX_LANE_SEGMENT:
        return FusedPlanes(
            rows=planes.rows,
            cols=planes.cols,
            order=planes.indices.astype(column),
            lengths=lengths.astype(index_dtype(planes.cols)),
            schedule=None,
        )
    schedule, elements = _lane_layout(lengths, planes.ptr[:-1], planes.nnz)
    return FusedPlanes(
        rows=planes.rows,
        cols=planes.cols,
        order=planes.indices[elements].astype(column),
        lengths=lengths.astype(index_dtype(MAX_LANE_SEGMENT)),
        schedule=schedule,
    )


def _sum_lanes(slab: np.ndarray, schedule: LaneSchedule) -> None:
    """Run the schedule in place: each segment's sum lands in its first row."""
    lanes = schedule.lanes
    if lanes:
        acc = slab[schedule.acc]
        blocks = acc.reshape(8, lanes, -1)
        for count, rows in schedule.levels:
            head = blocks[:, :count]
            head += slab[rows].reshape(8, count, -1)
        # positions hold lanes 0, 4, 2, 6, 1, 5, 3, 7, so the combine
        # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) is three halvings
        head = acc[: 4 * lanes]
        head += acc[4 * lanes :]
        head = acc[: 2 * lanes]
        head += acc[2 * lanes : 4 * lanes]
        head, tail = acc[:lanes], acc[lanes : 2 * lanes]
        if schedule.lane_order is None:
            head += tail
        else:
            np.add(head, tail, out=tail)
            tail.take(schedule.lane_order, axis=0, out=head, mode="clip")
    for rows, source in schedule.steps:
        head = slab[rows]
        head += slab[source]


def _lane_matmul(x: np.ndarray, prepared: FusedPlanes, out: np.ndarray) -> None:
    """``out = x @ W.T`` through the lane schedule, chunked along the batch.

    The gather reads ``x.T`` feature-major.  A caller whose ``x`` is the
    transpose of a C-contiguous array (a conv layer's patches) costs no copy
    when one chunk covers the batch; any other ``x``, and every chunk of a
    longer batch, is copied C-contiguous by ``take`` itself.  Per chunk row
    the scratch is that transposed input, the ``nnz (+1)``-row slab and the
    ``2 * rows`` gathered sums — all counted against
    :data:`GATHER_SCRATCH_BYTES`.  Besides them, each ``take`` widens its
    stored index array to an intp copy for the call: the gather order's is
    8 bytes per non-zero weight, whatever the batch and whatever width the
    plan keeps it at.
    """
    schedule = prepared.schedule
    nnz, rows = prepared.order.size, prepared.rows
    scratch = prepared.cols + nnz + schedule.zero_row + 2 * rows
    chunk = gather_chunk_rows(scratch, x.dtype.itemsize)
    for lo in range(0, x.shape[0], chunk):
        xt = x[lo : lo + chunk].T
        slab = np.empty((nnz + schedule.zero_row, xt.shape[1]), dtype=x.dtype)
        xt.take(prepared.order, axis=0, out=slab[:nnz], mode="clip")
        if schedule.zero_row:
            slab[nnz] = 0
        _sum_lanes(slab, schedule)
        sums = slab.take(schedule.sums_index, axis=0, mode="clip")
        del slab
        np.subtract(sums[:rows], sums[rows:], out=out[lo : lo + chunk].T)


def _reduceat_matmul(x: np.ndarray, prepared: FusedPlanes) -> np.ndarray:
    """The batch-major ``reduceat`` pass: gather ``x[chunk, columns]`` and
    reduce along axis 1 (the reference's orientation), empty segments zero.

    A lane-scheduled plane (an input dtype the schedule does not cover)
    first rebuilds its segment-major column order from its lengths.
    """
    lengths = prepared.lengths.astype(np.intp)
    starts = np.cumsum(lengths) - lengths
    columns = prepared.order
    if prepared.schedule is not None:
        columns = np.empty_like(prepared.order)
        columns[_lane_layout(lengths, starts, prepared.nnz)[1]] = prepared.order
    nonempty = np.flatnonzero(lengths)
    bounds = starts[nonempty]
    sums = np.zeros((x.shape[0], lengths.size), dtype=x.dtype)
    # scratch per batch row: the gathered slab + the reduceat output
    chunk = gather_chunk_rows(columns.size + nonempty.size, x.dtype.itemsize)
    for lo in range(0, x.shape[0], chunk):
        gathered = x[lo : lo + chunk, columns]
        sums[lo : lo + chunk, nonempty] = np.add.reduceat(gathered, bounds, axis=1)
    return sums[:, : prepared.rows] - sums[:, prepared.rows :]


#: segment lengths the probe sums: a single entry, the sequential rests
#: either side of 8 entries, and lane segments with 1, 2, 3, 8, 15 and 16
#: blocks, with and without leftovers — every branch and boundary of
#: NumPy's pairwise sum up to :data:`MAX_LANE_SEGMENT`
_PROBE_LENGTHS = (1, 2, 3, 8, 9, 10, 16, 17, 24, 25, 64, 65, 127, 128, 129)


def _probe_lanes() -> bool:
    """Whether lane sums match this NumPy's ``np.add.reduceat`` bit for bit.

    Sums segments of :data:`_PROBE_LENGTHS` both ways, in float32 and
    float64, over values spread across 48 binades, where any other
    association of a segment's additions changes its rounding.  The probe
    runs in the first decode of every process (a cluster worker's boot
    included), so it stays small, and its values are arithmetic: importing
    ``numpy.random`` for them would cost more than the whole probe.
    """
    lengths = np.array(_PROBE_LENGTHS)
    ptr = np.concatenate([[0], np.cumsum(lengths)])
    columns = np.arange(ptr[-1]) - np.repeat(ptr[:-1], lengths)  # 0 .. L-1 each
    # the minus plane is empty, so the matmul is the plus sums: x - 0.0 == x
    bounds = np.concatenate([ptr, np.full(lengths.size, ptr[-1])])
    planes = TernaryPlanes(rows=lengths.size, cols=MAX_LANE_SEGMENT, indices=columns, ptr=bounds)
    prepared = _fuse(planes, lanes=True)
    i = np.arange(2 * MAX_LANE_SEGMENT).reshape(2, MAX_LANE_SEGMENT)
    values = np.sin(2.3 * i) * 2.0 ** (11 * i % 48 - 24)
    for dtype in (np.float32, np.float64):
        x = values.astype(dtype)
        want = np.add.reduceat(x[:, columns], ptr[:-1], axis=1)
        got = np.empty_like(want)
        _lane_matmul(x, prepared, got)
        if got.tobytes() != want.tobytes():
            return False
    return True


#: the probe's verdict, taken once per process on first use
_LANES_EXACT: Optional[bool] = None


def _lanes_exact() -> bool:
    """Whether this process sums through lane schedules (the one-time probe)."""
    global _LANES_EXACT
    if _LANES_EXACT is None:
        _LANES_EXACT = _probe_lanes()
    return _LANES_EXACT


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
        """The CSR planes the reference executes off, with ``indices`` and
        ``ptr`` copied to their :func:`~repro.serving.kernels.index_dtype`
        widths (of ``cols - 1`` and ``nnz``).  The copies own their memory,
        so a plan holds exactly what it counts: the indices
        :func:`~repro.serving.kernels.decode_planes` returns are a column of
        ``np.nonzero``'s result, a view that keeps its other column alive."""
        return TernaryPlanes(
            rows=planes.rows,
            cols=planes.cols,
            indices=planes.indices.astype(index_dtype(planes.cols - 1)),
            ptr=planes.ptr.astype(index_dtype(planes.nnz)),
        )

    def matmul(self, x: np.ndarray, prepared: TernaryPlanes) -> np.ndarray:
        """Two gather-accumulate passes (profiling is recorded inside)."""
        return ternary_matmul(x, prepared)


class FusedBackend(KernelBackend):
    """One gather per matmul, summed by the plane's lane schedule.

    ``prepare`` builds the schedule (:class:`LaneSchedule`); ``matmul``
    gathers the activations feature-major, runs the schedule's in-place
    vector adds, and writes a C-contiguous ``(M, rows)`` result.  A plane
    with a segment longer than :data:`MAX_LANE_SEGMENT`, and an input
    dtype the schedule does not reproduce, run the batch-major
    ``np.add.reduceat`` pass instead; so does every plane when the
    one-time probe (:attr:`lane_schedule`) finds that this NumPy sums in
    another order.  Either way the result is the reference's, bit for bit.
    """

    name = "fused"

    @property
    def lane_schedule(self) -> bool:
        """True when lane schedules run; False when every plane in the
        process takes the ``reduceat`` pass (the probe failed)."""
        return _lanes_exact()

    def prepare(self, planes: TernaryPlanes) -> FusedPlanes:
        """Fuse the sign planes and build their lane schedule."""
        return _fuse(planes, lanes=_lanes_exact())

    def matmul(self, x: np.ndarray, prepared: FusedPlanes) -> np.ndarray:
        """One gather + the schedule's vector adds + one signed combine."""
        if x.shape[1] != prepared.cols:
            raise ValueError(
                f"input has {x.shape[1]} features, planes expect {prepared.cols}"
            )
        profile = get_kernel_profile()
        start = time.perf_counter() if profile is not None else 0.0
        if prepared.nnz == 0 or x.shape[0] == 0:
            out = np.zeros((x.shape[0], prepared.rows), dtype=x.dtype)
        elif prepared.schedule is None or x.dtype not in _LANE_DTYPES:
            out = _reduceat_matmul(x, prepared)
        else:
            out = np.empty((x.shape[0], prepared.rows), dtype=x.dtype)
            _lane_matmul(x, prepared, out)
        if profile is not None:
            profile.record_gather(time.perf_counter() - start, self.name)
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
    "LaneSchedule",
    "MAX_LANE_SEGMENT",
    "ReferenceBackend",
    "FusedBackend",
    "resolve_backend",
]
