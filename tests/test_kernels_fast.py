"""Kernel backends: bitwise identity, the reduceat order, the cluster default.

The contract under test is the one the serving stack leans on everywhere:
the fused backend in :mod:`repro.serving.kernels_fast` produces
**bit-for-bit** the reference kernel's output — across shapes, sparsities,
dtypes, segment lengths and gather-chunk boundaries — and a default cluster
runs it in every worker, crash-restart replacements included.  The fused
lane schedule is also checked segment by segment against
``np.add.reduceat``, whose association it reproduces.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy.packing import pack_ternary
from repro.errors import ConfigError
from repro.serving import kernels, kernels_fast
from repro.serving.kernels import (
    TernaryPlanes,
    decode_planes,
    gather_chunk_rows,
    index_dtype,
    ternary_matmul,
)
from repro.serving.kernels_fast import (
    MAX_LANE_SEGMENT,
    FusedBackend,
    FusedPlanes,
    ReferenceBackend,
    resolve_backend,
)

BACKENDS = ("reference", "fused")


def ternary(rng: np.random.Generator, rows: int, cols: int, density: float) -> np.ndarray:
    """Random {-1, 0, +1} matrix with roughly the requested density."""
    mask = rng.random((rows, cols)) < density
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, cols))
    return (mask * signs).astype(np.int8)


def planes_for(values: np.ndarray) -> TernaryPlanes:
    """Pack + decode a ternary matrix into reference CSR planes."""
    blob, shape = pack_ternary(values)
    return decode_planes(blob, shape)


def activations(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Random activations: scaled normals for floats, small ints otherwise."""
    if np.issubdtype(dtype, np.floating):
        return (rng.standard_normal(shape) * 10).astype(dtype)
    return rng.integers(-1000, 1000, size=shape).astype(dtype)


def tiny_model_image(width: int = 8):
    """The hybrid model at ``width`` frozen into a deploy image."""
    from repro.core.hybrid import HybridConfig, STHybridNet
    from repro.core.strassen import freeze_all
    from repro.deploy import build_image

    model = STHybridNet(HybridConfig(width=width), rng=0)
    freeze_all(model)
    model.eval()
    return build_image(model)


def assert_bitwise(got: np.ndarray, want: np.ndarray, msg: str = "") -> None:
    """Same dtype, shape and bytes (so ``-0.0 != 0.0``); NaNs must sit at
    the same places, their payload bits aside."""
    assert got.dtype == want.dtype and got.shape == want.shape, msg
    if got.dtype.kind in "fc":
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan, err_msg=msg)
        got, want = got[~nan], want[~nan]
    assert got.tobytes() == want.tobytes(), msg


class TestRegistry:
    def test_builtin_backends_registered(self):
        """The name table holds exactly the two backends."""
        assert isinstance(resolve_backend("reference"), ReferenceBackend)
        assert isinstance(resolve_backend("fused"), FusedBackend)
        for name in BACKENDS:
            assert resolve_backend(name).name == name
        for retired in ("narrow", "popcount"):
            with pytest.raises(ConfigError, match="unknown kernel backend"):
                resolve_backend(retired)

    def test_unknown_backend_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            resolve_backend("warp-drive")

    def test_resolve_precedence(self):
        instance = FusedBackend()
        assert resolve_backend(instance) is instance
        assert resolve_backend(None).name == "fused"
        assert resolve_backend("reference").name == "reference"
        with pytest.raises(ConfigError, match="kernel must be"):
            resolve_backend(3.14)


class TestDecodeValidation:
    def test_scalar_shape_is_config_error(self):
        """Satellite: shape=() must fail loud, not die on prod(())."""
        with pytest.raises(ConfigError, match=r"shape=\(\) has no rows"):
            decode_planes(b"", ())

    def test_negative_dim_is_config_error(self):
        with pytest.raises(ConfigError, match="negative dimension"):
            decode_planes(b"", (4, -1))


class TestEdgeShapes:
    """0-row / 0-col transforms must work identically on both backends."""

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("rows,cols", [(0, 5), (5, 0), (0, 0)])
    def test_degenerate_planes(self, name, rows, cols):
        planes = planes_for(np.zeros((rows, cols), dtype=np.int8))
        x = np.ones((3, cols), dtype=np.float32)
        want = ternary_matmul(x, planes)
        backend = resolve_backend(name)
        got = backend.matmul(x, backend.prepare(planes))
        assert got.shape == (3, rows)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_batch(self, name):
        planes = planes_for(ternary(np.random.default_rng(0), 4, 6, 0.5))
        x = np.empty((0, 6), dtype=np.float32)
        backend = resolve_backend(name)
        got = backend.matmul(x, backend.prepare(planes))
        assert got.shape == (0, 4)
        np.testing.assert_array_equal(got, ternary_matmul(x, planes))

    @pytest.mark.parametrize("name", ["fused"])
    def test_feature_mismatch_matches_reference_error(self, name):
        planes = planes_for(ternary(np.random.default_rng(0), 4, 6, 0.5))
        backend = resolve_backend(name)
        prepared = backend.prepare(planes)
        with pytest.raises(ValueError, match="planes expect 6"):
            backend.matmul(np.ones((2, 7), dtype=np.float32), prepared)


class TestScratchBound:
    """Satellite: the chunk bound counts gather slab + reduceat output."""

    def test_gather_chunk_rows_counts_coexisting_scratch(self):
        itemsize = 4
        scratch_cols = 1000
        chunk = gather_chunk_rows(scratch_cols, itemsize)
        assert chunk * scratch_cols * itemsize <= kernels.GATHER_SCRATCH_BYTES
        # regression: a bound that only counted the gathered slab would
        # admit more rows than the budget once the reduce output coexists
        assert gather_chunk_rows(scratch_cols, itemsize) <= (
            kernels.GATHER_SCRATCH_BYTES // (scratch_cols * itemsize)
        )
        assert gather_chunk_rows(10**9, 8) == 1  # never zero rows

    def test_reference_peak_scratch_respects_budget(self, monkeypatch):
        """Peak scratch of `_plane_sums` = gathered + reduceat out <= budget."""
        rng = np.random.default_rng(3)
        planes = planes_for(ternary(rng, 16, 64, 0.8))
        x = rng.standard_normal((64, 64)).astype(np.float32)
        want = ternary_matmul(x, planes)
        budget = 4096
        monkeypatch.setattr(kernels, "GATHER_SCRATCH_BYTES", budget)
        nnz_plus = planes.plus_indices.size
        chunk = gather_chunk_rows(nnz_plus + 16, x.dtype.itemsize)
        peak = chunk * (nnz_plus + 16) * x.dtype.itemsize
        assert 1 <= chunk and peak <= budget
        np.testing.assert_array_equal(ternary_matmul(x, planes), want)

    def test_fused_peak_scratch_respects_budget(self, monkeypatch):
        """One fused matmul's traced peak stays within the budget plus its
        output, NumPy's intp copy of the stored gather order, and the array
        headers of one chunk's views (a fixed 2 KiB)."""
        import tracemalloc

        rng = np.random.default_rng(5)
        planes = planes_for(ternary(rng, 16, 64, 0.8))
        x = rng.standard_normal((64, 64)).astype(np.float32)
        want = ternary_matmul(x, planes)
        backend = FusedBackend()
        prepared = backend.prepare(planes)
        assert prepared.schedule is not None
        budget = 4096
        # unchunked, the slab alone would overshoot the budget many times
        assert prepared.nnz * x.shape[0] * x.dtype.itemsize > 10 * budget
        monkeypatch.setattr(kernels, "GATHER_SCRATCH_BYTES", budget)
        backend.matmul(x, prepared)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got = backend.matmul(x, prepared)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        index_cast = prepared.nnz * np.dtype(np.intp).itemsize
        headers = 2048
        assert peak <= budget + got.nbytes + index_cast + headers, (peak, got.nbytes, index_cast)
        assert_bitwise(got, want)

    @pytest.mark.parametrize("name", ["fused"])
    def test_backends_identical_under_tiny_budget(self, name, monkeypatch):
        """Chunk boundaries at every few rows never change a bit."""
        rng = np.random.default_rng(4)
        planes = planes_for(ternary(rng, 12, 40, 0.6))
        x = rng.standard_normal((37, 40)).astype(np.float32)
        want = ternary_matmul(x, planes)
        backend = resolve_backend(name)
        prepared = backend.prepare(planes)
        monkeypatch.setattr(kernels, "GATHER_SCRATCH_BYTES", 512)
        np.testing.assert_array_equal(backend.matmul(x, prepared), want)


DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
    "int64": np.int64,
    "int32": np.int32,
}


class TestBitwiseIdentity:
    """Tentpole: fused == reference, bit for bit, on every dtype."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=24),
        cols=st.integers(min_value=1, max_value=48),
        batch=st.integers(min_value=1, max_value=17),
        density=st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
        dtype=st.sampled_from(sorted(DTYPES)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scratch=st.sampled_from([None, 256, 4096]),
    )
    def test_property_identity(self, rows, cols, batch, density, dtype, seed, scratch):
        rng = np.random.default_rng(seed)
        planes = planes_for(ternary(rng, rows, cols, density))
        x = activations(rng, (batch, cols), DTYPES[dtype])
        with pytest.MonkeyPatch.context() as mp:
            if scratch is not None:
                mp.setattr(kernels, "GATHER_SCRATCH_BYTES", scratch)
            want = ternary_matmul(x, planes)
            for name in BACKENDS:
                backend = resolve_backend(name)
                got = backend.matmul(x, backend.prepare(planes))
                assert got.dtype == want.dtype, (name, dtype)
                np.testing.assert_array_equal(got, want, err_msg=f"{name}/{dtype}")


#: segment lengths at the schedule's edges: single entries, the last
#: sequential rest (8), the first lane rest (9), a second block (17), the
#: longest lane segment (129) and the first that takes ``reduceat`` (130)
BOUNDARY_LENGTHS = (0, 1, 2, 8, 9, 10, 16, 17, 128, 129, 130)
LONGEST = 140


def segment_planes(rng, plus_lengths, minus_lengths, cols: int = 2 * LONGEST) -> TernaryPlanes:
    """Planes whose row ``j`` has ``plus_lengths[j]`` +1 and
    ``minus_lengths[j]`` −1 entries at distinct random columns."""
    plus, minus = [], []
    for p, m in zip(plus_lengths, minus_lengths):
        picked = rng.permutation(cols)[: p + m]
        plus.append(np.sort(picked[:p]))
        minus.append(np.sort(picked[p:]))
    segments = plus + minus
    ptr = np.concatenate([[0], np.cumsum([len(seg) for seg in segments])]).astype(np.intp)
    indices = np.concatenate(segments).astype(np.intp)
    return TernaryPlanes(rows=len(plus), cols=cols, indices=indices, ptr=ptr)


def reduceat_oracle(x: np.ndarray, planes: TernaryPlanes) -> np.ndarray:
    """plus − minus, each segment summed by its own ``np.add.reduceat``."""
    sums = np.zeros((x.shape[0], 2 * planes.rows), dtype=x.dtype)
    for segment in range(2 * planes.rows):
        columns = planes.indices[planes.ptr[segment] : planes.ptr[segment + 1]]
        if columns.size:
            sums[:, segment] = np.add.reduceat(x[:, columns], [0], axis=1)[:, 0]
    return sums[:, : planes.rows] - sums[:, planes.rows :]


def values(rng, shape, dtype, specials: bool) -> np.ndarray:
    """Activations over 60 binades (floats) or small ints; with
    ``specials``, a tenth of them are ±0.0, NaN or ±inf."""
    if not np.issubdtype(dtype, np.floating):
        return rng.integers(-1000, 1000, size=shape).astype(dtype)
    x = rng.standard_normal(shape) * 2.0 ** rng.integers(-30, 30, size=shape)
    if specials:
        mask = rng.random(shape) < 0.1
        x[mask] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf], size=int(mask.sum()))
    return x.astype(dtype)


length_strategy = st.one_of(
    st.sampled_from(BOUNDARY_LENGTHS), st.integers(min_value=0, max_value=LONGEST)
)


class TestReduceatOrder:
    """The lane schedule reproduces ``np.add.reduceat``'s association:
    ``a0 + pairwise(rest)``, not a left-to-right sum."""

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.tuples(length_strategy, length_strategy), min_size=1, max_size=6),
        batch=st.integers(min_value=0, max_value=20),
        dtype=st.sampled_from(sorted(DTYPES)),
        specials=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scratch=st.sampled_from([None, 256, 4096]),
    )
    def test_segments_match_reduceat(self, lengths, batch, dtype, specials, seed, scratch):
        rng = np.random.default_rng(seed)
        planes = segment_planes(rng, *zip(*lengths))
        x = values(rng, (batch, planes.cols), DTYPES[dtype], specials)
        backend = FusedBackend()
        prepared = backend.prepare(planes)
        longest = max(max(pair) for pair in lengths)
        assert (prepared.schedule is None) == (longest > MAX_LANE_SEGMENT)
        with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
            want = reduceat_oracle(x, planes)  # inf - inf is NaN, as intended
            if scratch is not None:
                mp.setattr(kernels, "GATHER_SCRATCH_BYTES", scratch)
            got = backend.matmul(x, prepared)
        assert_bitwise(got, want, f"{dtype} lengths={lengths}")

    @pytest.mark.parametrize("dtype", sorted(DTYPES))
    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_boundary_lengths(self, length, dtype):
        """Every boundary length, as a +1 and as a −1 segment, batch 7."""
        rng = np.random.default_rng(length)
        planes = segment_planes(rng, [length, 3, 0], [5, length, 1])
        x = values(rng, (7, planes.cols), DTYPES[dtype], specials=False)
        got = FusedBackend().matmul(x, FusedBackend().prepare(planes))
        assert_bitwise(got, reduceat_oracle(x, planes), f"{dtype} length={length}")
        assert_bitwise(got, ternary_matmul(x, planes), f"{dtype} length={length}")

    def test_not_left_to_right(self):
        """float32 ``[1, 1e8, -1e8]`` sums to 1.0 (``1 + (1e8 + -1e8)``);
        left to right it would be 0.0."""
        planes = planes_for(np.array([[1, 1, 1]], dtype=np.int8))
        x = np.array([[1.0, 1e8, -1e8]], dtype=np.float32)
        assert (x[0, 0] + x[0, 1]) + x[0, 2] == 0.0
        for name in BACKENDS:
            backend = resolve_backend(name)
            got = backend.matmul(x, backend.prepare(planes))
            assert got[0, 0] == 1.0, name

    @pytest.mark.parametrize("dtype", [np.float16, np.complex64])
    def test_uncovered_dtypes_take_reduceat_pass(self, dtype):
        """float16 sums in float32 inside NumPy: the reduceat pass runs it."""
        rng = np.random.default_rng(8)
        planes = planes_for(ternary(rng, 6, 40, 0.7))
        prepared = FusedBackend().prepare(planes)
        assert prepared.schedule is not None
        x = (rng.standard_normal((5, 40)) * 10).astype(dtype)
        assert_bitwise(FusedBackend().matmul(x, prepared), ternary_matmul(x, planes))


def narrowest(bound: int) -> np.dtype:
    """The narrowest unsigned dtype whose range reaches ``bound`` (intp past
    uint32, which ``reduceat`` does not take as indices)."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bound < 2 ** (8 * np.dtype(dtype).itemsize):
            return np.dtype(dtype)
    return np.dtype(np.intp)


def kept_indices(prepared):
    """Each index array a prepared plane keeps, with the largest value it
    may hold: a column, a segment length, a slab row, a CSR bound or a lane."""
    if isinstance(prepared, TernaryPlanes):
        return [(prepared.indices, prepared.cols - 1), (prepared.ptr, prepared.nnz)]
    schedule = prepared.schedule
    longest = prepared.cols if schedule is None else MAX_LANE_SEGMENT
    kept = [(prepared.order, prepared.cols - 1), (prepared.lengths, longest)]
    if schedule is not None:
        kept.append((schedule.sums_index, prepared.nnz))
        if schedule.lane_order is not None:
            kept.append((schedule.lane_order, schedule.lanes - 1))
    return kept


def split_lengths(rng, total: int, parts: int) -> np.ndarray:
    """``parts`` segment lengths summing to ``total``, within one of each other."""
    lengths = np.full(parts, total // parts)
    lengths[rng.permutation(parts)[: total % parts]] += 1
    return lengths


def boundary_planes(rng, kind: str, value: int) -> TernaryPlanes:
    """Planes at one edge of an index width: ``cols`` of ``value`` (the top
    column used), ``long`` the same with a 130-entry segment (no schedule),
    ``nnz`` of exactly ``value`` with an empty segment (so the zero-row
    sentinel ``nnz`` is stored), or ``lanes`` lane segments of 9 and 17
    entries (so ``lane_order`` is kept)."""
    if kind in ("cols", "long"):
        plus = rng.integers(0, 12, size=3)
        minus = rng.integers(0, 12, size=3)
        plus[0] += 1
        if kind == "long":
            minus[1] = MAX_LANE_SEGMENT + 1
        planes = segment_planes(rng, plus, minus, cols=value)
        planes.indices[plus[0] - 1] = value - 1  # row 0's largest +1 column is the last
        return planes
    if kind == "nnz":
        rows = 4 if value < 1000 else 300
        lengths = np.zeros(2 * rows, dtype=int)
        lengths[1:] = split_lengths(rng, value, 2 * rows - 1)
        rng.shuffle(lengths)
        return segment_planes(rng, lengths[:rows], lengths[rows:], cols=300)
    lengths = np.ones(2 * 129, dtype=int)
    lengths[:value] = rng.choice([9, 17], size=value)
    lengths[:2] = (9, 17)  # a 17 after a 9: the blocks need lane_order
    return segment_planes(rng, lengths[:129], lengths[129:], cols=300)


#: each width's edges: columns either side of 256 and 65,536 columns,
#: schedule-less lengths of 256 columns, slab rows and CSR bounds at nnz
#: 255/256 and 65,535/65,536, and 256/257 lanes
WIDTH_EDGES = (
    [("cols", c) for c in (255, 256, 257, 65_535, 65_536, 65_537)]
    + [("long", c) for c in (255, 256, 257)]
    + [("nnz", n) for n in (255, 256, 65_535, 65_536)]
    + [("lanes", k) for k in (256, 257)]
)


class TestIndexWidths:
    """Every index array a plan keeps is stored at the narrowest unsigned
    width its largest possible value needs, and no width moves a bit."""

    def test_index_dtype_edges(self):
        assert index_dtype(-1) == index_dtype(0) == index_dtype(255) == np.uint8
        assert index_dtype(256) == index_dtype(65_535) == np.uint16
        assert index_dtype(65_536) == index_dtype(2**32 - 1) == np.uint32
        assert index_dtype(2**32) == np.intp

    @pytest.mark.parametrize("kind,value", WIDTH_EDGES)
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_widths_at_their_edges(self, kind, value, seed):
        rng = np.random.default_rng(seed)
        planes = boundary_planes(rng, kind, value)
        prepared = {name: resolve_backend(name).prepare(planes) for name in BACKENDS}
        fused = prepared["fused"]
        if kind in ("cols", "long"):
            assert planes.cols == value and planes.indices.max() == value - 1
            assert (fused.schedule is None) == (kind == "long")
        elif kind == "nnz":
            assert planes.nnz == value and fused.schedule.zero_row
        else:
            assert fused.schedule.lanes == value and fused.schedule.lane_order is not None
        for name, plane in prepared.items():
            for array, bound in kept_indices(plane):
                assert array.dtype == narrowest(bound), (name, array.dtype, bound)
                assert array.size == 0 or int(array.max()) <= bound, (name, bound)
        # fusing the narrowed CSR planes lays out the same plan: every
        # position the layout computes is below nnz, so it fits their width
        again = FusedBackend().prepare(prepared["reference"])
        for (array, _), (want, _) in zip(kept_indices(again), kept_indices(fused)):
            assert array.dtype == want.dtype and array.tobytes() == want.tobytes()
        for dtype in (np.float32, np.float64, np.int64):
            for batch in (1, 7):
                x = values(rng, (batch, planes.cols), dtype, specials=False)
                want = ternary_matmul(x, planes)  # the unnarrowed intp planes
                for name, plane in prepared.items():
                    got = resolve_backend(name).matmul(x, plane)
                    assert_bitwise(got, want, f"{name} {kind}={value} {dtype.__name__} b{batch}")


class TestOutputLayout:
    @pytest.mark.parametrize("scratch", [None, 512])
    @pytest.mark.parametrize("batch", [1, 3, 64])
    def test_fused_output_is_c_contiguous(self, batch, scratch, monkeypatch):
        """Like the reference: a transposed result would change the bits of
        layout-dependent reductions downstream (``features()``'s mean)."""
        rng = np.random.default_rng(batch)
        planes = planes_for(ternary(rng, 12, 40, 0.6))
        x = rng.standard_normal((batch, 40)).astype(np.float32)
        if scratch is not None:
            monkeypatch.setattr(kernels, "GATHER_SCRATCH_BYTES", scratch)
        got = FusedBackend().matmul(x, FusedBackend().prepare(planes))
        assert got.flags.c_contiguous and got.shape == (batch, 12)
        assert_bitwise(got, ternary_matmul(x, planes))

    @pytest.mark.parametrize("width", [8, 16])
    def test_features_bitwise_equal_reference(self, width):
        from repro.serving import PackedModel

        image = tiny_model_image(width)
        fused, reference = PackedModel(image), PackedModel(image, kernel="reference")
        rng = np.random.default_rng(width)
        for batch in (1, 32):
            x = rng.standard_normal((batch, 49, 10)).astype(np.float32)
            assert_bitwise(fused.features(x), reference.features(x), f"features b{batch}")
            assert_bitwise(fused(x), reference(x), f"scores b{batch}")


class TestProbe:
    """The one-time probe: lane schedules run only where they reproduce
    this NumPy's ``reduceat``; otherwise every plane takes the
    ``reduceat`` pass, still bitwise identical."""

    def test_probe_accepts_this_numpy(self):
        from repro.serving import PackedModel

        assert FusedBackend().lane_schedule is True
        packed = PackedModel(tiny_model_image())
        prepared = [p for plan in packed._plans.values() for p in (plan.wb, plan.wc) if p]
        assert prepared and all(p.schedule is not None for p in prepared)

    def test_probe_rejects_another_association(self, monkeypatch):
        """Lanes stored in natural order combine as ((r0+r4)+(r2+r6))+…:
        the probe must see the difference."""
        natural = (1 + 8 * np.arange(16)[:, None] + np.arange(8))[:, :, None]
        monkeypatch.setattr(kernels_fast, "_BLOCK_ENTRIES", natural)
        assert kernels_fast._probe_lanes() is False

    def test_failed_probe_runs_reduceat_everywhere(self, monkeypatch):
        from repro.serving import PackedModel

        monkeypatch.setattr(kernels_fast, "_LANES_EXACT", False)
        backend = FusedBackend()
        assert backend.lane_schedule is False
        image = tiny_model_image()
        fused, reference = PackedModel(image), PackedModel(image, kernel="reference")
        prepared = [p for plan in fused._plans.values() for p in (plan.wb, plan.wc) if p]
        assert prepared and all(p.schedule is None for p in prepared)
        rng = np.random.default_rng(14)
        for batch in (1, 17):
            x = rng.standard_normal((batch, 49, 10)).astype(np.float32)
            assert_bitwise(fused(x), reference(x), f"scores b{batch}")
            assert_bitwise(fused.features(x), reference.features(x), f"features b{batch}")
        for rows, cols, density in ((5, 30, 0.5), (12, 200, 0.9), (3, 7, 0.0)):
            planes = planes_for(ternary(rng, rows, cols, density))
            x = rng.standard_normal((9, cols)).astype(np.float32)
            assert_bitwise(backend.matmul(x, backend.prepare(planes)), ternary_matmul(x, planes))


class TestNarrowAccumulation:
    """No backend narrows: int64 activations accumulate in int64 even
    where an int32 accumulator would wrap."""

    def test_int64_overflow_risk_stays_wide(self):
        planes = planes_for(np.ones((1, 4), dtype=np.int8))
        big = np.full((2, 4), np.iinfo(np.int32).max, dtype=np.int64)
        for name in BACKENDS:
            backend = resolve_backend(name)
            got = backend.matmul(big, backend.prepare(planes))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, ternary_matmul(big, planes))
            assert got[0, 0] == 4 * int(np.iinfo(np.int32).max)  # would wrap in int32

    def test_signed_combine_cannot_wrap_int32(self):
        """plus − minus can reach 2 × int32max and must stay exact."""
        planes = planes_for(np.array([[1, -1]], dtype=np.int8))
        i32max = int(np.iinfo(np.int32).max)
        x = np.array([[i32max, -i32max]], dtype=np.int64)
        for name in BACKENDS:
            backend = resolve_backend(name)
            got = backend.matmul(x, backend.prepare(planes))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, ternary_matmul(x, planes))
            assert got[0, 0] == 2 * i32max  # would wrap to -2 in int32

    def test_int64_min_stays_wide(self):
        planes = planes_for(np.array([[1, 0]], dtype=np.int8))
        i64min = int(np.iinfo(np.int64).min)
        x = np.array([[i64min, 0]], dtype=np.int64)
        for name in BACKENDS:
            backend = resolve_backend(name)
            got = backend.matmul(x, backend.prepare(planes))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, ternary_matmul(x, planes))
            assert got[0, 0] == i64min


#: (image ``total_bytes()``, fused and reference ``decoded_bytes()``) of the
#: seeded, frozen w8 and w64 models; a change that moves one on purpose
#: updates the pin
PLAN_SIZES = {8: (3_721, 7_988, 7_122), 64: (14_249, 35_288, 32_153)}


def plan_arrays(node, found: dict) -> None:
    """Collect, by identity, every ndarray reachable from a plan's fields."""
    if isinstance(node, np.ndarray):
        found[id(node)] = node
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            plan_arrays(getattr(node, field.name), found)
    elif isinstance(node, (tuple, list)):  # a LaneSchedule is a NamedTuple
        for item in node:
            plan_arrays(item, found)
    elif isinstance(node, dict):
        for item in node.values():
            plan_arrays(item, found)


class TestPlanAccounting:
    def test_fused_planes_nbytes_and_nnz(self):
        planes = planes_for(ternary(np.random.default_rng(10), 6, 12, 0.5))
        prepared = FusedBackend().prepare(planes)
        assert isinstance(prepared, FusedPlanes)
        assert (prepared.rows, prepared.cols, prepared.nnz) == (6, 12, planes.nnz)
        assert prepared.order.dtype == narrowest(prepared.cols - 1)  # a byte per column
        assert prepared.nbytes == (
            prepared.order.nbytes + prepared.lengths.nbytes + prepared.schedule.nbytes
        )
        assert prepared.nbytes < planes.nbytes

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("width", [8, 16, 64])
    def test_decoded_bytes_counts_every_array(self, width, name):
        """``decoded_bytes()`` is the bytes of every distinct array the
        cached plans reach, and each owns its memory: a view would keep its
        base alive uncounted."""
        from repro.serving import PackedModel

        packed = PackedModel(tiny_model_image(width), kernel=name)
        found = {}
        for plan in packed._plans.values():
            plan_arrays(plan, found)
        assert packed.decoded_bytes() == sum(array.nbytes for array in found.values())
        assert all(array.base is None for array in found.values())

    @pytest.mark.parametrize("width", sorted(PLAN_SIZES))
    def test_seeded_plan_sizes_are_pinned(self, width):
        """The image and plan sizes of the seeded models the end-to-end
        benchmark serves, exactly: a change that grows a plan fails here."""
        from repro.deploy.image import ModelImage
        from repro.serving import PackedModel

        image = ModelImage.from_bytes(tiny_model_image(width).to_bytes())
        sizes = (
            image.total_bytes(),
            PackedModel(image).decoded_bytes(),
            PackedModel(image, kernel="reference").decoded_bytes(),
        )
        assert sizes == PLAN_SIZES[width]

    def test_packed_model_kernel_selection(self):
        from repro.serving import PackedModel

        image = tiny_model_image()
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 49, 10)).astype(np.float32)
        want = PackedModel(image, kernel="reference")(x)
        assert PackedModel(image).kernel_backend.name == "fused"
        for name in BACKENDS:
            packed = PackedModel(image, kernel=name)
            assert packed.kernel_backend.name == name
            np.testing.assert_array_equal(packed(x), want, err_msg=name)
            assert packed.decoded_bytes() > 0
        custom = PackedModel(image, kernel=FusedBackend())
        np.testing.assert_array_equal(custom(x), want)
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            PackedModel(image, kernel="warp-drive")


class TestClusterKernelRoundTrip:
    """A default cluster runs the fused default in every worker, and its
    byte accounting matches the plans the workers actually hold."""

    def test_kernel_survives_spawn_and_restart(self):
        import time

        from repro.errors import WorkerCrashed
        from repro.serving import ClusterRouter, PackedModel

        image = tiny_model_image()
        rng = np.random.default_rng(13)
        x = rng.standard_normal((49, 10)).astype(np.float32)
        want = PackedModel(image, kernel="reference")(x[None])[0]
        plan_bytes = PackedModel(image).decoded_bytes()

        def observed_backends(router):
            """Backend names the workers' kernel profiles attribute to."""
            profile = router.kernel_profile()
            return {b for row in profile.values() for b in row.get("backends", {})}

        router = ClusterRouter(workers=1)
        router.register("m", image)
        with router:
            router.profile_kernels(True)
            np.testing.assert_array_equal(router.predict(x, model="m"), want)
            assert observed_backends(router) == {"fused"}
            # the parent budgets what the worker really decoded
            assert router.snapshot().resident_bytes == plan_bytes
            assert router.pool.ping(0)[0] == plan_bytes

            router.pool.inject_crash(0)
            deadline = time.monotonic() + 15.0
            while True:  # the retry loop a real client would run
                try:
                    got = router.predict(x, model="m")
                    break
                except WorkerCrashed:
                    assert time.monotonic() < deadline, "restart never came up"
                    time.sleep(0.01)
            np.testing.assert_array_equal(got, want)
            # profiling is per-process state, so re-arm on the replacement
            router.profile_kernels(True)
            np.testing.assert_array_equal(router.predict(x, model="m"), want)
            assert observed_backends(router) == {"fused"}
            assert router.snapshot().resident_bytes == plan_bytes
            assert router.pool.ping(0)[0] == plan_bytes
