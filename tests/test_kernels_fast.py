"""Kernel backends: bitwise identity, orientation, the cluster default.

The contract under test is the one the serving stack leans on everywhere:
the fused backend in :mod:`repro.serving.kernels_fast` produces
**bit-for-bit** the reference kernel's output — across shapes, sparsities,
dtypes, gather orientations and gather-chunk boundaries — and a default
cluster runs it in every worker, crash-restart replacements included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy.packing import pack_ternary
from repro.errors import ConfigError
from repro.serving import kernels
from repro.serving.kernels import (
    TernaryPlanes,
    decode_planes,
    gather_chunk_rows,
    ternary_matmul,
)
from repro.serving.kernels_fast import (
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


def tiny_model_image():
    """The width-8 hybrid model frozen into a deploy image."""
    from repro.core.hybrid import HybridConfig, STHybridNet
    from repro.core.strassen import freeze_all
    from repro.deploy import build_image

    model = STHybridNet(HybridConfig(width=8), rng=0)
    freeze_all(model)
    model.eval()
    return build_image(model)


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

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        density=st.sampled_from([0.1, 0.5, 1.0]),
        dtype=st.sampled_from(sorted(DTYPES)),
    )
    def test_forced_layouts_identical(self, seed, density, dtype):
        """Both fused orientations keep the exact summation order."""
        rng = np.random.default_rng(seed)
        planes = planes_for(ternary(rng, 10, 30, density))
        x = activations(rng, (13, 30), DTYPES[dtype])
        backend = FusedBackend()
        prepared = backend.prepare(planes)
        batch_major = backend._sums_batch_major(x, prepared)
        feature_major = backend._sums_feature_major(x, prepared)
        np.testing.assert_array_equal(batch_major, feature_major)
        combined = batch_major[:, :10] - batch_major[:, 10:]
        np.testing.assert_array_equal(combined, ternary_matmul(x, planes))

    def test_orientation_rule_picks_each_side(self):
        """Gather-heavy, long-segment planes go feature-major; sparse ones don't."""
        backend = FusedBackend()
        # nnz 160 >= cols 40, and 160 // 8 segments = 20 >= MIN_VECTOR_SEGMENT
        dense = backend.prepare(planes_for(np.ones((4, 40), dtype=np.int8)))
        # nnz 4 < cols 40
        sparse = backend.prepare(planes_for(np.eye(4, 40, dtype=np.int8)))
        assert backend._feature_major(dense)
        assert not backend._feature_major(sparse)


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


class TestPlanAccounting:
    def test_fused_planes_nbytes_and_nnz(self):
        planes = planes_for(ternary(np.random.default_rng(10), 6, 12, 0.5))
        prepared = FusedBackend().prepare(planes)
        assert isinstance(prepared, FusedPlanes)
        assert (prepared.rows, prepared.cols, prepared.nnz) == (6, 12, planes.nnz)
        assert prepared.nbytes > 0

    def test_nonempty_segments_precomputed_at_fuse_time(self):
        """The hot path reads prepare-time arrays, never re-derives them."""
        values = np.zeros((5, 9), dtype=np.int8)
        values[0, :3] = 1
        values[2, 4:6] = -1  # rows 1, 3, 4 (and their sign twins) are empty
        prepared = FusedBackend().prepare(planes_for(values))
        segments = 2 * prepared.rows
        want = np.setdiff1d(np.arange(segments), prepared.empty, assume_unique=True)
        np.testing.assert_array_equal(prepared.nonempty, want)
        np.testing.assert_array_equal(
            prepared.nonempty_bounds, prepared.bounds[prepared.nonempty]
        )
        assert prepared.nonempty.size + prepared.empty.size == segments

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
