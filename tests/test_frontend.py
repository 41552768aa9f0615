"""Async serving front-end: deadlines, admission backpressure, byte budgets."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image
from repro.errors import AdmissionError, ConfigError, DeadlineExceeded
from repro.evaluation import StreamingDetector, make_stream
from repro.serving import (
    AsyncServingFrontend,
    BatchingEngine,
    MicroBatchConfig,
    ModelRegistry,
    PackedModel,
)


@pytest.fixture(scope="module")
def image():
    model = STHybridNet(HybridConfig(width=8), rng=0)
    freeze_all(model)
    model.eval()
    return build_image(model)


def echo_model(batch: np.ndarray) -> np.ndarray:
    """Fake model: returns each request's first feature (traces routing)."""
    return batch.reshape(batch.shape[0], -1)[:, :1]


class TestAsyncPredict:
    def test_worker_mode_matches_direct_forward(self, image, rng):
        model = PackedModel(image)
        xs = [rng.standard_normal((49, 10)).astype(np.float32) for _ in range(10)]
        frontend = AsyncServingFrontend(
            model, config=MicroBatchConfig(max_batch_size=4, max_delay_ms=20.0)
        )

        async def run():
            async with frontend:
                return await asyncio.gather(*[frontend.predict(x) for x in xs])

        got = np.stack(asyncio.run(run()))
        np.testing.assert_array_equal(got, model(np.stack(xs)))
        assert frontend.stats.requests == 10
        assert frontend.pending == 0

    def test_flush_mode_predict_many_coalesces(self, image, rng):
        model = PackedModel(image)
        xs = [rng.standard_normal((49, 10)).astype(np.float32) for _ in range(6)]
        frontend = AsyncServingFrontend(model, config=MicroBatchConfig(max_batch_size=6))
        got = np.stack(frontend.serve(xs))
        np.testing.assert_array_equal(got, model(np.stack(xs)))
        # all six went through one deterministic micro-batch
        assert frontend.stats.batches == 1
        assert list(frontend.stats.batch_sizes) == [6]

    def test_wraps_existing_engine(self):
        engine = BatchingEngine(echo_model)
        frontend = AsyncServingFrontend(engine)
        assert frontend.engine is engine
        assert frontend.stats is engine.stats

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AsyncServingFrontend(echo_model, max_pending=0)
        with pytest.raises(ConfigError):
            AsyncServingFrontend(echo_model, default_deadline_s=0.0)
        with pytest.raises(ConfigError):
            AsyncServingFrontend(BatchingEngine(echo_model), config=MicroBatchConfig())


class TestDeadlines:
    def test_expired_deadline_raises_through_await(self):
        frontend = AsyncServingFrontend(echo_model, default_deadline_s=1e-9)

        async def run():
            await frontend.predict(np.zeros(3))

        with pytest.raises(DeadlineExceeded):
            asyncio.run(run())
        assert frontend.stats.deadline_misses == 1

    def test_explicit_deadline_overrides_default(self):
        frontend = AsyncServingFrontend(echo_model, default_deadline_s=1e-9)

        async def run():
            return await frontend.predict(np.full(3, 5.0), deadline_s=30.0)

        assert asyncio.run(run())[0] == 5.0
        assert frontend.stats.deadline_misses == 0

    def test_explicit_none_opts_out_of_default(self):
        """deadline_s=None means 'no deadline', even with a frontend default."""
        frontend = AsyncServingFrontend(echo_model, default_deadline_s=1e-9)

        async def run():
            return await frontend.predict(np.full(3, 3.0), deadline_s=None)

        assert asyncio.run(run())[0] == 3.0
        assert frontend.stats.deadline_misses == 0

    def test_mixed_deadlines_in_one_worker_batch(self):
        """An expired request is rejected while fresh ones in the same batch serve."""
        engine = BatchingEngine(echo_model, MicroBatchConfig(max_batch_size=4, max_delay_ms=40.0))
        frontend = AsyncServingFrontend(engine)

        async def run():
            fresh = [frontend.predict(np.full(3, float(i)), deadline_s=30.0) for i in range(2)]
            doomed = frontend.predict(np.full(3, 9.0), deadline_s=1e-9)
            async with frontend:
                results = await asyncio.gather(*fresh, doomed, return_exceptions=True)
            return results

        ok0, ok1, err = asyncio.run(run())
        assert ok0[0] == 0.0 and ok1[0] == 1.0
        assert isinstance(err, DeadlineExceeded)
        assert frontend.stats.deadline_misses == 1


class TestAdmission:
    def test_shed_when_queue_full(self):
        frontend = AsyncServingFrontend(echo_model, max_pending=2)

        async def run():
            held = [frontend._admit(np.zeros(3), None, None, None, None) for _ in range(2)]
            with pytest.raises(AdmissionError):
                await frontend.predict(np.zeros(3))
            frontend.engine.flush()
            return held

        held = asyncio.run(run())
        assert all(f.done() for f in held)
        assert frontend.stats.shed == 1
        assert frontend.stats.requests == 2  # shed requests never reach the engine

    def test_partial_admission_failure_cancels_admitted(self):
        """A shed mid-predict_many cancels the already-admitted requests so
        their slots release — the frontend must not wedge permanently."""
        frontend = AsyncServingFrontend(echo_model, max_pending=2)

        async def run():
            with pytest.raises(AdmissionError):
                await frontend.predict_many([np.zeros(3)] * 3)
            assert frontend.pending == 0  # cancellation freed both slots
            assert frontend.engine.pending() == 0  # queue drained immediately
            return await frontend.predict(np.full(3, 7.0))  # still serves

        out = asyncio.run(run())
        assert out[0] == 7.0
        assert frontend.stats.shed == 1
        assert frontend.stats.served == 1  # cancelled requests never ran

    def test_slots_recycle_after_completion(self):
        frontend = AsyncServingFrontend(echo_model, max_pending=1)

        async def run():
            out = []
            for i in range(3):  # sequential: each completes before the next admits
                out.append(await frontend.predict(np.full(3, float(i))))
            return out

        outs = asyncio.run(run())
        assert [float(o[0]) for o in outs] == [0.0, 1.0, 2.0]
        assert frontend.stats.shed == 0
        assert frontend.pending == 0


class TestStreamingThroughFrontend:
    def test_frontend_path_matches_direct_path(self, image):
        wave, _ = make_stream(["yes"], rng=4)
        model = PackedModel(image)
        direct = StreamingDetector(model)
        frontend = AsyncServingFrontend(model, config=MicroBatchConfig(max_batch_size=4))
        routed = StreamingDetector(frontend=frontend)
        t_direct, p_direct = direct.posteriors(wave)
        t_front, p_front = routed.posteriors(wave)
        np.testing.assert_array_equal(t_direct, t_front)
        np.testing.assert_array_equal(p_direct, p_front)
        # windows were really coalesced into deterministic micro-batches
        assert frontend.stats.batches == -(-len(t_front) // 4)
        assert max(frontend.stats.batch_sizes) <= 4

    def test_long_stream_chunks_by_admission_bound(self, image):
        """Streams with more windows than max_pending serve in chunks, not shed."""
        wave, _ = make_stream(["yes"], rng=4)
        model = PackedModel(image)
        frontend = AsyncServingFrontend(
            model, config=MicroBatchConfig(max_batch_size=4), max_pending=3
        )
        routed = StreamingDetector(frontend=frontend)
        t_direct, p_direct = StreamingDetector(model).posteriors(wave)
        t_front, p_front = routed.posteriors(wave)
        assert len(t_front) > 3  # the stream really exceeds the admission bound
        np.testing.assert_array_equal(t_direct, t_front)
        np.testing.assert_array_equal(p_direct, p_front)
        assert frontend.stats.shed == 0

    def test_engine_and_frontend_conflict_rejected(self):
        with pytest.raises(ConfigError):
            StreamingDetector(
                engine=BatchingEngine(echo_model),
                frontend=AsyncServingFrontend(echo_model),
            )


class TestByteBudgetRegistry:
    def test_eviction_keeps_budget_and_redecodes(self, image, rng):
        plan_bytes = PackedModel(image, cache=True).decoded_bytes()
        registry = ModelRegistry(capacity_bytes=2 * plan_bytes)
        for name in ("a", "b", "c"):
            registry.register(name, image)
        registry.get("a"), registry.get("b")
        assert registry.decoded_names() == ["a@v1", "b@v1"]
        registry.get("c")  # budget fits two plans -> evicts "a"
        assert registry.decoded_names() == ["b@v1", "c@v1"]
        assert registry.stats.evictions == 1
        assert registry.stats.resident_bytes == registry.decoded_bytes() <= 2 * plan_bytes
        assert registry.stats.peak_resident_bytes <= 2 * plan_bytes
        # the evicted model re-decodes transparently and serves identically
        x = rng.standard_normal((3, 49, 10)).astype(np.float32)
        np.testing.assert_array_equal(registry.predict("a", x), PackedModel(image)(x))
        assert registry.decoded_names() == ["c@v1", "a@v1"]
        assert registry.stats.evictions == 2

    def test_oversized_plan_served_uncached(self, image, rng):
        registry = ModelRegistry(capacity_bytes=1)
        registry.register("big", image)
        x = rng.standard_normal((2, 49, 10)).astype(np.float32)
        np.testing.assert_array_equal(registry.predict("big", x), PackedModel(image)(x))
        assert registry.decoded_names() == []
        assert registry.stats.resident_bytes == 0
        assert registry.stats.misses == 1

    def test_remove_and_reregister_release_bytes(self, image):
        registry = ModelRegistry(capacity_bytes=10 * PackedModel(image).decoded_bytes())
        registry.register("m", image)
        registry.get("m")
        assert registry.stats.resident_bytes > 0
        registry.register("m", image)  # replace drops the stale plan
        assert registry.stats.resident_bytes == 0
        registry.get("m")
        registry.remove("m")
        assert registry.stats.resident_bytes == 0
        assert registry.decoded_bytes() == 0

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            ModelRegistry(capacity_bytes=0)
