"""Sessionful streaming: session manager, load harness, chaos, transport fit.

Worker processes cost ~1 s each to spawn, so cluster-backed tests share
small (1-worker) clusters where possible; everything else rides the
deterministic flush-mode :class:`BatchingEngine`.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio.mfcc import MFCC, MFCCConfig
from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image
from repro.errors import ConfigError, WorkerCrashed
from repro.evaluation import (
    PosteriorSmoother,
    StreamingConfig,
    StreamingDetector,
    make_stream,
    num_windows,
)
from repro.serving import (
    BatchingEngine,
    ClusterRouter,
    MicroBatchConfig,
    PackedModel,
    Priority,
    PriorityPolicy,
    SlabConfig,
    StreamSession,
    StreamSessionManager,
)
from repro.serving.loadgen import (
    DEFAULT_SCENARIOS,
    NoiseScenario,
    build_arrivals,
    replay,
)

#: analysis window used by the property tests: 0.5 s keeps featurization
#: cheap while still spanning many MFCC frames
WINDOW_SECONDS = 0.5


def wait_until(predicate, timeout_s: float = 15.0, interval_s: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture(scope="module")
def image():
    model = STHybridNet(HybridConfig(width=8), rng=0)
    freeze_all(model)
    model.eval()
    return build_image(model)


@pytest.fixture(scope="module")
def packed(image):
    return PackedModel(image)


def _small_packed() -> PackedModel:
    """Module-cached tiny model taking 0.5-s MFCC windows (24x10)."""
    global _SMALL_PACKED
    if _SMALL_PACKED is None:
        model = STHybridNet(
            HybridConfig(width=4, input_shape=(24, 10), num_conv_layers=2), rng=1
        )
        freeze_all(model)
        model.eval()
        _SMALL_PACKED = PackedModel(build_image(model))
    return _SMALL_PACKED


_SMALL_PACKED = None


def _engine_manager(packed_model: PackedModel, config: StreamingConfig) -> StreamSessionManager:
    engine = BatchingEngine(packed_model, MicroBatchConfig(max_batch_size=16, max_delay_ms=1.0))
    return StreamSessionManager(engine=engine, config=config)


class TestWindowingAndSmoothingInvariants:
    """Satellite: hypothesis property tests over lengths/hops/smoothing."""

    @settings(max_examples=20, deadline=None)
    @given(
        num_samples=st.integers(min_value=1_000, max_value=30_000),
        hop_ms=st.sampled_from([125.0, 250.0, 375.0, 500.0]),
        smoothing=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        default=st.booleans(),
    )
    def test_session_matches_solo_detector_bitwise(
        self, packed, num_samples, hop_ms, smoothing, seed, default
    ):
        # the 0.5 s windows hold 24 frames, and none of their hops shares a
        # frame grid within 24 frames (q = 25); the default 1 s / 250 ms
        # config is the one whose windows reuse frames
        if default:
            config = StreamingConfig(smoothing_windows=smoothing)
            num_samples += config.window_samples
        else:
            config = StreamingConfig(
                hop_ms=hop_ms, smoothing_windows=smoothing, window_seconds=WINDOW_SECONDS
            )
        waveform = np.random.default_rng(seed).standard_normal(num_samples) * 0.1
        expected = num_windows(config, num_samples)
        assert expected == (
            0
            if num_samples < config.window_samples
            else 1 + (num_samples - config.window_samples) // config.hop_samples
        )
        packed_model = packed if default else _small_packed()
        manager = _engine_manager(packed_model, config)
        session = manager.open(waveform)
        manager.drain()
        times, probs = session.posteriors()
        # no dropped or duplicated tail windows, ever
        assert session.stats.windows_featurized == expected
        assert session.stats.windows_served == expected
        if expected == 0:
            with pytest.raises(ConfigError):
                StreamingDetector(packed_model, config).posteriors(waveform)
            return
        ref_times, ref_probs = StreamingDetector(packed_model, config).posteriors(waveform)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(probs, ref_probs)

    @settings(max_examples=15, deadline=None)
    @given(
        chunk=st.integers(min_value=137, max_value=9_001),
        smoothing=st.integers(min_value=1, max_value=4),
    )
    def test_chunked_feed_is_chunk_size_invariant(self, chunk, smoothing):
        config = StreamingConfig(smoothing_windows=smoothing, window_seconds=WINDOW_SECONDS)
        waveform = np.random.default_rng(7).standard_normal(21_000) * 0.1
        packed_model = _small_packed()
        # feeding chunk-by-chunk must cut the exact same windows
        manager = _engine_manager(packed_model, config)
        session = manager.open()
        for start in range(0, len(waveform), chunk):
            session.feed(waveform[start : start + chunk])
        session.close()
        manager.drain()
        reference = _engine_manager(packed_model, config)
        ref = reference.open(waveform)
        reference.drain()
        assert session.stats.windows_featurized == num_windows(config, len(waveform))
        np.testing.assert_array_equal(session.posteriors()[1], ref.posteriors()[1])

    def test_smoother_matches_legacy_convolve_formulation(self):
        rng = np.random.default_rng(3)
        probs = rng.random((17, 12))
        probs /= probs.sum(axis=1, keepdims=True)
        for k in (1, 2, 3, 5, 8):
            span = min(k, len(probs))
            kernel = np.ones(span) / span
            legacy = np.apply_along_axis(
                lambda col: np.convolve(col, kernel)[: len(col)], 0, probs
            )
            smoother = PosteriorSmoother(k, total_windows=len(probs))
            got = np.stack([smoother.push(row) for row in probs])
            np.testing.assert_allclose(got, legacy, rtol=1e-12, atol=1e-15)

    def test_smoother_rejects_bad_span(self):
        with pytest.raises(ConfigError):
            PosteriorSmoother(0)


class TestFrameReuse:
    def test_default_config_counts_reused_frames(self, packed):
        """One session at the default 1 s / 250 ms config: the first two
        windows compute all 49 frames, each later one 26 and reuses 23;
        the kept power rows are released on close."""
        manager = _engine_manager(packed, StreamingConfig())
        session = manager.open()
        waveform = np.random.default_rng(5).standard_normal(16_000 + 5 * 4_000) * 0.1
        for lo in range(0, len(waveform), 4_000):
            session.feed(waveform[lo : lo + 4_000])
        n = session.stats.windows_featurized
        assert n == 6
        stats = manager.snapshot()
        assert stats.frames_computed == 49 * 2 + 26 * (n - 2)
        assert stats.frames_reused == 23 * (n - 2)
        assert stats.feature_state_bytes == 188_784
        tree = manager.telemetry_tree()
        assert tree["frames_computed"] == stats.frames_computed
        assert tree["frames_reused"] == stats.frames_reused
        assert tree["feature_state_bytes"] == 188_784
        session.close()
        manager.drain()
        assert manager.snapshot().feature_state_bytes == 0
        assert manager.telemetry_tree()["feature_state_bytes"] == 0
        solo = StreamingDetector(packed, StreamingConfig()).posteriors(waveform)[1]
        np.testing.assert_array_equal(session.posteriors()[1], solo)


class TestCallerBuffers:
    """A session copies what it is fed: clients reuse one capture buffer."""

    def test_feed_copies_a_reused_capture_buffer(self, packed):
        config = StreamingConfig()
        manager = _engine_manager(packed, config)
        session = manager.open()
        waveform = np.random.default_rng(8).standard_normal(16_000 + 6 * 4_000) * 0.1
        capture = np.empty(6_000)  # overwritten by every chunk
        for lo in range(0, len(waveform), len(capture)):
            chunk = waveform[lo : lo + len(capture)]
            capture[: len(chunk)] = chunk
            session.feed(capture[: len(chunk)])
        assert len(session.ready) == num_windows(config, len(waveform)) == 7
        extractor = MFCC(config.mfcc)
        for index, features, _ in session.ready:
            lo = index * config.hop_samples
            want = extractor(waveform[lo : lo + config.window_samples])
            assert features.tobytes() == want.tobytes(), index

    def test_feed_features_copies_each_window(self, packed):
        manager = _engine_manager(packed, StreamingConfig())
        session = manager.open()
        windows = np.random.default_rng(9).standard_normal((3, 49, 10)).astype(np.float32)
        buffer = np.empty((49, 10), dtype=np.float32)  # one buffer, refilled
        for window in windows:
            buffer[...] = window
            session.feed_features([buffer])
        for (_, features, _), window in zip(session.ready, windows):
            assert features.tobytes() == window.tobytes()

    def test_sessions_share_the_managers_extractor(self, packed):
        config = StreamingConfig()
        manager = _engine_manager(packed, config)
        first, second = manager.open(), manager.open()
        assert first.featurizer.extractor is second.featurizer.extractor
        other = MFCC(MFCCConfig(num_mel_filters=20))
        with pytest.raises(ConfigError):
            StreamSession("s", config, None, None, extractor=other)


class TestManagerWiring:
    def test_exactly_one_backend_required(self, packed):
        engine = BatchingEngine(packed)
        with pytest.raises(ConfigError):
            StreamSessionManager()
        with pytest.raises(ConfigError):
            StreamSessionManager(engine=engine, frontend=object())

    def test_model_pinning_needs_cluster(self, packed):
        with pytest.raises(ConfigError):
            StreamSessionManager(engine=BatchingEngine(packed), model="kws")
        with pytest.raises(ConfigError):
            StreamSessionManager(engine=BatchingEngine(packed), priority=Priority.LOW)

    def test_duplicate_session_id_rejected(self, packed):
        manager = _engine_manager(packed, StreamingConfig())
        manager.open(session_id="dup")
        with pytest.raises(ConfigError):
            manager.open(session_id="dup")

    def test_feed_after_close_rejected(self, packed):
        manager = _engine_manager(packed, StreamingConfig())
        session = manager.open()
        session.close()
        with pytest.raises(ConfigError):
            session.feed(np.zeros(100))

    def test_cross_session_bursts_coalesce(self, packed):
        """Many sessions' windows ride shared submit_many bursts."""
        config = StreamingConfig()
        manager = _engine_manager(packed, config)
        waveform, _ = make_stream(["yes"], gap_seconds=(0.4, 0.6), rng=11)
        for _ in range(6):
            manager.open(waveform)
        manager.drain()
        stats = manager.snapshot()
        assert stats.sessions == stats.sessions_done == 6
        assert stats.windows_served == stats.windows_featurized > 0
        # 6 sessions produced far fewer bursts than windows: coalescing worked
        assert stats.bursts < stats.windows_served / 2


class TestLoadHarness:
    def test_arrivals_are_deterministic(self):
        a = build_arrivals(5, pool_size=3, seed=42)
        b = build_arrivals(5, pool_size=3, seed=42)
        for x, y in zip(a, b):
            assert x.at_s == y.at_s and x.scenario == y.scenario
            np.testing.assert_array_equal(x.waveform, y.waveform)
        c = build_arrivals(5, pool_size=3, seed=43)
        assert any(
            not np.array_equal(x.waveform, y.waveform) for x, y in zip(a, c)
        )

    def test_scenarios_degrade_the_stream(self):
        quiet = build_arrivals(1, scenarios=[NoiseScenario("clean")], seed=1)
        loud = build_arrivals(
            1, scenarios=[NoiseScenario("street", background_volume=0.5)], seed=1
        )
        assert np.std(loud[0].waveform) > np.std(quiet[0].waveform)

    def test_replay_serves_every_window(self, packed):
        manager = _engine_manager(packed, StreamingConfig())
        arrivals = build_arrivals(
            8, pool_size=4, gap_seconds=(0.4, 0.8), seed=5, scenarios=DEFAULT_SCENARIOS
        )
        report = replay(manager, arrivals, pump_every=3)
        assert report.sessions == 8
        assert report.windows_failed == 0 and report.gaps == 0
        assert report.windows_served == report.stats.windows_featurized > 0
        assert report.p99_ms >= report.p50_ms > 0


class TestChaos:
    """Satellite: kill a worker mid-session; the session survives with a gap."""

    def test_crash_mid_session_gap_counted_and_no_slab_leak(self, image, packed):
        config = StreamingConfig()
        waveform, _ = make_stream(["yes", "no"], gap_seconds=(0.5, 1.0), rng=9)
        router = ClusterRouter(
            workers=1,
            transport=SlabConfig(slab_bytes=4096, slabs=32),
            policy=PriorityPolicy(max_pending=256, normal_watermark=1.0, low_watermark=1.0),
        )
        router.register("kws", image)
        with router:
            router.predict(
                np.zeros((config.mfcc.num_frames(config.window_samples), 10), np.float32),
                model="kws",
            )  # place + decode before the chaos starts
            manager = StreamSessionManager(router, config=config, model="kws")
            session = manager.open()
            half = len(waveform) // 2
            fed = session.feed(waveform[:half])
            assert fed > 0
            # stall the worker so the crash lands before the windows are read
            router.pool.inject_sleep(0, 0.3)
            router.pool.inject_crash(0)
            manager.pump()
            manager.collect(wait=True)
            doomed = session.stats.windows_failed
            assert doomed == fed, "in-flight windows must fail WorkerCrashed"
            assert session.stats.gap_windows == list(range(fed))
            assert wait_until(lambda: router.snapshot().crashes == 1)
            # EOF reclaimed the dead worker's leases, no reply ever came
            assert wait_until(
                lambda: router.pool.transport_snapshot()["leased"] == 0
            ), "crashed worker's slab leases were never reclaimed"
            # wait out the transparent restart, then stream the second half
            deadline = time.monotonic() + 15.0
            while True:
                try:
                    router.predict(
                        np.zeros(
                            (config.mfcc.num_frames(config.window_samples), 10), np.float32
                        ),
                        model="kws",
                    )
                    break
                except WorkerCrashed:
                    assert time.monotonic() < deadline, "restart never came up"
                    time.sleep(0.01)
            session.feed(waveform[half:])
            session.close()
            manager.drain()
            # subsequent windows succeeded; the gap stayed exactly the crash
            total = num_windows(config, len(waveform))
            assert session.stats.windows_featurized == total
            assert session.stats.windows_served == total - doomed
            assert session.stats.windows_failed == doomed
            assert session.stats.gaps == doomed
            times, probs = session.posteriors()
            assert len(times) == total - doomed
            # the gap shows up in the timeline: served times skip the doomed
            expected_times = [
                (i * config.hop_samples + config.window_samples / 2) / config.sample_rate
                for i in range(doomed, total)
            ]
            np.testing.assert_allclose(times, expected_times)
        snapshot = router.pool.transport_snapshot()
        assert snapshot["leased"] == 0
        assert snapshot["acquired"] == snapshot["released"]


class TestTransportFit:
    """Satellite: SlabConfig.from_observed on a mixed streams histogram."""

    #: one MFCC analysis window: 49 frames x 10 coefficients x 4 bytes
    WINDOW_BYTES = 49 * 10 * 4

    def test_from_observed_covers_mixed_streams_histogram(self):
        # mostly per-window payloads, some large burst-replies, rare huge blobs
        histogram = {
            self.WINDOW_BYTES: 900,
            8 * 1024: 80,
            512 * 1024: 4,
        }
        config = SlabConfig.from_observed(histogram, coverage=0.95, slabs=64)
        total = sum(histogram.values())
        covered = sum(n for size, n in histogram.items() if size <= config.slab_bytes)
        assert covered / total >= 0.95
        # window payloads are squarely in coverage; huge blobs are not
        assert config.slab_bytes >= 8 * 1024
        assert config.slab_bytes < 512 * 1024

    def test_streams_path_stays_on_slab_plane(self, image):
        """In-coverage window payloads must never fall back to the pipe."""
        config = StreamingConfig()
        observed = SlabConfig.from_observed(
            {self.WINDOW_BYTES: 500, 4096: 20}, coverage=0.99, slabs=64
        )
        router = ClusterRouter(
            workers=1,
            transport=observed,
            policy=PriorityPolicy(max_pending=512, normal_watermark=1.0, low_watermark=1.0),
        )
        router.register("kws", image)
        with router:
            manager = StreamSessionManager(router, config=config, model="kws")
            arrivals = build_arrivals(4, pool_size=2, gap_seconds=(0.4, 0.8), seed=13)
            report = replay(manager, arrivals, pump_every=2)
            assert report.windows_failed == 0
            transport = router.pool.transport_snapshot()
            assert transport["shm_requests"] >= report.windows_served
            assert transport["fallbacks_oversize"] == 0
            assert transport["fallbacks_exhausted"] == 0
            assert transport["pipe_requests"] == 0
        snapshot = router.pool.transport_snapshot()
        assert snapshot["leased"] == 0
        assert snapshot["acquired"] == snapshot["released"]
