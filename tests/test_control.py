"""Control plane: autoscaler watermarks, canary promote/rollback, control loop.

Every decision path runs through the deterministic ``step()`` entry points
(the exact code the background thread drives), so these tests assert on
decisions, not timers.  Worker processes cost ~1 s each to spawn, so
clusters are shared per class and kept to 2 workers.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image
from repro.errors import ConfigError, RoutingError
from repro.serving import (
    AutoscalePolicy,
    Autoscaler,
    CanaryController,
    CanaryPolicy,
    ClusterRouter,
    ControlLoop,
    DeployManager,
    MicroBatchConfig,
    PackedModel,
)


def frozen_image(width: int = 8, rng: int = 0):
    """A small frozen ST-Hybrid image (weights random, arithmetic real)."""
    model = STHybridNet(HybridConfig(width=width), rng=rng)
    freeze_all(model)
    model.eval()
    return build_image(model)


@pytest.fixture(scope="module")
def images():
    """Two distinct model payloads (v1/v2 content differs; v1 == canary)."""
    return {v: frozen_image(8, rng=i) for i, v in enumerate(["v1", "v2"])}


@pytest.fixture(scope="module")
def x():
    """One deterministic MFCC-shaped input row."""
    return np.random.default_rng(7).standard_normal((49, 10)).astype(np.float32)


def wait_until(predicate, timeout_s: float = 15.0, interval_s: float = 0.05) -> bool:
    """Poll ``predicate`` until true or ``timeout_s`` elapses."""
    limit = time.monotonic() + timeout_s
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestAutoscalePolicy:
    def test_defaults_are_valid(self):
        AutoscalePolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"low_load": -1.0},
            {"low_load": 2.0, "high_load": 1.0},
            {"max_p99_ms": 0.0},
            {"min_replicas": 0},
            {"min_replicas": 3, "max_replicas": 2},
            {"step": 0},
            {"cooldown_steps": -1},
        ],
    )
    def test_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ConfigError):
            AutoscalePolicy(**kwargs)


class TestCanaryPolicy:
    def test_defaults_are_valid(self):
        CanaryPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fraction": 0.0},
            {"fraction": 1.0},
            {"min_requests": 0},
            {"max_p99_ms": 0.0},
            {"max_p99_ratio": -1.0},
            {"max_error_rate": -0.1},
            {"max_shed": -1},
            {"decision_timeout_s": 0.0},
        ],
    )
    def test_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ConfigError):
            CanaryPolicy(**kwargs)


class TestAutoscaler:
    @pytest.fixture(scope="class")
    def router(self, images, x):
        """A running 2-worker cluster with ``hot`` placed on one worker."""
        router = ClusterRouter(
            workers=2, transport=False, config=MicroBatchConfig(max_batch_size=8)
        )
        router.register("hot", images["v1"])
        with router:
            router.predict(x)  # place hot@v1 on its sticky worker
            yield router

    def test_grows_under_load_then_shrinks_when_idle(self, router, x):
        key = "hot@v1"
        scaler = Autoscaler(
            router,
            AutoscalePolicy(low_load=0.5, high_load=2.0, cooldown_steps=0),
        )
        (home,) = router.placements()[key]
        router.pool.inject_sleep(home, 0.6)  # hold the burst in flight
        futures = [router.submit(x) for _ in range(8)]
        assert wait_until(lambda: router.pool.in_flight(home) >= 8, timeout_s=5.0)

        events = scaler.step()
        assert [e.action for e in events] == ["grow"]
        assert events[0].key == key and events[0].to_replicas == 2
        assert len(router.placements()[key]) == 2
        assert "high watermark" in events[0].reason

        for future in futures:
            future.result(timeout=15)
        assert wait_until(
            lambda: all(r.in_flight == 0 for r in router.snapshot().workers)
        )
        events = scaler.step()
        assert [e.action for e in events] == ["shrink"]
        assert len(router.placements()[key]) == 1
        # decisions surface in the router's stats rollup
        actions = [e.action for e in router.snapshot().scale_events]
        assert actions[-2:] == ["grow", "shrink"]
        router.predict(x)  # the survivor still serves

    def test_cooldown_spaces_decisions(self, router, x):
        key = "hot@v1"
        scaler = Autoscaler(
            router,
            AutoscalePolicy(low_load=0.5, high_load=2.0, cooldown_steps=2),
        )
        (home,) = router.placements()[key]
        router.pool.inject_sleep(home, 0.5)
        futures = [router.submit(x) for _ in range(8)]
        assert wait_until(lambda: router.pool.in_flight(home) >= 8, timeout_s=5.0)
        assert len(scaler.step()) == 1
        # still loaded, but the key is cooling down: no second decision
        assert scaler.step() == []
        for future in futures:
            future.result(timeout=15)
        assert scaler.step() == []  # cooldown round 2
        assert wait_until(
            lambda: all(r.in_flight == 0 for r in router.snapshot().workers)
        )
        assert [e.action for e in scaler.step()] == ["shrink"]

    def test_budget_capped_grow_is_skipped(self, images, x):
        image = images["v1"]
        size = PackedModel(image, cache=True).decoded_bytes()
        router = ClusterRouter(workers=2, capacity_bytes=size, transport=False)
        router.register("hot", image)
        with router:
            router.predict(x)
            (home,) = router.placements()["hot@v1"]
            router.pool.inject_sleep(home, 0.4)
            futures = [router.submit(x) for _ in range(6)]
            assert wait_until(
                lambda: router.pool.in_flight(home) >= 6, timeout_s=5.0
            )
            scaler = Autoscaler(
                router, AutoscalePolicy(high_load=2.0, cooldown_steps=0)
            )
            # a second copy cannot fit the byte budget: the round is skipped,
            # nothing breaks, nothing is evicted
            assert scaler.step() == []
            assert len(router.placements()["hot@v1"]) == 1
            assert router.snapshot().scale_events == ()
            for future in futures:
                future.result(timeout=15)


class TestResize:
    @pytest.fixture(scope="class")
    def router(self, images, x):
        router = ClusterRouter(workers=2, transport=False)
        router.register("hot", images["v1"])
        with router:
            router.predict(x)
            yield router

    def test_grow_and_shrink_round_trip(self, router, x):
        event = router.resize("hot", 2, reason="test grow")
        assert event.action == "grow"
        assert (event.from_replicas, event.to_replicas) == (1, 2)
        assert len(router.placements()["hot@v1"]) == 2
        assert router.resize("hot", 2) is None  # no-op target
        event = router.resize("hot", 1, reason="test shrink")
        assert event.action == "shrink"
        assert len(router.placements()["hot@v1"]) == 1
        router.predict(x)  # survivor serves

    def test_target_clamped_to_pool(self, router):
        event = router.resize("hot", 99)
        assert event is not None and event.to_replicas == 2
        router.resize("hot", 1)

    def test_unplaced_version_rejected(self, router, images):
        router.register("hot", images["v2"], version="v9", activate=False)
        with pytest.raises(RoutingError, match="no live placement"):
            router.resize("hot", 2, version="v9")
        router.remove("hot", version="v9")

    def test_unknown_model_rejected(self, router):
        with pytest.raises(RoutingError, match="unknown model"):
            router.resize("ghost", 2)


class TestCanaryController:
    @pytest.fixture()
    def router(self, images, x):
        """Fresh running cluster per test: canary verdicts mutate routing."""
        router = ClusterRouter(workers=2, transport=False)
        router.register("hot", images["v1"], version="v1")
        with router:
            router.predict(x)
            yield router

    def test_healthy_canary_promotes(self, router, images, x):
        # the canary ships the SAME blob as v1: predictions must be
        # bitwise-identical before, during, and after the promotion
        reference = PackedModel(images["v1"])(x[None])[0]
        router.register("hot", images["v1"], version="v2", activate=False)
        router.warm("hot", "v2")
        controller = CanaryController(
            router,
            "hot",
            "v2",
            CanaryPolicy(fraction=0.5, min_requests=4, decision_timeout_s=30.0),
        )
        controller.begin()
        split = router.canary_split("hot")
        assert split.state == "running" and split.version == "v2"
        for _ in range(8):
            np.testing.assert_array_equal(router.predict(x), reference)
        status = controller.step()
        assert status.phase == "promoted", status.reason
        assert status.observed >= 4 and status.errors == 0
        assert router.current_version("hot") == "v2"
        assert router.canary_split("hot").state == "promoted"
        assert "hot@v1" not in router.placements()  # old plans unloaded
        np.testing.assert_array_equal(router.predict(x), reference)
        # terminal: further steps are no-ops
        assert controller.step().phase == "promoted"

    def test_slow_canary_rolls_back(self, router, images, x):
        reference = router.predict(x)
        router.register("hot", images["v1"], version="v2", activate=False)
        router.inject_version_lag("hot", "v2", 0.05)
        router.warm("hot", "v2")
        controller = CanaryController(
            router,
            "hot",
            "v2",
            CanaryPolicy(
                fraction=0.5,
                min_requests=2,
                max_p99_ms=10.0,
                decision_timeout_s=30.0,
            ),
        )
        controller.begin()
        for _ in range(6):
            np.testing.assert_array_equal(router.predict(x), reference)
        status = None
        for _ in range(20):
            status = controller.step()
            if status.done:
                break
            for _ in range(2):
                np.testing.assert_array_equal(router.predict(x), reference)
        assert status.phase == "rolled_back"
        assert "p99" in status.reason
        assert router.current_version("hot") == "v1"  # routing untouched
        assert router.canary_split("hot").state == "rolled_back"
        assert "hot@v2" not in router.placements()  # canary plans unloaded
        assert "v2" in router.versions("hot")  # image stays for diagnosis
        np.testing.assert_array_equal(router.predict(x), reference)

    def test_abort_before_flip_rolls_back(self, router, images, x):
        router.register("hot", images["v1"], version="v2", activate=False)
        router.warm("hot", "v2")
        controller = CanaryController(
            router, "hot", "v2", CanaryPolicy(fraction=0.5, min_requests=50)
        )
        controller.begin()
        router.predict(x)
        status = controller.abort("operator said no")
        assert status.phase == "rolled_back"
        assert status.reason == "operator said no"
        assert router.current_version("hot") == "v1"
        assert "hot@v2" not in router.placements()

    def test_current_version_cannot_canary(self, router):
        with pytest.raises(ConfigError, match="current"):
            CanaryController(router, "hot", "v1", CanaryPolicy())


class TestDeployManagerCanary:
    @pytest.fixture()
    def router(self, images, x):
        router = ClusterRouter(workers=2, transport=False)
        router.register("hot", images["v1"], version="v1")
        with router:
            router.predict(x)
            yield router

    def _traffic(self, router, x, stop):
        """Background decision traffic for the synchronous deploy loop."""
        while not stop.is_set():
            router.predict(x)

    def test_deploy_with_canary_promotes(self, router, images, x):
        deploys = DeployManager(router)
        stop = threading.Event()
        thread = threading.Thread(target=self._traffic, args=(router, x, stop))
        thread.start()
        try:
            report = deploys.deploy(
                "hot",
                images["v1"],
                "v2",
                canary=CanaryPolicy(
                    fraction=0.25, min_requests=8, decision_timeout_s=30.0
                ),
            )
        finally:
            stop.set()
            thread.join()
        assert report.canary_outcome == "promoted"
        assert report.canary_observed >= 8
        assert router.current_version("hot") == "v2"

    def test_deploy_with_canary_rolls_back_on_breach(self, router, images, x):
        deploys = DeployManager(router)
        # pre-stage the version so the latency fault is armed before the
        # deploy warms it (the lag re-applies on every load of the key)
        router.register("hot", images["v1"], version="v2", activate=False)
        router.inject_version_lag("hot", "v2", 0.05)
        stop = threading.Event()
        thread = threading.Thread(target=self._traffic, args=(router, x, stop))
        thread.start()
        try:
            report = deploys.deploy(
                "hot",
                images["v1"],
                "v2",
                canary=CanaryPolicy(
                    fraction=0.25,
                    min_requests=4,
                    max_p99_ms=10.0,
                    decision_timeout_s=30.0,
                ),
            )
        finally:
            stop.set()
            thread.join()
        assert report.canary_outcome == "rolled_back"
        assert "p99" in report.canary_reason
        assert router.current_version("hot") == "v1"  # rollback is a no-op flip


class TestControlLoop:
    @pytest.fixture()
    def router(self, images, x):
        router = ClusterRouter(workers=2, transport=False)
        router.register("hot", images["v1"], version="v1")
        with router:
            router.predict(x)
            yield router

    def test_step_scales_and_counts(self, router, x):
        loop = ControlLoop(
            router,
            autoscaler=AutoscalePolicy(high_load=2.0, cooldown_steps=0),
        )
        (home,) = router.placements()["hot@v1"]
        router.pool.inject_sleep(home, 0.5)
        futures = [router.submit(x) for _ in range(8)]
        assert wait_until(lambda: router.pool.in_flight(home) >= 8, timeout_s=5.0)
        events = loop.step()
        assert [e.action for e in events] == ["grow"]
        stats = loop.snapshot()
        assert stats.steps == 1 and stats.errors == 0
        assert [e.action for e in stats.scale_events] == ["grow"]
        for future in futures:
            future.result(timeout=15)

    def test_step_drives_watched_canary(self, router, images, x):
        loop = ControlLoop(router)
        router.register("hot", images["v1"], version="v2", activate=False)
        router.warm("hot", "v2")
        controller = CanaryController(
            router, "hot", "v2", CanaryPolicy(fraction=0.5, min_requests=4)
        )
        loop.watch(controller)  # watch() opens the split
        assert router.canary_split("hot").state == "running"
        for _ in range(8):
            router.predict(x)
        loop.step()
        verdict = loop.snapshot().canaries["hot"]
        assert verdict.done and verdict.phase == "promoted"
        assert router.current_version("hot") == "v2"
        loop.step()  # pruned controller: stepping again is harmless
        assert loop.snapshot().canaries["hot"].phase == "promoted"

    def test_background_thread_runs_and_stops(self, router):
        with ControlLoop(router, interval_s=0.02) as loop:
            assert wait_until(lambda: loop.snapshot().steps >= 2, timeout_s=5.0)
        steps = loop.snapshot().steps
        time.sleep(0.1)
        assert loop.snapshot().steps == steps  # thread really stopped

    def test_rejects_bad_interval(self, router):
        with pytest.raises(ConfigError):
            ControlLoop(router, interval_s=0.0)
