"""Placement subsystem: policies, replica sets, versioned rolling deploys.

Worker processes cost ~1 s each to spawn, so cluster-backed tests share
fixtures and keep pools to 1–2 workers; everything policy/table/registry
level runs without processes.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from collections import deque

import numpy as np
import pytest

from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image
from repro.errors import ConfigError, DeployError, RoutingError, WorkerCrashed
from repro.serving import (
    AsyncServingFrontend,
    ClusterRouter,
    DeployManager,
    LatencyStats,
    LeastLoadedPolicy,
    MicroBatchConfig,
    ModelRegistry,
    PackedModel,
    PlacementPolicy,
    Priority,
    PriorityPolicy,
    ReplicaSet,
    ReplicatedPolicy,
    SlabConfig,
    StickyPolicy,
)
from repro.serving.placement import (
    DEFAULT_VERSION,
    PlacementTable,
    make_key,
    split_key,
    validate_identifier,
)


def frozen_image(width: int = 8, rng: int = 0):
    """A small frozen ST-Hybrid image (weights random, arithmetic real)."""
    model = STHybridNet(HybridConfig(width=width), rng=rng)
    freeze_all(model)
    model.eval()
    return build_image(model)


@pytest.fixture(scope="module")
def images():
    """Two distinct model images: the v1 and v2 payloads of one model."""
    return {v: frozen_image(8, rng=i) for i, v in enumerate(["v1", "v2"])}


@pytest.fixture(scope="module")
def requests_batch():
    """A deterministic batch of MFCC-shaped inputs."""
    rng = np.random.default_rng(7)
    return [rng.standard_normal((49, 10)).astype(np.float32) for _ in range(8)]


# --------------------------------------------------------------------------- #
# keys and identifiers
# --------------------------------------------------------------------------- #


class TestModelKeys:
    def test_round_trip(self):
        assert make_key("kws", "v3") == "kws@v3"
        assert split_key("kws@v3") == ("kws", "v3")

    def test_identifiers_reject_separator_and_empty(self):
        with pytest.raises(ConfigError):
            validate_identifier("model name", "a@b")
        with pytest.raises(ConfigError):
            validate_identifier("version", "")
        assert validate_identifier("version", "v1") == "v1"

    def test_router_register_rejects_bad_names(self, images):
        router = ClusterRouter(workers=1)
        with pytest.raises(ConfigError):
            router.register("a@b", images["v1"])
        with pytest.raises(ConfigError):
            router.register("a", images["v1"], version="v@1")


# --------------------------------------------------------------------------- #
# policies and replica sets (no processes)
# --------------------------------------------------------------------------- #


class TestPlacementPolicies:
    def test_create_resolves_names_and_instances(self):
        assert isinstance(PlacementPolicy.create(None), StickyPolicy)
        assert isinstance(PlacementPolicy.create("sticky"), StickyPolicy)
        assert isinstance(PlacementPolicy.create("replicated"), ReplicatedPolicy)
        assert isinstance(PlacementPolicy.create("least-loaded"), LeastLoadedPolicy)
        custom = ReplicatedPolicy(replicas=4)
        assert PlacementPolicy.create(custom) is custom
        with pytest.raises(ConfigError, match="unknown placement policy"):
            PlacementPolicy.create("round-robin")

    def test_replica_count_validation(self):
        with pytest.raises(ConfigError):
            ReplicatedPolicy(replicas=0)
        with pytest.raises(ConfigError):
            LeastLoadedPolicy(replicas=0)

    def test_plan_prefers_least_loaded_workers(self):
        policy = ReplicatedPolicy(replicas=2)
        loads = {0: 5, 1: 0, 2: 2, 3: 9}
        plan = policy.plan([0, 1, 2, 3], loads.__getitem__, {})
        assert plan == [1, 2]

    def test_plan_breaks_ties_by_resident_then_id(self):
        policy = StickyPolicy()
        plan = policy.plan([0, 1, 2], lambda wid: 0, {0: 2, 1: 1, 2: 1})
        assert plan == [1]  # worker 1: same load, fewer resident plans, lower id

    def test_plan_caps_at_pool_size(self):
        policy = ReplicatedPolicy(replicas=8)
        assert sorted(policy.plan([0, 1], lambda wid: 0, {})) == [0, 1]

    def test_sticky_pick_is_the_single_replica(self):
        rs = ReplicaSet("m@v1", [3], StickyPolicy())
        assert rs.pick(lambda wid: 0) == 3

    def test_least_loaded_pick_scans_all_replicas(self):
        policy = LeastLoadedPolicy(replicas=3)
        rs = ReplicaSet("m@v1", [0, 1, 2], policy)
        loads = {0: 4, 1: 1, 2: 2}
        assert rs.pick(loads.__getitem__) == 1

    def test_power_of_two_choices_stays_in_set_and_prefers_lighter(self):
        policy = ReplicatedPolicy(replicas=2)
        rs = ReplicaSet("m@v1", [5, 9], policy)
        loads = {5: 10, 9: 0}
        # with two replicas both are always sampled: the lighter one wins
        for _ in range(16):
            assert rs.pick(loads.__getitem__) == 9

    def test_replica_set_counters_and_snapshot(self):
        rs = ReplicaSet("m@v1", [0, 1], ReplicatedPolicy(replicas=2))
        rs.record_dispatch(0, 3)
        rs.record_dispatch(1)
        rs.record_completion(0, 2)
        snap = {s.worker_id: s for s in rs.snapshot()}
        assert snap[0].dispatched == 3 and snap[0].completed == 2
        assert snap[1].dispatched == 1 and snap[1].completed == 0
        assert len(rs) == 2

    def test_replica_set_rejects_empty_workers(self):
        with pytest.raises(ConfigError):
            ReplicaSet("m@v1", [], StickyPolicy())


class TestPlacementTable:
    def test_lru_order_and_touch(self):
        table = PlacementTable()
        for key in ("a@v1", "b@v1", "c@v1"):
            table.insert(ReplicaSet(key, [0], StickyPolicy()))
        table.touch("a@v1")  # b is now LRU
        assert [key for key, _ in table.items()] == ["b@v1", "c@v1", "a@v1"]
        assert list(table) == ["b@v1", "c@v1", "a@v1"]

    def test_resident_bytes_scales_with_replicas(self):
        table = PlacementTable()
        table.insert(ReplicaSet("a@v1", [0, 1], ReplicatedPolicy(replicas=2)))
        table.insert(ReplicaSet("b@v1", [0], StickyPolicy()))
        sizes = {"a@v1": 100, "b@v1": 7}
        assert table.resident_bytes(sizes.__getitem__) == 2 * 100 + 7


class TestReplicaScaledAdmission:
    def test_limits_scale_with_replicas(self):
        policy = PriorityPolicy(max_pending=100, normal_watermark=0.8, low_watermark=0.5)
        assert policy.admit_limit(Priority.HIGH, replicas=4) == 400
        assert policy.admit_limit(Priority.NORMAL, replicas=4) == 320
        assert policy.admit_limit(Priority.LOW, replicas=4) == 200
        # replicas=1 (and the default) reproduce the single-worker limits
        assert policy.admit_limit(Priority.HIGH) == policy.admit_limit(Priority.HIGH, 1)

    def test_admits_is_replica_normalized(self):
        """The router charges 1/R per request; admits() takes that
        fractional occupancy against the *base* limit (LOW: 50)."""
        policy = PriorityPolicy(max_pending=100, normal_watermark=0.8, low_watermark=0.5)
        # 199 requests at 4 replicas = 49.75 normalized; one more quarter fits
        assert policy.admits(Priority.LOW, 199 / 4, 1 / 4)
        # 200 requests at 4 replicas = 50.0 normalized; the next is shed
        assert not policy.admits(Priority.LOW, 200 / 4, 1 / 4)


# --------------------------------------------------------------------------- #
# latency window (satellite: constructor arg + exact percentiles)
# --------------------------------------------------------------------------- #


class TestLatencyWindow:
    def test_percentiles_exact_on_synthetic_sequence(self):
        # 1..100 ms: linear-interpolated percentiles have closed forms
        window_s = [i / 1000.0 for i in range(1, 101)]
        stats = LatencyStats.from_completions(100, window_s)
        assert stats.count == 100
        assert stats.p50_ms == pytest.approx(50.5, abs=1e-9)
        assert stats.p99_ms == pytest.approx(99.01, abs=1e-9)

    def test_empty_window_is_nan(self):
        stats = LatencyStats.from_completions(0, [])
        assert math.isnan(stats.p50_ms) and math.isnan(stats.p99_ms)

    def test_router_window_size_is_configurable(self):
        router = ClusterRouter(workers=1, latency_window=4)
        assert router.latency_window == 4
        window = router._ledger.latency_by_class[Priority.NORMAL]
        assert window.maxlen == 4
        # only the most recent `latency_window` completions survive
        for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
            window.append(value)
        assert list(window) == [2.0, 3.0, 4.0, 5.0]

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            ClusterRouter(workers=1, latency_window=0)

    def test_sliding_window_drops_old_completions(self):
        window = deque(maxlen=3)
        for value_ms in (1, 2, 3, 1000):
            window.append(value_ms / 1000.0)
        stats = LatencyStats.from_completions(4, window)
        # the 1 ms completion fell out of the window: p50 over [2, 3, 1000]
        assert stats.p50_ms == pytest.approx(3.0, abs=1e-9)


# --------------------------------------------------------------------------- #
# SlabConfig.from_observed (satellite: adaptive slab sizing seed)
# --------------------------------------------------------------------------- #


class TestSlabConfigFromObserved:
    def test_histogram_input_rounds_to_power_of_two(self):
        config = SlabConfig.from_observed({1000: 10, 4000: 5})
        assert config.slab_bytes == 4096  # covers the 4000-byte payloads
        assert config.slabs == 128

    def test_iterable_input(self):
        config = SlabConfig.from_observed([100, 200, 300])
        assert config.slab_bytes == 512

    def test_coverage_leaves_jumbo_tail_on_the_pipe(self):
        sizes = {1024: 99, 10**6: 1}  # one jumbo in a hundred
        assert SlabConfig.from_observed(sizes, coverage=0.95).slab_bytes == 1024
        assert SlabConfig.from_observed(sizes, coverage=1.0).slab_bytes == 1 << 20

    def test_minimum_slab_size_clamped(self):
        assert SlabConfig.from_observed([1, 2, 3]).slab_bytes == 16

    def test_exact_power_of_two_not_inflated(self):
        assert SlabConfig.from_observed([4096]).slab_bytes == 4096

    def test_slabs_passthrough(self):
        assert SlabConfig.from_observed([100], slabs=7).slabs == 7

    def test_validation(self):
        with pytest.raises(ConfigError):
            SlabConfig.from_observed([])
        with pytest.raises(ConfigError):
            SlabConfig.from_observed({})
        with pytest.raises(ConfigError):
            SlabConfig.from_observed([100], coverage=0.0)
        with pytest.raises(ConfigError):
            SlabConfig.from_observed([-5])
        with pytest.raises(ConfigError):
            SlabConfig.from_observed({100: 0})


# --------------------------------------------------------------------------- #
# versioned registry (satellite of the tentpole: registry.py version keys)
# --------------------------------------------------------------------------- #


class TestRegistryVersions:
    def test_register_defaults_to_v1_and_replaces_current(self, images):
        registry = ModelRegistry()
        registry.register("kws", images["v1"])
        assert registry.current_version("kws") == DEFAULT_VERSION
        assert registry.versions("kws") == [DEFAULT_VERSION]
        x = np.random.default_rng(3).standard_normal((2, 49, 10)).astype(np.float32)
        first = registry.predict("kws", x)
        registry.register("kws", images["v2"])  # no version: replaces current
        assert registry.versions("kws") == [DEFAULT_VERSION]
        np.testing.assert_array_equal(
            registry.predict("kws", x), PackedModel(images["v2"])(x)
        )
        assert not np.array_equal(first, registry.predict("kws", x))

    def test_versioned_register_pins_and_flips(self, images):
        registry = ModelRegistry()
        registry.register("kws", images["v1"], version="v1")
        registry.register("kws", images["v2"], version="v2", activate=False)
        assert registry.current_version("kws") == "v1"
        assert registry.versions("kws") == ["v1", "v2"]
        x = np.random.default_rng(4).standard_normal((2, 49, 10)).astype(np.float32)
        np.testing.assert_array_equal(
            registry.get("kws", "v2")(x), PackedModel(images["v2"])(x)
        )
        np.testing.assert_array_equal(registry.predict("kws", x), PackedModel(images["v1"])(x))
        registry.set_current("kws", "v2")
        np.testing.assert_array_equal(registry.predict("kws", x), PackedModel(images["v2"])(x))
        with pytest.raises(ConfigError):
            registry.set_current("kws", "v9")

    def test_resident_by_version_sums_to_resident_bytes(self, images):
        registry = ModelRegistry()
        registry.register("kws", images["v1"], version="v1")
        registry.register("kws", images["v2"], version="v2", activate=False)
        x = np.zeros((1, 49, 10), dtype=np.float32)
        registry.predict("kws", x, version="v1")
        registry.predict("kws", x, version="v2")
        per_version = registry.resident_by_version()
        assert set(per_version) == {"kws@v1", "kws@v2"}
        assert sum(per_version.values()) == registry.stats.resident_bytes

    def test_remove_version_semantics(self, images):
        registry = ModelRegistry()
        registry.register("kws", images["v1"], version="v1")
        registry.register("kws", images["v2"], version="v2", activate=False)
        with pytest.raises(ConfigError, match="current"):
            registry.remove("kws", version="v1")
        registry.remove("kws", version="v2")
        assert registry.versions("kws") == ["v1"]
        registry.remove("kws")
        assert "kws" not in registry
        with pytest.raises(ConfigError):
            registry.remove("kws")

    def test_unknown_version_raises(self, images):
        registry = ModelRegistry()
        registry.register("kws", images["v1"])
        with pytest.raises(ConfigError, match="unknown version"):
            registry.get("kws", "v9")

    def test_staging_requires_explicit_version(self, images):
        """activate=False with version=None would replace the LIVE current
        version — both catalogs reject the combination."""
        registry = ModelRegistry()
        registry.register("kws", images["v1"])
        with pytest.raises(ConfigError, match="explicit"):
            registry.register("kws", images["v2"], activate=False)
        router = ClusterRouter(workers=1)
        router.register("kws", images["v1"])
        with pytest.raises(ConfigError, match="explicit"):
            router.register("kws", images["v2"], activate=False)
        # the live version was not touched by either rejected call
        x = np.random.default_rng(5).standard_normal((1, 49, 10)).astype(np.float32)
        np.testing.assert_array_equal(
            registry.predict("kws", x), PackedModel(images["v1"])(x)
        )


# --------------------------------------------------------------------------- #
# cluster integration: replication, version routing, rolling deploys
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def replicated_cluster(images):
    """A running 2-worker cluster with the hot model replicated on both."""
    router = ClusterRouter(
        workers=2,
        placement=ReplicatedPolicy(replicas=2),
        config=MicroBatchConfig(max_batch_size=8),
    )
    router.register("kws", images["v1"], version="v1")
    with router:
        yield router


class TestReplication:
    def test_hot_model_spreads_across_workers(self, replicated_cluster, requests_batch):
        for x in requests_batch:
            replicated_cluster.predict(x, model="kws")
        placements = replicated_cluster.placements()
        assert set(placements) == {"kws@v1"}
        assert sorted(placements["kws@v1"]) == [0, 1]

    def test_both_replicas_serve_traffic(self, replicated_cluster, requests_batch):
        for x in requests_batch:
            replicated_cluster.predict(x, model="kws")
        stats = replicated_cluster.snapshot()
        per_replica = {r.worker_id: r for r in stats.replicas["kws@v1"]}
        assert set(per_replica) == {0, 1}
        # sequential traffic alternates under load-aware dispatch: both
        # replicas must have served a meaningful share
        assert all(r.dispatched > 0 for r in per_replica.values())
        assert all(r.completed > 0 for r in per_replica.values())

    def test_replicated_predictions_bitwise_identical(
        self, replicated_cluster, images, requests_batch
    ):
        got = np.stack(
            [replicated_cluster.predict(x, model="kws") for x in requests_batch]
        )
        want = PackedModel(images["v1"])(np.stack(requests_batch))
        np.testing.assert_array_equal(got, want)

    def test_resident_bytes_count_every_replica(self, replicated_cluster, requests_batch):
        replicated_cluster.predict(requests_batch[0], model="kws")
        stats = replicated_cluster.snapshot()
        per_worker = [w.resident_bytes for w in stats.workers]
        # both replicas account the full plan: equal non-zero footprint
        assert per_worker[0] == per_worker[1] > 0
        assert stats.resident_bytes == sum(per_worker)

    def test_replicated_register_respects_budget_times_replicas(self, images):
        size = PackedModel(images["v1"]).decoded_bytes()
        router = ClusterRouter(
            workers=2,
            placement=ReplicatedPolicy(replicas=2),
            capacity_bytes=size + 1,  # one copy fits, two never do
        )
        with pytest.raises(ConfigError, match="replica"):
            router.register("kws", images["v1"])

    def test_placement_override_validates_every_registered_version(self, images):
        """A per-model override governs all of the name's versions, so it is
        rejected unless every registered version still fits a full replica
        set — an existing version must never become unservable."""
        size1 = PackedModel(images["v1"]).decoded_bytes()
        size2 = PackedModel(images["v2"]).decoded_bytes()
        big = max(size1, size2)
        router = ClusterRouter(workers=3, capacity_bytes=2 * big)
        router.register("m", images["v1"], version="v1")
        # v2's image alone would fit twice, but v1 (same name, same policy)
        # would not — the override must be rejected and not committed
        with pytest.raises(ConfigError, match="replica"):
            router.register(
                "m",
                images["v2"],
                version="v2",
                activate=False,
                placement=ReplicatedPolicy(replicas=3),
            )
        assert router.versions("m") == ["v1"]
        with router:
            x = np.zeros((49, 10), dtype=np.float32)
            assert router.predict(x, model="m").shape == (12,)  # still servable

    def test_placement_override_replaces_stale_replica_sets(self, images, requests_batch):
        """Changing a model's placement policy drops its replica sets so the
        next use re-places under the new policy; an *equivalent* policy
        (same class, same replicas — a fresh instance of the same spec)
        leaves the model's other versions' placements untouched."""
        router = ClusterRouter(workers=2)
        router.register("m", images["v1"], version="v1")
        with router:
            router.predict(requests_batch[0], model="m")
            assert len(router.placements()["m@v1"]) == 1  # sticky
            router.register(
                "m", images["v1"], version="v1", placement=ReplicatedPolicy(replicas=2)
            )
            router.predict(requests_batch[0], model="m")
            assert sorted(router.placements()["m@v1"]) == [0, 1]  # re-placed
            # staging v2 with an equivalent policy spec must not disturb
            # v1's live replica set
            router.register(
                "m",
                images["v2"],
                version="v2",
                activate=False,
                placement=ReplicatedPolicy(replicas=2),
            )
            assert "m@v1" in router.placements()
            # a genuinely different policy drops v1's set for re-placement
            router.register(
                "m",
                images["v2"],
                version="v2",
                activate=False,
                placement=LeastLoadedPolicy(replicas=2),
            )
            assert "m@v1" not in router.placements()
            router.predict(requests_batch[0], model="m")  # re-places under new policy
            assert sorted(router.placements()["m@v1"]) == [0, 1]

    def test_policy_equivalence(self):
        assert ReplicatedPolicy(replicas=2).equivalent(ReplicatedPolicy(replicas=2))
        assert not ReplicatedPolicy(replicas=2).equivalent(ReplicatedPolicy(replicas=3))
        assert not ReplicatedPolicy(replicas=2).equivalent(LeastLoadedPolicy(replicas=2))
        assert StickyPolicy().equivalent(StickyPolicy())
        assert not StickyPolicy().equivalent(None)

    def test_rejected_placement_override_is_not_committed(self, images):
        size = PackedModel(images["v1"]).decoded_bytes()
        router = ClusterRouter(workers=2, capacity_bytes=size + 1)
        with pytest.raises(ConfigError, match="replica"):
            router.register("kws", images["v1"], placement=ReplicatedPolicy(replicas=2))
        # the failed register must not leave the 2-replica override behind:
        # a plain sticky registration of the same name still fits the budget
        router.register("kws", images["v1"])
        assert "kws" in router


class TestVersionRouting:
    @pytest.fixture(scope="class")
    def versioned_cluster(self, images):
        """One worker serving kws v1 (current) with v2 staged inactive."""
        router = ClusterRouter(workers=1, config=MicroBatchConfig(max_batch_size=8))
        router.register("kws", images["v1"], version="v1")
        router.register("kws", images["v2"], version="v2", activate=False)
        with router:
            yield router

    def test_version_pinning_and_current_resolution(
        self, versioned_cluster, images, requests_batch
    ):
        x = requests_batch[0]
        np.testing.assert_array_equal(
            versioned_cluster.predict(x, model="kws"),
            PackedModel(images["v1"])(x[None])[0],
        )
        np.testing.assert_array_equal(
            versioned_cluster.predict(x, model="kws", version="v2"),
            PackedModel(images["v2"])(x[None])[0],
        )
        assert versioned_cluster.current_version("kws") == "v1"

    def test_unknown_version_raises(self, versioned_cluster, requests_batch):
        with pytest.raises(RoutingError, match="unknown version"):
            versioned_cluster.predict(requests_batch[0], model="kws", version="v9")

    def test_set_current_flips_default_routing(
        self, versioned_cluster, images, requests_batch
    ):
        x = requests_batch[1]
        versioned_cluster.set_current("kws", "v2")
        try:
            np.testing.assert_array_equal(
                versioned_cluster.predict(x, model="kws"),
                PackedModel(images["v2"])(x[None])[0],
            )
        finally:
            versioned_cluster.set_current("kws", "v1")

    def test_remove_current_version_guarded(self, versioned_cluster):
        with pytest.raises(RoutingError, match="current"):
            versioned_cluster.remove("kws", version="v1")

    def test_remove_discards_pins_and_unpin_is_prefix_based(self, images):
        router = ClusterRouter(workers=1)
        router.register("m", images["v1"], version="v1")
        router.register("m", images["v2"], version="v2", activate=False)
        router._protected.update({"m@v1", "m@v2", "other@v1"})
        router.remove("m", version="v2")  # a removed key must not stay pinned
        assert "m@v2" not in router._protected
        router.unpin("m")  # clears by name prefix, even for removed versions
        assert router._protected == {"other@v1"}


class TestRollingDeploy:
    @pytest.fixture()
    def deploy_cluster(self, images):
        """A fresh 2-worker cluster serving kws v1 (function-scoped: deploys
        mutate the catalog)."""
        router = ClusterRouter(workers=2, config=MicroBatchConfig(max_batch_size=8))
        router.register("kws", images["v1"], version="v1")
        with router:
            router.predict(np.zeros((49, 10), dtype=np.float32), model="kws")
            yield router

    def test_deploy_swaps_versions_without_shedding(
        self, deploy_cluster, images, requests_batch
    ):
        manager = DeployManager(deploy_cluster)
        before = deploy_cluster.snapshot()
        report = manager.deploy("kws", images["v2"], "v2")
        assert report.old_version == "v1" and report.new_version == "v2"
        assert deploy_cluster.current_version("kws") == "v2"
        # routing now serves v2, bitwise
        x = requests_batch[0]
        np.testing.assert_array_equal(
            deploy_cluster.predict(x, model="kws"),
            PackedModel(images["v2"])(x[None])[0],
        )
        # the old version's plans are gone; only v2 is placed
        assert set(deploy_cluster.placements()) == {"kws@v2"}
        after = deploy_cluster.snapshot()
        assert after.shed == before.shed  # deploys shed nothing
        assert after.current_versions["kws"] == "v2"
        # old version's image is retained for rollback
        assert deploy_cluster.versions("kws") == ["v1", "v2"]
        assert manager.history("kws") == ["v1", "v2"]
        # the released version keeps its served count but drops its latency
        # window (no per-deploy memory growth); percentiles go nan
        assert after.latency_by_version["kws@v1"].count >= 1
        assert "kws@v1" not in deploy_cluster._ledger.latency_by_key

    def test_deploy_releases_old_bytes_under_budget(self, images, requests_batch):
        size1 = PackedModel(images["v1"]).decoded_bytes()
        size2 = PackedModel(images["v2"]).decoded_bytes()
        router = ClusterRouter(workers=1, capacity_bytes=size1 + size2)
        router.register("kws", images["v1"], version="v1")
        with router:
            router.predict(requests_batch[0], model="kws")
            assert router.snapshot().resident_bytes == size1
            manager = DeployManager(router)
            manager.deploy("kws", images["v2"], "v2")
            stats = router.snapshot()
            # old bytes fully released: only v2's plan remains resident
            assert stats.resident_bytes == size2
            assert stats.resident_bytes <= router.capacity_bytes
            router.predict(requests_batch[0], model="kws")
            assert router.snapshot().resident_bytes <= router.capacity_bytes

    def test_deploy_drains_inflight_old_version(self, deploy_cluster, images, requests_batch):
        # stall the workers so admitted v1 requests are still pending when
        # the deploy flips; the drain must wait for them, not shed them
        deploy_cluster.pool.inject_sleep(0, 0.4)
        deploy_cluster.pool.inject_sleep(1, 0.4)
        held = [
            deploy_cluster.submit(x, model="kws", priority=Priority.HIGH)
            for x in requests_batch[:4]
        ]
        manager = DeployManager(deploy_cluster)
        report = manager.deploy("kws", images["v2"], "v2")
        # every stalled request was served (v1, bitwise), none shed or crashed
        want = PackedModel(images["v1"])(np.stack(requests_batch[:4]))
        got = np.stack([f.result(timeout=30.0) for f in held])
        np.testing.assert_array_equal(got, want)
        assert deploy_cluster.snapshot().shed == 0
        assert report.drained >= 0  # the flip may land after the stall ends

    def test_rollback_restores_previous_version(
        self, deploy_cluster, images, requests_batch
    ):
        manager = DeployManager(deploy_cluster)
        manager.deploy("kws", images["v2"], "v2")
        report = manager.rollback("kws")
        assert report.new_version == "v1"
        assert deploy_cluster.current_version("kws") == "v1"
        x = requests_batch[2]
        np.testing.assert_array_equal(
            deploy_cluster.predict(x, model="kws"),
            PackedModel(images["v1"])(x[None])[0],
        )

    def test_rollback_without_history_raises(self, deploy_cluster):
        manager = DeployManager(deploy_cluster)
        with pytest.raises(DeployError, match="no previous version"):
            manager.rollback("kws")

    def test_deploy_same_version_raises(self, deploy_cluster, images):
        manager = DeployManager(deploy_cluster)
        with pytest.raises(DeployError, match="already serving"):
            manager.deploy("kws", images["v1"], "v1")

    def test_first_time_deploy_registers_and_serves(self, images, requests_batch):
        router = ClusterRouter(workers=1, config=MicroBatchConfig(max_batch_size=8))
        with router:
            manager = DeployManager(router)
            report = manager.deploy("fresh", images["v1"], "v1")
            assert report.old_version is None and report.new_version == "v1"
            assert report.replicas  # plans were warmed eagerly
            np.testing.assert_array_equal(
                router.predict(requests_batch[0], model="fresh"),
                PackedModel(images["v1"])(requests_batch[0][None])[0],
            )
            assert manager.history("fresh") == ["v1"]
            assert not router._protected  # nothing stays pinned
            # and the usual rolling deploy works on top of it
            manager.deploy("fresh", images["v2"], "v2")
            assert router.current_version("fresh") == "v2"

    def test_drain_timeout_reports_after_flip_and_unpins(
        self, deploy_cluster, images, requests_batch
    ):
        """A drain timeout is a DeployError *after* the atomic flip: the new
        version is current and rollback-able, nothing stays pinned, and the
        version-pinned stragglers that stalled the drain are still served,
        never shed."""
        manager = DeployManager(
            deploy_cluster, drain_timeout_s=0.05, poll_interval_s=0.02
        )
        stop = threading.Event()
        pinned: list = []
        want = PackedModel(images["v1"])(requests_batch[0][None])[0]

        def pin_old_version():
            # keep v1 requests permanently in flight — and the workers
            # mostly stalled — so the drain cannot observe zero pending for
            # the old version (workers still answer warm-up pings between
            # stalls, so the deploy reaches its drain phase)
            window: list = []
            while not stop.is_set():
                for wid in (0, 1):
                    deploy_cluster.pool.inject_sleep(wid, 0.05)
                window.append(
                    deploy_cluster.submit(requests_batch[0], model="kws", version="v1")
                )
                if len(window) >= 4:
                    pinned.append(window.pop(0).result(timeout=30.0))
            pinned.extend(f.result(timeout=30.0) for f in window)

        thread = threading.Thread(target=pin_old_version, daemon=True)
        thread.start()
        try:
            with pytest.raises(DeployError, match="draining"):
                manager.deploy("kws", images["v2"], "v2")
        finally:
            stop.set()
            thread.join(timeout=30.0)
        assert deploy_cluster.current_version("kws") == "v2"  # flip happened
        assert "v2" in deploy_cluster.versions("kws")  # live version not removed
        assert not deploy_cluster._protected  # no permanent pins
        assert pinned, "pinned v1 traffic never completed"
        for row in pinned:  # every pinned request was served on v1, bitwise
            np.testing.assert_array_equal(row, want)
        assert deploy_cluster.snapshot().shed == 0
        report = manager.rollback("kws")  # the flipped version is on record
        assert report.new_version == "v1"

    def test_failed_deploy_leaves_old_version_serving(self, deploy_cluster, images):
        manager = DeployManager(deploy_cluster, warm_timeout_s=0.2)
        deploy_cluster.pool.inject_sleep(0, 1.0)  # warm-up cannot ack in time
        deploy_cluster.pool.inject_sleep(1, 1.0)
        with pytest.raises(DeployError, match="timed out"):
            manager.deploy("kws", images["v2"], "v2")
        # routing never flipped and the staged version was cleaned up
        assert deploy_cluster.current_version("kws") == "v1"
        assert deploy_cluster.versions("kws") == ["v1"]
        result = deploy_cluster.predict(np.zeros((49, 10), dtype=np.float32), model="kws")
        assert result.shape == (12,)


class TestCrashDuringDeploy:
    def test_worker_dies_mid_warmup_deploy_retries_and_old_serves(
        self, images, requests_batch
    ):
        """Chaos: the worker dies between receiving the new version's load
        and acking it.  The pool restarts it and replays the loads (old and
        warming version), the warm-up poll retries onto the replacement,
        and the deploy completes; the old version keeps serving meanwhile."""
        router = ClusterRouter(workers=1, config=MicroBatchConfig(max_batch_size=8))
        router.register("kws", images["v1"], version="v1")
        with router:
            router.predict(requests_batch[0], model="kws")  # place + decode v1
            # stall the worker, then queue its death: the deploy's warm-up
            # load lands in the pipe *behind* the exit command, so the
            # worker dies before decoding v2 — mid-warm-up from the
            # deploy's point of view
            router.pool.inject_sleep(0, 0.3)
            router.pool.inject_crash(0)
            manager = DeployManager(router, warm_timeout_s=30.0)
            served_v1 = []
            stop = threading.Event()

            def old_version_traffic():
                while not stop.is_set():
                    try:
                        served_v1.append(
                            router.predict(requests_batch[1], model="kws", version="v1")
                        )
                    except (WorkerCrashed, RoutingError):
                        time.sleep(0.02)  # the restart heals this; retry

            thread = threading.Thread(target=old_version_traffic, daemon=True)
            thread.start()
            try:
                report = manager.deploy("kws", images["v2"], "v2")
            finally:
                stop.set()
                thread.join(timeout=30.0)
            assert report.new_version == "v2"
            assert router.snapshot().crashes >= 1
            # the old version served traffic while the deploy recovered
            assert served_v1, "old version never served during the deploy"
            want = PackedModel(images["v1"])(requests_batch[1][None])[0]
            for row in served_v1:
                np.testing.assert_array_equal(row, want)
            # and the new version serves after it, bitwise
            np.testing.assert_array_equal(
                router.predict(requests_batch[2], model="kws"),
                PackedModel(images["v2"])(requests_batch[2][None])[0],
            )


class TestFrontendDeploy:
    def test_async_deploy_and_rollback(self, images, requests_batch):
        router = ClusterRouter(workers=1, config=MicroBatchConfig(max_batch_size=8))
        router.register("kws", images["v1"], version="v1")
        frontend = AsyncServingFrontend(router)

        async def run():
            async with frontend:
                before = await frontend.predict(requests_batch[0], model="kws")
                report = await frontend.deploy("kws", images["v2"], "v2")
                after = await frontend.predict(requests_batch[0], model="kws")
                pinned = await frontend.predict(
                    requests_batch[0], model="kws", version="v1"
                )
                rolled = await frontend.rollback("kws")
                restored = await frontend.predict(requests_batch[0], model="kws")
                return before, report, after, pinned, rolled, restored

        before, report, after, pinned, rolled, restored = asyncio.run(run())
        assert report.new_version == "v2" and rolled.new_version == "v1"
        np.testing.assert_array_equal(
            before, PackedModel(images["v1"])(requests_batch[0][None])[0]
        )
        np.testing.assert_array_equal(
            after, PackedModel(images["v2"])(requests_batch[0][None])[0]
        )
        np.testing.assert_array_equal(pinned, before)
        np.testing.assert_array_equal(restored, before)

    def test_engine_frontend_rejects_deploy_and_version(self, images, requests_batch):
        frontend = AsyncServingFrontend(PackedModel(images["v1"]))

        async def deploy():
            await frontend.deploy("kws", images["v2"], "v2")

        async def versioned_predict():
            await frontend.predict(requests_batch[0], version="v1")

        with pytest.raises(ConfigError, match="cluster"):
            asyncio.run(deploy())
        with pytest.raises(ConfigError, match="cluster"):
            asyncio.run(versioned_predict())


class TestReplicaScaledAdmissionIntegration:
    def test_replicated_flood_cannot_starve_other_models(self, images):
        """Admission is replica-*normalized*: a LOW flood to a replicated
        model fills its scaled allowance without consuming the HIGH headroom
        of a sticky model sharing the cluster."""
        from repro.errors import AdmissionError

        policy = PriorityPolicy(max_pending=4, normal_watermark=0.75, low_watermark=0.5)
        router = ClusterRouter(workers=2, policy=policy)
        router.register("big", images["v1"], placement=ReplicatedPolicy(replicas=2))
        router.register("small", images["v2"])  # sticky
        with router:
            router.predict(np.zeros((49, 10), dtype=np.float32), model="big")
            router.predict(np.zeros((49, 10), dtype=np.float32), model="small")
            router.pool.inject_sleep(0, 0.5)
            router.pool.inject_sleep(1, 0.5)
            x = np.zeros((49, 10), dtype=np.float32)
            # LOW to 'big' (weight 1/2 each): admitted until normalized
            # occupancy reaches the LOW watermark (2.0), i.e. 4 requests
            held = []
            for _ in range(4):
                held.append(router.submit(x, model="big", priority=Priority.LOW))
            with pytest.raises(AdmissionError):
                router.submit(x, model="big", priority=Priority.LOW)
            # HIGH to the sticky model still fits: 2.0 + 1 <= 4
            held.append(router.submit(x, model="small", priority=Priority.HIGH))
            for future in held:
                assert future.result(timeout=30.0).shape == (12,)

    def test_replicated_model_admits_more_pending(self, images):
        policy = PriorityPolicy(max_pending=1, normal_watermark=1.0, low_watermark=1.0)
        router = ClusterRouter(
            workers=2,
            placement=ReplicatedPolicy(replicas=2),
            policy=policy,
        )
        router.register("kws", images["v1"])
        with router:
            router.predict(np.zeros((49, 10), dtype=np.float32))  # place both replicas
            router.pool.inject_sleep(0, 0.4)
            router.pool.inject_sleep(1, 0.4)
            xs = np.zeros((3, 49, 10), dtype=np.float32)
            # two replicas double the 1-slot budget: two admits, third sheds
            held = [router.submit(xs[0]), router.submit(xs[1])]
            from repro.errors import AdmissionError

            with pytest.raises(AdmissionError):
                router.submit(xs[2])
            for future in held:
                assert future.result(timeout=30.0).shape == (12,)
