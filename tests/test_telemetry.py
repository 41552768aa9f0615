"""Unified telemetry plane: registry, tracing, exporters, kernel profiling.

The acceptance surface of the observability layer: one ``snapshot()``
tree spanning every serving subsystem, sampled end-to-end request traces
whose lifecycle spans tile the measured wall-clock, a zero-overhead
disabled path, and the kernel-profiling hooks the perf work is gated on.
"""

from __future__ import annotations

import json
import time
import tracemalloc
import urllib.request

import numpy as np
import pytest

from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image
from repro.serving import (
    AsyncServingFrontend,
    BatchingEngine,
    ClusterRouter,
    MicroBatchConfig,
    ModelRegistry,
    PackedModel,
    Priority,
    StreamSessionManager,
)
from repro.serving import telemetry
from repro.serving.control import ControlLoop
from repro.serving.metrics_server import TelemetryServer
from repro.serving.telemetry import (
    Counter,
    Gauge,
    Histogram,
    KernelProfile,
    MetricsRegistry,
    Trace,
    Tracer,
    get_registry,
    profile_kernels,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
)


def frozen_image(width: int = 8, rng: int = 0):
    """A small frozen ST-Hybrid image (weights random, arithmetic real)."""
    model = STHybridNet(HybridConfig(width=width), rng=rng)
    freeze_all(model)
    model.eval()
    return build_image(model)


@pytest.fixture(scope="module")
def image():
    return frozen_image()


@pytest.fixture(scope="module")
def traced_cluster(image):
    """A running 2-worker cluster tracing every request."""
    router = ClusterRouter(
        workers=2,
        config=MicroBatchConfig(max_batch_size=8),
        trace_sample_rate=1.0,
    )
    router.register("kws", image)
    with router:
        yield router


#: the ``cluster`` namespace's series: BrownoutController, CanaryController,
#: Autoscaler and the Prometheus exporter all read them by these names
CLUSTER_TREE_KEYS = {
    "served", "deadline_misses", "shed", "shed_by_priority", "resident_bytes",
    "evictions", "crashes", "pending", "queue_depth_by_priority",
    "latency_by_priority", "workers", "replicas", "latency_by_version",
    "current_versions", "errors_by_version", "shed_by_version", "scale_events",
    "canary_state", "kernel_profile", "errors_by_type", "resilience",
}
RESILIENCE_TREE_KEYS = {
    "retries_attempted", "retries_succeeded", "retries_exhausted",
    "retries_budget_denied", "hedges", "hedges_won", "brownout_active",
    "brownout_sheds", "retry_budget", "breakers", "restart_backoffs",
}


def echo_model(batch: np.ndarray) -> np.ndarray:
    """Fake model: each request's first feature (traces routing)."""
    return batch.reshape(batch.shape[0], -1)[:, :1]


class TestMetricsRegistry:
    def test_counters_gauges_histograms_nest_by_dotted_name(self):
        registry = MetricsRegistry()
        registry.counter("traces.sampled").inc(3)
        registry.gauge("pool.resident_bytes").set(42.0)
        registry.gauge("pool.workers").inc(2.0)
        for v in (1.0, 2.0, 3.0):
            registry.histogram("latency.submit_ms").observe(v)
        tree = registry.snapshot()
        assert tree["traces"]["sampled"] == 3
        assert tree["pool"]["resident_bytes"] == 42.0
        assert tree["pool"]["workers"] == 2.0
        summary = tree["latency"]["submit_ms"]
        assert summary["count"] == 3 and summary["p50"] == 2.0

    def test_counter_gauge_are_reused_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("g") is registry.gauge("g")
        registry.gauge("g").inc()
        registry.gauge("g").dec()
        assert registry.gauge("g").value == 0.0

    def test_sources_mount_live_trees_latest_wins(self):
        registry = MetricsRegistry()
        registry.register_source("engine", lambda: {"served": 1})
        registry.register_source("engine", lambda: {"served": 2})
        assert registry.snapshot()["engine"] == {"served": 2}
        assert registry.sources() == ("engine",)
        registry.unregister_source("engine")
        assert "engine" not in registry.snapshot()

    def test_dotted_prefix_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().register_source("a.b", lambda: {})

    def test_bound_method_sources_do_not_pin_components(self):
        class Component:
            def tree(self):
                return {"alive": True}

        registry = MetricsRegistry()
        component = Component()
        registry.register_source("thing", component.tree)
        assert registry.snapshot()["thing"] == {"alive": True}
        del component
        assert "thing" not in registry.snapshot()  # weakref died, source pruned
        assert registry.sources() == ()

    def test_broken_source_cannot_sink_the_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("ok").inc()

        def broken():
            raise RuntimeError("boom")

        registry.register_source("bad", broken)
        tree = registry.snapshot()
        assert tree["ok"] == 1
        assert "boom" in tree["bad"]["source_error"]


class TestExporters:
    def test_prometheus_renders_numeric_leaves(self):
        tree = {
            "cluster": {"served": 7, "shed_by_priority": {"HIGH": 0, "LOW": 2}},
            "versions": {"current": "v1"},  # non-numeric: skipped
            "healthy": True,
        }
        text = to_prometheus(tree)
        assert "cluster_served 7\n" in text
        assert "cluster_shed_by_priority_LOW 2" in text
        assert "healthy 1" in text
        assert "v1" not in text

    def test_jsonl_one_object_per_leaf_including_lists(self):
        tree = {"workers": [{"in_flight": 1}, {"in_flight": 0}], "served": 5}
        lines = [json.loads(line) for line in to_jsonl(tree).strip().split("\n")]
        by_name = {row["name"]: row["value"] for row in lines}
        assert by_name["workers.0.in_flight"] == 1
        assert by_name["served"] == 5

    def test_chrome_trace_events_are_complete_spans(self, tmp_path):
        trace = Trace(trace_id=7)
        trace.add("kernel", 1.0, 1.5)
        trace.add("admission", 0.0, 1.0)
        doc = to_chrome_trace([trace])
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["admission", "kernel"]  # time order
        assert events[1]["ts"] == pytest.approx(1.0e6)
        assert events[1]["dur"] == pytest.approx(0.5e6)
        path = tmp_path / "trace.json"
        telemetry.dump_trace([trace], str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestTracer:
    def test_sampling_period_from_rate(self):
        tracer = Tracer(1.0)
        assert all(tracer.maybe_trace() is not None for _ in range(5))
        every_other = Tracer(0.5)
        sampled = [every_other.maybe_trace() is not None for _ in range(10)]
        assert sum(sampled) == 5

    def test_rate_zero_never_samples(self):
        tracer = Tracer(0.0)
        assert all(tracer.maybe_trace() is None for _ in range(100))
        assert tracer.traces() == ()

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(1.5)

    def test_finished_traces_bounded_by_keep(self):
        tracer = Tracer(1.0, keep=3)
        for _ in range(5):
            tracer.finish(tracer.maybe_trace())
        assert len(tracer.traces()) == 3

    def test_registry_counters_track_sampling(self):
        registry = MetricsRegistry()
        tracer = Tracer(1.0, registry=registry)
        trace = tracer.maybe_trace()
        trace.add("kernel", 0.0, 1.0)
        tracer.finish(trace)
        tree = registry.snapshot()
        assert tree["traces"]["sampled"] == 1
        assert tree["traces"]["finished"] == 1

    def test_span_context_manager_and_totals(self):
        trace = Trace(trace_id=1)
        with trace.span("work"):
            time.sleep(0.01)
        assert trace.spans[0].name == "work"
        assert trace.total_span_s() == pytest.approx(trace.wall_s)

    def test_rate_zero_allocates_nothing_per_request(self):
        # the disabled hot path: one attribute load, no object creation —
        # any allocation attributable to telemetry.py is a regression
        tracer = Tracer(0.0)
        tracer.maybe_trace()  # warm any lazy state
        telemetry_file = telemetry.__file__
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(1000):
                tracer.maybe_trace()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = [
            stat
            for stat in after.compare_to(before, "filename")
            if stat.traceback[0].filename == telemetry_file and stat.size_diff > 0
        ]
        assert not grown, f"rate=0 tracing allocated: {grown}"


class TestKernelProfile:
    def test_profiled_forward_is_bitwise_identical(self, image, rng):
        packed = PackedModel(image)
        x = rng.standard_normal((4, 49, 10)).astype(np.float32)
        baseline = packed(x)
        with profile_kernels() as profile:
            profiled = packed(x)
        np.testing.assert_array_equal(profiled, baseline)
        breakdown = profile.snapshot()
        assert {"conv", "dw", "pw", "linear"} <= set(breakdown)
        for row in breakdown.values():
            assert row["gather_calls"] > 0
            assert row["gather_s"] <= row["layer_s"] + 1e-6

    def test_hook_restored_after_block(self, image, rng):
        from repro.serving.kernels import get_kernel_profile

        assert get_kernel_profile() is None
        with profile_kernels():
            assert get_kernel_profile() is not None
        assert get_kernel_profile() is None

    def test_merge_accumulates_across_profiles(self):
        a, b = KernelProfile(), KernelProfile()
        a.record_gather(0.5)
        b.record_gather(0.25)
        a.merge(b.snapshot())
        merged = a.snapshot()["other"]
        assert merged["gather_calls"] == 2
        assert merged["gather_s"] == pytest.approx(0.75)


class TestTelemetryServer:
    def test_metrics_and_healthz_endpoints(self):
        registry = MetricsRegistry()
        registry.counter("requests.served").inc(9)
        with TelemetryServer(registry) as server:
            host, port = server.address
            with urllib.request.urlopen(f"http://{host}:{port}/metrics") as resp:
                assert b"requests_served 9" in resp.read()
            with urllib.request.urlopen(f"http://{host}:{port}/metrics.jsonl") as resp:
                assert json.loads(resp.read().split(b"\n")[0])["value"] == 9
            with urllib.request.urlopen(f"http://{host}:{port}/healthz") as resp:
                assert json.loads(resp.read())["status"] == "ok"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"http://{host}:{port}/nope")

    def test_frontend_serves_metrics(self):
        frontend = AsyncServingFrontend(echo_model, max_pending=4)
        try:
            host, port = frontend.serve_metrics()
            assert frontend.serve_metrics() == (host, port)  # idempotent
            with urllib.request.urlopen(f"http://{host}:{port}/healthz") as resp:
                assert json.loads(resp.read())["status"] == "ok"
        finally:
            frontend.stop()
        assert frontend._metrics_server is None


class TestClusterTelemetry:
    def test_single_namespace_snapshot_covers_every_subsystem(
        self, traced_cluster, rng
    ):
        # one snapshot() tree: engine, cluster, shm, placement, control,
        # streams (plus registry) — the tentpole acceptance criterion
        model_registry = ModelRegistry()
        engine = BatchingEngine(echo_model)
        manager = StreamSessionManager(engine=engine)
        loop = ControlLoop(traced_cluster)
        session = manager.open()
        session.feed_features(rng.standard_normal((3, 49, 10)).astype(np.float32))
        manager.pump()
        manager.collect(wait=True)
        traced_cluster.predict(
            rng.standard_normal((49, 10)).astype(np.float32), model="kws"
        )
        loop.step()
        tree = telemetry.snapshot()
        assert {"engine", "cluster", "shm", "placement", "control", "streams", "registry"} <= set(
            tree
        )
        assert tree["cluster"]["served"] >= 1
        assert tree["engine"]["served"] == 3
        assert tree["streams"]["windows_served"] == 3
        assert tree["control"]["steps"] == 1
        assert "shm_requests" in tree["shm"]  # data-plane counters present
        assert tree["placement"]  # at least the predicted key is placed
        # the tree is export-ready end to end
        assert "cluster_served" in to_prometheus(tree)

    def test_end_to_end_trace_spans_tile_the_wall_clock(self, traced_cluster, rng):
        x = rng.standard_normal((49, 10)).astype(np.float32)
        before = len(traced_cluster.traces())
        start = time.monotonic()
        traced_cluster.predict(x, model="kws")
        wall = time.monotonic() - start
        assert len(traced_cluster.traces()) > before
        trace = traced_cluster.traces()[-1]
        names = [span.name for span in trace.spans]
        # >= 5 lifecycle spans, including the named acceptance set
        assert len(names) >= 5
        assert {"admission", "queue", "transport", "kernel", "completion"} <= set(names)
        # spans tile the request: durations sum to within the wall-clock
        total = trace.total_span_s()
        assert total <= wall + 0.05
        assert total >= 0.9 * trace.wall_s
        assert trace.wall_s <= wall + 0.05

    def test_traced_path_bitwise_identical_to_untraced_reference(
        self, traced_cluster, image, rng
    ):
        # every request on this cluster is traced; the packed model is the
        # untraced reference the untraced cluster path is already gated on
        reference = PackedModel(image)
        x = rng.standard_normal((49, 10)).astype(np.float32)
        np.testing.assert_array_equal(
            traced_cluster.predict(x, model="kws"), reference(x[None])[0]
        )

    def test_trace_export_round_trips(self, traced_cluster, rng, tmp_path):
        traced_cluster.predict(
            rng.standard_normal((49, 10)).astype(np.float32), model="kws"
        )
        path = tmp_path / "cluster_trace.json"
        doc = traced_cluster.dump_trace(str(path))
        assert doc["traceEvents"]
        assert json.loads(path.read_text()) == doc

    def test_cluster_kernel_profile_round_trip(self, traced_cluster, rng):
        traced_cluster.profile_kernels(True)
        try:
            traced_cluster.predict(
                rng.standard_normal((49, 10)).astype(np.float32), model="kws"
            )
            breakdown = traced_cluster.kernel_profile()
        finally:
            traced_cluster.profile_kernels(False)
        assert {"conv", "dw", "pw", "linear"} <= set(breakdown)
        assert all(row["gather_calls"] > 0 for row in breakdown.values())
        # the collected breakdown surfaces in ClusterStats and the tree
        assert traced_cluster.snapshot().kernel_profile == breakdown
        assert traced_cluster.telemetry.snapshot()["cluster"]["kernel_profile"] == breakdown

    def test_router_registry_mounts_cluster_namespaces(self, traced_cluster):
        tree = traced_cluster.telemetry.snapshot()
        assert {"cluster", "shm", "placement"} <= set(tree)
        assert tree["traces"]["sampled"] >= 1

    def test_control_loop_reads_telemetry_snapshot(self, traced_cluster):
        # the control plane's signals come from the same tree operators
        # see: autoscaler load == the snapshot's worker in-flight counters
        loop = ControlLoop(traced_cluster)
        tree = traced_cluster.telemetry.snapshot()["cluster"]
        for key, workers in traced_cluster.placements().items():
            load = loop.autoscaler._load_of(key, tree, workers)
            assert load >= 0.0
        assert loop.step() == []  # idle cluster: no scaling events

    def test_cluster_tree_shape_idle_and_after_traffic(self, traced_cluster, rng):
        """The ``cluster`` tree keeps every series, and every priority class
        under the per-class ones, before any traffic and after it."""
        idle = ClusterRouter(workers=1).snapshot().as_tree()  # never started
        traced_cluster.predict(
            rng.standard_normal((49, 10)).astype(np.float32), model="kws"
        )
        busy = traced_cluster.snapshot().as_tree()
        classes = {p.name for p in Priority}
        for tree in (idle, busy):
            assert set(tree) == CLUSTER_TREE_KEYS
            for series in ("shed_by_priority", "queue_depth_by_priority", "latency_by_priority"):
                assert set(tree[series]) == classes
            assert set(tree["resilience"]) == RESILIENCE_TREE_KEYS
        assert set(idle["shed_by_priority"].values()) == {0}
        assert set(idle["queue_depth_by_priority"].values()) == {0}
        assert {row["count"] for row in idle["latency_by_priority"].values()} == {0}
        assert busy["latency_by_priority"]["NORMAL"]["count"] >= 1
