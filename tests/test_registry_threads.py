"""ModelRegistry under concurrent get()/eviction from many threads.

The registry serves the parent-side catalog of the cluster and the
multi-model path of a single process; both hammer it from several threads.
These tests pin down the two invariants that matter: the decoded-plan byte
budget is *never* exceeded (not even transiently, observed from another
thread), and a cold model decodes exactly once no matter how many threads
miss it simultaneously (single-flight, no double-decode storms).
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image
from repro.serving import ModelRegistry, PackedModel


@pytest.fixture(scope="module")
def images():
    """Four distinct frozen images (plan sizes vary with random sparsity)."""
    out = []
    for i in range(4):
        model = STHybridNet(HybridConfig(width=8), rng=i)
        freeze_all(model)
        model.eval()
        out.append(build_image(model))
    return out


class TestSingleFlightDecode:
    def test_thundering_herd_decodes_once(self, images):
        registry = ModelRegistry(capacity_bytes=10 * PackedModel(images[0]).decoded_bytes())
        registry.register("m", images[0])
        barrier = threading.Barrier(8)
        got = []
        errors = []

        def hammer():
            try:
                barrier.wait()
                got.append(registry.get("m"))
            except Exception as exc:  # surfaced in the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # one decode (the miss), everyone else waited and took the hit path
        assert registry.stats.misses == 1
        assert registry.stats.hits == 7
        assert all(model is got[0] for model in got)

    def test_failed_decode_releases_the_single_flight_latch(self, images, monkeypatch):
        """A leader whose decode raises must wake waiters and leave no stale
        in-flight entry — the next get() retries instead of deadlocking."""
        import repro.serving.registry as registry_mod

        registry = ModelRegistry()
        registry.register("m", images[0])
        real = registry_mod.PackedModel
        armed = {"fail": True}

        def flaky(image, cache=True):
            if armed["fail"]:
                armed["fail"] = False
                raise RuntimeError("decode blew up")
            return real(image, cache=cache)

        monkeypatch.setattr(registry_mod, "PackedModel", flaky)
        with pytest.raises(RuntimeError, match="decode blew up"):
            registry.get("m")
        assert not registry._inflight  # the latch was released in finally
        model = registry.get("m")  # a later caller becomes leader and succeeds
        assert isinstance(model, real)
        assert registry.decoded_names() == ["m@v1"]


class TestConcurrentBudget:
    def test_budget_never_exceeded_under_contention(self, images):
        sizes = sorted(PackedModel(img).decoded_bytes() for img in images)
        budget = sizes[-1] + sizes[-2]  # two plans fit, three never do
        registry = ModelRegistry(capacity_bytes=budget)
        for i, image in enumerate(images):
            registry.register(f"m{i}", image)

        x = np.random.default_rng(0).standard_normal((1, 49, 10)).astype(np.float32)
        direct = [PackedModel(img)(x) for img in images]
        barrier = threading.Barrier(8 + 1)
        stop = threading.Event()
        violations = []
        errors = []

        def traffic(seed):
            try:
                barrier.wait()
                order = np.random.default_rng(seed).permutation(4)
                for _ in range(3):
                    for i in order:
                        result = registry.predict(f"m{i}", x)
                        np.testing.assert_array_equal(result, direct[i])
            except Exception as exc:
                errors.append(exc)

        def watcher():
            barrier.wait()
            while not stop.is_set():
                snap = registry.snapshot()
                if snap.resident_bytes > budget or snap.peak_resident_bytes > budget:
                    violations.append(snap)

        threads = [threading.Thread(target=traffic, args=(s,)) for s in range(8)]
        observer = threading.Thread(target=watcher)
        observer.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        observer.join()
        assert not errors
        assert not violations, f"budget exceeded: {violations[0]}"
        snap = registry.snapshot()
        assert snap.resident_bytes == registry.decoded_bytes() <= budget
        assert snap.evictions > 0  # rotation over 4 models really evicted
        # single-flight bounds decodes: every miss is one real decode, and
        # cross-thread storms on the same cold model collapse to one miss
        assert snap.misses + snap.hits == 8 * 3 * 4

    def test_stats_snapshot_is_decoupled(self, images):
        registry = ModelRegistry()
        registry.register("m", images[0])
        snap = registry.snapshot()
        registry.get("m")
        assert snap.misses == 0 and registry.stats.misses == 1


class TestDeprecatedCountCapacity:
    def test_byte_budget_mode_warns_nothing(self, images):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ModelRegistry(capacity_bytes=1_000_000)
            ModelRegistry()
