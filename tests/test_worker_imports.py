"""Cold start: a cluster worker imports only the serving path.

Each ``ClusterRouter`` worker is a fresh ``spawn`` interpreter that imports
:mod:`repro.serving.cluster`, decodes a model image and runs forwards, and
every crash restart pays that import again.  These tests pin the import
set of such a process, and check that the lazily resolved
:mod:`repro.serving` namespace still exports every public name.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro.serving
from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image

SRC = Path(__file__).resolve().parent.parent / "src"

#: top-level packages and repro subpackages a worker must never load
FORBIDDEN = (
    "scipy",
    "asyncio",
    "http",
    "repro.core",
    "repro.training",
    "repro.datasets",
    "repro.autodiff",
    "repro.nn",
    "repro.costmodel",
    "repro.audio",
    "repro.evaluation",
)

#: what a worker does: import the cluster, parse an image, run one forward
WORKER_LIKE = """
import json, sys
import numpy as np
import repro.serving.cluster
from repro.deploy.image import ModelImage
from repro.serving.packed import PackedModel

with open(sys.argv[1], "rb") as fh:
    model = PackedModel(ModelImage.from_bytes(fh.read()))
scores = model(np.zeros((1, 49, 10), dtype=np.float32))
assert scores.shape == (1, 12), scores.shape
print(json.dumps(sorted(sys.modules)))
"""

#: every public name of repro.serving: the lazy namespace exports exactly these
PUBLIC_NAMES = {
    "AsyncServingFrontend", "AutoscalePolicy", "Autoscaler", "BatchingEngine",
    "BreakerBoard", "BreakerPolicy", "BrownoutController", "BrownoutPolicy",
    "BrownoutStatus", "CanaryController", "CanaryPolicy", "CanarySplitStats",
    "CanaryStatus", "ChaosHarness", "CircuitBreaker", "ClusterRouter",
    "ClusterStats", "ControlLoop", "ControlStats", "CrashFault", "DeployManager",
    "DeployReport", "EngineStats", "FaultPlan", "FusedBackend", "HedgePolicy",
    "KernelBackend", "KernelProfile", "LagFault", "LatencyStats", "LayerPlan",
    "LeastLoadedPolicy", "ManagerStats", "MetricsRegistry", "MicroBatchConfig",
    "ModelRegistry", "PackedModel", "PlacementPolicy", "Priority", "PriorityPolicy",
    "ReferenceBackend", "RegistryStats", "ReplicaSet", "ReplicaStats",
    "ReplicatedPolicy", "ResilienceStats", "RestartBackoffPolicy", "RetryBudget",
    "RetryPolicy", "ScaleEvent", "ScriptStep", "SessionStats", "SlabClient",
    "SlabConfig", "SlabPool", "SlabSqueeze", "StickyPolicy", "StreamSession",
    "StreamSessionManager", "TelemetryServer", "TernaryPlanes", "Trace", "Tracer",
    "VersionedCatalog", "WorkerPool", "WorkerScript", "WorkerStats", "decode_layer",
    "decode_planes", "get_registry", "profile_kernels", "resolve_backend",
    "telemetry", "ternary_matmul",
}


def test_worker_imports_only_the_serving_path(tmp_path):
    model = STHybridNet(HybridConfig(width=8), rng=0)
    freeze_all(model)
    model.eval()
    blob_path = tmp_path / "w8.img"
    blob_path.write_bytes(build_image(model).to_bytes())

    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", WORKER_LIKE, str(blob_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert "repro.serving.cluster" in modules
    loaded = [
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in FORBIDDEN)
    ]
    assert loaded == []


def test_every_public_name_resolves():
    assert set(repro.serving.__all__) == PUBLIC_NAMES
    for name in repro.serving.__all__:
        assert getattr(repro.serving, name) is not None
    assert repro.serving.telemetry is sys.modules["repro.serving.telemetry"]
    assert repro.serving.TelemetryServer.__module__ == "repro.serving.metrics_server"
