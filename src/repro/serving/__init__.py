"""Batched packed-ternary serving for ST-HybridNet model images.

The deploy package proves a model image is *complete*; this package makes
it *fast to serve*:

* :mod:`repro.serving.kernels`  — TNN-style bit-plane execution: ternary
  matmuls as two gather-accumulate passes over +1/−1 index planes, decoded
  once from the 2-bit blobs;
* :mod:`repro.serving.kernels_fast` — the fused backend (both sign planes
  as one feature-major gather, summed by a prepare-time lane schedule of
  whole-slab vector adds that reproduces ``reduceat``'s association),
  bitwise identical to the reference and the default; ``"reference"`` or
  ``"fused"`` is chosen per :class:`PackedModel` (``kernel=``) only;
* :mod:`repro.serving.packed`   — :class:`PackedModel`, the cached runtime
  (``cache=False`` reproduces the on-the-fly reference semantics bitwise);
* :mod:`repro.serving.batching` — :class:`BatchingEngine`, coalescing
  single requests into micro-batches under a size + latency budget, with
  per-request deadline enforcement at dispatch;
* :mod:`repro.serving.frontend` — :class:`AsyncServingFrontend`, the
  asyncio front door: ``await predict(x, deadline_s=...)`` with bounded
  admission (backpressure) bridged onto the engine's worker thread — or
  onto a whole cluster (``model=``/``priority=`` per request);
* :mod:`repro.serving.registry` — :class:`ModelRegistry`, many named images
  served concurrently with LRU eviction of decoded plans under a byte
  budget (``capacity_bytes``) and single-flight cold decodes;
* :mod:`repro.serving.priority` — :class:`Priority` classes and the
  watermark :class:`PriorityPolicy` (low-priority traffic sheds first;
  limits scale with the replica count serving the request's model);
* :mod:`repro.serving.placement` — the placement subsystem:
  :class:`PlacementPolicy` (sticky / replicated / least-loaded) mapping
  ``(model, version)`` to a :class:`ReplicaSet` (N workers, per-replica
  load tracking, power-of-two-choices dispatch) and :class:`DeployManager`
  for versioned rolling deploys (warm → flip → drain → unload, no
  shedding);
* :mod:`repro.serving.cluster`  — :class:`WorkerPool` (N spawn-safe worker
  processes, each with its own engine and decoded plans, restarted and
  re-decoded on crash) behind a :class:`ClusterRouter` (policy-driven
  versioned placement, cluster-wide decoded-byte budget, priority-class
  admission), with burst submission (``submit_many``) amortising control
  frames;
* :mod:`repro.serving.shm`      — :class:`SlabPool`/:class:`SlabClient`,
  the zero-copy shared-memory data plane the cluster runs on by default:
  payloads live in reusable fixed-size slabs of one
  ``multiprocessing.shared_memory`` segment while the pipes carry only
  control frames (the pickle path survives as an automatic fallback);
* :mod:`repro.serving.streams`  — :class:`StreamSessionManager`, the
  sessionful streaming layer: N concurrent KWS sessions (per-stream MFCC
  featurizer + posterior smoother) whose analysis windows are coalesced
  *across* sessions into ``submit_many`` cluster bursts, with
  :mod:`repro.serving.loadgen` replaying synthesised keyword streams as
  timed session arrivals;
* :mod:`repro.serving.catalog`  — :class:`VersionedCatalog`, the single
  implementation of the versioned name → version → entry bookkeeping (and
  the ``"name@version"`` key grammar) that both :class:`ClusterRouter`
  and :class:`ModelRegistry` delegate to, with one documented
  error-mapping policy;
* :mod:`repro.serving.control`  — the self-driving control plane:
  :class:`Autoscaler` (grow/shrink replica sets between load watermarks),
  :class:`CanaryController`/:class:`CanaryPolicy` (earned deploy flips —
  observe a traffic fraction, auto-promote or auto-roll-back on SLO
  breach) and the background :class:`ControlLoop` driving both — all
  reading their signals from the telemetry snapshot;
* :mod:`repro.serving.telemetry` — the unified telemetry plane:
  :class:`MetricsRegistry` (one ``snapshot()`` tree spanning engine,
  cluster, shm, placement, control and streams), sampled per-request
  :class:`Trace` spans threaded through the cluster control frames
  (``trace_sample_rate=``), Prometheus / JSON-lines / chrome-trace
  exporters, and opt-in :class:`KernelProfile` timing of the packed
  kernels' gather passes per layer kind;
* :mod:`repro.serving.metrics_server` — :class:`TelemetryServer`, the
  tiny ``/metrics`` + ``/healthz`` HTTP endpoint over a registry;
* :mod:`repro.serving.resilience` — the fault-masking policy layer:
  :class:`RetryPolicy` (bounded seeded-backoff retries to a different
  replica, under a global :class:`RetryBudget`), per-worker
  :class:`CircuitBreaker` quarantine, :class:`RestartBackoffPolicy`
  (capped exponential respawn delay for crash-looping workers),
  :class:`HedgePolicy` (HIGH-priority tail-latency hedging) and
  :class:`BrownoutController` (auto-shed LOW traffic on sustained
  p99/error breach) — all opt-in :class:`ClusterRouter` kwargs;
* :mod:`repro.serving.chaos`    — seeded, replayable fault injection:
  a :class:`FaultPlan` of crash/lag/slab-squeeze/scripted faults driven
  tick-by-tick by a :class:`ChaosHarness` over the cluster's existing
  ``inject_*`` hooks, with an event log that makes two runs of the same
  plan byte-comparable.

Every public name is imported from its submodule on first access
(:pep:`562`), so ``import repro.serving.cluster`` — what each spawned
cluster worker does — loads only the cluster's own dependencies, not the
asyncio front door, the control plane, chaos, streams or the load
generator.
"""

import importlib

#: submodule -> the public names it exports through this package
_EXPORTS = {
    "batching": ("BatchingEngine", "EngineStats", "MicroBatchConfig"),
    "catalog": ("VersionedCatalog",),
    "chaos": (
        "ChaosHarness",
        "CrashFault",
        "FaultPlan",
        "LagFault",
        "ScriptStep",
        "SlabSqueeze",
        "WorkerScript",
    ),
    "cluster": (
        "CanarySplitStats",
        "ClusterRouter",
        "ClusterStats",
        "LatencyStats",
        "ScaleEvent",
        "WorkerPool",
        "WorkerStats",
    ),
    "control": (
        "AutoscalePolicy",
        "Autoscaler",
        "CanaryController",
        "CanaryPolicy",
        "CanaryStatus",
        "ControlLoop",
        "ControlStats",
    ),
    "frontend": ("AsyncServingFrontend",),
    "kernels": ("TernaryPlanes", "decode_planes", "ternary_matmul"),
    "kernels_fast": ("FusedBackend", "KernelBackend", "ReferenceBackend", "resolve_backend"),
    "metrics_server": ("TelemetryServer",),
    "packed": ("LayerPlan", "PackedModel", "decode_layer"),
    "placement": (
        "DeployManager",
        "DeployReport",
        "LeastLoadedPolicy",
        "PlacementPolicy",
        "ReplicaSet",
        "ReplicaStats",
        "ReplicatedPolicy",
        "StickyPolicy",
    ),
    "priority": ("Priority", "PriorityPolicy"),
    "registry": ("ModelRegistry", "RegistryStats"),
    "resilience": (
        "BreakerBoard",
        "BreakerPolicy",
        "BrownoutController",
        "BrownoutPolicy",
        "BrownoutStatus",
        "CircuitBreaker",
        "HedgePolicy",
        "ResilienceStats",
        "RestartBackoffPolicy",
        "RetryBudget",
        "RetryPolicy",
    ),
    "shm": ("SlabClient", "SlabConfig", "SlabPool"),
    "streams": ("ManagerStats", "SessionStats", "StreamSession", "StreamSessionManager"),
    "telemetry": (
        "KernelProfile",
        "MetricsRegistry",
        "Trace",
        "Tracer",
        "get_registry",
        "profile_kernels",
        "telemetry",  # the submodule itself
    ),
}

_SUBMODULE = {name: submodule for submodule, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    """Import ``name``'s submodule on first access and cache the name here."""
    submodule = _SUBMODULE.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{submodule}")
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value

