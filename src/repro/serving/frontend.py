"""Async deadline-aware serving front-end over the batching engine or cluster.

:class:`AsyncServingFrontend` is the traffic-shaping layer between many
concurrent clients and the serving backend — either one
:class:`~repro.serving.batching.BatchingEngine` or a whole
:class:`~repro.serving.cluster.ClusterRouter`:

* **asyncio bridge** — ``await frontend.predict(x)`` submits onto the
  backend and awaits the backend-side
  :class:`concurrent.futures.Future` from the event loop, so thousands of
  in-flight requests cost one coroutine each, not one thread each;
* **per-request deadlines** — ``predict(x, deadline_s=0.05)`` gives the
  request a latency budget; if it is still queued when its micro-batch is
  scheduled after the budget elapsed, the await raises
  :class:`~repro.errors.DeadlineExceeded` and the model never runs it;
* **bounded admission (backpressure)** — at most ``max_pending`` admitted
  requests may be unresolved at once; beyond that, ``predict`` sheds the
  request immediately with :class:`~repro.errors.AdmissionError` instead of
  letting the queue (and every queued request's latency) grow without bound.

Engine-backed, the front-end drives the engine in worker mode (``async with
frontend:`` starts and stops the background thread); without a worker it
falls back to the engine's deterministic synchronous ``flush()`` — which is
what unit tests and single-shot scripts want.  All counters land in the
shared :class:`~repro.serving.batching.EngineStats` (``shed``,
``deadline_misses``, …); read them race-free via :meth:`snapshot`.

Cluster-backed, ``predict(x, model="kws-en", version=None,
priority=Priority.HIGH, deadline_s=...)`` routes through the cluster:
admission is delegated to the router's priority-watermark policy
(low-priority traffic sheds first, limits scaled by the model's replica
count), the resolved ``(model, version)`` picks the replica via the
placement policy, and the worker's engine coalesces and deadline-checks as
usual.  ``await deploy(name, image, version)`` / ``await rollback(name)``
run versioned rolling deploys (:mod:`repro.serving.placement`) off the
event loop, and ``async with frontend:`` starts and stops the worker
processes.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from concurrent.futures import Future
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.errors import AdmissionError, ConfigError
from repro.serving.batching import BatchingEngine, EngineStats, MicroBatchConfig
from repro.serving.cluster import ClusterRouter, ClusterStats
from repro.serving.placement import DeployManager, DeployReport
from repro.serving.priority import Priority
from repro.serving.resilience import ResilienceStats
from repro.serving.metrics_server import TelemetryServer
from repro.serving.telemetry import MetricsRegistry

#: sentinel distinguishing "deadline_s not passed" (use the frontend default)
#: from an explicit ``deadline_s=None`` ("this request has no deadline").
_UNSET = object()


class AsyncServingFrontend:
    """Asyncio front door to a :class:`BatchingEngine` or :class:`ClusterRouter`.

    Parameters
    ----------
    engine:
        The backend: an engine, a :class:`ClusterRouter`, or any
        batch-callable model — a bare model is wrapped in a fresh
        ``BatchingEngine(model, config)``.
    config:
        Micro-batch policy for a freshly wrapped model; rejected when an
        already-built engine or a cluster is passed (configure those
        directly).
    max_pending:
        Admission bound for the engine path: the maximum number of
        admitted-but-unresolved requests.  Submissions beyond it raise
        :class:`~repro.errors.AdmissionError` and count as ``stats.shed``.
        Cluster-backed, admission is delegated to the router's
        :class:`~repro.serving.priority.PriorityPolicy` and this bound is
        rejected (set ``policy.max_pending`` on the router instead).
    default_deadline_s:
        Latency budget applied when ``predict`` is called without an
        explicit ``deadline_s`` (``None`` = no deadline by default).
    default_priority:
        Priority class applied when ``predict`` is called without an
        explicit ``priority`` (cluster path only).
    """

    def __init__(
        self,
        engine: Union[BatchingEngine, ClusterRouter, Callable[[np.ndarray], np.ndarray]],
        *,
        config: Optional[MicroBatchConfig] = None,
        max_pending: Optional[int] = None,
        default_deadline_s: Optional[float] = None,
        default_priority: Priority = Priority.NORMAL,
    ) -> None:
        self.cluster: Optional[ClusterRouter] = None
        if isinstance(engine, ClusterRouter):
            if config is not None:
                raise ConfigError("pass config only when wrapping a bare model")
            if max_pending is not None:
                raise ConfigError(
                    "cluster admission is governed by the router's PriorityPolicy; "
                    "set policy.max_pending there instead of max_pending here"
                )
            self.cluster = engine
            self.engine: Optional[BatchingEngine] = None
        elif isinstance(engine, BatchingEngine):
            if config is not None:
                raise ConfigError("pass config only when wrapping a bare model")
            self.engine = engine
        else:
            self.engine = BatchingEngine(engine, config)
        if max_pending is None:
            max_pending = 256
        if max_pending < 1:
            raise ConfigError("max_pending must be >= 1")
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ConfigError("default_deadline_s must be positive (or None)")
        self.max_pending = max_pending
        self.default_deadline_s = default_deadline_s
        self.default_priority = Priority(default_priority)
        self._pending = 0
        self._lock = threading.Lock()  # done-callbacks fire on the worker thread
        # built eagerly so every caller shares ONE manager (whose lock
        # serialises deploys) — lazy creation could race two threads into
        # two managers with independent locks
        self._deploy_manager: Optional[DeployManager] = (
            DeployManager(self.cluster) if self.cluster is not None else None
        )
        self._metrics_server: Optional[TelemetryServer] = None

    # -- introspection ---------------------------------------------------- #

    @property
    def stats(self) -> Union[EngineStats, ClusterStats]:
        """The backend's counters: the engine's live ``EngineStats`` (shared
        object), or a fresh :class:`~repro.serving.cluster.ClusterStats`
        snapshot when cluster-backed — including per-priority-class queue
        depth (``queue_depth_by_priority``), completion-latency percentiles
        (``latency_by_priority``) and data-plane counters (``transport``)."""
        if self.cluster is not None:
            return self.cluster.snapshot()
        return self.engine.stats

    def snapshot(self) -> Union[EngineStats, ClusterStats]:
        """Race-free counters copy: the engine's locked
        :meth:`~repro.serving.batching.BatchingEngine.snapshot`, or the
        cluster's :meth:`~repro.serving.cluster.ClusterRouter.snapshot` —
        the unified stats accessor across the serving layer."""
        if self.cluster is not None:
            return self.cluster.snapshot()
        return self.engine.snapshot()

    @property
    def pending(self) -> int:
        """Requests admitted but not yet resolved (served, failed, or expired)."""
        if self.cluster is not None:
            return self.cluster.pending
        with self._lock:
            return self._pending

    def resilience(self) -> "ResilienceStats":
        """The cluster's retry/hedge/breaker/brownout rollup
        (:class:`~repro.serving.resilience.ResilienceStats`) — the
        frontend-level view of how much fault masking the resilience layer
        is doing underneath ``await predict(...)``.  Cluster-backed only:
        a single-engine frontend has no replicas to retry against.
        """
        if self.cluster is None:
            raise ConfigError(
                "resilience stats require a cluster-backed frontend "
                "(AsyncServingFrontend(ClusterRouter(...)))"
            )
        return self.cluster.snapshot().resilience

    # -- admission -------------------------------------------------------- #

    def _admit(
        self,
        x: np.ndarray,
        deadline_s: Optional[float],
        model: Optional[str],
        version: Optional[str],
        priority: Optional[Priority],
    ) -> "Future[np.ndarray]":
        """Admission-check one request and enqueue it on the backend."""
        if self.cluster is not None:
            return self.cluster.submit(
                x,
                model=model,
                version=version,
                priority=self.default_priority if priority is None else Priority(priority),
                deadline_s=deadline_s,
            )
        if model is not None or version is not None or priority is not None:
            raise ConfigError(
                "model=, version= and priority= require a cluster-backed frontend "
                "(AsyncServingFrontend(ClusterRouter(...)))"
            )
        with self._lock:
            if self._pending >= self.max_pending:
                self.engine.record_shed()
                raise AdmissionError(
                    f"admission queue full ({self.max_pending} pending); request shed"
                )
            self._pending += 1
        future = self.engine.submit(x, deadline_s=deadline_s)
        future.add_done_callback(self._release)
        return future

    def _release(self, _future: "Future[np.ndarray]") -> None:
        """Done-callback: free the admission slot of a resolved request."""
        with self._lock:
            self._pending -= 1

    def _chunk_size(self, priority: Optional[Priority]) -> int:
        """How many requests :meth:`serve` may keep in flight at once
        without risking an admission shed."""
        if self.cluster is not None:
            effective = self.default_priority if priority is None else Priority(priority)
            return self.cluster.policy.admit_limit(effective)
        return self.max_pending

    def _maybe_flush(self) -> None:
        """Engine path only: without a worker, dispatch synchronously."""
        if self.engine is not None and not self.engine.running:
            self.engine.flush()

    # -- request side ----------------------------------------------------- #

    async def predict(
        self,
        x: np.ndarray,
        *,
        deadline_s=_UNSET,
        model: Optional[str] = None,
        version: Optional[str] = None,
        priority: Optional[Priority] = None,
    ) -> np.ndarray:
        """Serve one example; awaits its result row.

        ``deadline_s`` overrides ``default_deadline_s`` for this request; an
        explicit ``deadline_s=None`` opts this request out of the default
        (no deadline at all).  ``model`` selects the named model,
        ``version`` pins one of its versions (``None`` = the current one,
        which is what a rolling deploy flips), and ``priority`` the
        admission class — all three cluster-backed only.  Raises
        :class:`~repro.errors.AdmissionError` immediately when admission is
        refused, and :class:`~repro.errors.DeadlineExceeded` when the budget
        expires before the micro-batch is scheduled.
        """
        if deadline_s is _UNSET:
            deadline_s = self.default_deadline_s
        future = self._admit(np.asarray(x), deadline_s, model, version, priority)
        self._maybe_flush()
        return await asyncio.wrap_future(future)

    async def predict_many(
        self,
        xs: Sequence[np.ndarray],
        *,
        deadline_s=_UNSET,
        model: Optional[str] = None,
        version: Optional[str] = None,
        priority: Optional[Priority] = None,
    ) -> List[np.ndarray]:
        """Serve several examples concurrently, preserving order.

        All requests are admitted before any result is awaited, so without a
        running worker a single deterministic ``flush()`` coalesces them into
        micro-batches (the evaluation path).  Admission is all-or-nothing: if
        any request is shed, the already-admitted ones are cancelled and the
        :class:`~repro.errors.AdmissionError` propagates.  Cancellation is
        best-effort — a request the worker already claimed still executes
        (its result is discarded, and its slot releases when it resolves).
        ``deadline_s`` semantics (including the explicit-``None`` opt-out) and
        deadline failures are as in :meth:`predict`.

        Cluster-backed, the whole batch goes through
        :meth:`~repro.serving.cluster.ClusterRouter.submit_many`: admission
        is atomic at the router (nothing to cancel on a shed) and the burst
        crosses the worker pipe as **one** control frame with payloads on
        the shared-memory plane — the cheap path for large batch shapes.
        """
        if deadline_s is _UNSET:
            deadline_s = self.default_deadline_s
        if self.cluster is not None:
            futures = self.cluster.submit_many(
                [np.asarray(x) for x in xs],
                model=model,
                version=version,
                priority=self.default_priority if priority is None else Priority(priority),
                deadline_s=deadline_s,
            )
            return list(await asyncio.gather(*[asyncio.wrap_future(f) for f in futures]))
        futures: List["Future[np.ndarray]"] = []
        try:
            for x in xs:
                futures.append(self._admit(np.asarray(x), deadline_s, model, version, priority))
        except BaseException:
            # Don't strand admitted-but-unawaited requests in the backend
            # queue: cancel them so their slots release now (cancellation
            # fires the done-callback) instead of wedging the frontend, and
            # flush so the cancelled entries drain rather than lingering
            # until unrelated later traffic.
            for future in futures:
                future.cancel()
            self._maybe_flush()
            raise
        self._maybe_flush()
        return list(await asyncio.gather(*[asyncio.wrap_future(f) for f in futures]))

    def serve(
        self,
        xs: Sequence[np.ndarray],
        *,
        deadline_s=_UNSET,
        model: Optional[str] = None,
        version: Optional[str] = None,
        priority: Optional[Priority] = None,
    ) -> List[np.ndarray]:
        """Synchronous bridge: serve all of ``xs`` on a private event loop.

        Batches longer than the admission bound (``max_pending``, or the
        cluster's per-class limit) are served in bounded chunks, so a
        synchronous caller (e.g.
        :class:`~repro.evaluation.streaming.StreamingDetector`) never sheds
        *itself* by submitting more than the backend admits.  On a cluster
        the pending budget is shared with live traffic, so a chunk can still
        be shed by concurrent load — ``predict_many``'s all-or-nothing
        :class:`~repro.errors.AdmissionError` then propagates; callers
        sharing a busy cluster should retry or run the evaluation at
        ``Priority.LOW`` off-peak.  Must not be called from inside a running
        event loop.
        """
        xs = list(xs)
        chunk_size = self._chunk_size(priority)

        async def run() -> List[np.ndarray]:
            rows: List[np.ndarray] = []
            for start in range(0, len(xs), chunk_size):
                chunk = xs[start : start + chunk_size]
                rows.extend(
                    await self.predict_many(
                        chunk,
                        deadline_s=deadline_s,
                        model=model,
                        version=version,
                        priority=priority,
                    )
                )
            return rows

        return asyncio.run(run())

    # -- rolling deploys --------------------------------------------------- #

    def _deploys(self) -> DeployManager:
        """The frontend's deploy manager (cluster-backed frontends only)."""
        if self._deploy_manager is None:
            raise ConfigError(
                "deploy()/rollback() require a cluster-backed frontend "
                "(AsyncServingFrontend(ClusterRouter(...)))"
            )
        return self._deploy_manager

    async def deploy(
        self, name: str, image, version: str, *, canary: Optional[object] = None
    ) -> DeployReport:
        """Rolling-deploy ``name`` to a new ``version`` without shedding.

        Runs the blocking warm → flip → drain → unload sequence
        (:class:`~repro.serving.placement.DeployManager`) on a worker
        thread so the event loop keeps serving traffic throughout — which
        is the point of a *rolling* deploy.  With
        ``canary=CanaryPolicy(...)`` the flip is earned instead of
        unconditional: the new version serves a traffic fraction first and
        auto-promotes or auto-rolls-back on its observed SLOs (see
        :class:`~repro.serving.control.CanaryController`; concurrent
        ``await predict(...)`` calls keep flowing throughout — they *are*
        the canary's decision traffic).  Returns the
        :class:`~repro.serving.placement.DeployReport`.
        """
        return await asyncio.to_thread(
            functools.partial(self._deploys().deploy, canary=canary),
            name,
            image,
            version,
        )

    async def rollback(self, name: str) -> DeployReport:
        """Roll ``name`` back to the previously deployed version."""
        return await asyncio.to_thread(self._deploys().rollback, name)

    # -- observability ----------------------------------------------------- #

    def serve_metrics(
        self, *, host: str = "127.0.0.1", port: int = 0
    ) -> "tuple[str, int]":
        """Expose ``/metrics`` + ``/healthz`` over HTTP; returns (host, port).

        Serves the cluster router's telemetry registry when cluster-backed
        (the ``cluster``/``shm``/``placement`` namespaces plus trace
        counters), else the process-wide registry.  ``port=0`` binds an
        ephemeral port.  Idempotent — a second call returns the already
        bound address; :meth:`stop` shuts the endpoint down with the
        backend.
        """
        if self._metrics_server is None:
            registry: Optional[MetricsRegistry] = (
                self.cluster.telemetry if self.cluster is not None else None
            )
            self._metrics_server = TelemetryServer(registry, host=host, port=port).start()
        return self._metrics_server.address

    # -- lifecycle -------------------------------------------------------- #

    def start(self) -> "AsyncServingFrontend":
        """Start the backend (engine worker thread, or the worker pool's
        processes); idempotent; returns self."""
        if self.cluster is not None:
            self.cluster.start()
        else:
            self.engine.start()
        return self

    def stop(self) -> None:
        """Stop the backend (draining anything queued) and the metrics endpoint."""
        server, self._metrics_server = self._metrics_server, None
        if server is not None:
            server.stop()
        if self.cluster is not None:
            self.cluster.stop()
        else:
            self.engine.stop()

    async def __aenter__(self) -> "AsyncServingFrontend":
        """Enter worker mode for the duration of an ``async with`` block."""
        return self.start()

    async def __aexit__(self, *exc_info) -> None:
        """Stop the backend; pending requests are drained first."""
        self.stop()
