"""Sessionful streaming: many concurrent KWS streams over one serving stack.

The paper's workload is always-on keyword spotting, but a deployment never
serves one stream — it serves thousands of concurrent audio sessions, each
with its own featurizer and posterior-smoothing state.  This module adds
that layer on top of the existing data path:

* :class:`StreamSession` — one live stream: incremental windowing (same
  ``hop_ms``/``window_seconds`` arithmetic as
  :class:`~repro.evaluation.streaming.StreamingDetector`), a private
  :class:`~repro.audio.mfcc.StreamFeaturizer` that computes each MFCC
  frame's power spectrum once per stream, a private
  :class:`~repro.evaluation.streaming.PosteriorSmoother`, and per-session
  metrics (windows served, failures, deadline misses, the gap indices a
  worker crash left behind);
* :class:`StreamSessionManager` — owns N sessions and coalesces their
  ready analysis windows *across* sessions into
  :meth:`~repro.serving.cluster.ClusterRouter.submit_many` bursts (one
  control frame per burst; per-window deadlines, priority class and
  version pinning all flow through the existing cluster path).  A
  :class:`~repro.serving.batching.BatchingEngine` or an
  :class:`~repro.serving.frontend.AsyncServingFrontend` can stand in for
  the cluster in single-process settings.

Because each window's features are the bytes ``MFCC(config)(window)``
gives, executed through a batch-composition-invariant runtime, and smoothed
by the same :class:`PosteriorSmoother` code path, a session's posteriors are
**bitwise identical** to a solo ``StreamingDetector`` run over the same
waveform — ``benchmarks/bench_streams.py`` gates exactly that.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.audio.mfcc import MFCC
from repro.errors import AdmissionError, ConfigError, DeadlineExceeded
from repro.evaluation.streaming import (
    DetectionEvent,
    PosteriorSmoother,
    StreamingConfig,
    detect_events,
    num_windows,
)
from repro.serving.priority import Priority
from repro.serving.telemetry import get_registry


@dataclass
class SessionStats:
    """Per-session window accounting.

    ``windows_featurized`` counts windows cut from the fed audio;
    ``windows_submitted`` those handed to the serving backend;
    ``windows_served`` those whose posteriors resolved.  Failed windows are
    split into ``deadline_misses`` and ``windows_failed`` (worker crashes
    and other backend errors); either kind leaves its window index in
    ``gap_windows`` — the session's posterior timeline simply skips those
    windows, exactly the gap a listener would have heard.
    """

    windows_featurized: int = 0
    windows_submitted: int = 0
    windows_served: int = 0
    windows_failed: int = 0
    deadline_misses: int = 0
    gap_windows: List[int] = field(default_factory=list)
    #: per-window featurize→submit wait (manager-side queueing: burst
    #: coalescing, admission sheds) — window-to-decision time splits as
    #: ``queue_s[i] + latencies_s[i]``
    queue_s: List[float] = field(default_factory=list)
    #: per-window submit→resolve latency (the backend's share)
    latencies_s: List[float] = field(default_factory=list)

    @property
    def gaps(self) -> int:
        """Windows lost to failures or deadline misses."""
        return len(self.gap_windows)


class StreamSession:
    """One live keyword-spotting stream inside a session manager.

    Created via :meth:`StreamSessionManager.open`; audio arrives through
    :meth:`feed` (any chunk sizes), analysis windows are cut as soon as
    enough samples exist, and the manager ships them to the backend.
    Resolved posteriors accumulate in window order and are read back with
    :meth:`posteriors` / :meth:`detect`.  ``extractor`` is the
    :class:`~repro.audio.mfcc.MFCC` the session's featurizer runs through:
    its manager passes the one it shares, and a session built without one
    makes its own.
    """

    def __init__(
        self,
        session_id: str,
        config: StreamingConfig,
        feature_mean: Optional[np.ndarray],
        feature_std: Optional[np.ndarray],
        total_windows: Optional[int] = None,
        *,
        extractor: Optional[MFCC] = None,
    ) -> None:
        if extractor is None:
            extractor = MFCC(config.mfcc)
        elif extractor.config != config.mfcc:
            raise ConfigError("the extractor's MFCC config is not the session's")
        self.session_id = session_id
        self.config = config
        self.closed = False
        self.stats = SessionStats()
        #: featurizes this stream's windows, reusing shared frames' power rows
        self.featurizer = extractor.stream(config.window_samples, config.hop_samples)
        self._smoother = PosteriorSmoother(config.smoothing_windows, total_windows=total_windows)
        self._feature_mean = feature_mean
        self._feature_std = feature_std
        self._buffer = np.empty(0, dtype=np.float64)
        self._buffer_start = 0  # absolute sample index of _buffer[0]
        self._features_only = False
        self._raw_audio = False
        self._emitted = 0  # windows featurized so far
        #: featurized windows awaiting submission:
        #: (window index, features, monotonic time the window became ready)
        self.ready: Deque[Tuple[int, np.ndarray, float]] = deque()
        #: submitted windows awaiting results: (index, future, submit time)
        self.inflight: Deque[Tuple[int, "Future[np.ndarray]", float]] = deque()
        self._times: List[float] = []
        self._rows: List[np.ndarray] = []

    # -- audio ingest ----------------------------------------------------- #

    def feed(self, samples: np.ndarray) -> int:
        """Append audio; cut and featurize every newly complete window.

        Returns how many windows became ready.  Chunks may be any length —
        windowing follows the same ``hop``/``window`` arithmetic as
        ``StreamingDetector.posteriors`` over the concatenated stream.  The
        samples are copied, so the caller may reuse its buffer at once.
        """
        if self.closed:
            raise ConfigError(f"session {self.session_id} is closed")
        if self._features_only:
            raise ConfigError("session already ingests pre-featurized windows")
        self._raw_audio = True
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ConfigError("sessions consume 1-D waveforms")
        self._buffer = np.concatenate([self._buffer, samples])
        hop = self.config.hop_samples
        window = self.config.window_samples
        cut = 0
        while True:
            start = self._emitted * hop
            end = start + window
            if end > self._buffer_start + len(self._buffer):
                break
            frame = self._buffer[start - self._buffer_start : end - self._buffer_start]
            features = self.featurizer(frame)
            if self._feature_mean is not None:
                features = (features - self._feature_mean) / self._feature_std
            self.ready.append((self._emitted, features.astype(np.float32), time.monotonic()))
            self._emitted += 1
            self.stats.windows_featurized += 1
            cut += 1
            # drop samples no later window can reach; a hop longer than the
            # window can reach past the buffer, whose start then stays the
            # next sample to arrive
            drop = min(self._emitted * hop - self._buffer_start, len(self._buffer))
            if drop > 0:
                self._buffer = self._buffer[drop:]
                self._buffer_start += drop
        return cut

    def feed_features(self, features) -> int:
        """Enqueue pre-featurized analysis windows, bypassing the extractor.

        Constrained IoT clients often ship MFCC features instead of raw
        audio; such windows enter the same ready queue and burst path.  A
        session ingests either raw audio or features, never both — the
        windowing arithmetic has no meaning across the two.  Each window is
        copied, so the caller may reuse its buffer at once.
        """
        if self.closed:
            raise ConfigError(f"session {self.session_id} is closed")
        if self._raw_audio:
            raise ConfigError("session already ingests raw audio")
        self._features_only = True
        count = 0
        for window in features:
            self.ready.append(
                (self._emitted, np.array(window, dtype=np.float32), time.monotonic())
            )
            self._emitted += 1
            self.stats.windows_featurized += 1
            count += 1
        return count

    def close(self) -> None:
        """End of stream: the sub-window tail and the featurizer's kept
        power rows are discarded (as in batch)."""
        self.closed = True
        self._buffer = np.empty(0, dtype=np.float64)
        self.featurizer.close()

    @property
    def done(self) -> bool:
        """Closed with no window waiting to be submitted or resolved."""
        return self.closed and not self.ready and not self.inflight

    # -- results ---------------------------------------------------------- #

    def _resolve(self, index: int, logits: np.ndarray) -> None:
        """Fold one resolved window into the smoothed posterior timeline."""
        row = np.asarray(logits)
        shifted = row - row.max(axis=-1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        cfg = self.config
        self._times.append((index * cfg.hop_samples + cfg.window_samples / 2) / cfg.sample_rate)
        self._rows.append(self._smoother.push(probs))
        self.stats.windows_served += 1

    def posteriors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Smoothed posteriors resolved so far: ``(times, probs)``.

        Same shapes and — for gap-free sessions — the same bits as
        ``StreamingDetector.posteriors`` on the same waveform.
        """
        if not self._rows:
            return np.empty(0), np.empty((0, 0))
        return np.asarray(self._times), np.stack(self._rows)

    def detect(self) -> List[DetectionEvent]:
        """Threshold the resolved posteriors into detection events."""
        times, probs = self.posteriors()
        return detect_events(times, probs, self.config)


@dataclass
class ManagerStats:
    """Aggregate counters across every session the manager has opened.

    ``frames_computed`` and ``frames_reused`` count MFCC frames whose power
    spectrum a featurizer computed or took from an earlier window;
    ``feature_state_bytes`` is the power rows open sessions hold for their
    next windows (0 once every session is closed).
    """

    sessions: int = 0
    sessions_done: int = 0
    windows_featurized: int = 0
    frames_computed: int = 0
    frames_reused: int = 0
    feature_state_bytes: int = 0
    windows_submitted: int = 0
    windows_served: int = 0
    windows_failed: int = 0
    deadline_misses: int = 0
    gaps: int = 0
    bursts: int = 0
    bursts_shed: int = 0


class StreamSessionManager:
    """N concurrent KWS sessions multiplexed onto one serving backend.

    Exactly one backend is wired at construction:

    * ``cluster=`` — a :class:`~repro.serving.cluster.ClusterRouter`; ready
      windows from *all* sessions are coalesced into ``submit_many`` bursts
      (one control frame each) with ``model``/``version``/``priority``/
      ``deadline_s`` flowing through the normal admission path.  A shed
      burst (:class:`~repro.errors.AdmissionError`) is returned to the
      sessions' ready queues and retried on the next pump;
    * ``engine=`` — a :class:`~repro.serving.batching.BatchingEngine` for
      single-process use; windows coalesce into its micro-batches;
    * ``frontend=`` — an :class:`~repro.serving.frontend.AsyncServingFrontend`;
      the manager submits through whichever cluster or engine it fronts.

    Call :meth:`pump` whenever sessions have been fed (ships ready windows),
    :meth:`collect` to fold finished results into the sessions, and
    :meth:`drain` to run both to completion.
    """

    def __init__(
        self,
        cluster=None,
        *,
        engine=None,
        frontend=None,
        config: Optional[StreamingConfig] = None,
        feature_mean: Optional[np.ndarray] = None,
        feature_std: Optional[np.ndarray] = None,
        model: Optional[str] = None,
        version: Optional[str] = None,
        priority: Optional[Priority] = None,
        deadline_s: Optional[float] = None,
        max_burst: int = 64,
    ) -> None:
        wired = sum(backend is not None for backend in (cluster, engine, frontend))
        if wired != 1:
            raise ConfigError(
                "StreamSessionManager needs exactly one backend: cluster, engine or frontend"
            )
        if frontend is not None:
            cluster, engine = frontend.cluster, frontend.engine
        if cluster is None and (model is not None or version is not None or priority is not None):
            raise ConfigError("model/version/priority need a cluster backend")
        if max_burst < 1:
            raise ConfigError("max_burst must be >= 1")
        self.cluster = cluster
        self.engine = engine
        self.config = config or StreamingConfig()
        self.feature_mean = feature_mean
        self.feature_std = feature_std
        self.model = model
        self.version = version
        self.priority = Priority.NORMAL if priority is None else priority
        self.deadline_s = deadline_s
        self.max_burst = max_burst
        self.stats = ManagerStats()
        self._sessions: Dict[str, StreamSession] = {}
        self._next_id = 0
        # latest manager wins the "streams" prefix on the process-wide
        # metrics plane; held weakly, so a dropped manager unmounts itself
        get_registry().register_source("streams", self.telemetry_tree)

    def telemetry_tree(self) -> Dict[str, object]:
        """The aggregate session counters as a plain metrics subtree."""
        stats = self.snapshot()
        return {
            "sessions": stats.sessions,
            "sessions_done": stats.sessions_done,
            "windows_featurized": stats.windows_featurized,
            "frames_computed": stats.frames_computed,
            "frames_reused": stats.frames_reused,
            "feature_state_bytes": stats.feature_state_bytes,
            "windows_submitted": stats.windows_submitted,
            "windows_served": stats.windows_served,
            "windows_failed": stats.windows_failed,
            "deadline_misses": stats.deadline_misses,
            "gap_windows": stats.gaps,
            "bursts": stats.bursts,
            "bursts_shed": stats.bursts_shed,
        }

    # -- session lifecycle ------------------------------------------------- #

    @functools.cached_property
    def _extractor(self) -> MFCC:
        """The one MFCC extractor every session featurizes through (``MFCC``
        keeps no per-call state), built at the first :meth:`open`."""
        return MFCC(self.config.mfcc)

    @property
    def sessions(self) -> List[StreamSession]:
        """Every session opened on this manager, in open order."""
        return list(self._sessions.values())

    def session(self, session_id: str) -> StreamSession:
        """Look up one session by id."""
        return self._sessions[session_id]

    def open(
        self, waveform: Optional[np.ndarray] = None, *, session_id: Optional[str] = None
    ) -> StreamSession:
        """Start a session; with ``waveform`` the whole stream is fed + closed.

        Passing the full waveform up front lets the smoother clamp its span
        to the stream length exactly like the batch path does for streams
        shorter than ``smoothing_windows`` windows; open-ended sessions
        (no waveform) smooth over the configured span from the start.
        """
        if session_id is None:
            session_id = f"s{self._next_id}"
            self._next_id += 1
        if session_id in self._sessions:
            raise ConfigError(f"session id {session_id!r} already open")
        total = None
        if waveform is not None:
            total = num_windows(self.config, len(np.asarray(waveform)))
        session = StreamSession(
            session_id,
            self.config,
            self.feature_mean,
            self.feature_std,
            total_windows=total,
            extractor=self._extractor,
        )
        self._sessions[session_id] = session
        self.stats.sessions += 1
        if waveform is not None:
            session.feed(waveform)
            session.close()
        return session

    # -- dispatch ----------------------------------------------------------- #

    def _gather(self) -> List[Tuple[StreamSession, int, np.ndarray, float]]:
        """Round-robin up to ``max_burst`` ready windows across sessions."""
        batch: List[Tuple[StreamSession, int, np.ndarray, float]] = []
        queue: Deque[StreamSession] = deque(s for s in self._sessions.values() if s.ready)
        while queue and len(batch) < self.max_burst:
            session = queue.popleft()
            index, features, ready_t = session.ready.popleft()
            batch.append((session, index, features, ready_t))
            if session.ready:
                queue.append(session)
        return batch

    def _submit(self, batch: List[Tuple[StreamSession, int, np.ndarray, float]]) -> bool:
        """Ship one gathered burst; False when admission shed it."""
        xs = [features for _, _, features, _ in batch]
        if self.cluster is not None:
            try:
                futures = self.cluster.submit_many(
                    xs,
                    model=self.model,
                    version=self.version,
                    priority=self.priority,
                    deadline_s=self.deadline_s,
                )
            except AdmissionError:
                # a shed window keeps its original ready timestamp, so the
                # retry's queue_s still covers the whole wait
                for session, index, features, ready_t in reversed(batch):
                    session.ready.appendleft((index, features, ready_t))
                self.stats.bursts_shed += 1
                return False
        else:
            futures = self.engine.submit_many(xs, deadline_s=self.deadline_s)
            if not self.engine.running:
                self.engine.flush()
        submitted = time.monotonic()
        for (session, index, _, ready_t), future in zip(batch, futures):
            session.inflight.append((index, future, submitted))
            session.stats.windows_submitted += 1
            session.stats.queue_s.append(submitted - ready_t)
            future.add_done_callback(
                lambda _f, t0=submitted, stats=session.stats: stats.latencies_s.append(
                    time.monotonic() - t0
                )
            )
        self.stats.windows_submitted += len(batch)
        self.stats.bursts += 1
        return True

    def pump(self) -> int:
        """Coalesce every ready window into backend bursts; returns count."""
        shipped = 0
        while True:
            batch = self._gather()
            if not batch:
                return shipped
            if not self._submit(batch):
                return shipped
            shipped += len(batch)

    def collect(self, wait: bool = False, timeout_s: float = 300.0) -> int:
        """Fold finished windows back into their sessions, in window order.

        ``wait=False`` takes only results that are already done;
        ``wait=True`` blocks until every in-flight window resolves.  Failed
        windows become session gaps (counted, never raised).  Returns how
        many windows were folded in (served + failed).
        """
        folded = 0
        for session in self._sessions.values():
            while session.inflight:
                index, future, _ = session.inflight[0]
                if not wait and not future.done():
                    break
                session.inflight.popleft()
                try:
                    logits = future.result(timeout=timeout_s)
                except DeadlineExceeded:
                    session.stats.deadline_misses += 1
                    session.stats.gap_windows.append(index)
                except Exception:
                    session.stats.windows_failed += 1
                    session.stats.gap_windows.append(index)
                else:
                    session._resolve(index, logits)
                folded += 1
        return folded

    def drain(self, timeout_s: float = 300.0) -> ManagerStats:
        """Pump + collect until every closed session is fully resolved."""
        deadline = time.monotonic() + timeout_s
        while True:
            self.pump()
            self.collect(wait=True, timeout_s=timeout_s)
            if all(s.done for s in self._sessions.values() if s.closed):
                pending = any(s.ready or s.inflight for s in self._sessions.values())
                if not pending:
                    return self.snapshot()
            if time.monotonic() > deadline:
                raise DeadlineExceeded(f"drain did not settle within {timeout_s}s")
            time.sleep(0.001)  # admission shed everything: let workers catch up

    # -- accounting --------------------------------------------------------- #

    def latencies_s(self) -> List[float]:
        """Window submit→resolve latencies pooled across sessions."""
        pooled: List[float] = []
        for session in self._sessions.values():
            pooled.extend(session.stats.latencies_s)
        return pooled

    def queue_s(self) -> List[float]:
        """Window featurize→submit waits pooled across sessions."""
        pooled: List[float] = []
        for session in self._sessions.values():
            pooled.extend(session.stats.queue_s)
        return pooled

    def snapshot(self) -> ManagerStats:
        """Aggregate the per-session counters into one ManagerStats."""
        stats = ManagerStats(
            sessions=self.stats.sessions,
            windows_submitted=self.stats.windows_submitted,
            bursts=self.stats.bursts,
            bursts_shed=self.stats.bursts_shed,
        )
        for session in self._sessions.values():
            stats.sessions_done += session.done
            stats.windows_featurized += session.stats.windows_featurized
            stats.frames_computed += session.featurizer.frames_computed
            stats.frames_reused += session.featurizer.frames_reused
            stats.feature_state_bytes += session.featurizer.state_bytes
            stats.windows_served += session.stats.windows_served
            stats.windows_failed += session.stats.windows_failed
            stats.deadline_misses += session.stats.deadline_misses
            stats.gaps += session.stats.gaps
        return stats
