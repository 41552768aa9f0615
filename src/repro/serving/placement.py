"""Placement subsystem: replica sets, placement policies, rolling deploys.

PR 3's :class:`~repro.serving.cluster.ClusterRouter` hard-coded *sticky*
placement — one model's decoded plan lives on exactly one worker — so a
single hot model caps at one process no matter how many workers exist: the
same single-resident-model ceiling PR 3 removed at the cluster level,
re-appearing per model.  This module extracts placement into its own layer:

* :class:`PlacementPolicy` decides **where** a ``(model, version)`` pair's
  decoded plans live and **which** replica serves each request.  Three
  built-ins (also reachable by name through :meth:`PlacementPolicy.create`):

  - :class:`StickyPolicy` — one replica, the PR 3 behaviour, still the
    default (plans are not duplicated needlessly);
  - :class:`ReplicatedPolicy` — N replicas with **power-of-two-choices**
    dispatch: sample two replicas, send to the less loaded one.  O(1) per
    request and within a constant factor of optimal load balance, which is
    why it is the classic serving-cluster dispatch rule;
  - :class:`LeastLoadedPolicy` — N replicas with a full load scan per
    dispatch: optimal balance at O(replicas) cost, useful at small N and as
    the oracle the power-of-two benchmark is judged against.

  All replicas decode the *same* image bytes, so predictions are bitwise
  identical under every policy — placement changes throughput, never math.

* :class:`ReplicaSet` is one placed ``(model, version)``: the worker ids
  hosting its plans plus per-replica dispatch/completion counters.  Load
  per replica is read live from the pool (in-flight requests, which counts
  both pipe queue depth and engine queue depth on that worker).

* :class:`PlacementTable` is the LRU-ordered ``key → ReplicaSet`` map the
  router used to embed: placements are touched on use and evicted
  least-recently-used when the cluster byte budget needs room, with an
  ``exclude`` set protecting in-progress deploys from eviction.

* :class:`DeployManager` performs **versioned rolling deploys**: register
  the new ``(name, version)`` image, warm its plans on every replica of the
  current version (retrying across worker crashes — a restarted worker
  replays its loads), atomically flip routing to the new version, drain the
  old version's in-flight requests, then unload the old plans.  No request
  is shed and nothing crashes on behalf of a deploy: traffic keeps flowing
  on the old version until the flip, and on the new one after it.

Model keys pair a registered name with a version as ``"name@version"`` —
the router resolves ``version=None`` to the current version at admission,
so a deploy's atomic flip is one dictionary write.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, DeployError

# the "name@version" key grammar now lives in the shared versioned catalog
# (repro.serving.catalog); re-exported here for the pre-catalog import paths
from repro.serving.catalog import (  # noqa: F401  (re-exports)
    DEFAULT_VERSION,
    KEY_SEPARATOR,
    make_key,
    split_key,
    validate_identifier,
)


#: load probe: worker id -> in-flight request count (pipe + engine queues)
LoadFn = Callable[[int], int]


@dataclass(frozen=True)
class ReplicaStats:
    """One replica's slice of a :class:`ReplicaSet` (snapshot, not live)."""

    worker_id: int
    dispatched: int
    completed: int


class ReplicaSet:
    """One placed ``(model, version)``: its replica workers and their load.

    ``workers`` is the ordered list of worker ids hosting this key's decoded
    plans.  Dispatch bookkeeping is per replica: ``dispatched`` counts
    requests routed to each replica, ``completed`` those that resolved
    successfully.  The *live* load used for dispatch decisions comes from
    the pool's in-flight counter (which includes the worker's pipe and
    engine queue depth), not from these counters — the pool sees the
    worker's whole load across models, the counters only this key's share.

    Mutated only under the router lock (placement decisions are serialized
    there), so the counters need no lock of their own.
    """

    def __init__(self, key: str, workers: Sequence[int], policy: "PlacementPolicy") -> None:
        if not workers:
            raise ConfigError(f"replica set for {key!r} needs at least one worker")
        self.key = key
        self.workers: List[int] = list(dict.fromkeys(workers))
        self.policy = policy
        self._dispatched: Dict[int, int] = {wid: 0 for wid in self.workers}
        self._completed: Dict[int, int] = {wid: 0 for wid in self.workers}

    def __len__(self) -> int:
        """Number of replicas in the set."""
        return len(self.workers)

    def pick(self, load: LoadFn, avoid: AbstractSet[int] = frozenset()) -> int:
        """Choose the replica for one request burst (delegates to the policy).

        ``avoid`` excludes workers from the choice — the resilience layer
        passes the replica a retried request just failed on plus any
        breaker-open workers, steering the re-dispatch to a *different*
        (bitwise-identical) replica.  Exclusion filters rather than
        delegates: the eligible workers are ranked least-loaded (ties by
        fewest dispatches from this set, then id), the same rule every
        built-in policy uses for restricted choices.  When exclusion would
        empty the set — every replica failed or is quarantined — the plain
        policy pick runs instead: a fully-broken set still receives probe
        traffic rather than failing fast forever.
        """
        if avoid:
            eligible = [wid for wid in self.workers if wid not in avoid]
            if len(eligible) == 1:
                return eligible[0]
            if eligible:
                return min(
                    eligible,
                    key=lambda wid: (load(wid), self.dispatched(wid), wid),
                )
        return self.policy.pick(self, load)

    def add_replica(self, worker_id: int) -> None:
        """Grow the set by one worker (idempotent), counters starting at zero.

        Called under the router lock by
        :meth:`~repro.serving.cluster.ClusterRouter.resize` — the caller is
        responsible for loading the key's plans on the new worker *before*
        dispatch can pick it (the pipe-order guarantee makes load-then-add
        under the router lock sufficient).
        """
        if worker_id not in self._dispatched:
            self.workers.append(worker_id)
            self._dispatched[worker_id] = 0
            self._completed[worker_id] = 0

    def remove_replica(self, worker_id: int) -> None:
        """Shrink the set by one worker; the last replica cannot be removed.

        The removed replica's counters are dropped with it; completions of
        its still-in-flight requests are recorded harmlessly (they no longer
        appear in :meth:`snapshot`, which iterates the live workers).
        """
        if worker_id not in self._dispatched:
            raise ConfigError(
                f"worker {worker_id} is not a replica of {self.key!r}"
            )
        if len(self.workers) == 1:
            raise ConfigError(f"replica set for {self.key!r} needs at least one worker")
        self.workers.remove(worker_id)
        self._dispatched.pop(worker_id, None)
        self._completed.pop(worker_id, None)

    def record_dispatch(self, worker_id: int, n: int = 1) -> None:
        """Count ``n`` requests routed to one replica."""
        self._dispatched[worker_id] = self._dispatched.get(worker_id, 0) + n

    def record_completion(self, worker_id: int, n: int = 1) -> None:
        """Count ``n`` requests successfully served by one replica."""
        self._completed[worker_id] = self._completed.get(worker_id, 0) + n

    def dispatched(self, worker_id: int) -> int:
        """Requests routed to one replica so far."""
        return self._dispatched.get(worker_id, 0)

    def snapshot(self) -> Tuple[ReplicaStats, ...]:
        """Per-replica counters as immutable stats rows."""
        return tuple(
            ReplicaStats(
                worker_id=wid,
                dispatched=self._dispatched.get(wid, 0),
                completed=self._completed.get(wid, 0),
            )
            for wid in self.workers
        )


class PlacementPolicy:
    """Base policy: maps a ``(model, version)`` key to a replica set and
    picks the serving replica per request.

    ``replicas`` is how many workers the policy spreads one key across
    (capped at the pool size when a set is planned).  :meth:`plan` chooses
    *which* workers host the plans; :meth:`pick` chooses the replica for
    one request.  The base implementation is the sticky/least-loaded
    *placement* rule shared by every built-in: fill the workers with the
    fewest in-flight requests first (ties broken by fewest resident plans,
    then id) — subclasses specialise the per-request dispatch.
    """

    #: how many workers one key's plans are spread across
    replicas: int = 1

    #: registry of named policies for :meth:`create`
    _NAMED: Dict[str, Callable[[], "PlacementPolicy"]] = {}

    def __init_subclass__(cls, *, spec: Optional[str] = None, **kwargs) -> None:
        """Register subclasses declared with a ``spec=`` name for lookup."""
        super().__init_subclass__(**kwargs)
        if spec is not None:
            PlacementPolicy._NAMED[spec] = cls

    @staticmethod
    def create(spec: Union[str, "PlacementPolicy", None]) -> "PlacementPolicy":
        """Resolve a policy argument: an instance passes through, a name
        (``"sticky"``, ``"replicated"``, ``"least-loaded"``) constructs the
        matching built-in with defaults, ``None`` means sticky."""
        if spec is None:
            return StickyPolicy()
        if isinstance(spec, PlacementPolicy):
            return spec
        factory = PlacementPolicy._NAMED.get(spec)
        if factory is None:
            known = ", ".join(sorted(PlacementPolicy._NAMED))
            raise ConfigError(f"unknown placement policy {spec!r}; known: {known}")
        return factory()

    def equivalent(self, other: Optional["PlacementPolicy"]) -> bool:
        """True when ``other`` places and dispatches identically.

        Policies are stateless apart from their replica target (the
        dispatch RNG seed never affects results — replicas hold identical
        plans), so same class + same replica count means interchangeable.
        The router uses this to tell a *changed* placement override (which
        must re-place existing replica sets) from a re-registration with
        the same policy spec (which must not disturb placements).
        """
        return (
            other is not None
            and type(other) is type(self)
            and other.replicas == self.replicas
        )

    def plan(
        self,
        worker_ids: Sequence[int],
        load: LoadFn,
        resident_count: Mapping[int, int],
    ) -> List[int]:
        """Choose which workers host a new replica set (least-loaded first).

        Returns ``min(self.replicas, len(worker_ids))`` distinct worker ids
        ranked by ``(in-flight load, resident plan count, id)`` — the same
        rule PR 3 used for single placements, generalised to N.
        """
        ranked = sorted(
            worker_ids, key=lambda wid: (load(wid), resident_count.get(wid, 0), wid)
        )
        return ranked[: max(1, min(self.replicas, len(ranked)))]

    def pick(self, replica_set: ReplicaSet, load: LoadFn) -> int:
        """Choose the replica serving one request (subclass responsibility)."""
        raise NotImplementedError


class StickyPolicy(PlacementPolicy, spec="sticky"):
    """One replica per key — the PR 3 behaviour and the default.

    A model's decoded plan lives on exactly one worker, so plans are never
    duplicated; the cost is that one hot model caps at one process.
    """

    replicas = 1

    def pick(self, replica_set: ReplicaSet, load: LoadFn) -> int:
        """The single replica — or, when an autoscaler grew the set past its
        one-replica target, the least-loaded replica: sticky describes the
        *placement* target, and a grown set must still spread dispatch or
        the extra replicas would never serve a request."""
        workers = replica_set.workers
        if len(workers) == 1:
            return workers[0]
        return min(
            workers, key=lambda wid: (load(wid), replica_set.dispatched(wid), wid)
        )


class ReplicatedPolicy(PlacementPolicy, spec="replicated"):
    """N replicas with power-of-two-choices dispatch.

    Each request samples two distinct replicas and goes to the one with the
    lower live load (ties broken by fewer dispatches from this set, then
    id).  The RNG is seeded so a fixed submission order reproduces the same
    dispatch trace — results are bitwise identical under any trace anyway
    (all replicas hold the same plans), determinism just keeps benchmarks
    repeatable.
    """

    def __init__(self, replicas: int = 2, *, seed: int = 0x2C) -> None:
        if replicas < 1:
            raise ConfigError("replicas must be >= 1")
        self.replicas = replicas
        self._rng = random.Random(seed)

    def pick(self, replica_set: ReplicaSet, load: LoadFn) -> int:
        """Power of two choices: sample two replicas, take the less loaded."""
        workers = replica_set.workers
        if len(workers) == 1:
            return workers[0]
        a, b = self._rng.sample(workers, 2)
        return min(a, b, key=lambda wid: (load(wid), replica_set.dispatched(wid), wid))


class LeastLoadedPolicy(PlacementPolicy, spec="least-loaded"):
    """N replicas with a full least-loaded scan per dispatch.

    Optimal instantaneous balance at O(replicas) per request — the oracle
    :class:`ReplicatedPolicy` approximates with two samples.  Prefer it at
    small replica counts or when dispatch cost is negligible next to the
    model forward.
    """

    def __init__(self, replicas: int = 2) -> None:
        if replicas < 1:
            raise ConfigError("replicas must be >= 1")
        self.replicas = replicas

    def pick(self, replica_set: ReplicaSet, load: LoadFn) -> int:
        """The replica with the lowest live load (ties: fewest dispatches, id)."""
        return min(
            replica_set.workers,
            key=lambda wid: (load(wid), replica_set.dispatched(wid), wid),
        )


class PlacementTable:
    """LRU-ordered ``key → ReplicaSet`` map — the router's placement state.

    This is the map :class:`~repro.serving.cluster.ClusterRouter` used to
    embed as a plain ``OrderedDict[str, int]``; extracting it makes the LRU
    discipline and the replica-aware byte accounting testable on their own
    and keeps the router to admission + transport.  All methods are called
    under the router lock.
    """

    def __init__(self) -> None:
        self._sets: "OrderedDict[str, ReplicaSet]" = OrderedDict()

    def __contains__(self, key: str) -> bool:
        """True when ``key`` currently has a replica set."""
        return key in self._sets

    def __len__(self) -> int:
        """Number of placed keys."""
        return len(self._sets)

    def __iter__(self) -> Iterable[str]:
        """Iterate placed keys, least-recently-used first."""
        return iter(self._sets)

    def get(self, key: str) -> Optional[ReplicaSet]:
        """The replica set for ``key``, or ``None`` when unplaced."""
        return self._sets.get(key)

    def touch(self, key: str) -> None:
        """Mark ``key`` most-recently-used (called on every dispatch)."""
        self._sets.move_to_end(key)

    def insert(self, replica_set: ReplicaSet) -> None:
        """Add a replica set as the most-recently-used entry."""
        self._sets[replica_set.key] = replica_set

    def pop(self, key: str) -> Optional[ReplicaSet]:
        """Remove and return ``key``'s replica set (``None`` when unplaced)."""
        return self._sets.pop(key, None)

    def clear(self) -> None:
        """Drop every placement (cluster stopped; restart re-places lazily)."""
        self._sets.clear()

    def items(self) -> List[Tuple[str, ReplicaSet]]:
        """Placed ``(key, replica set)`` pairs, least-recently-used first."""
        return list(self._sets.items())

    def resident_bytes(self, size_of: Callable[[str], int]) -> int:
        """Decoded bytes across all placements: each replica holds a full
        copy of its key's plans, so a key costs ``size × replicas``."""
        return sum(
            size_of(key) * len(replica_set) for key, replica_set in self._sets.items()
        )


@dataclass(frozen=True)
class DeployReport:
    """Outcome of one completed rolling deploy (or rollback).

    ``drained`` counts the old version's requests that were still in flight
    at the routing flip and were served (never shed) before its plans were
    unloaded; ``warm_s``/``drain_s`` time the two waiting phases.

    Canary deploys (``deploy(..., canary=CanaryPolicy(...))``) additionally
    report the verdict: ``canary_outcome`` is ``"promoted"`` or
    ``"rolled_back"`` (``None`` for plain deploys), ``canary_reason`` names
    the SLO breach on a rollback, and ``canary_observed`` counts the canary
    requests the decision was based on.  A rolled-back canary is a *normal
    return*, not an exception: ``new_version`` names the rejected version
    while routing stays on ``old_version``.
    """

    name: str
    old_version: Optional[str]
    new_version: str
    replicas: Tuple[int, ...]
    drained: int
    warm_s: float
    drain_s: float
    canary_outcome: Optional[str] = None
    canary_reason: Optional[str] = None
    canary_observed: int = 0


class DeployManager:
    """Versioned rolling deploys over a :class:`~repro.serving.cluster.ClusterRouter`.

    A deploy swaps ``name`` from its current version to a new one without
    shedding a single request:

    1. **register** the new ``(name, version)`` image (inactive — routing
       still points at the old version);
    2. **warm** the new version's plans on every replica of the current
       version's set (or a fresh placement plan when the model was never
       placed), waiting until each worker acknowledges the decoded plan.
       A worker that crashes mid-warm-up is restarted by the pool and
       replays its loads, so warming simply retries until the plan appears
       or ``warm_timeout_s`` elapses — the old version keeps serving
       throughout;
    3. **flip** routing atomically: requests admitted after the flip
       resolve ``version=None`` to the new version;
    4. **drain** the old version: wait until its in-flight requests have
       all resolved (they were admitted, so they are served — never shed);
    5. **unload** the old version's plans from every replica, releasing its
       decoded bytes back to the cluster budget.  The old *image* stays
       registered so :meth:`rollback` can redeploy it.

    Deploys for the same manager are serialised (one at a time).  A
    warm-up failure aborts cleanly with routing still on the old version;
    a drain timeout surfaces *after* the atomic flip, so the new version
    is already current (and recorded for :meth:`rollback`) — in every
    case no key stays pinned against eviction once the deploy returns.
    """

    def __init__(
        self,
        router,
        *,
        warm_timeout_s: float = 60.0,
        drain_timeout_s: float = 120.0,
        poll_interval_s: float = 0.02,
    ) -> None:
        if warm_timeout_s <= 0 or drain_timeout_s <= 0:
            raise ConfigError("deploy timeouts must be positive")
        self.router = router
        self.warm_timeout_s = warm_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self.poll_interval_s = poll_interval_s
        self._lock = threading.Lock()
        self._history: Dict[str, List[str]] = {}

    # -- public API --------------------------------------------------------- #

    def deploy(
        self, name: str, image, version: str, *, canary: Optional[object] = None
    ) -> DeployReport:
        """Roll ``name`` from its current version to ``version`` (new image).

        Registers the image under ``(name, version)`` and performs the full
        warm → flip → drain → unload sequence.  Deploying a name the router
        has never seen is a **first-time deploy**: the version is
        registered, its plans are warmed, and it starts serving — there is
        no old version to drain (and ``canary`` is meaningless without an
        incumbent, so it is ignored).

        With ``canary=CanaryPolicy(...)`` the flip is *earned* instead of
        unconditional: after warming, a configurable fraction of
        ``version=None`` traffic is routed to the new version and its
        latency/error/shed stats are compared against the policy's SLOs
        over a decision window (:class:`~repro.serving.control.CanaryController`).
        A healthy canary auto-promotes (atomic flip + old-version unload,
        exactly like a plain deploy); an SLO breach auto-rolls-back —
        routing stays on the old version, the canary's plans are unloaded,
        and the report returns normally with ``canary_outcome ==
        "rolled_back"`` (the rejected image stays registered, staged and
        unplaced, for diagnosis or redeploy).  A canary that cannot reach a
        verdict within ``decision_timeout_s`` is rolled back and raises
        :class:`~repro.errors.DeployError` — an undecided canary must not
        promote by default.

        Raises :class:`~repro.errors.DeployError` if the target version is
        already current, warming times out, or the old version never
        drains.  A warm-up failure leaves the router serving the old
        version untouched; a drain timeout happens *after* the atomic flip
        (the new version is already current and recorded for
        :meth:`rollback`), with the old version's plans still loaded for
        its straggling pinned requests.
        """
        validate_identifier("version", version)
        with self._lock:
            current = self._current(name)
            if current is None:
                return self._first_deploy(name, image, version)
            if current == version:
                raise DeployError(f"model {name!r} is already serving version {version!r}")
            fresh = version not in self.router.versions(name)
            self.router.register(name, image, version=version, activate=False)
            try:
                if canary is not None:
                    return self._canary_roll(name, version, canary)
                return self._roll(name, version)
            except BaseException:
                # a failed deploy leaves no half-registered version — unless
                # routing already flipped (drain timeout), in which case the
                # new version is live and must stay
                if fresh and self.router.current_version(name) != version:
                    self.router.remove(name, version=version)
                raise

    def rollback(self, name: str) -> DeployReport:
        """Re-activate the previously deployed version of ``name``.

        The previous version's image is still registered (deploys never
        drop images), so a rollback is a rolling deploy in reverse: warm
        the old plans, flip, drain, unload.  Raises
        :class:`~repro.errors.DeployError` when no previous version is on
        record for this manager.
        """
        with self._lock:
            history = self._history.get(name, [])
            if len(history) < 2:
                raise DeployError(
                    f"no previous version of {name!r} on record to roll back to"
                )
            return self._roll(name, history[-2])

    def history(self, name: str) -> List[str]:
        """Activation order of ``name``'s versions, oldest first (a copy)."""
        with self._lock:
            return list(self._history.get(name, []))

    # -- internals ---------------------------------------------------------- #

    def _current(self, name: str) -> Optional[str]:
        """Current version of ``name`` (``None`` when unregistered), seeding
        the history so a pre-manager registration can be rolled back *from*."""
        try:
            current = self.router.current_version(name)
        except Exception:
            return None
        history = self._history.setdefault(name, [])
        if not history or history[-1] != current:
            history.append(current)
        return current

    def _first_deploy(self, name: str, image, version: str) -> DeployReport:
        """Register and warm a brand-new model name (no old version to swap)."""
        t0 = time.monotonic()
        self.router.register(name, image, version=version, activate=True)
        try:
            workers = self.router.warm(name, version)
            self._await_warm(name, version, workers)
        except BaseException:
            self.router.remove(name)
            raise
        finally:
            self.router.unpin(name)
        self._history[name] = [version]
        return DeployReport(
            name=name,
            old_version=None,
            new_version=version,
            replicas=tuple(workers),
            drained=0,
            warm_s=time.monotonic() - t0,
            drain_s=0.0,
        )

    def _roll(self, name: str, version: str) -> DeployReport:
        """Warm → flip → drain → unload (caller holds the manager lock)."""
        old = self._current(name)
        if old == version:
            raise DeployError(f"model {name!r} is already serving version {version!r}")
        t0 = time.monotonic()
        workers = self.router.warm(name, version)
        try:
            self._await_warm(name, version, workers)
        except BaseException:
            self.router.release_version(name, version)
            self.router.unpin(name)
            raise
        warm_s = time.monotonic() - t0
        self.router.set_current(name, version)
        # the flip happened: record the activation immediately so a drain
        # timeout below still leaves the new version rollback-able
        history = self._history.setdefault(name, [])
        if not history or history[-1] != version:
            history.append(version)
        t1 = time.monotonic()
        try:
            drained = self._await_drain(name, old)
        except BaseException:
            # routing stays flipped (documented); the old version's plans
            # stay loaded for its straggling pinned requests, but nothing
            # stays pinned against eviction
            self.router.unpin(name)
            raise
        if old is not None:
            self.router.release_version(name, old)
        self.router.unpin(name)
        return DeployReport(
            name=name,
            old_version=old,
            new_version=version,
            replicas=tuple(workers),
            drained=drained,
            warm_s=warm_s,
            drain_s=time.monotonic() - t1,
        )

    def _canary_roll(self, name: str, version: str, policy) -> DeployReport:
        """Warm → split → observe → promote-or-rollback (manager lock held).

        The decision loop polls a
        :class:`~repro.serving.control.CanaryController` (the same
        ``step()`` the background :class:`~repro.serving.control.ControlLoop`
        drives) until it reaches a terminal phase or the policy's
        ``decision_timeout_s`` elapses — in which case the canary is rolled
        back and :class:`~repro.errors.DeployError` raised: silence is not
        consent.
        """
        # late import: control builds *on* the deploy/cluster layers, so the
        # dependency must point this way only when a canary is actually used
        from repro.serving.control import CanaryController

        old = self._current(name)
        t0 = time.monotonic()
        workers = self.router.warm(name, version)
        try:
            self._await_warm(name, version, workers)
        except BaseException:
            self.router.release_version(name, version)
            self.router.unpin(name)
            raise
        warm_s = time.monotonic() - t0
        controller = CanaryController(self.router, name, version, policy)
        controller.begin()  # opens the traffic split
        deadline = time.monotonic() + policy.decision_timeout_s
        t1 = time.monotonic()
        try:
            while True:
                status = controller.step()
                if status.done:
                    break
                if time.monotonic() >= deadline:
                    status = controller.abort(
                        f"no canary verdict after {policy.decision_timeout_s:.1f} s "
                        f"({status.observed} of {policy.min_requests} decision "
                        f"requests observed)"
                    )
                    raise DeployError(str(status.reason))
                time.sleep(self.poll_interval_s)
        except DeployError:
            raise
        except BaseException:
            controller.abort("canary aborted by error")
            raise
        if status.phase == "promoted":
            history = self._history.setdefault(name, [])
            if not history or history[-1] != version:
                history.append(version)
        return DeployReport(
            name=name,
            old_version=old,
            new_version=version,
            replicas=tuple(workers),
            drained=controller.drained,
            warm_s=warm_s,
            drain_s=time.monotonic() - t1,
            canary_outcome=status.phase,
            canary_reason=status.reason,
            canary_observed=status.observed,
        )

    def _await_warm(self, name: str, version: str, workers: Sequence[int]) -> None:
        """Poll each target worker until it reports the new version's plan.

        The poll is the crash-retry loop: a worker that dies mid-warm-up
        answers no pings while the pool restarts it, then replays its
        recorded loads — including the warming version — so the plan shows
        up on the replacement without any action here.
        """
        key = make_key(name, version)
        deadline = time.monotonic() + self.warm_timeout_s
        for worker_id in workers:
            while True:
                pong = self.router.pool.ping(worker_id, timeout=self.poll_interval_s * 10)
                if pong is not None and key in pong[1]:
                    break
                if time.monotonic() >= deadline:
                    raise DeployError(
                        f"warming {key!r} on worker {worker_id} timed out after "
                        f"{self.warm_timeout_s:.1f} s"
                    )
                time.sleep(self.poll_interval_s)

    def _await_drain(self, name: str, old: Optional[str]) -> int:
        """Wait until the old version's admitted requests have all resolved.

        Returns how many were still in flight at the flip.  Admitted
        requests are *served*, never shed — drain is pure waiting.  A
        caller that keeps pinning ``version=old`` explicitly can stall the
        drain; ``drain_timeout_s`` turns that into a
        :class:`~repro.errors.DeployError` (with routing already flipped,
        matching what a half-finished drain means operationally).
        """
        if old is None:
            return 0
        at_flip = self.router.version_pending(name, old)
        deadline = time.monotonic() + self.drain_timeout_s
        while self.router.version_pending(name, old) > 0:
            if time.monotonic() >= deadline:
                raise DeployError(
                    f"draining {make_key(name, old)!r} timed out after "
                    f"{self.drain_timeout_s:.1f} s "
                    f"({self.router.version_pending(name, old)} still in flight)"
                )
            time.sleep(self.poll_interval_s)
        return at_flip
