"""Resilience policies: retries, circuit breakers, hedging, brownout.

The cluster (PR 4-8) detects faults — pipe-EOF crash detection, slab-lease
reclamation, transparent restart — but until now every detected fault
surfaced to the caller: a :class:`~repro.errors.WorkerCrashed` failed the
request even though bitwise-identical replicas were sitting idle, and a
worker with a poisoned model image re-decoded it in a hot restart loop.
This module is the *policy* layer that turns detected faults into retries,
quarantines and graceful degradation:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic seeded jitter, guarded by a :class:`RetryBudget` that caps
  the retried fraction of traffic (a crash storm must not amplify itself
  into a retry storm).  Applied inside
  :meth:`~repro.serving.cluster.ClusterRouter.submit_many` for retryable
  failures (:class:`~repro.errors.WorkerCrashed`,
  :class:`~repro.errors.TransportError`); the re-dispatch is steered to a
  *different* replica — safe because replicas are bitwise identical (the
  deterministic bit-plane execution the paper stack is built on).
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-worker
  closed → open → half-open state machines that quarantine flapping
  workers out of replica choice until a probe succeeds.
* :class:`RestartBackoffPolicy` — capped exponential delay between a
  worker's crash and its respawn, so a crash-looping worker stops burning
  re-decode CPU (the pool applies it in its crash path).
* :class:`HedgePolicy` — optional tail-latency hedging for HIGH-priority
  single requests: a duplicate dispatch to another replica after a
  p99-derived delay, first result wins, the loser is cancelled and never
  double-counted in router stats.
* :class:`ResilientRequest` — the router's per-request object that runs
  both policies: it owns the caller's future and sends its retry and hedge
  legs through the router's single dispatch path.
* :class:`BrownoutController` — auto-sheds LOW traffic while a sustained
  p99 / error-rate breach is read from the telemetry snapshot, and lifts
  the brownout after sustained recovery.

Every knob is deterministic given its seed and inputs: backoff schedules
are reproducible (property-tested), breakers take an injectable clock, and
the brownout controller is a pure function of the telemetry tree it reads
— the same replayability discipline as :mod:`repro.serving.chaos`.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError, RoutingError, TransportError, WorkerCrashed
from repro.utils.rng import new_rng

__all__ = [
    "RetryPolicy",
    "RetryBudget",
    "BreakerPolicy",
    "CircuitBreaker",
    "BreakerBoard",
    "RestartBackoffPolicy",
    "HedgePolicy",
    "BrownoutPolicy",
    "BrownoutController",
    "BrownoutStatus",
    "ResilienceStats",
]

#: exception types a retry may safely re-dispatch: the request never
#: produced observable side effects (inference is pure and the worker died
#: or the transport failed before a result was recorded)
RETRYABLE = (WorkerCrashed, TransportError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_attempts`` counts the first dispatch: ``3`` means up to two
    retries.  Retry *i* (1-based) waits
    ``min(base_backoff_s * multiplier**(i-1), max_backoff_s)`` scaled by a
    jitter factor drawn uniformly from ``[1-jitter, 1+jitter]``.  The
    jitter stream is seeded per ``(seed, token, attempt)`` — the router
    assigns each request a token — so a fixed seed reproduces the exact
    backoff schedule across runs (property-tested), while distinct
    requests still de-synchronise their retries.

    ``budget_fraction``/``budget_burst`` parameterise the
    :class:`RetryBudget` the router builds from this policy: retries are
    globally capped at ``fraction`` of first-attempt traffic plus a fixed
    ``burst`` allowance, so a correlated failure cannot double the offered
    load.  A budget-denied retry fails with the original error.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.01
    multiplier: float = 2.0
    max_backoff_s: float = 1.0
    jitter: float = 0.1
    seed: int = 0
    budget_fraction: float = 0.2
    budget_burst: int = 32

    def __post_init__(self) -> None:
        """Validate attempt bounds, backoff shape and budget parameters."""
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_backoff_s < 0:
            raise ConfigError("base_backoff_s must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigError("multiplier must be >= 1")
        if self.max_backoff_s < self.base_backoff_s:
            raise ConfigError("max_backoff_s must be >= base_backoff_s")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError("jitter must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0 (it feeds a SeedSequence)")
        if self.budget_fraction < 0:
            raise ConfigError("budget_fraction must be >= 0")
        if self.budget_burst < 0:
            raise ConfigError("budget_burst must be >= 0")

    @staticmethod
    def retryable(exc: BaseException) -> bool:
        """True for failures a re-dispatch can heal (crash / transport)."""
        return isinstance(exc, RETRYABLE)

    def backoff_s(self, token: int, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based) of request ``token``.

        Deterministic: the jitter factor comes from a fresh RNG seeded
        with ``[seed, token, attempt]``, so the schedule depends only on
        those three integers, never on call order or wall clock.
        """
        if attempt < 1:
            raise ConfigError("attempt is 1-based: the first retry is attempt 1")
        raw = min(
            self.base_backoff_s * self.multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        factor = float(
            new_rng([self.seed, int(token), int(attempt)]).uniform(
                1.0 - self.jitter, 1.0 + self.jitter
            )
        )
        return raw * factor

    def schedule(self, token: int) -> Tuple[float, ...]:
        """The full backoff schedule for one request token (len = retries)."""
        return tuple(
            self.backoff_s(token, attempt)
            for attempt in range(1, self.max_attempts)
        )

    def make_budget(self) -> "RetryBudget":
        """The global budget instance the router guards retries with."""
        return RetryBudget(self.budget_fraction, self.budget_burst)


class RetryBudget:
    """Global cap on retried traffic: ``fraction`` of requests plus ``burst``.

    ``note(n)`` records first-attempt traffic; ``try_spend(n)`` admits a
    retry only while lifetime retries stay within
    ``fraction * requests + burst``.  Thread-safe; counters are monotonic
    so the invariant is easy to audit from a snapshot.
    """

    def __init__(self, fraction: float = 0.2, burst: int = 32) -> None:
        if fraction < 0:
            raise ConfigError("fraction must be >= 0")
        if burst < 0:
            raise ConfigError("burst must be >= 0")
        self.fraction = float(fraction)
        self.burst = int(burst)
        self._lock = threading.Lock()
        self._requests = 0
        self._retries = 0
        self._denied = 0

    def note(self, n: int = 1) -> None:
        """Record ``n`` first-attempt requests (they grow the budget)."""
        with self._lock:
            self._requests += n

    def try_spend(self, n: int = 1) -> bool:
        """Reserve budget for ``n`` retries; False (and counted) when spent."""
        with self._lock:
            if self._retries + n <= self.fraction * self._requests + self.burst:
                self._retries += n
                return True
            self._denied += n
            return False

    def snapshot(self) -> Dict[str, float]:
        """Budget counters for the telemetry tree."""
        with self._lock:
            return {
                "fraction": self.fraction,
                "burst": self.burst,
                "requests": self._requests,
                "retries": self._retries,
                "denied": self._denied,
            }


@dataclass(frozen=True)
class BreakerPolicy:
    """Thresholds for one :class:`CircuitBreaker`.

    ``failure_threshold`` consecutive failures open the breaker;
    ``reset_timeout_s`` later it admits a single half-open probe whose
    outcome closes it again (success) or re-opens it for another timeout
    (failure).
    """

    failure_threshold: int = 5
    reset_timeout_s: float = 1.0

    def __post_init__(self) -> None:
        """Validate the failure threshold and probe timeout."""
        if self.failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if self.reset_timeout_s <= 0:
            raise ConfigError("reset_timeout_s must be > 0")


class CircuitBreaker:
    """Closed → open → half-open failure quarantine for one worker.

    ``closed``: all traffic admitted, consecutive failures counted.
    ``open``: no traffic; after ``reset_timeout_s`` the next
    :meth:`admits` check reports half-open.  ``half_open``: exactly one
    probe dispatch is admitted (:meth:`note_dispatch` consumes it); its
    recorded outcome closes or re-opens the breaker.  The clock is
    injectable so the full state walk is testable without sleeping.
    """

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0  # consecutive, while closed
        self._opened_at: Optional[float] = None
        self._probing = False  # a half-open probe is in flight
        self._opens = 0

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._probing:
            return "half_open"
        if self._clock() - self._opened_at >= self.policy.reset_timeout_s:
            return "half_open"
        return "open"

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (time-dependent)."""
        with self._lock:
            return self._state_locked()

    def admits(self) -> bool:
        """True when a dispatch to this worker is currently allowed.

        Non-consuming: callers may probe several breakers while choosing a
        replica; only the chosen worker's :meth:`note_dispatch` consumes
        the half-open probe slot.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "half_open":
                return not self._probing
            return False

    def note_dispatch(self) -> None:
        """Record that a dispatch was actually sent to this worker.

        In half-open state this consumes the single probe slot so the
        breaker admits no further traffic until the probe's outcome is
        recorded.
        """
        with self._lock:
            if self._opened_at is not None and self._state_locked() == "half_open":
                self._probing = True

    def record_success(self) -> None:
        """A request on this worker resolved: close (and reset) the breaker."""
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        """A request on this worker failed: count it, maybe (re-)open."""
        with self._lock:
            if self._opened_at is not None:
                # open or probing half-open: any failure re-arms the timeout
                self._opened_at = self._clock()
                self._probing = False
                return
            self._failures += 1
            if self._failures >= self.policy.failure_threshold:
                self._opened_at = self._clock()
                self._probing = False
                self._opens += 1

    def snapshot(self) -> Dict[str, object]:
        """State + counters for the telemetry tree (``open`` is 0/1-able)."""
        with self._lock:
            state = self._state_locked()
            return {
                "state": state,
                "open": int(state != "closed"),
                "consecutive_failures": self._failures,
                "opens": self._opens,
            }


class BreakerBoard:
    """One :class:`CircuitBreaker` per worker id, created lazily.

    The router consults the board when choosing a replica (open breakers
    are excluded from the candidate set, degrading to the plain pick when
    *every* replica is quarantined — a fully-broken set still gets its
    probe traffic rather than failing fast forever) and feeds it every
    completion outcome.
    """

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[int, CircuitBreaker] = {}

    def for_worker(self, worker_id: int) -> CircuitBreaker:
        """The breaker guarding one worker (created on first use)."""
        with self._lock:
            breaker = self._breakers.get(worker_id)
            if breaker is None:
                breaker = CircuitBreaker(self.policy, clock=self._clock)
                self._breakers[worker_id] = breaker
            return breaker

    def admits(self, worker_id: int) -> bool:
        """True when the worker's breaker currently admits traffic."""
        with self._lock:
            breaker = self._breakers.get(worker_id)
        return breaker is None or breaker.admits()

    def note_dispatch(self, worker_id: int) -> None:
        """Consume the half-open probe slot of the chosen worker, if any."""
        with self._lock:
            breaker = self._breakers.get(worker_id)
        if breaker is not None:
            breaker.note_dispatch()

    def record(self, worker_id: int, ok: bool) -> None:
        """Feed one completion outcome into the worker's breaker."""
        breaker = self.for_worker(worker_id)
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-worker breaker state for the telemetry tree."""
        with self._lock:
            breakers = dict(self._breakers)
        return {str(wid): breaker.snapshot() for wid, breaker in sorted(breakers.items())}


@dataclass(frozen=True)
class RestartBackoffPolicy:
    """Capped exponential delay between a worker crash and its respawn.

    A crash after a life shorter than ``stable_after_s`` extends the
    worker's *crash streak*; a longer life resets it.  The first
    ``free_restarts`` crashes of a streak respawn immediately (a lone
    crash should recover at full speed), after which the delay grows
    ``base_s * multiplier**k`` capped at ``max_s`` — so a worker whose
    model image crashes every decode settles into one re-decode per
    ``max_s`` instead of a hot loop.  :meth:`WorkerPool.stop
    <repro.serving.cluster.WorkerPool.stop>` cancels any pending delay;
    shutdown is never held hostage by a backoff timer.
    """

    base_s: float = 0.05
    multiplier: float = 2.0
    max_s: float = 2.0
    stable_after_s: float = 5.0
    free_restarts: int = 1

    def __post_init__(self) -> None:
        """Validate delay shape and streak parameters."""
        if self.base_s < 0:
            raise ConfigError("base_s must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigError("multiplier must be >= 1")
        if self.max_s < self.base_s:
            raise ConfigError("max_s must be >= base_s")
        if self.stable_after_s < 0:
            raise ConfigError("stable_after_s must be >= 0")
        if self.free_restarts < 0:
            raise ConfigError("free_restarts must be >= 0")

    def delay_s(self, streak: int) -> float:
        """Respawn delay for the ``streak``-th consecutive short life (1-based)."""
        if streak <= self.free_restarts:
            return 0.0
        exponent = streak - self.free_restarts - 1
        return min(self.base_s * self.multiplier**exponent, self.max_s)


@dataclass(frozen=True)
class HedgePolicy:
    """Tail-latency hedging for HIGH-priority single requests.

    If the primary dispatch has not resolved after the hedge delay, a
    duplicate is dispatched to a *different* replica; the first result
    wins and the loser is cancelled.  The delay tracks the HIGH class's
    live p99 (``p99_factor`` × p99, clamped to
    ``[min_delay_s, max_delay_s]``), falling back to ``delay_s`` before
    any completions exist.  Only single-request HIGH submits hedge —
    hedging is a tail-latency tool for interactive traffic, and
    duplicating whole bursts would double worst-case load for no p99 win.
    Replicas are bitwise identical, so whichever dispatch wins returns the
    same bytes; the duplicate's stats are not double-counted by the
    router.
    """

    delay_s: float = 0.05
    p99_factor: float = 1.0
    min_delay_s: float = 0.002
    max_delay_s: float = 1.0

    def __post_init__(self) -> None:
        """Validate the delay bounds and p99 factor."""
        if self.delay_s <= 0:
            raise ConfigError("delay_s must be > 0")
        if self.p99_factor <= 0:
            raise ConfigError("p99_factor must be > 0")
        if not 0 < self.min_delay_s <= self.max_delay_s:
            raise ConfigError("need 0 < min_delay_s <= max_delay_s")

    def effective_delay_s(self, p99_s: float) -> float:
        """The hedge delay given the HIGH class's live p99 (NaN = no data)."""
        if math.isnan(p99_s):
            return min(max(self.delay_s, self.min_delay_s), self.max_delay_s)
        return min(max(p99_s * self.p99_factor, self.min_delay_s), self.max_delay_s)


#: how long :meth:`ResilientRequest.abort` waits for a cancelled timer's
#: thread; a cancelled timer exits at once unless its launch is already
#: running the caller's done-callbacks
_TIMER_JOIN_S = 5.0


class ResilientRequest:
    """One caller-visible request over its retried and hedged dispatch legs.

    Owns the caller's :attr:`future` and sends every further leg through
    ``dispatch(avoid=, record=) -> ([leg], key, worker_id)``, the router's
    one dispatch primitive bound to this request and pinned to its resolved
    version, so every leg returns the same bits.  With ``retry``, a
    retryable primary failure is re-sent after the seeded backoff of
    ``token``, off every replica a primary leg used, while attempts, the
    absolute ``deadline``, the global ``budget`` and ``running()`` allow.
    With ``hedge_delay_s``, a request no leg has won by then gets one
    unrecorded duplicate (``record=False``) off the same replicas; a hedge
    that cannot be dispatched is dropped.

    The first leg to succeed settles :attr:`future` and cancels the other
    legs and timers; with no leg left the caller sees the last leg's own
    error, and a refused re-dispatch chains the failure it retried as
    ``__cause__``.  The settle is decided once, under the request's lock:
    two legs can succeed at the same moment.  ``tally(name)`` counts one
    outcome under its :class:`ResilienceStats` field name.  A timer that
    fires once ``running()`` is false dispatches nothing, and
    :meth:`abort` settles a request its owner is shutting down.
    """

    def __init__(
        self,
        dispatch: Callable[..., Tuple[List[Future], str, int]],
        tally: Callable[[str], None],
        *,
        running: Callable[[], bool],
        deadline: Optional[float],
        retry: Optional[RetryPolicy] = None,
        budget: Optional[RetryBudget] = None,
        token: int = 0,
        hedge_delay_s: Optional[float] = None,
    ) -> None:
        #: the caller's future: resolved once, by the first leg to succeed
        self.future: Future = Future()
        self._dispatch = dispatch
        self._tally = tally
        self._running = running
        self._deadline = deadline
        self._retry = retry
        self._budget = budget
        self._token = token
        self._hedge_delay_s = hedge_delay_s
        self._lock = threading.Lock()
        self._settled = False
        self._attempt = 0  # retries launched so far
        self._live = 1  # legs that may still deliver: the primary chain, plus a hedge
        self._avoid: Set[int] = set()  # replicas a primary leg was sent to
        self._legs: List[Future] = []
        self._timers: List[threading.Timer] = []
        self._last_exc: Optional[BaseException] = None

    def start(self, leg: Future, worker_id: int) -> Future:
        """Adopt the first dispatch and arm the hedge; returns :attr:`future`."""
        self._adopt(leg, worker_id, hedge=False)
        if self._hedge_delay_s is not None:
            self._arm(self._hedge_delay_s, True)
        return self.future

    def _arm(self, delay_s: float, *launch_args) -> None:
        """Start a daemon timer for :meth:`_launch` unless the request settled."""
        timer = threading.Timer(delay_s, self._launch, args=launch_args)
        timer.daemon = True
        with self._lock:
            if self._settled:
                return
            self._timers.append(timer)
        timer.start()  # a settle in between cancelled it: it never fires

    def _adopt(self, leg: Future, worker_id: int, *, hedge: bool) -> None:
        """Follow one dispatched leg, or cancel it if another leg already won."""
        with self._lock:
            late = self._settled
            if not late:
                self._legs.append(leg)
                if not hedge:
                    self._avoid.add(worker_id)
        if late:
            leg.cancel()
            return
        leg.add_done_callback(functools.partial(self._leg_done, hedge))

    def _leg_done(self, hedge: bool, leg: Future) -> None:
        """A leg resolved: a success wins; a failure retries, waits or loses."""
        if leg.cancelled():
            return  # a loser, cancelled when another leg won
        exc = leg.exception()
        if exc is not None:
            self._lose(exc, retry=not hedge)
            return
        with self._lock:
            if self._settled:
                return
            self._settled = True
            losers = [*self._legs, *self._timers]
            if hedge:
                self._tally("hedges_won")
            elif self._attempt:
                self._tally("retries_succeeded")
        for loser in losers:
            loser.cancel()  # best effort: a leg that already resolved is dropped
        if self.future.set_running_or_notify_cancel():
            self.future.set_result(leg.result())

    def abort(self, exc: BaseException) -> None:
        """Fail the request with ``exc`` unless a leg already settled it,
        and stop its timers; returns once their threads have exited.

        The last leg failure, the one a pending retry was answering,
        becomes ``exc.__cause__``.
        """
        with self._lock:
            settle = not self._settled
            self._settled = True
            timers = list(self._timers)
            if settle:
                exc.__cause__ = self._last_exc
        for timer in timers:
            timer.cancel()
        current = threading.current_thread()
        for timer in timers:
            if timer is not current:
                timer.join(_TIMER_JOIN_S)
        if settle and self.future.set_running_or_notify_cancel():
            self.future.set_exception(exc)

    def _lose(self, exc: Optional[BaseException], *, retry: bool) -> None:
        """A leg failed, or a hedge could not go out (``exc`` None): schedule
        a retry, wait for the other leg, or fail the request."""
        delay = None
        with self._lock:
            if self._settled:
                return
            if exc is not None:
                self._last_exc = exc
            if retry:
                delay = self._retry_delay(exc)
            if delay is None:
                self._live -= 1
                if self._live > 0:
                    return  # the other leg may still win
                self._settled = True
                timers = list(self._timers)
                exc = self._last_exc
        if delay is not None:
            self._arm(delay, False, exc)
            return
        for timer in timers:
            timer.cancel()
        if self.future.set_running_or_notify_cancel():
            self.future.set_exception(exc)

    def _retry_delay(self, exc: BaseException) -> Optional[float]:
        """Backoff before the next retry, or ``None`` to give up (under lock).

        Gives up when there is no retry policy, the error is not
        retryable, the pool stopped, attempts are exhausted, the backoff
        would overrun the deadline, or the global budget denies the spend.
        """
        policy = self._retry
        if policy is None or not policy.retryable(exc) or not self._running():
            return None
        attempt = self._attempt + 1  # 1-based index of the retry to schedule
        if attempt >= policy.max_attempts:
            self._tally("retries_exhausted")
            return None
        delay = policy.backoff_s(self._token, attempt)
        if self._deadline is not None and time.monotonic() + delay >= self._deadline:
            return None  # the retry could never beat the deadline
        if not self._budget.try_spend(1):
            self._tally("retries_budget_denied")
            return None
        self._attempt = attempt
        self._tally("retries_attempted")
        return delay

    def _launch(self, hedge: bool, prior: Optional[BaseException] = None) -> None:
        """A timer fired with no winner yet: send the unrecorded hedge leg,
        or the next primary leg after the ``prior`` failure."""
        with self._lock:
            if self._settled or self.future.cancelled():
                return
            if hedge:
                # claim the leg before dispatching: a primary failure arriving
                # meanwhile must wait for it instead of failing the request
                self._live += 1
            avoid = frozenset(self._avoid)
        try:
            if not self._running():
                raise RoutingError("cluster stopped before the leg could be dispatched")
            (leg,), _, worker_id = self._dispatch(avoid=avoid, record=not hedge)
        except Exception as exc:  # admission, routing, a stopped pool
            exc.__cause__ = prior
            # a hedge is best effort: the request rides on its primary
            self._lose(None if hedge else exc, retry=False)
            return
        if hedge:
            self._tally("hedges")
        self._adopt(leg, worker_id, hedge=hedge)


@dataclass(frozen=True)
class BrownoutPolicy:
    """When to shed LOW traffic preemptively, and when to recover.

    A step *breaches* when the watched priority class's p99 exceeds
    ``max_p99_ms`` or the step-over-step error rate exceeds
    ``max_error_rate`` (``None`` disables a condition).  After
    ``breach_steps`` consecutive breaching steps the brownout engages —
    the router sheds every LOW request at admission — and after
    ``recover_steps`` consecutive healthy steps it lifts.  Both
    thresholds are in *steps* so the controller stays deterministic under
    test-driven stepping.
    """

    max_p99_ms: Optional[float] = None
    max_error_rate: Optional[float] = 0.5
    watch: str = "HIGH"
    breach_steps: int = 3
    recover_steps: int = 5

    def __post_init__(self) -> None:
        """Validate thresholds and step counts."""
        if self.max_p99_ms is not None and self.max_p99_ms <= 0:
            raise ConfigError("max_p99_ms must be > 0 (or None to disable)")
        if self.max_error_rate is not None and not 0 < self.max_error_rate <= 1:
            raise ConfigError("max_error_rate must be in (0, 1] (or None)")
        if self.max_p99_ms is None and self.max_error_rate is None:
            raise ConfigError("a brownout needs at least one breach condition")
        if self.breach_steps < 1:
            raise ConfigError("breach_steps must be >= 1")
        if self.recover_steps < 1:
            raise ConfigError("recover_steps must be >= 1")


@dataclass(frozen=True)
class BrownoutStatus:
    """One :meth:`BrownoutController.step` outcome (telemetry row)."""

    active: bool
    breach_streak: int
    recover_streak: int
    engaged_total: int
    last_p99_ms: float
    last_error_rate: float
    reason: Optional[str] = None


class BrownoutController:
    """Auto-shed LOW under sustained overload, read from telemetry.

    Each :meth:`step` reads the router's ``cluster`` telemetry namespace —
    the same tree operators export, so decisions replay from a snapshot —
    computes the watched class's p99 and the error rate over the counters
    since the previous step, and walks the breach/recover streaks of its
    :class:`BrownoutPolicy`.  Engaging calls
    :meth:`ClusterRouter.set_brownout
    <repro.serving.cluster.ClusterRouter.set_brownout>`, which sheds LOW
    at admission (counted separately from watermark sheds); recovery
    lifts it.  Deterministic given the sequence of snapshots: the
    :class:`~repro.serving.control.ControlLoop` drives it on its timer,
    tests call :meth:`step` directly.
    """

    def __init__(self, router, policy: Optional[BrownoutPolicy] = None) -> None:
        self.router = router
        self.policy = policy or BrownoutPolicy()
        self._breach_streak = 0
        self._recover_streak = 0
        self._engaged = 0
        self._last_served: Optional[int] = None
        self._last_errors: Optional[int] = None
        self._last = BrownoutStatus(
            active=False,
            breach_streak=0,
            recover_streak=0,
            engaged_total=0,
            last_p99_ms=float("nan"),
            last_error_rate=0.0,
        )

    def _signals(self, tree) -> Tuple[float, float]:
        """(watched p99_ms, error rate since last step) from the tree."""
        latency = tree.get("latency_by_priority", {})
        row = latency.get(self.policy.watch, {}) if isinstance(latency, dict) else {}
        p99 = float(row.get("p99_ms", float("nan"))) if isinstance(row, dict) else float("nan")
        served = int(tree.get("served", 0))
        errors_by_type = tree.get("errors_by_type", {})
        errors = (
            sum(int(n) for n in errors_by_type.values())
            if isinstance(errors_by_type, dict)
            else 0
        )
        if self._last_served is None:
            delta_served, delta_errors = served, errors
        else:
            delta_served = max(0, served - self._last_served)
            delta_errors = max(0, errors - self._last_errors)
        self._last_served, self._last_errors = served, errors
        total = delta_served + delta_errors
        rate = delta_errors / total if total else 0.0
        return p99, rate

    def step(self) -> BrownoutStatus:
        """One deterministic decision round; returns the new status."""
        policy = self.policy
        tree = self.router.telemetry.snapshot().get("cluster", {})
        if not isinstance(tree, dict):
            tree = {}
        p99, error_rate = self._signals(tree)
        reasons = []
        if (
            policy.max_p99_ms is not None
            and not math.isnan(p99)
            and p99 > policy.max_p99_ms
        ):
            reasons.append(f"{policy.watch} p99 {p99:.1f} ms > {policy.max_p99_ms} ms")
        if policy.max_error_rate is not None and error_rate > policy.max_error_rate:
            reasons.append(
                f"error rate {error_rate:.3f} > {policy.max_error_rate:.3f}"
            )
        active = self.router.brownout_active
        if reasons:
            self._breach_streak += 1
            self._recover_streak = 0
            if not active and self._breach_streak >= policy.breach_steps:
                self.router.set_brownout(True)
                self._engaged += 1
                active = True
        else:
            self._recover_streak += 1
            self._breach_streak = 0
            if active and self._recover_streak >= policy.recover_steps:
                self.router.set_brownout(False)
                active = False
        self._last = BrownoutStatus(
            active=active,
            breach_streak=self._breach_streak,
            recover_streak=self._recover_streak,
            engaged_total=self._engaged,
            last_p99_ms=p99,
            last_error_rate=error_rate,
            reason="; ".join(reasons) if reasons else None,
        )
        return self._last

    def snapshot(self) -> BrownoutStatus:
        """The most recent step's status (initial status before any step)."""
        return self._last


@dataclass(frozen=True)
class ResilienceStats:
    """Router-level resilience counters (one consistent snapshot).

    ``retries_*`` track the retry pipeline end to end: ``attempted``
    re-dispatches launched, ``succeeded`` wrapped requests that resolved
    on a retry attempt, ``exhausted`` requests that failed after their
    last attempt, ``budget_denied`` retries refused by the global
    :class:`RetryBudget`.  ``hedges``/``hedges_won`` count duplicate
    HIGH-priority dispatches and how many beat their primary.
    ``brownout_sheds`` counts LOW requests shed *by the brownout*
    specifically (watermark sheds are counted in ``shed_by_priority``).
    """

    retries_attempted: int = 0
    retries_succeeded: int = 0
    retries_exhausted: int = 0
    retries_budget_denied: int = 0
    hedges: int = 0
    hedges_won: int = 0
    brownout_active: bool = False
    brownout_sheds: int = 0
    retry_budget: Dict[str, float] = field(default_factory=dict)
    breakers: Dict[str, Dict[str, object]] = field(default_factory=dict)
    restart_backoffs: Dict[str, object] = field(default_factory=dict)

    def as_tree(self) -> Dict[str, object]:
        """Plain-dict mirror for the telemetry plane (JSON/Prometheus safe)."""

        def copy_tree(node):
            if isinstance(node, dict):
                return {key: copy_tree(value) for key, value in node.items()}
            return node

        return {
            "retries_attempted": self.retries_attempted,
            "retries_succeeded": self.retries_succeeded,
            "retries_exhausted": self.retries_exhausted,
            "retries_budget_denied": self.retries_budget_denied,
            "hedges": self.hedges,
            "hedges_won": self.hedges_won,
            "brownout_active": int(self.brownout_active),
            "brownout_sheds": self.brownout_sheds,
            "retry_budget": dict(self.retry_budget),
            "breakers": {wid: dict(row) for wid, row in self.breakers.items()},
            "restart_backoffs": copy_tree(self.restart_backoffs),
        }
