"""Resilience layer: retries, breakers, restart backoff, hedging, brownout.

Policy objects are tested exhaustively in-process (fake clocks, fake
routers, hypothesis over the seeded backoff schedule); a small set of
live-cluster tests then proves the wiring — a retried request is served
exactly once and bitwise-identical to a fault-free run, a crash-looping
worker is held by the restart backoff, and ``stop()`` is never delayed by
a pending backoff timer.  Worker processes cost ~1 s to spawn, so live
clusters are shared per class where the scenario allows.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image
from repro.errors import (
    AdmissionError,
    ConfigError,
    RoutingError,
    TransportError,
    WorkerCrashed,
)
from repro.serving import (
    BreakerBoard,
    BreakerPolicy,
    BrownoutController,
    BrownoutPolicy,
    CircuitBreaker,
    ClusterRouter,
    ControlLoop,
    HedgePolicy,
    PackedModel,
    Priority,
    PriorityPolicy,
    RestartBackoffPolicy,
    RetryBudget,
    RetryPolicy,
)
from repro.serving.resilience import ResilientRequest
from repro.serving.telemetry import to_prometheus


def frozen_image(width: int = 8, rng: int = 0):
    """A small frozen ST-Hybrid image (weights random, arithmetic real)."""
    model = STHybridNet(HybridConfig(width=width), rng=rng)
    freeze_all(model)
    model.eval()
    return build_image(model)


def wait_until(predicate, timeout_s: float = 20.0, interval_s: float = 0.05) -> bool:
    """Poll ``predicate`` until true or ``timeout_s`` elapses."""
    limit = time.monotonic() + timeout_s
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class FakeClock:
    """A manually advanced monotonic clock for breaker state walks."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# --------------------------------------------------------------------------- #
# retry policy + budget
# --------------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_backoff_s=-0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(base_backoff_s=0.5, max_backoff_s=0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(seed=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(budget_fraction=-0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(budget_burst=-1)

    def test_retryable_classification(self):
        assert RetryPolicy.retryable(WorkerCrashed("boom"))
        assert RetryPolicy.retryable(TransportError("pipe"))
        assert not RetryPolicy.retryable(AdmissionError("shed"))
        assert not RetryPolicy.retryable(ValueError("nope"))

    def test_backoff_without_jitter_is_exact_capped_exponential(self):
        policy = RetryPolicy(
            max_attempts=6, base_backoff_s=0.01, multiplier=2.0,
            max_backoff_s=0.05, jitter=0.0,
        )
        assert policy.schedule(token=7) == (0.01, 0.02, 0.04, 0.05, 0.05)

    def test_attempt_is_one_based(self):
        with pytest.raises(ConfigError):
            RetryPolicy().backoff_s(0, 0)

    @given(seed=st.integers(0, 2**31 - 1), token=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_seeded_schedule_is_reproducible_and_bounded(self, seed, token):
        """Same (seed, token) ⇒ identical schedule across policy instances;
        every delay stays inside the jittered envelope of its raw backoff."""
        make = lambda: RetryPolicy(
            max_attempts=5, base_backoff_s=0.01, multiplier=2.0,
            max_backoff_s=0.5, jitter=0.3, seed=seed,
        )
        first, second = make().schedule(token), make().schedule(token)
        assert first == second
        for attempt, delay in enumerate(first, start=1):
            raw = min(0.01 * 2.0 ** (attempt - 1), 0.5)
            assert raw * 0.7 <= delay <= raw * 1.3

    def test_distinct_tokens_desynchronise(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.3, seed=0)
        assert policy.schedule(0) != policy.schedule(1)

    def test_make_budget_inherits_parameters(self):
        budget = RetryPolicy(budget_fraction=0.5, budget_burst=3).make_budget()
        snap = budget.snapshot()
        assert snap["fraction"] == 0.5 and snap["burst"] == 3


class TestRetryBudget:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryBudget(fraction=-0.1)
        with pytest.raises(ConfigError):
            RetryBudget(burst=-1)

    def test_burst_then_denial(self):
        budget = RetryBudget(fraction=0.0, burst=2)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()
        snap = budget.snapshot()
        assert snap["retries"] == 2 and snap["denied"] == 1

    def test_traffic_grows_the_budget(self):
        budget = RetryBudget(fraction=0.5, burst=0)
        assert not budget.try_spend()
        budget.note(4)  # 0.5 * 4 = 2 retries now allowed
        assert budget.try_spend(2)
        assert not budget.try_spend()
        snap = budget.snapshot()
        assert snap["requests"] == 4 and snap["retries"] == 2 and snap["denied"] == 2


# --------------------------------------------------------------------------- #
# circuit breakers
# --------------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ConfigError):
            BreakerPolicy(reset_timeout_s=0.0)

    def test_full_state_walk_with_fake_clock(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=3, reset_timeout_s=1.0), clock=clock
        )
        # closed: failures accumulate, traffic admitted
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.admits()
        # threshold crossed: open, no traffic
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.admits()
        assert breaker.snapshot()["opens"] == 1
        # timeout elapses: half-open, exactly one probe
        clock.advance(1.0)
        assert breaker.state == "half_open" and breaker.admits()
        breaker.note_dispatch()
        assert not breaker.admits()  # probe slot consumed
        # failed probe re-arms the timeout
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.admits()
        # second probe succeeds: closed again, counters reset
        clock.advance(1.0)
        breaker.note_dispatch()
        breaker.record_success()
        snap = breaker.snapshot()
        assert snap["state"] == "closed" and snap["open"] == 0
        assert snap["consecutive_failures"] == 0
        assert breaker.admits()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2), clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"


class TestBreakerBoard:
    def test_unknown_worker_admits(self):
        board = BreakerBoard(BreakerPolicy(), clock=FakeClock())
        assert board.admits(42)

    def test_record_opens_and_snapshot_is_keyed_by_worker(self):
        board = BreakerBoard(
            BreakerPolicy(failure_threshold=2, reset_timeout_s=5.0), clock=FakeClock()
        )
        board.record(0, False)
        board.record(0, False)
        board.record(1, True)
        assert not board.admits(0) and board.admits(1)
        snap = board.snapshot()
        assert snap["0"]["state"] == "open" and snap["1"]["state"] == "closed"
        assert board.for_worker(0) is board.for_worker(0)


# --------------------------------------------------------------------------- #
# restart backoff / hedge policy shapes
# --------------------------------------------------------------------------- #


class TestRestartBackoffPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RestartBackoffPolicy(base_s=-1.0)
        with pytest.raises(ConfigError):
            RestartBackoffPolicy(multiplier=0.9)
        with pytest.raises(ConfigError):
            RestartBackoffPolicy(base_s=1.0, max_s=0.5)
        with pytest.raises(ConfigError):
            RestartBackoffPolicy(stable_after_s=-1.0)
        with pytest.raises(ConfigError):
            RestartBackoffPolicy(free_restarts=-1)

    def test_free_restarts_then_capped_exponential(self):
        policy = RestartBackoffPolicy(
            base_s=0.1, multiplier=2.0, max_s=0.5, free_restarts=2
        )
        assert policy.delay_s(1) == 0.0
        assert policy.delay_s(2) == 0.0
        assert policy.delay_s(3) == pytest.approx(0.1)
        assert policy.delay_s(4) == pytest.approx(0.2)
        assert policy.delay_s(5) == pytest.approx(0.4)
        assert policy.delay_s(6) == pytest.approx(0.5)  # capped
        assert policy.delay_s(60) == pytest.approx(0.5)


class TestHedgePolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            HedgePolicy(delay_s=0.0)
        with pytest.raises(ConfigError):
            HedgePolicy(p99_factor=0.0)
        with pytest.raises(ConfigError):
            HedgePolicy(min_delay_s=0.5, max_delay_s=0.1)

    def test_effective_delay_tracks_p99_with_clamps(self):
        policy = HedgePolicy(
            delay_s=0.05, p99_factor=2.0, min_delay_s=0.01, max_delay_s=0.1
        )
        assert policy.effective_delay_s(float("nan")) == 0.05  # no data yet
        assert policy.effective_delay_s(0.02) == pytest.approx(0.04)
        assert policy.effective_delay_s(0.001) == 0.01  # clamped low
        assert policy.effective_delay_s(10.0) == 0.1  # clamped high


class TestResilientRequest:
    def test_simultaneous_winners_settle_once(self):
        """Primary and hedge legs succeeding at the same instant, eight
        racing threads at a time on a shortened switch interval: every
        request settles exactly once, with the winner its tally names."""
        tallies: Counter = Counter()
        tally_lock = threading.Lock()

        def tally(name: str) -> None:
            with tally_lock:
                tallies[name] += 1

        def build():
            hedged = threading.Event()
            legs = []

            def dispatch(*, avoid, record):
                assert avoid == frozenset({0}) and not record  # the hedge leg
                legs.append(Future())
                hedged.set()
                return [legs[-1]], "m@v1", 1

            request = ResilientRequest(
                dispatch, tally, running=lambda: True, deadline=None, hedge_delay_s=0.0
            )
            primary = Future()
            return request, primary, legs, hedged, request.start(primary, 0)

        def resolve(leg: Future, value: str, barrier: threading.Barrier) -> None:
            barrier.wait()
            if leg.set_running_or_notify_cancel():  # as the pool's reader does
                leg.set_result(value)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                batch = [build() for _ in range(4)]
                barrier = threading.Barrier(8)
                threads = []
                for _, primary, legs, hedged, _ in batch:
                    assert hedged.wait(5.0)
                    for leg, value in ((primary, "primary"), (legs[0], "hedge")):
                        threads.append(
                            threading.Thread(target=resolve, args=(leg, value, barrier))
                        )
                before = tallies["hedges_won"]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(5.0)
                    assert not thread.is_alive()
                winners = [future.result(timeout=5.0) for *_, future in batch]
                assert tallies["hedges_won"] - before == winners.count("hedge")
        finally:
            sys.setswitchinterval(previous)
        assert tallies["hedges"] == 200
        assert set(tallies) <= {"hedges", "hedges_won"}

    def test_timer_after_stop_dispatches_nothing(self):
        """A retry timer firing once ``running()`` is false fails the request
        with RoutingError, chained to the failure it retried, and sends no
        leg; a hedge timer then is dropped and the primary still wins."""
        running = [True]
        dispatched = []

        def dispatch(*, avoid, record):
            dispatched.append(record)
            raise AssertionError("no leg may be dispatched after stop")

        retried = ResilientRequest(
            dispatch, lambda name: None, running=lambda: running[0], deadline=None,
            retry=RetryPolicy(base_backoff_s=0.05, max_backoff_s=0.05, jitter=0.0),
            budget=RetryBudget(),
        )
        primary = Future()
        future = retried.start(primary, 0)
        primary.set_exception(WorkerCrashed("worker 0 died"))  # arms the retry
        running[0] = False
        with pytest.raises(RoutingError) as caught:
            future.result(timeout=5.0)
        assert isinstance(caught.value.__cause__, WorkerCrashed)

        hedged = ResilientRequest(
            dispatch, lambda name: None, running=lambda: running[0], deadline=None,
            hedge_delay_s=0.0,
        )
        primary = Future()
        future = hedged.start(primary, 0)
        time.sleep(0.1)  # the hedge timer fires and finds the pool stopped
        primary.set_result("primary")
        assert future.result(timeout=5.0) == "primary"
        assert dispatched == []

    def test_abort_racing_a_winning_leg_settles_once(self):
        """``abort`` (a stopping router) and a primary leg succeeding at the
        same instant, eight racing threads at a time on a shortened switch
        interval: each request settles exactly once, with one of the two."""
        errors = []

        def race(action) -> None:
            barrier.wait()
            try:
                action()
            except BaseException as exc:  # surfaced below, not swallowed
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        outcomes = Counter()
        try:
            for _ in range(50):
                batch = []
                for _ in range(4):
                    request = ResilientRequest(
                        lambda **_: ([Future()], "m@v1", 1), lambda name: None,
                        running=lambda: True, deadline=None,
                    )
                    primary = Future()
                    batch.append((request, primary, request.start(primary, 0)))
                barrier = threading.Barrier(8)
                threads = []
                for request, primary, _ in batch:
                    resolve = functools.partial(
                        lambda leg: leg.set_running_or_notify_cancel() and leg.set_result("ok"),
                        primary,
                    )
                    abort = functools.partial(request.abort, RoutingError("stopped"))
                    threads += [threading.Thread(target=race, args=(f,)) for f in (resolve, abort)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(5.0)
                    assert not thread.is_alive()
                for _, _, future in batch:
                    assert future.done()
                    exc = future.exception(timeout=0)
                    assert exc is None or isinstance(exc, RoutingError)
                    outcomes["aborted" if exc else "served"] += 1
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert sum(outcomes.values()) == 200

    def test_abort_settles_once_and_joins_timers(self):
        request = ResilientRequest(
            lambda **_: ([Future()], "m@v1", 1), lambda name: None,
            running=lambda: True, deadline=None, hedge_delay_s=60.0,
        )
        primary = Future()
        future = request.start(primary, 0)
        (timer,) = request._timers
        request.abort(RoutingError("stopped"))
        assert not timer.is_alive()
        with pytest.raises(RoutingError):
            future.result(timeout=0)
        request.abort(RoutingError("again"))  # already settled: no-op
        assert str(future.exception()) == "stopped"


# --------------------------------------------------------------------------- #
# brownout controller (fake router: decisions replay from snapshots)
# --------------------------------------------------------------------------- #


class _FakeTelemetry:
    def __init__(self, router) -> None:
        self._router = router

    def snapshot(self):
        return {"cluster": self._router.tree}


class _FakeRouter:
    """Just enough router for a BrownoutController: a telemetry tree,
    the brownout flag, and ``set_brownout``."""

    def __init__(self) -> None:
        self.tree = {}
        self.brownout_active = False
        self.telemetry = _FakeTelemetry(self)

    def set_brownout(self, active: bool) -> None:
        self.brownout_active = bool(active)


def _tree(p99_ms: float, served: int, errors: int) -> dict:
    return {
        "latency_by_priority": {"HIGH": {"p99_ms": p99_ms}},
        "served": served,
        "errors_by_type": {"WorkerCrashed": errors},
    }


class TestBrownout:
    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            BrownoutPolicy(max_p99_ms=0.0)
        with pytest.raises(ConfigError):
            BrownoutPolicy(max_error_rate=0.0)
        with pytest.raises(ConfigError):
            BrownoutPolicy(max_p99_ms=None, max_error_rate=None)
        with pytest.raises(ConfigError):
            BrownoutPolicy(breach_steps=0)
        with pytest.raises(ConfigError):
            BrownoutPolicy(recover_steps=0)

    def test_p99_breach_engages_after_streak_and_recovers(self):
        router = _FakeRouter()
        controller = BrownoutController(
            router,
            BrownoutPolicy(
                max_p99_ms=50.0, max_error_rate=None, breach_steps=2, recover_steps=2
            ),
        )
        router.tree = _tree(p99_ms=120.0, served=10, errors=0)
        status = controller.step()
        assert not status.active and status.breach_streak == 1
        assert not router.brownout_active
        status = controller.step()  # second consecutive breach: engage
        assert status.active and router.brownout_active
        assert status.engaged_total == 1
        assert "p99" in status.reason
        router.tree = _tree(p99_ms=5.0, served=20, errors=0)
        status = controller.step()
        assert status.active and status.recover_streak == 1  # still engaged
        status = controller.step()  # second healthy step: lift
        assert not status.active and not router.brownout_active
        assert controller.snapshot() == status

    def test_error_rate_breach(self):
        router = _FakeRouter()
        controller = BrownoutController(
            router, BrownoutPolicy(max_error_rate=0.5, breach_steps=1)
        )
        router.tree = _tree(p99_ms=1.0, served=10, errors=0)
        assert not controller.step().active  # baseline step, healthy
        router.tree = _tree(p99_ms=1.0, served=10, errors=5)  # 5 new errors, 0 served
        status = controller.step()
        assert status.active and "error rate" in status.reason
        assert status.last_error_rate == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# live cluster: retries, breakers, hedging, brownout admission, telemetry
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def images():
    return {name: frozen_image(8, rng=i) for i, name in enumerate(["m", "h"])}


@pytest.fixture(scope="module")
def resilient_cluster(images):
    """Two workers, sticky placement, the full resilience stack enabled."""
    router = ClusterRouter(
        2,
        retry=RetryPolicy(max_attempts=4, base_backoff_s=0.2, jitter=0.0),
        breakers=BreakerPolicy(failure_threshold=3, reset_timeout_s=0.5),
        hedge=HedgePolicy(delay_s=0.05),
        restart_backoff=RestartBackoffPolicy(base_s=0.05, stable_after_s=0.5),
    )
    router.register("m", images["m"])
    router.register("h", images["h"], placement="replicated")
    with router:
        yield router


@pytest.fixture(scope="module")
def request_x():
    rng = np.random.default_rng(7)
    return rng.standard_normal((49, 10)).astype(np.float32)


class TestClusterRetries:
    def test_retry_kwargs_rejected_with_prebuilt_pool(self, images):
        from repro.serving import WorkerPool

        pool = WorkerPool(1)
        with pytest.raises(ConfigError):
            ClusterRouter(pool, restart_backoff=RestartBackoffPolicy())

    def test_crashed_requests_retry_once_each_and_stay_bitwise(
        self, resilient_cluster, request_x
    ):
        """Requests dying with their worker are transparently re-dispatched:
        exactly one completion per request, bitwise-identical to fault-free."""
        router = resilient_cluster
        ref = router.predict(request_x, model="m")  # fault-free reference
        (wid,) = router.placements()["m@v1"]  # sticky: one replica
        before = router.snapshot()
        # queue the deaths first: the sleep stalls the worker, the crash
        # control frame queues behind it, and the submits queue behind the
        # crash — so every request dies in-flight and must be retried
        router.pool.inject_sleep(wid, 0.6)
        router.pool.inject_crash(wid)
        time.sleep(0.05)
        futures = [router.submit(request_x, model="m") for _ in range(8)]
        results = [future.result(timeout=30) for future in futures]
        assert all(np.array_equal(ref, out) for out in results)
        after = router.snapshot()
        # exactly-once: each request completes once (the failed attempt is
        # an error, never a completion), so served grows by the 8 requests
        assert after.served - before.served == 8
        assert after.errors_by_type.get("WorkerCrashed", 0) >= 8
        tree = after.resilience.as_tree()
        assert tree["retries_attempted"] >= 8
        assert tree["retries_succeeded"] >= 8
        assert tree["retries_exhausted"] == 0
        assert tree["retry_budget"]["requests"] >= 9

    def test_resilience_tree_flows_through_telemetry_and_prometheus(
        self, resilient_cluster
    ):
        router = resilient_cluster
        tree = router.telemetry.snapshot()
        cluster = tree["cluster"]
        assert "WorkerCrashed" in cluster["errors_by_type"]
        resilience = cluster["resilience"]
        assert resilience["retries_attempted"] >= 8
        assert "retry_budget" in resilience and "breakers" in resilience
        text = to_prometheus(tree)
        assert "cluster_resilience_retries_attempted" in text
        assert "errors_by_type" in text

    def test_frontend_exposes_resilience_stats(self, resilient_cluster):
        from repro.serving import AsyncServingFrontend

        frontend = AsyncServingFrontend(resilient_cluster)
        stats = frontend.resilience()
        assert stats.retries_attempted >= 8

    def test_hedged_high_request_wins_on_the_fast_replica(
        self, resilient_cluster, request_x
    ):
        """With the primary replica lagged past the hedge delay, the hedge
        leg lands on the other replica and wins; one result, no errors."""
        router = resilient_cluster
        ref = router.predict(request_x, model="h")
        try:
            # "h" is replicated on both workers; lag both copies so the
            # hedge timer always beats the primary, whichever replica it is
            for wid in router.placements()["h@v1"]:
                router.pool.inject_lag(wid, "h@v1", 0.3)
            before = router.snapshot().resilience
            future = router.submit(request_x, model="h", priority=Priority.HIGH)
            assert np.array_equal(future.result(timeout=30), ref)
            after = router.snapshot().resilience
            assert after.hedges == before.hedges + 1
        finally:
            for wid in router.placements()["h@v1"]:
                router.pool.inject_lag(wid, "h@v1", 0.0)

    def test_brownout_sheds_low_only(self, resilient_cluster, request_x):
        router = resilient_cluster
        router.set_brownout(True)
        try:
            with pytest.raises(AdmissionError, match="brownout"):
                router.submit(request_x, model="m", priority=Priority.LOW)
            future = router.submit(request_x, model="m", priority=Priority.NORMAL)
            future.result(timeout=30)
            snap = router.snapshot()
            assert snap.resilience.brownout_active
            assert snap.resilience.brownout_sheds >= 1
            assert snap.errors_by_type.get("AdmissionError", 0) >= 1
        finally:
            router.set_brownout(False)
        router.submit(
            request_x, model="m", priority=Priority.LOW
        ).result(timeout=30)
        assert not router.snapshot().resilience.brownout_active

    def test_control_loop_steps_the_brownout_controller(self, resilient_cluster):
        loop = ControlLoop(
            resilient_cluster,
            brownout=BrownoutPolicy(max_error_rate=0.99, breach_steps=10),
        )
        assert isinstance(loop.brownout, BrownoutController)
        loop.step()
        status = loop.snapshot().brownout
        assert status is not None and not status.active


# --------------------------------------------------------------------------- #
# live cluster: every retry and hedge leg goes through the one dispatch path
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="class")
def hedged_cluster(images):
    """Two workers, one replicated model, a 0.5 s hedge and no retries."""
    router = ClusterRouter(2, hedge=HedgePolicy(delay_s=0.5, min_delay_s=0.5))
    router.register("h", images["h"], placement="replicated")
    with router:
        yield router


class TestDispatchPaths:
    def test_fast_primary_launches_no_hedge(self, hedged_cluster, request_x):
        router = hedged_cluster
        router.predict(request_x, model="h")  # places "h" on both workers
        for wid in router.placements()["h@v1"]:
            assert router.pool.ping(wid, timeout=30) is not None  # booted, loaded
        before = router.snapshot()
        future = router.submit(request_x, model="h", priority=Priority.HIGH)
        future.result(timeout=30)
        time.sleep(0.7)  # well past the hedge delay
        after = router.snapshot()
        assert after.resilience.hedges == 0
        dispatched = [
            sum(row.dispatched for row in snap.replicas["h@v1"]) for snap in (before, after)
        ]
        assert dispatched[1] == dispatched[0] + 1
        assert after.pending == 0

    def test_both_legs_die(self, hedged_cluster, request_x):
        """Primary and hedge both crash: the caller sees the crash, and only
        the recorded primary leg counts as an error."""
        router = hedged_cluster
        router.predict(request_x, model="h")
        for wid in router.placements()["h@v1"]:
            router.pool.inject_sleep(wid, 1.0)  # outlives the hedge delay
            router.pool.inject_crash(wid)
        future = router.submit(request_x, model="h", priority=Priority.HIGH)
        with pytest.raises(WorkerCrashed):
            future.result(timeout=30)
        snap = router.snapshot()
        assert snap.resilience.hedges == 1
        assert snap.resilience.hedges_won == 0
        assert snap.pending == 0
        assert snap.errors_by_type["WorkerCrashed"] == 1

    def test_shed_hedge_leg_counts_no_shed_or_error(self, images, request_x):
        """A hedge leg refused at admission leaves no trace in the series
        canary rollback and brownout read: its request succeeded."""
        router = ClusterRouter(
            1,
            policy=PriorityPolicy(max_pending=1),
            hedge=HedgePolicy(delay_s=0.05, min_delay_s=0.05),
        )
        router.register("kws", images["m"])
        with router:
            router.inject_version_lag("kws", None, 0.3)  # the primary outlives the delay
            future = router.submit(request_x, model="kws", priority=Priority.HIGH)
            np.testing.assert_array_equal(
                future.result(timeout=30), PackedModel(images["m"])(request_x[None])[0]
            )
            snap = router.snapshot()
        assert snap.shed_by_priority[Priority.HIGH] == 0
        assert snap.errors_by_type == {}
        assert snap.shed_by_version == {}
        assert snap.resilience.hedges == 0

    def test_retry_firing_after_stop_leaves_no_stale_placement(self, images, request_x):
        """A retry whose backoff outlives ``stop()`` fails, chained to the
        crash it retried, and publishes no placement the restarted router
        would route to a worker that never loaded it."""
        router = ClusterRouter(
            1, retry=RetryPolicy(base_backoff_s=3.0, max_backoff_s=3.0, jitter=0.0)
        )
        router.register("kws", images["m"])
        router.start()
        try:
            router.pool.inject_sleep(0, 0.3)
            router.pool.inject_crash(0)
            future = router.submit(request_x, model="kws")
            assert wait_until(lambda: router.snapshot().resilience.retries_attempted == 1)
        finally:
            router.stop()
        with pytest.raises(RoutingError) as caught:
            future.result(timeout=30)
        assert isinstance(caught.value.__cause__, WorkerCrashed)
        assert router.placements() == {}
        with router:
            np.testing.assert_array_equal(
                router.predict(request_x, model="kws"),
                PackedModel(images["m"])(request_x[None])[0],
            )

    def test_stop_cancels_an_armed_retry(self, images, request_x):
        """A retry armed before ``stop()`` never reaches ``_submit_once``:
        ``stop()`` fails the request and its timer thread has exited by the
        time ``stop()`` returns."""
        router = ClusterRouter(
            1, retry=RetryPolicy(base_backoff_s=3.0, max_backoff_s=3.0, jitter=0.0)
        )
        router.register("kws", images["m"])
        dispatches = []
        submit_once = router._submit_once

        def counting(*args, **kwargs):
            dispatches.append(kwargs.get("avoid", frozenset()))
            return submit_once(*args, **kwargs)

        router._submit_once = counting
        router.start()
        try:
            router.pool.inject_sleep(0, 0.3)
            router.pool.inject_crash(0)
            future = router.submit(request_x, model="kws")
            assert wait_until(lambda: router.snapshot().resilience.retries_attempted == 1)
            (request,) = list(router._resilient)
            timers = list(request._timers)
            assert len(timers) == 1 and timers[0].is_alive()
        finally:
            router.stop()
        assert not timers[0].is_alive()
        with pytest.raises(RoutingError) as caught:
            future.result(timeout=0)
        assert isinstance(caught.value.__cause__, WorkerCrashed)
        time.sleep(0.2)
        assert dispatches == [frozenset()]  # the primary only


# --------------------------------------------------------------------------- #
# live cluster: restart backoff holds crash loops, never shutdown
# --------------------------------------------------------------------------- #


class TestRestartBackoffLive:
    def test_crash_loop_is_held_by_backoff_then_recovers(self):
        """A model whose re-decode keeps killing replacements settles into
        delayed respawns (bounded re-decode rate) instead of a hot loop,
        and recovers once the poison clears."""
        image = frozen_image()
        router = ClusterRouter(
            1,
            restart_backoff=RestartBackoffPolicy(
                base_s=0.4, multiplier=2.0, max_s=0.8,
                stable_after_s=60.0, free_restarts=1,
            ),
        )
        with router:
            router.register("m", image)
            rng = np.random.default_rng(3)
            x = rng.standard_normal((49, 10)).astype(np.float32)
            ref = router.predict(x, model="m")
            # next three replacements die inside the replayed "m@v1" decode
            router.pool.inject_crash_on_load(0, "m@v1", times=3)
            started = time.monotonic()
            router.pool.inject_crash(0)
            # the loop must pass through a visible backing-off hold
            assert wait_until(
                lambda: router.pool.restart_snapshot()["workers"]
                .get("0", {})
                .get("backing_off", False),
                timeout_s=20.0,
            )
            # crash + 3 poisoned re-decodes = 4 respawns, then stable
            assert wait_until(
                lambda: router.snapshot().workers[0].restarts >= 4
                and router.snapshot().workers[0].alive,
                timeout_s=40.0,
            )
            elapsed = time.monotonic() - started
            # streaks 2..4 owed 0.4 + 0.8 + 0.8 s of enforced delay: the
            # loop cannot have re-decoded faster than the backoff allows
            assert elapsed >= 1.9
            snap = router.pool.restart_snapshot()
            assert snap["enabled"] == 1 and snap["delayed_restarts"] >= 3
            worker = router.snapshot().workers[0]
            assert worker.crash_streak >= 4 and not worker.backing_off
            # recovered: the replacement serves bitwise-identical results
            assert np.array_equal(router.predict(x, model="m"), ref)

    def test_validation_of_crash_on_load_target(self):
        router = ClusterRouter(1)
        with router:
            from repro.errors import RoutingError

            with pytest.raises(RoutingError):
                router.pool.inject_crash_on_load(9, "m@v1")

    def test_stop_is_not_delayed_by_a_pending_backoff(self):
        """A worker parked on a long restart delay must not hold up
        shutdown: stop() cancels the pending timer."""
        image = frozen_image()
        router = ClusterRouter(
            1,
            restart_backoff=RestartBackoffPolicy(
                base_s=8.0, multiplier=1.0, max_s=8.0,
                stable_after_s=60.0, free_restarts=0,
            ),
        )
        router.start()
        try:
            router.register("m", image)
            rng = np.random.default_rng(3)
            x = rng.standard_normal((49, 10)).astype(np.float32)
            router.predict(x, model="m")
            router.pool.inject_crash(0)
            assert wait_until(
                lambda: router.pool.restart_snapshot()["workers"]
                .get("0", {})
                .get("backing_off", False),
                timeout_s=20.0,
            )
        except BaseException:
            router.stop()
            raise
        started = time.monotonic()
        router.stop()
        assert time.monotonic() - started < 4.0
        # the streak survives as history, but no timer is left pending
        worker = router.pool.restart_snapshot()["workers"].get("0", {})
        assert not worker.get("backing_off", False)
