"""Sessionful streaming benchmarks: session scale, dispatch speedup, identity.

Not a paper table — this guards the sessionful streaming layer
(:mod:`repro.serving.streams` + :mod:`repro.serving.loadgen`) on three axes:

* **scale**: >= 256 concurrent keyword-spotting sessions replayed through
  one manager must all resolve every analysis window (no gaps, no
  failures), with p99 window-to-decision latency reported in the JSON
  envelope;
* **dispatch**: coalescing windows *across* sessions into ``submit_many``
  cluster bursts must sustain >= 2x the aggregate window throughput of
  dispatching each window as its own request.  Like the other cluster
  benches the gate needs real parallel hardware, so it is skipped below
  4 CPUs;
* **identity**: per-session posteriors must be bitwise identical to a solo
  :class:`~repro.evaluation.streaming.StreamingDetector` run over the
  same waveform.

It also reports, without a floor, how many MFCC frames per window the
sessions' featurizers computed and reused, and the peak power-row state
the 256 sessions hold when all of them are live at once.

Runs standalone (``python benchmarks/bench_streams.py [--quick]``) and as
pytest assertions guarding the floors in CI.  Emits ``BENCH_streams.json``.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List

import numpy as np
import pytest

from bench_cluster import available_cpus
from conftest import write_bench_json, record_metrics
from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image
from repro.deploy.image import ModelImage
from repro.evaluation import StreamingConfig, StreamingDetector
from repro.serving import (
    BatchingEngine,
    ClusterRouter,
    MicroBatchConfig,
    PackedModel,
    PriorityPolicy,
    SlabConfig,
    StreamSession,
    StreamSessionManager,
)
from repro.serving.loadgen import build_arrivals, replay

WORKERS = 4
SESSIONS_FLOOR = 256
SPEEDUP_FLOOR = 2.0
MAX_BURST = 64
#: short synthesised streams keep 256-session replays affordable
GAP_SECONDS = (0.3, 0.6)


def demo_image(width: int = 8) -> ModelImage:
    """One frozen ST-Hybrid image taking standard 49x10 MFCC windows."""
    model = STHybridNet(HybridConfig(width=width), rng=0)
    freeze_all(model)
    model.eval()
    return build_image(model)


def check_identity(image: ModelImage, arrivals, manager: StreamSessionManager) -> int:
    """Assert per-session posteriors == solo detector, bitwise; returns count.

    Arrivals cycle a pool of distinct waveforms, so checking one session
    per distinct waveform covers every stream the replay contained.
    """
    packed = PackedModel(image)
    checked = set()
    for arrival in arrivals:
        key = arrival.waveform.shape[0], arrival.scenario
        if key in checked:
            continue
        checked.add(key)
        solo = StreamingDetector(packed, manager.config)
        ref_times, ref_probs = solo.posteriors(arrival.waveform)
        times, probs = manager.session(f"load-{arrival.index}").posteriors()
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(probs, ref_probs)
    return len(checked)


def measure_sessions(image: ModelImage, num_sessions: int, pool_size: int = 6) -> Dict[str, float]:
    """Replay ``num_sessions`` sessions through an engine-backed manager.

    Single-process (runs on any CPU count): the gate here is session scale
    and zero lost windows, not parallel speedup.
    """
    engine = BatchingEngine(
        PackedModel(image), MicroBatchConfig(max_batch_size=MAX_BURST, max_delay_ms=2.0)
    )
    manager = StreamSessionManager(engine=engine, max_burst=MAX_BURST)
    arrivals = build_arrivals(
        num_sessions,
        keywords=("yes",),
        pool_size=pool_size,
        gap_seconds=GAP_SECONDS,
        seed=0,
    )
    report = replay(manager, arrivals, pump_every=8)
    assert report.sessions == num_sessions
    assert report.windows_failed == 0 and report.gaps == 0, "windows were lost"
    assert report.stats.sessions_done == num_sessions, "a session never drained"
    identity_checked = check_identity(image, arrivals, manager)
    windows = report.stats.windows_featurized
    return {
        "sessions": num_sessions,
        "windows": report.windows_served,
        "frames_computed_per_window": report.stats.frames_computed / windows,
        "frames_reused_per_window": report.stats.frames_reused / windows,
        "peak_feature_state_bytes": peak_feature_state(arrivals, manager.config),
        "wall_s": report.wall_s,
        "sessions_per_s": report.sessions_per_s,
        "windows_per_s": report.windows_per_s,
        "p50_window_to_decision_ms": report.p50_ms,
        "p99_window_to_decision_ms": report.p99_ms,
        "identity_streams_checked": identity_checked,
    }


def peak_feature_state(arrivals, config: StreamingConfig) -> int:
    """Peak bytes of power rows the sessions' featurizers hold together
    when every arrival's session is live and fed hop by hop in lockstep.

    The replay opens each session on its whole waveform and closes it at
    once, so its own state never outlives one ``open``; this pass keeps
    them all open, as live microphones are.
    """
    sessions = [StreamSession(f"state-{a.index}", config, None, None) for a in arrivals]
    hop = config.hop_samples
    peak = 0
    for lo in range(0, max(len(a.waveform) for a in arrivals), hop):
        for session, arrival in zip(sessions, arrivals):
            session.feed(arrival.waveform[lo : lo + hop])
            session.ready.clear()
        peak = max(peak, sum(session.featurizer.state_bytes for session in sessions))
    for session in sessions:
        session.close()
    assert sum(session.featurizer.state_bytes for session in sessions) == 0
    return peak


def _cut_windows(arrivals, config: StreamingConfig) -> List[List[np.ndarray]]:
    """Per-arrival analysis windows, cut exactly as a session would."""
    per_session: List[List[np.ndarray]] = []
    for arrival in arrivals:
        session = StreamSession(f"cut-{arrival.index}", config, None, None)
        session.feed(arrival.waveform)
        per_session.append([features for _, features, _ in session.ready])
    return per_session


def measure_dispatch(
    image: ModelImage, num_sessions: int, *, batched: bool, repeats: int = 2
) -> Dict[str, float]:
    """Aggregate windows/s for one dispatch style over a 4-worker cluster.

    Windows are pre-cut so both styles measure *dispatch*, not MFCC cost.
    ``batched=True`` runs the session manager — windows from all sessions
    coalesce into ``submit_many`` bursts (one control frame per burst).
    ``batched=False`` is the counterfactual the manager replaces — the
    pre-manager per-stream loop: every session dispatches one window as its
    own request and waits for the result before its next window (sessions
    interleaved round-robin).  Each round-trip serialises behind the
    worker engine's coalescing delay, which is exactly why a session layer
    that keeps windows in flight across sessions exists.
    """
    config = StreamingConfig()
    arrivals = build_arrivals(
        num_sessions, keywords=("yes",), pool_size=4, gap_seconds=GAP_SECONDS, seed=1
    )
    per_session = _cut_windows(arrivals, config)
    total = sum(len(windows) for windows in per_session)
    router = ClusterRouter(
        workers=WORKERS,
        transport=SlabConfig(slab_bytes=4096, slabs=max(1024, total)),
        policy=PriorityPolicy(max_pending=100_000, normal_watermark=1.0, low_watermark=1.0),
        config=MicroBatchConfig(max_batch_size=MAX_BURST, max_delay_ms=2.0),
    )
    router.register("kws", image)
    best = float("inf")
    with router:
        router.predict(per_session[0][0], model="kws")  # spawn, decode, place
        for _ in range(repeats):
            if batched:
                manager = StreamSessionManager(
                    router, config=config, model="kws", max_burst=MAX_BURST
                )
                start = time.monotonic()
                for i, windows in enumerate(per_session):
                    session = manager.open(session_id=f"d{i}")
                    session.feed_features(windows)
                    session.close()
                    if (i + 1) % 8 == 0:
                        manager.pump()
                        manager.collect(wait=False)
                stats = manager.drain()
                elapsed = time.monotonic() - start
                assert stats.windows_served == total, "windows were lost"
            else:
                start = time.monotonic()
                served = 0
                cursors = [list(windows) for windows in per_session]
                while any(cursors):  # one window per session per sweep
                    for windows in cursors:
                        if windows:
                            router.submit(windows.pop(0), model="kws").result(timeout=300.0)
                            served += 1
                elapsed = time.monotonic() - start
                assert served == total
            best = min(best, elapsed)
    return {
        "windows": total,
        "best_wall_s": best,
        "windows_per_s": total / best,
    }


# -- pytest entry points ----------------------------------------------------- #


def test_session_scale_floor_and_identity() -> None:
    """>= 256 concurrent sessions all drain with zero lost windows, and
    per-session posteriors are bitwise identical to a solo detector."""
    image = demo_image()
    result = measure_sessions(image, SESSIONS_FLOOR)
    assert result["sessions"] >= SESSIONS_FLOOR
    assert result["identity_streams_checked"] > 0
    record_metrics(
        "streams",
        scale=result,
        sessions_floor=SESSIONS_FLOOR,
    )


@pytest.mark.skipif(
    available_cpus() < WORKERS,
    reason=f"dispatch gate needs >= {WORKERS} CPUs (have {available_cpus()})",
)
def test_cross_session_batching_floor() -> None:
    """Cross-session submit_many bursts must give >= 2x aggregate window
    throughput over one-window-at-a-time dispatch on a 4-worker cluster."""
    image = demo_image()
    single = measure_dispatch(image, 48, batched=False)
    batched = measure_dispatch(image, 48, batched=True)
    speedup = batched["windows_per_s"] / single["windows_per_s"]
    record_metrics(
        "streams",
        dispatch={"batched": batched, "single": single, "speedup": speedup},
        speedup_floor=SPEEDUP_FLOOR,
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"cross-session bursts served {batched['windows_per_s']:.0f} windows/s vs "
        f"{single['windows_per_s']:.0f} windows/s one-at-a-time — only "
        f"{speedup:.2f}x (floor {SPEEDUP_FLOOR}x)"
    )


# -- standalone report ------------------------------------------------------- #


def main() -> None:
    """Run all measurements, enforce the floors, emit BENCH_streams.json."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller load (CI smoke)")
    parser.add_argument("--width", type=int, default=8, help="model channel width")
    args = parser.parse_args()
    if args.width < 1:
        parser.error("--width must be >= 1")
    sessions = SESSIONS_FLOOR
    dispatch_sessions = 16 if args.quick else 48
    repeats = 1 if args.quick else 2

    image = demo_image(width=args.width)
    cpus = available_cpus()
    print(
        f"ST-Hybrid width={args.width}, 49x10 MFCC windows; {cpus} CPU(s) available"
    )

    scale = measure_sessions(image, sessions)
    print(
        f"\nscale: {scale['sessions']} sessions / {scale['windows']} windows in "
        f"{scale['wall_s']:.2f} s ({scale['sessions_per_s']:.0f} sessions/s, "
        f"{scale['windows_per_s']:.0f} windows/s)\n"
        f"       p50 {scale['p50_window_to_decision_ms']:.2f} ms  "
        f"p99 {scale['p99_window_to_decision_ms']:.2f} ms window-to-decision; "
        f"{scale['identity_streams_checked']} stream(s) bitwise-identical to solo detector\n"
        f"       MFCC frames per window: {scale['frames_computed_per_window']:.1f} computed, "
        f"{scale['frames_reused_per_window']:.1f} reused; peak feature state "
        f"{scale['peak_feature_state_bytes'] / 1e6:.1f} MB with all "
        f"{scale['sessions']} sessions live"
    )

    payload = {
        "config": {
            "width": args.width,
            "workers": WORKERS,
            "max_burst": MAX_BURST,
            "cpus": cpus,
            "quick": args.quick,
        },
        "scale": scale,
        "sessions_floor": SESSIONS_FLOOR,
        "speedup_floor": SPEEDUP_FLOOR,
        "floor_enforced": cpus >= WORKERS,
    }

    if cpus >= WORKERS:
        single = measure_dispatch(image, dispatch_sessions, batched=False, repeats=repeats)
        batched = measure_dispatch(image, dispatch_sessions, batched=True, repeats=repeats)
        speedup = batched["windows_per_s"] / single["windows_per_s"]
        payload["dispatch"] = {"batched": batched, "single": single, "speedup": speedup}
        print(
            f"\ndispatch ({dispatch_sessions} sessions, {WORKERS} workers):\n"
            f"  one-at-a-time {single['windows_per_s']:10.0f} windows/s\n"
            f"  cross-session {batched['windows_per_s']:10.0f} windows/s\n"
            f"  speedup       {speedup:10.2f}x  (floor: {SPEEDUP_FLOOR}x)"
        )
        write_bench_json("streams", payload)
        if speedup < SPEEDUP_FLOOR:
            raise SystemExit(
                f"FAIL: cross-session bursts only {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)"
            )
        print(f"\nOK: {speedup:.2f}x >= {SPEEDUP_FLOOR}x with bitwise identity at "
              f"{scale['sessions']} sessions")
    else:
        write_bench_json("streams", payload)
        print(
            f"\nSKIP: {SPEEDUP_FLOOR}x dispatch floor not enforced with {cpus} CPU(s) — "
            f"{WORKERS} workers cannot run in parallel here"
        )


if __name__ == "__main__":
    main()
