"""End-to-end KWS serving benchmark: one command, three seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-b1 --seed 1 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric, each by name with its unit; the last line of standard
output is the result as one JSON object.  Every output is checked bitwise
against an independent path, and any mismatch makes the command exit 1.
The workloads, what each stresses and bypasses, and the metric definitions
are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: end-to-end metric -> unit (untraced runs)
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "windows_per_s": "windows/s",
    "slo_met_frac": "fraction",
    "ok_frac": "fraction",
    "image_bytes": "B",
    "resident_bytes": "B",
    "peak_alloc_bytes": "B",
}

#: printed with the end-to-end metrics but left out of the JSON result and its
#: bounds: one run sees too few of the host's rare stalls for a steady p99
#: (it spread 0.3-0.8 between 30 s runs of cluster-hop), failed_frac is 0
#: whenever the program is right (the JSON carries it as ok_frac and failed),
#: and the wall.* timings are the bounded ones before their rescaling to the
#: reference host speed, whose probe_ms they were measured at (common.SpeedProbe)
PRINTED_ONLY = {
    "latency_p99_ms": "ms",
    "failed_frac": "fraction",
    "wall.setup_s": "s",
    "wall.latency_p50_ms": "ms",
    "wall.windows_per_s": "windows/s",
    "probe_ms": "ms",
}

#: per-layer metric -> unit (traced runs)
PER_LAYER = {
    "deploy.load_ms": "ms",
    "packed.decode_ms": "ms",
    "kernels.calls": "calls/forward",
    "kernels.tree_ms": "ms/forward",
    "kernels.conv1_ms": "ms/forward",
    "kernels.ds0.dw_ms": "ms/forward",
    "kernels.ds0.pw_ms": "ms/forward",
    "kernels.ds1.dw_ms": "ms/forward",
    "kernels.ds1.pw_ms": "ms/forward",
    "kernels.adds": "adds/window",
    "kernels.gather_mb": "MB/window",
    "packed.nonkernel_ms": "ms/forward",
    "streams.feed_ms": "ms/window",
    "streams.collect_ms": "ms/window",
    "batching.overhead_ms": "ms/flush",
    "cluster.submit_ms": "ms",
    "cluster.resolve_p50_ms": "ms",
    "cluster.resolve_p99_ms": "ms",
    "cluster.transport_ms": "ms",
    "cluster.worker_queue_ms": "ms",
    "cluster.worker_kernel_ms": "ms",
    "shm.slab_frac": "fraction",
    "cluster.shed": "count",
    "cluster.errors": "count",
    "loadgen.lag_p99_ms": "ms",
    "proc.threads_max": "threads",
    "trace.overhead_ms": "ms",
}

WORKLOADS = ("stream-b1", "burst-b32", "cluster-hop")

#: selects the kernel backend process-wide; the benchmark measures the default
KERNEL_ENV = "REPRO_KERNEL_BACKEND"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get(KERNEL_ENV):
        print(
            f"refusing to run with ${KERNEL_ENV} set: the benchmark measures "
            "the shipped default kernel backend",
            file=sys.stderr,
        )
        return 2
    if not (SRC / "repro").is_dir():
        print(f"no repro package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from common import environment, stop_child_processes
    from repro.serving.kernels_fast import resolve_backend

    if args.workload == "stream-b1":
        from stream_b1 import run
    elif args.workload == "burst-b32":
        from burst_b32 import run
    else:
        from cluster_hop import run
    # a termination request unwinds like an error, through every cleanup
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.seed, args.seconds, bool(args.trace))
    finally:
        stop_child_processes()

    units = PER_LAYER if args.trace else END_TO_END
    shown = units if args.trace else {**END_TO_END, **PRINTED_ONLY}
    metrics = dict(result.metrics, failed_frac=result.failed / max(1, result.attempted))
    unknown = set(result.metrics) - set(shown)
    missing = set() if args.trace else set(shown) - set(metrics)
    if unknown or missing:
        raise RuntimeError(f"unknown metrics {sorted(unknown)}, missing {sorted(missing)}")
    # a layer the workload never calls in this process reads 0
    values = {name: float(metrics.get(name, 0.0)) for name in shown}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **environment(resolve_backend(None).name),
        **result.info,
    }
    print("# " + json.dumps(info, sort_keys=True))
    for name, unit in shown.items():
        print(f"# {name:28s} {values[name]:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
