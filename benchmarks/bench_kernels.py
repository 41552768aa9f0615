"""Micro-benchmarks of the substrate kernels.

Not a paper table — these keep the building blocks honest: MFCC extraction,
conv forward/backward, strassenified vs dense matmul layers, the
synthetic-corpus generator, and the packed bit-plane kernels' per-kind
gather breakdown (via :func:`repro.serving.telemetry.profile_kernels`).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import record_metrics
from repro.audio.mfcc import MFCC
from repro.autodiff.ops_conv import conv2d, depthwise_conv2d
from repro.autodiff.tensor import Tensor, no_grad
from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.core.strassen.layers import StrassenLinear
from repro.datasets.synthesizer import keyword_spec, synthesize
from repro.deploy import build_image
from repro.deploy.packing import pack_ternary
from repro.nn.linear import Linear
from repro.serving import (
    PackedModel,
    decode_planes,
    profile_kernels,
    resolve_backend,
    ternary_matmul,
)

#: fused backend must beat the reference by this factor on linear+pw kinds
FUSED_SPEEDUP_FLOOR = 1.3
#: the speedup gate needs quiet parallel hardware, like the cluster benches
MIN_GATE_CPUS = 4

RNG = np.random.default_rng(0)

# per-kernel timings land in BENCH_kernels.json via the conftest summary
# hook when pytest-benchmark is enabled; the config rides along either way
record_metrics(
    "kernels",
    config={
        "kernels": [
            "mfcc",
            "synthesizer",
            "conv2d_forward",
            "depthwise_forward",
            "conv2d_backward",
            "linear_kinds",
            "packed_profile",
            "backend_speedups",
        ],
        "batch": 32,
    },
)


def test_benchmark_mfcc(benchmark):
    """MFCC pipeline on a 1-second clip."""
    extractor = MFCC()
    wave = RNG.standard_normal(16_000)
    features = benchmark(extractor, wave)
    assert features.shape == (49, 10)


def test_benchmark_synthesizer(benchmark):
    """Formant synthesis of one keyword utterance."""
    spec = keyword_spec("seven")
    wave = benchmark(lambda: synthesize(spec, 0))
    assert wave.shape == (16_000,)


def test_benchmark_conv2d_forward(benchmark):
    """DS-CNN-shaped conv forward (batch 32)."""
    x = Tensor(RNG.standard_normal((32, 1, 49, 10)).astype(np.float32))
    w = Tensor(RNG.standard_normal((64, 1, 10, 4)).astype(np.float32) * 0.1)

    def forward():
        with no_grad():
            return conv2d(x, w, stride=(2, 2), padding=(5, 1)).data

    out = benchmark(forward)
    assert out.shape == (32, 64, 25, 5)


def test_benchmark_depthwise_forward(benchmark):
    """Depthwise 3x3 forward on the DS-CNN feature map (batch 32)."""
    x = Tensor(RNG.standard_normal((32, 64, 25, 5)).astype(np.float32))
    w = Tensor(RNG.standard_normal((64, 3, 3)).astype(np.float32) * 0.1)

    def forward():
        with no_grad():
            return depthwise_conv2d(x, w, stride=1, padding=1).data

    out = benchmark(forward)
    assert out.shape == (32, 64, 25, 5)


def test_benchmark_conv2d_backward(benchmark):
    """Conv forward+backward (training-step cost driver)."""
    x = Tensor(RNG.standard_normal((16, 1, 49, 10)).astype(np.float32), requires_grad=True)
    w = Tensor(RNG.standard_normal((64, 1, 10, 4)).astype(np.float32) * 0.1, requires_grad=True)

    def step():
        x.zero_grad()
        w.zero_grad()
        out = conv2d(x, w, stride=(2, 2), padding=(5, 1))
        out.sum().backward()
        return w.grad

    grad = benchmark(step)
    assert grad.shape == (64, 1, 10, 4)


def test_packed_kernel_gather_breakdown():
    """Per-kind gather share of a packed forward, bitwise-unperturbed.

    ``profile_kernels`` attributes the gather passes behind every ternary
    matmul to the active layer kind — the latency-accounting
    substrate for bit-plane kernel work.  Profiling must never change the
    result, every kind must report, and a kind's gather time can never
    exceed its layer time.
    """
    model = STHybridNet(HybridConfig(width=8), rng=0)
    freeze_all(model)
    model.eval()
    packed = PackedModel(build_image(model))
    x = RNG.standard_normal((32, 49, 10)).astype(np.float32)
    want = packed(x)
    with profile_kernels() as profile:
        got = packed(x)
    np.testing.assert_array_equal(got, want)
    breakdown = profile.snapshot()
    assert {"conv", "dw", "pw", "linear"} <= set(breakdown)
    backend_name = packed.kernel_backend.name
    for kind, row in breakdown.items():
        assert row["layers"] > 0 and row["gather_calls"] > 0, kind
        assert 0.0 <= row["gather_s"] <= row["layer_s"], kind
        # every gather pass is attributed to the backend that ran it
        per_backend = row["backends"]
        assert backend_name in per_backend, (kind, per_backend)
        assert sum(b["gather_calls"] for b in per_backend.values()) == row["gather_calls"]
    record_metrics(
        "kernels",
        packed_profile={
            kind: {
                "layer_ms": row["layer_s"] * 1e3,
                "gather_ms": row["gather_s"] * 1e3,
                "gather_share": row["gather_s"] / row["layer_s"]
                if row["layer_s"]
                else 0.0,
            }
            for kind, row in breakdown.items()
        },
    )


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ternary_values(rng, rows: int, cols: int, density: float) -> np.ndarray:
    """Random {-1, 0, +1} matrix with the requested nonzero density."""
    mask = rng.random((rows, cols)) < density
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, cols))
    return (mask * signs).astype(np.int8)


def _best_seconds(fn, repeats: int = 5, inner: int = 4) -> float:
    """Best-of-``repeats`` mean over ``inner`` calls (noise-resistant)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


#: per-kind plane geometries shaped like the packed model's hot layers:
#: (batch rows M, activation cols C, transform rows R, nonzero density).
#: ``linear`` is one tree node's 64-feature -> r=12 W_b at batch 256, a
#: shape no served layer has any more: images stack all 17 depth-2 nodes
#: into one 204-row W_b and one block-diagonal W_c, so the served tree is 2
#: matmuls, not 34; ``pw`` is a pointwise conv over its N*OH*OW patch rows; ``dw``
#: is the block-diagonal depthwise gather (9-tap rows in a C*K space).
BACKEND_CASES = {
    "linear": (256, 64, 12, 0.9),
    "pw": (4000, 64, 64, 0.9),
    "dw": (2000, 576, 64, 9 / 576),
}


def test_backend_speedups():
    """Both backends: bitwise identity plus timed speedup.

    Identity against :func:`ternary_matmul` is asserted unconditionally on
    every kind; the fused-backend speedup floor on the linear and pw kinds
    only gates on >= ``MIN_GATE_CPUS`` machines (like the cluster benches)
    — below that the timings are still recorded, just not enforced.
    """
    rng = np.random.default_rng(7)
    results: dict = {}
    for kind, (m, cols, rows, density) in BACKEND_CASES.items():
        blob, shape = pack_ternary(_ternary_values(rng, rows, cols, density))
        planes = decode_planes(blob, shape)
        x = rng.standard_normal((m, cols)).astype(np.float32)
        want = ternary_matmul(x, planes)
        ref_s = _best_seconds(lambda: ternary_matmul(x, planes))
        for name in ("reference", "fused"):
            backend = resolve_backend(name)
            prepared = backend.prepare(planes)
            got = backend.matmul(x, prepared)
            np.testing.assert_array_equal(got, want, err_msg=f"{name}/{kind}")
            best = _best_seconds(lambda: backend.matmul(x, prepared))
            results.setdefault(name, {})[kind] = {
                "ms": best * 1e3,
                "speedup_vs_reference": ref_s / best,
            }
    cpus = available_cpus()
    enforced = cpus >= MIN_GATE_CPUS
    record_metrics(
        "kernels",
        backends=results,
        backend_gate={
            "floor": FUSED_SPEEDUP_FLOOR,
            "kinds": ["linear", "pw"],
            "cpus": cpus,
            "enforced": enforced,
        },
    )
    if enforced:
        for kind in ("linear", "pw"):
            speedup = results["fused"][kind]["speedup_vs_reference"]
            assert speedup >= FUSED_SPEEDUP_FLOOR, (kind, speedup)


@pytest.mark.parametrize("layer_kind", ["dense", "strassen"])
def test_benchmark_linear_kinds(benchmark, layer_kind):
    """Dense vs strassenified 64→12 matmul layer (batch 256)."""
    x = Tensor(RNG.standard_normal((256, 64)).astype(np.float32))
    if layer_kind == "dense":
        layer = Linear(64, 12, rng=0)
    else:
        layer = StrassenLinear(64, 12, r=12, rng=0)
        layer.freeze()
    layer.eval()

    def forward():
        with no_grad():
            return layer(x).data

    out = benchmark(forward)
    assert out.shape == (256, 12)
