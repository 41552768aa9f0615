"""Micro-benchmarks of the substrate kernels.

Not a paper table — these keep the building blocks honest: MFCC extraction,
conv forward/backward, strassenified vs dense matmul layers, the
synthetic-corpus generator, the packed bit-plane kernels' per-kind gather
breakdown (via :func:`repro.serving.telemetry.profile_kernels`), and the
two kernel backends timed against each other on the seeded w8 and w64
models' own layers and whole forwards.
"""

from __future__ import annotations

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
from repro.nn.linear import Linear
from repro.serving import PackedModel, profile_kernels, resolve_backend
from repro.serving.kernels_fast import KernelBackend

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
            "layer_speedups",
            "forward_speedups",
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


def _best_seconds(fn, repeats: int = 5, inner: int = 4) -> float:
    """Best-of-``repeats`` mean over ``inner`` calls (noise-resistant)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def _best_pair(reference, fused, repeats: int, inner: int):
    """Best-of-``repeats`` means of two callables, timed alternately so a
    slow stretch of a shared host weighs on both sides alike."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, fn in enumerate((reference, fused)):
            best[side] = min(best[side], _best_seconds(fn, repeats=1, inner=inner))
    return best


#: the fused backend must beat the reference by this factor on the real
#: pointwise and tree layers at batch 32 ...
FUSED_SPEEDUP_FLOOR = 1.3
#: ... and must never lose to it on a whole forward
FUSED_FORWARD_FLOOR = 1.0
#: seeded models whose own planes and forwards are timed, and the batches:
#: 1 is the streaming case, 32 a paper-width burst
GATE_WIDTHS = (8, 64)
GATE_BATCHES = (1, 32)


def _image(width: int):
    """The seeded, frozen ST-HybridNet at ``width``, imaged."""
    model = STHybridNet(HybridConfig(width=width), rng=0)
    freeze_all(model)
    model.eval()
    return build_image(model)


def _plane_labels(image):
    """``(layer, part)`` of every plane, in the order ``PackedModel``
    prepares them: W_b then W_c per record (W_b only for depthwise)."""
    return [
        (record.name, part)
        for record in image.layers
        for part in (("wb",) if record.kind == "dw" else ("wb", "wc"))
    ]


class _Recorder(KernelBackend):
    """Delegates to another backend, keeping each prepared plane and each
    matmul's input under the plane's ``(layer, part)``."""

    def __init__(self, inner, labels) -> None:
        self.inner = inner
        self.name = inner.name
        self.labels = iter(labels)
        self.planes = {}
        self.inputs = {}
        self._label = {}

    def prepare(self, planes):
        """Delegate, and label the prepared plane."""
        prepared = self.inner.prepare(planes)
        label = next(self.labels)
        self.planes[label] = prepared
        self._label[id(prepared)] = label
        return prepared

    def matmul(self, x, prepared):
        """Record ``x`` under the plane's label, then delegate."""
        self.inputs[self._label[id(prepared)]] = x.copy()
        return self.inner.matmul(x, prepared)


def _record(image, kernel: str, batch: int) -> _Recorder:
    """One recorded ``batch``-window forward of ``image`` on ``kernel``."""
    recorder = _Recorder(resolve_backend(kernel), _plane_labels(image))
    x = np.random.default_rng(batch).standard_normal((batch, 49, 10)).astype(np.float32)
    PackedModel(image, kernel=recorder)(x)
    return recorder


def test_layer_speedups():
    """Per named layer: reference vs fused on the model's own planes.

    Each layer's W_b and W_c matmuls run on the inputs a real forward
    feeds them (recorded through a delegating backend), at batch 1 and
    32, and must be bitwise identical.  Gate: fused is at least
    ``FUSED_SPEEDUP_FLOOR``× the reference on the pointwise layers and the
    tree at batch 32.  Both sides run in this one process, so the gate
    holds on any CPU count.
    """
    reference, fused = resolve_backend("reference"), resolve_backend("fused")
    layers: dict = {}
    for width in GATE_WIDTHS:
        image = _image(width)
        for batch in GATE_BATCHES:
            ref_planes = _record(image, "reference", batch).planes
            recorded = _record(image, "fused", batch)
            assert set(recorded.inputs) == set(ref_planes)
            rows = {}
            for (layer, part), x in recorded.inputs.items():
                ref_p, fused_p = ref_planes[(layer, part)], recorded.planes[(layer, part)]
                got = fused.matmul(x, fused_p)
                want = reference.matmul(x, ref_p)
                assert got.tobytes() == want.tobytes(), (width, batch, layer, part)
                inner = 20 if batch == 1 else 3
                ref_s, fused_s = _best_pair(
                    lambda: reference.matmul(x, ref_p),
                    lambda: fused.matmul(x, fused_p),
                    repeats=5,
                    inner=inner,
                )
                row = rows.setdefault(layer, {"reference_ms": 0.0, "fused_ms": 0.0})
                row["reference_ms"] += ref_s * 1e3
                row["fused_ms"] += fused_s * 1e3
            for row in rows.values():
                row["speedup"] = row["reference_ms"] / row["fused_ms"]
            layers[f"w{width}_b{batch}"] = rows
    gated = {
        (key, layer): row["speedup"]
        for key, rows in layers.items()
        if key.endswith("_b32")
        for layer, row in rows.items()
        if layer.endswith(".pw") or layer == "tree"
    }
    record_metrics(
        "kernels",
        layers=layers,
        layer_gate={"floor": FUSED_SPEEDUP_FLOOR, "batch": 32, "layers": "ds*.pw, tree"},
    )
    assert gated
    for (key, layer), speedup in gated.items():
        assert speedup >= FUSED_SPEEDUP_FLOOR, (key, layer, speedup)


def test_forward_speedups():
    """Whole ``PackedModel`` forwards: the fused default never loses to the
    reference, at w8 and w64 × batch 1 and 32, bitwise identical."""
    forwards = {}
    for width in GATE_WIDTHS:
        image = _image(width)
        reference, fused = PackedModel(image, kernel="reference"), PackedModel(image)
        for batch in GATE_BATCHES:
            x = np.random.default_rng(batch).standard_normal((batch, 49, 10)).astype(np.float32)
            assert fused(x).tobytes() == reference(x).tobytes(), (width, batch)
            inner = 10 if batch == 1 else 2
            ref_s, fused_s = _best_pair(lambda: reference(x), lambda: fused(x), 5, inner)
            forwards[f"w{width}_b{batch}"] = {
                "reference_ms": ref_s * 1e3,
                "fused_ms": fused_s * 1e3,
                "speedup": ref_s / fused_s,
            }
    record_metrics("kernels", forwards=forwards, forward_gate={"floor": FUSED_FORWARD_FLOOR})
    for key, row in forwards.items():
        assert row["speedup"] >= FUSED_FORWARD_FLOOR, (key, row)


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
