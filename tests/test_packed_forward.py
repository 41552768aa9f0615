"""Layout contracts of the packed forward: the stacked tree, conv patches,
the layer methods and the order in which a ``PackedModel`` prepares and
runs its planes.

Each contract is checked bitwise against a test-local copy of the layout it
replaced: a node-by-node tree evaluator, the ``np.pad`` +
``sliding_window_view`` patch extraction, and the previous forward's layer
methods, ``features`` and ``__call__``.
"""

from __future__ import annotations

import functools
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image, pack_ternary
from repro.errors import ConfigError
from repro.serving import PackedModel, decode_planes, ternary_matmul
from repro.serving.kernels_fast import KernelBackend, resolve_backend
from repro.serving.packed import LayerPlan, _conv_patches


@functools.lru_cache(maxsize=None)
def _image(width: int, seed: int, depth: int = 2, labels: int = 12):
    """A frozen seeded ST-HybridNet, imaged (cached: images are read-only)."""
    config = HybridConfig(width=width, tree_depth=depth, num_labels=labels)
    model = STHybridNet(config, rng=seed)
    freeze_all(model)
    model.eval()
    return build_image(model)


class RecordingBackend(KernelBackend):
    """Delegates to another backend, recording every prepare and matmul."""

    def __init__(self, inner: KernelBackend) -> None:
        self.inner = inner
        self.name = inner.name
        self.planes = []  # what prepare received, in call order
        self.prepared = []  # what prepare returned, in call order
        self.calls = 0

    def prepare(self, planes):
        prepared = self.inner.prepare(planes)
        self.planes.append(planes)
        self.prepared.append(prepared)
        return prepared

    def matmul(self, x, prepared):
        assert any(prepared is p for p in self.prepared), "matmul on an unprepared layout"
        self.calls += 1
        return self.inner.matmul(x, prepared)


def _expected_planes(image):
    """(rows, cols) of every plane a decode prepares, in ``image.layers`` order."""
    expected = []
    for record in image.layers:
        if record.kind == "dw":
            c, kh, kw = record.wb_shape
            expected.append((c, c * kh * kw))  # block-diagonal over (M, C*K)
            continue
        expected.append((record.wb_shape[0], int(np.prod(record.wb_shape[1:]))))
        blocks = record.meta.get("block_rows")
        wc_cols = int(np.prod(record.wc_shape[1:]))
        expected.append((record.wc_shape[0], wc_cols * (len(blocks) if blocks else 1)))
    return expected


class TestPrepareOrder:
    @pytest.mark.parametrize("inner", ["reference", "fused"])
    def test_prepares_each_plane_once_in_image_order(self, inner, rng):
        image = _image(8, 0)
        backend = RecordingBackend(resolve_backend(inner))
        model = PackedModel(image, kernel=backend)
        # 2 planes per non-dw record and 1 per dw record, in image.layers order:
        # 6 records, 2 of them dw
        assert [(p.rows, p.cols) for p in backend.planes] == _expected_planes(image)
        assert len(backend.prepared) == 10
        x = rng.standard_normal((3, 49, 10)).astype(np.float32)
        scores = model(x)
        assert backend.calls == 10  # one w8 forward: 10 matmuls, 2 of them the tree
        assert len(backend.prepared) == 10  # cached: a forward prepares nothing
        np.testing.assert_array_equal(scores, PackedModel(image)(x))


def _per_node_scores(image, z: np.ndarray) -> np.ndarray:
    """The tree node by node: each node's rows cut out of the stacked record,
    decoded as their own planes, then the node-by-node routing loop."""
    record = image.layer("tree")
    header = image.header
    wb, wc = record.wb(), record.wc()
    r = record.wc_shape[1]
    outs, row = [], 0
    for b, count in enumerate(record.meta["block_rows"]):
        node_wb = decode_planes(*pack_ternary(wb[b * r : (b + 1) * r]))
        node_wc = decode_planes(*pack_ternary(wc[row : row + count]))
        hidden = ternary_matmul(z, node_wb) * record.a_hat[b * r : (b + 1) * r]
        out = ternary_matmul(hidden, node_wc)
        outs.append(out * record.out_scale[row : row + count] + record.out_shift[row : row + count])
        row += count
    depth = header["tree_depth"]
    num_nodes = 2 ** (depth + 1) - 1
    num_internal = 2**depth - 1
    thetas, w_scores, v_scores = (
        outs[:num_internal],
        outs[num_internal : num_internal + num_nodes],
        outs[num_internal + num_nodes :],
    )
    n = z.shape[0]
    weights = [np.zeros((n, 1))] * num_nodes
    weights[0] = np.ones((n, 1), dtype=np.float32)
    for k in range(num_internal):
        go_left = (thetas[k] > 0).astype(np.float32)
        weights[2 * k + 1] = weights[k] * go_left
        weights[2 * k + 2] = weights[k] * (1.0 - go_left)
    scores = np.zeros((n, header["num_labels"]), dtype=np.float32)
    sigma = header["prediction_sigma"]
    for k in range(num_nodes):
        scores += weights[k] * w_scores[k] * np.tanh(sigma * v_scores[k])
    return scores


class TestStackedTree:
    # one label makes the node axis of the (N, nodes, 1) leaf terms contiguous,
    # where np.add.reduce would sum it pairwise; with at most one non-zero
    # term per tree level that changes a sum's bits only from depth 4 on
    @given(
        seed=st.integers(0, 3),
        batch=st.integers(1, 64),
        width=st.sampled_from([4, 8, 16]),
        depth=st.sampled_from([1, 2, 3, 4]),
        labels=st.sampled_from([1, 3, 12]),
    )
    @example(seed=0, batch=64, width=8, depth=4, labels=1)
    @settings(max_examples=20, deadline=None)
    def test_matches_per_node_evaluator_bitwise(self, seed, batch, width, depth, labels):
        image = _image(width, seed, depth, labels)
        x = np.random.default_rng(seed).standard_normal((batch, 49, 10)).astype(np.float32)
        for kernel in ("reference", "fused"):
            for cache in (True, False):
                model = PackedModel(image, cache=cache, kernel=kernel)
                expected = _per_node_scores(image, model.features(x))
                got = model(x)
                assert got.dtype == expected.dtype == np.float32
                assert got.tobytes() == expected.tobytes(), (kernel, cache)


def _old_conv_patches(x, kh, kw, stride, padding):
    """The ``np.pad`` + ``sliding_window_view`` patch extraction, verbatim."""
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    return np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        x.shape[0], windows.shape[2], windows.shape[3], -1
    )


class _PreviousForward:
    """The forward before patches went feature-major: its layer methods,
    ``features`` and ``__call__`` verbatim (with ``_old_conv_patches``, the
    bitwise twin of its patch extraction), run on a ``PackedModel``'s own
    plans and backend.  Batch-major patches, out-of-place epilogues and a
    node-by-node tree loop: every output byte must stay the same."""

    def __init__(self, model: PackedModel) -> None:
        self.kernel_backend = model.kernel_backend
        self.header = model.header
        self._input_shape = model._input_shape
        self._plan = model._plan

    def _conv(self, plan: LayerPlan, x: np.ndarray) -> np.ndarray:
        """Strassen conv/pointwise: patches → ternary W_b → ⊙â → ternary W_c."""
        kh, kw = plan.kernel
        meta = plan.meta
        matmul = self.kernel_backend.matmul
        patches = _old_conv_patches(x, kh, kw, meta["stride"], meta["padding"])
        n, oh, ow, d = patches.shape
        hidden = matmul(patches.reshape(-1, d), plan.wb)  # additions only
        hidden *= plan.a_hat  # the r multiplications
        out = matmul(hidden, plan.wc)  # additions only
        out = out * plan.out_scale + plan.out_shift
        out = out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)
        return np.maximum(out, 0.0) if meta.get("relu") else out

    def _depthwise(self, plan: LayerPlan, x: np.ndarray) -> np.ndarray:
        """Grouped-SPN depthwise: ternary per-channel filter → ⊙(â·w_c)."""
        kh, kw = plan.kernel
        meta = plan.meta
        c = x.shape[1]
        # same (M, C*K) patch layout as _conv; the block-diagonal planes
        # restrict each channel's gather to its own K columns
        patches = _old_conv_patches(x, kh, kw, meta["stride"], meta["padding"])
        n, oh, ow, _ = patches.shape
        hidden = self.kernel_backend.matmul(patches.reshape(n * oh * ow, -1), plan.wb)
        hidden = hidden.reshape(n, oh, ow, c).transpose(0, 3, 1, 2)
        scale = (plan.a_hat * plan.wc_vector * plan.out_scale).reshape(1, c, 1, 1)
        out = hidden * scale + plan.out_shift.reshape(1, c, 1, 1)
        return np.maximum(out, 0.0) if meta.get("relu") else out

    def _linear(self, plan: LayerPlan, z: np.ndarray) -> np.ndarray:
        """Strassen matmul on feature vectors (tree nodes)."""
        matmul = self.kernel_backend.matmul
        hidden = matmul(z, plan.wb) * plan.a_hat
        out = matmul(hidden, plan.wc)
        return out * plan.out_scale + plan.out_shift

    def features(self, x: np.ndarray) -> np.ndarray:
        """Conv feature extractor: (N, T, F) → (N, width).

        Raises :class:`ConfigError` unless each window's (T, F) is the
        image's ``input_shape``.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 2:
            x = x[None]
        if x.shape[1:] != self._input_shape:
            raise ConfigError(
                f"input windows have shape {x.shape[1:]}, but the image takes "
                f"{self._input_shape} (frames, coefficients)"
            )
        x = x[:, None, :, :]  # NCHW
        x = self._conv(self._plan("conv1"), x)
        for i in range(self.header["num_conv_layers"] - 1):
            x = self._depthwise(self._plan(f"ds{i}.dw"), x)
            x = self._conv(self._plan(f"ds{i}.pw"), x)
        return x.mean(axis=(2, 3))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Full inference: MFCC batch → (N, num_labels) class scores."""
        z = self.features(x)
        depth = self.header["tree_depth"]
        num_nodes = 2 ** (depth + 1) - 1
        num_internal = 2**depth - 1
        labels = self.header["num_labels"]
        sigma = self.header["prediction_sigma"]
        n = z.shape[0]
        # one stacked matmul pair scores every node: θ_0..θ_{I−1}, W_0..W_{N−1},
        # V_0..V_{N−1}; the routing and accumulation below keep the per-node
        # order, so each output element is summed exactly as node by node
        nodes = self._linear(self._plan("tree"), z)
        w_scores = nodes[:, num_internal : num_internal + num_nodes * labels]
        v_scores = nodes[:, num_internal + num_nodes * labels :]

        weights: List[np.ndarray] = [np.zeros((n, 1))] * num_nodes
        weights[0] = np.ones((n, 1), dtype=np.float32)
        for k in range(num_internal):
            go_left = (nodes[:, k : k + 1] > 0).astype(np.float32)
            weights[2 * k + 1] = weights[k] * go_left
            weights[2 * k + 2] = weights[k] * (1.0 - go_left)

        scores = np.zeros((n, labels), dtype=np.float32)
        for k in range(num_nodes):
            w_score = w_scores[:, k * labels : (k + 1) * labels]
            v_score = v_scores[:, k * labels : (k + 1) * labels]
            scores += weights[k] * w_score * np.tanh(sigma * v_score)
        return scores


class TestPreviousForward:
    @given(
        seed=st.integers(0, 3),
        batch=st.integers(1, 64),
        width=st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=20, deadline=None)
    def test_forward_and_features_match_previous_bitwise(self, seed, batch, width):
        image = _image(width, seed)
        x = np.random.default_rng(seed).standard_normal((batch, 49, 10)).astype(np.float32)
        for kernel in ("reference", "fused"):
            for cache in (True, False):
                model = PackedModel(image, cache=cache, kernel=kernel)
                previous = _PreviousForward(model)
                pairs = ((model(x), previous(x)), (model.features(x), previous.features(x)))
                for got, want in pairs:
                    assert got.dtype == want.dtype == np.float32
                    assert got.tobytes() == want.tobytes(), (kernel, cache)

    @given(
        seed=st.integers(0, 3),
        batch=st.integers(1, 16),
        width=st.sampled_from([4, 8, 16]),
        layout=st.sampled_from(["nchw", "nhwc"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_layer_methods_match_previous_bitwise(self, seed, batch, width, layout):
        """Each layer method, on a true-NCHW input or an NCHW view on NHWC
        memory, returns the previous forward's values with its strides: an
        NCHW view on NHWC memory."""
        image = _image(width, seed)
        rng = np.random.default_rng(seed)
        for kernel in ("reference", "fused"):
            model = PackedModel(image, kernel=kernel)
            previous = _PreviousForward(model)
            for name, method, channels, height, cols in (
                ("conv1", "_conv", 1, 49, 10),
                ("ds0.dw", "_depthwise", width, 25, 5),
                ("ds0.pw", "_conv", width, 25, 5),
            ):
                x = rng.standard_normal((batch, channels, height, cols)).astype(np.float32)
                if layout == "nhwc":
                    x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
                plan = model._plan(name)
                got = getattr(model, method)(plan, x)
                want = getattr(previous, method)(plan, x)
                assert got.shape == want.shape and got.strides == want.strides, name
                assert got.tobytes() == want.tobytes(), (kernel, name)


@st.composite
def _patch_cases(draw):
    """(x, kh, kw, stride, padding) with the window inside the padded input."""
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    ph, pw = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    kh = draw(st.integers(1, h + 2 * ph))
    kw = draw(st.integers(1, w + 2 * pw))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    values = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((n, h, w, c))
    nhwc = values.astype(np.float32)
    # an NCHW view on NHWC memory (what every layer output is) or plain NCHW
    x = nhwc.transpose(0, 3, 1, 2)
    if draw(st.booleans()):
        x = np.ascontiguousarray(x)
    return x, kh, kw, stride, (ph, pw)


class TestConvPatches:
    @given(_patch_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_pad_and_sliding_window_bitwise(self, case):
        x, kh, kw, stride, padding = case
        got = _conv_patches(x, kh, kw, stride, padding)
        want = _old_conv_patches(x, kh, kw, stride, padding)
        # feature-major: (C*KH*KW, N, OH, OW) against (N, OH, OW, C*KH*KW)
        assert got.transpose(1, 2, 3, 0).shape == want.shape and got.dtype == want.dtype
        assert np.ascontiguousarray(got.transpose(1, 2, 3, 0)).tobytes() == want.tobytes()
        if (kh, kw, stride, padding) != (1, 1, (1, 1), (0, 0)):
            # straight into the fused gather's feature-major layout
            assert got.flags.c_contiguous

    def test_pointwise_patches_are_a_view(self, rng):
        nhwc = rng.standard_normal((2, 5, 4, 6)).astype(np.float32)
        x = nhwc.transpose(0, 3, 1, 2)
        patches = _conv_patches(x, 1, 1, (1, 1), (0, 0))
        assert np.shares_memory(patches, nhwc)
        # the matmul input is the C-contiguous NHWC matrix itself
        matrix = patches.reshape(6, -1).T
        assert np.shares_memory(matrix, nhwc) and matrix.flags.c_contiguous
        np.testing.assert_array_equal(matrix, nhwc.reshape(-1, 6))
