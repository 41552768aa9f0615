"""Cached packed-ternary runtime for ST-HybridNet model images.

:class:`PackedModel` is the serving-side counterpart of
:class:`repro.deploy.interpreter.ImageInterpreter`: it consumes the same
:class:`~repro.deploy.image.ModelImage` bytes, but decodes each layer's
2-bit blobs **once** into bit-plane form (:mod:`repro.serving.kernels`) and
then executes every forward as gather-accumulate passes — no per-call
unpacking, no dense float weight matrices.

``cache=False`` keeps the microcontroller-faithful on-the-fly semantics
(decode on every call, nothing resident beyond the image) through the very
same kernels, so both modes are bitwise identical; the only difference is
when decoding happens.

A forward runs two ternary matmuls per conv and pointwise layer, one per
depthwise layer, and two for the whole Bonsai tree, whose nodes the image
stores as one stacked record (row-stacked W_b, block-diagonal W_c): ten
for the default three-conv-layer network.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.deploy.image import LayerRecord, ModelImage
from repro.deploy.packing import unpack_ternary
from repro.errors import ConfigError
from repro.serving.kernels import (
    as_block_diagonal,
    decode_planes,
    get_kernel_profile,
)
from repro.serving.kernels_fast import KernelBackend, resolve_backend


def _profiled(method):
    """Attribute a layer method's gather passes to its plan kind.

    With no profile installed this is one global load per layer call;
    with one, the wrapped call runs under ``profile.layer(plan.kind)``
    so nested ``_plane_sums`` timings land on the right kind.  Timing
    never touches the numerics — profiled and unprofiled calls are
    bitwise identical.
    """

    @functools.wraps(method)
    def wrapper(self, plan, x):
        profile = get_kernel_profile()
        if profile is None:
            return method(self, plan, x)
        with profile.layer(plan.kind):
            return method(self, plan, x)

    return wrapper


@dataclass(frozen=True)
class LayerPlan:
    """One decoded layer: bit-plane transforms + float tables, forward-ready.

    ``wb`` / ``wc`` hold the *backend-prepared* plane layout — the plain
    CSR :class:`~repro.serving.kernels.TernaryPlanes` for the reference
    backend, :class:`~repro.serving.kernels_fast.FusedPlanes` for the fused
    one — so a plan only ever executes on the backend that decoded it.
    """

    kind: str  # "conv" | "dw" | "pw" | "linear"
    meta: Dict[str, object]
    wb: object  # backend-prepared planes
    kernel: Tuple[int, int]  # (KH, KW); (1, 1) for linear
    wc: Optional[object]  # None for depthwise (per-channel scalar w_c)
    wc_vector: Optional[np.ndarray]  # the depthwise per-channel ternary w_c
    a_hat: np.ndarray
    out_scale: np.ndarray
    out_shift: np.ndarray

    @property
    def nbytes(self) -> int:
        """Resident bytes of the decoded plan (planes + float tables)."""
        total = self.wb.nbytes + (self.wc.nbytes if self.wc is not None else 0)
        if self.wc_vector is not None:
            total += self.wc_vector.nbytes
        return total + self.a_hat.nbytes + self.out_scale.nbytes + self.out_shift.nbytes


def decode_layer(record: LayerRecord, backend: Optional[KernelBackend] = None) -> LayerPlan:
    """Decode one :class:`LayerRecord` into an executable :class:`LayerPlan`.

    ``backend`` prepares the decoded planes into its execution layout; the
    default is the reference backend, whose prepared layout is the CSR
    planes at their narrowest index widths — existing callers keep seeing
    ``TernaryPlanes`` on the plan.
    A record with ``meta["block_rows"]`` (the stacked tree) gets a
    block-diagonal W_c: block ``b`` reads only hidden columns
    ``[b*r, (b+1)*r)``, its own node's.
    """
    if backend is None:
        backend = resolve_backend("reference")
    if record.kind == "dw":
        # (C, KH, KW): block-diagonal planes over the (M, C*K) patch matrix.
        c, kh, kw = record.wb_shape
        wb = as_block_diagonal(decode_planes(record.wb_blob, record.wb_shape), kh * kw)
        wc_planes = None
        wc_vector = unpack_ternary(record.wc_blob, record.wc_shape).astype(np.float32)
    else:
        shape = record.wb_shape
        kh, kw = (shape[2], shape[3]) if len(shape) == 4 else (1, 1)
        wb = decode_planes(record.wb_blob, shape)
        wc_planes = decode_planes(record.wc_blob, record.wc_shape)
        if "block_rows" in record.meta:
            wc_planes = as_block_diagonal(
                wc_planes, record.wc_shape[1], record.meta["block_rows"]
            )
        wc_vector = None
    return LayerPlan(
        kind=record.kind,
        meta=record.meta,
        wb=backend.prepare(wb),
        kernel=(kh, kw),
        wc=None if wc_planes is None else backend.prepare(wc_planes),
        wc_vector=wc_vector,
        a_hat=record.a_hat,
        out_scale=record.out_scale,
        out_shift=record.out_shift,
    )


def _conv_patches(x: np.ndarray, kh: int, kw: int, stride, padding) -> np.ndarray:
    """The feature-major ``(C*KH*KW, N, OH, OW)`` patch matrix of an NCHW input.

    Its first axis runs channel-major, then KH, then KW, the order W_b's
    columns are flattened in, so ``patches.reshape(d, -1).T`` is the
    ``(N*OH*OW, d)`` matmul input whose transpose, the fused gather's
    feature-major layout, is C-contiguous.  The windows are cut from an
    NHWC buffer (a zeroed copy when padding, else the NHWC view of ``x``,
    which is free for every layer output here: their NCHW views sit on NHWC
    memory) through one strided view, and copied once.  A 1×1, stride-1,
    unpadded (pointwise) layer's patches are a view of that NHWC memory,
    with no copy: their matmul input is the C-contiguous NHWC matrix.
    """
    sh, sw = stride
    ph, pw = padding
    x = x.transpose(0, 2, 3, 1)
    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        return x.transpose(3, 0, 1, 2)
    n, h, w, c = x.shape
    if ph or pw:
        padded = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
        padded[:, ph : ph + h, pw : pw + w] = x
        x = padded
    else:
        x = np.ascontiguousarray(x)  # the strided view below needs one buffer
    oh = (x.shape[1] - kh) // sh + 1
    ow = (x.shape[2] - kw) // sw + 1
    s_n, s_h, s_w, s_c = x.strides
    windows = np.ndarray(
        (c, kh, kw, n, oh, ow),
        dtype=x.dtype,
        buffer=x,
        strides=(s_c, s_h, s_w, s_n, s_h * sh, s_w * sw),
    )
    return np.ascontiguousarray(windows).reshape(c * kh * kw, n, oh, ow)


class PackedModel:
    """Executes an ST-HybridNet model image from packed bit-planes.

    ``cache=True`` decodes every layer once at construction; ``cache=False``
    re-decodes per call (the deploy-image reference semantics).  ``kernel``
    is the one place an execution backend is chosen
    (:mod:`repro.serving.kernels_fast`): ``"reference"``, ``"fused"``, a
    :class:`~repro.serving.kernels_fast.KernelBackend` instance, or
    ``None`` for the fused default.  Both backends are bitwise identical,
    so the choice only moves latency.
    Instances are read-only after construction and safe to share across
    threads.
    """

    def __init__(
        self,
        image: ModelImage,
        cache: bool = True,
        kernel: Union[str, KernelBackend, None] = None,
    ) -> None:
        if image.header.get("arch") != "st-hybrid":
            raise ConfigError(f"unsupported arch {image.header.get('arch')!r}")
        self.image = image
        self.header = image.header
        self.cache = cache
        self.kernel_backend = resolve_backend(kernel)
        self._input_shape = tuple(image.header["input_shape"])
        self._records: Dict[str, LayerRecord] = {r.name: r for r in image.layers}
        self._plans: Optional[Dict[str, LayerPlan]] = (
            {name: decode_layer(r, self.kernel_backend) for name, r in self._records.items()}
            if cache
            else None
        )
        # plans are fixed for the instance's lifetime, so the size is too
        self._decoded_bytes = (
            0 if self._plans is None else sum(plan.nbytes for plan in self._plans.values())
        )

    def _plan(self, name: str) -> LayerPlan:
        if self._plans is not None:
            return self._plans[name]
        return decode_layer(self._records[name], self.kernel_backend)

    def decoded_bytes(self) -> int:
        """Resident size of all cached plans (0 in on-the-fly mode)."""
        return self._decoded_bytes

    # -- layer kernels --------------------------------------------------- #

    def _strassen(self, plan: LayerPlan, x: np.ndarray) -> np.ndarray:
        """ternary W_b → ⊙â → ternary W_c → scale, shift (→ ReLU), in place
        on each matmul's fresh (M, rows) result."""
        matmul = self.kernel_backend.matmul
        hidden = matmul(x, plan.wb)  # additions only
        hidden *= plan.a_hat  # the r multiplications
        out = matmul(hidden, plan.wc)  # additions only
        out *= plan.out_scale
        out += plan.out_shift
        if plan.meta.get("relu"):
            np.maximum(out, 0.0, out=out)
        return out

    @_profiled
    def _conv(self, plan: LayerPlan, x: np.ndarray) -> np.ndarray:
        """Strassen conv/pointwise: patches → ternary W_b → ⊙â → ternary W_c.

        Takes an NCHW array and returns an NCHW view on NHWC memory.
        """
        kh, kw = plan.kernel
        meta = plan.meta
        patches = _conv_patches(x, kh, kw, meta["stride"], meta["padding"])
        d, n, oh, ow = patches.shape
        out = self._strassen(plan, patches.reshape(d, -1).T)
        return out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)

    @_profiled
    def _depthwise(self, plan: LayerPlan, x: np.ndarray) -> np.ndarray:
        """Grouped-SPN depthwise: ternary per-channel filter → ⊙(â·w_c).

        Takes an NCHW array and returns an NCHW view on NHWC memory.
        """
        kh, kw = plan.kernel
        meta = plan.meta
        # same patch layout as _conv; the block-diagonal planes restrict
        # each channel's gather to its own K columns
        patches = _conv_patches(x, kh, kw, meta["stride"], meta["padding"])
        d, n, oh, ow = patches.shape
        out = self.kernel_backend.matmul(patches.reshape(d, -1).T, plan.wb)
        out *= plan.a_hat * plan.wc_vector * plan.out_scale
        out += plan.out_shift
        if meta.get("relu"):
            np.maximum(out, 0.0, out=out)
        return out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)

    @_profiled
    def _linear(self, plan: LayerPlan, z: np.ndarray) -> np.ndarray:
        """Strassen matmul on feature vectors (tree nodes)."""
        return self._strassen(plan, z)

    # -- full network ----------------------------------------------------- #

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
        # the mean's summation order follows the memory layout: it reduces
        # the NHWC memory every layer output sits on
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
        # V_0..V_{N−1}; each output element below is computed and summed in
        # the node-by-node order
        nodes = self._linear(self._plan("tree"), z)
        w_scores = nodes[:, num_internal : num_internal + num_nodes * labels]
        v_scores = nodes[:, num_internal + num_nodes * labels :]

        # weights[:, k] is 1.0 on the path a window takes and 0.0 off it: a
        # node's weight is its parent's times the branch taken, level by level
        go_left = nodes[:, :num_internal, None] > 0
        weights = np.empty((n, num_nodes, 1), dtype=np.float32)
        weights[:, 0] = 1.0
        for level in range(depth):
            parents = slice(2**level - 1, 2 ** (level + 1) - 1)
            children = weights[:, parents.stop : 2 * parents.stop + 1].reshape(n, -1, 2)
            np.multiply(weights[:, parents], go_left[:, parents], out=children[:, :, :1])
            np.multiply(weights[:, parents], ~go_left[:, parents], out=children[:, :, 1:])

        # (N, nodes, L) leaf terms w·W_k(z)·tanh(σ·V_k(z)), summed node by node
        # from +0.0: np.add.reduce would sum a contiguous node axis pairwise
        terms = weights * w_scores.reshape(n, num_nodes, labels)
        tanh = sigma * v_scores.reshape(n, num_nodes, labels)
        terms *= np.tanh(tanh, out=tanh)
        scores = np.zeros((n, labels), dtype=np.float32)
        for k in range(num_nodes):
            scores += terms[:, k]
        return scores

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax labels for a batch."""
        return np.argmax(self(x), axis=-1)
