"""Binary model images for frozen ST-HybridNets.

A *model image* is the flat artifact a microcontroller would flash: a JSON
header describing the architecture, followed by, per layer, the 2-bit packed
ternary transforms and little-endian float32 tables (â, output scale/shift).

The Bonsai tree is one record (format version 2): every node's Strassen
linear stacked by rows, θ_0..θ_{I−1}, W_0..W_{N−1}, V_0..V_{N−1}, with
``meta["block_rows"]`` giving each node's W_c row count.  All of them read
the same pooled features, so the whole tree is two ternary matmuls.

One honest deviation from the paper's byte accounting: each conv layer
carries an output *scale* in addition to the shift (bias), because the
batch-norm per-channel scale cannot be absorbed into a ternary ``W_c``.  In
a real integer pipeline this scale rides along with the requantization
multiplier that exists anyway; the paper's size tables count only the shift.
:meth:`ModelImage.total_bytes` reports both views.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.deploy.packing import pack_ternary, unpack_ternary
from repro.errors import ConfigError

if TYPE_CHECKING:  # the build side only: parsing an image never loads the training stack
    from repro.core.hybrid.strassenified import STHybridNet

_MAGIC = b"STHY"
_VERSION = 2
#: magic (4 B) + little-endian uint16 version + uint32 manifest length
_PREAMBLE_BYTES = 10


@dataclass
class LayerRecord:
    """One deployed layer: packed ternary transforms + float tables."""

    name: str
    kind: str  # "conv" | "dw" | "pw" | "linear"
    meta: Dict[str, object]
    wb_blob: bytes
    wb_shape: Tuple[int, ...]
    wc_blob: bytes
    wc_shape: Tuple[int, ...]
    a_hat: np.ndarray
    out_scale: np.ndarray
    out_shift: np.ndarray

    def wb(self) -> np.ndarray:
        """Unpacked ternary W_b."""
        return unpack_ternary(self.wb_blob, self.wb_shape)

    def wc(self) -> np.ndarray:
        """Unpacked ternary W_c."""
        return unpack_ternary(self.wc_blob, self.wc_shape)

    @property
    def ternary_bytes(self) -> int:
        """Packed ternary storage."""
        return len(self.wb_blob) + len(self.wc_blob)

    @property
    def float_bytes(self) -> int:
        """Float-table storage (â + scale + shift at fp32)."""
        return 4 * (self.a_hat.size + self.out_scale.size + self.out_shift.size)


@dataclass
class ModelImage:
    """A complete serialised ST-HybridNet."""

    header: Dict[str, object]
    layers: List[LayerRecord] = field(default_factory=list)

    def layer(self, name: str) -> LayerRecord:
        """Look up a layer record by name."""
        for record in self.layers:
            if record.name == name:
                return record
        raise KeyError(name)

    def total_bytes(self, count_scales: bool = True) -> int:
        """Image payload size; ``count_scales=False`` mirrors the paper's
        accounting (scale vectors folded into requantization)."""
        total = 0
        for record in self.layers:
            total += record.ternary_bytes + 4 * record.a_hat.size
            total += 4 * record.out_shift.size
            if count_scales:
                total += 4 * record.out_scale.size
        return total

    # -- flat serialisation ------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialise to a flat binary blob (magic + header + payload)."""
        manifest = {"header": self.header, "layers": []}
        payload = bytearray()

        def append(blob: bytes) -> Tuple[int, int]:
            """Append ``blob`` to the payload; returns its (offset, length) span."""
            offset = len(payload)
            payload.extend(blob)
            return offset, len(blob)

        for record in self.layers:
            entry: Dict[str, object] = {
                "name": record.name,
                "kind": record.kind,
                "meta": record.meta,
                "wb_shape": list(record.wb_shape),
                "wc_shape": list(record.wc_shape),
            }
            entry["wb_span"] = append(record.wb_blob)
            entry["wc_span"] = append(record.wc_blob)
            entry["a_hat_span"] = append(record.a_hat.astype("<f4").tobytes())
            entry["scale_span"] = append(record.out_scale.astype("<f4").tobytes())
            entry["shift_span"] = append(record.out_shift.astype("<f4").tobytes())
            manifest["layers"].append(entry)

        manifest_bytes = json.dumps(manifest).encode("utf-8")
        return (
            _MAGIC
            + struct.pack("<HI", _VERSION, len(manifest_bytes))
            + manifest_bytes
            + bytes(payload)
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ModelImage":
        """Parse a blob produced by :meth:`to_bytes`.

        Accepts only a whole image.  Raises :class:`ConfigError` on a bad
        magic or version, a blob cut short inside its preamble or manifest,
        a span outside the payload, payload bytes after the last span, a
        2-bit blob or float table whose length disagrees with its layer's
        shapes, or a block list that does not tile its record.
        """
        if blob[:4] != _MAGIC:
            raise ConfigError("not an ST-HybridNet model image (bad magic)")
        if len(blob) < _PREAMBLE_BYTES:
            raise ConfigError(
                f"truncated image: {len(blob)} bytes, shorter than the "
                f"{_PREAMBLE_BYTES}-byte preamble"
            )
        version, manifest_len = struct.unpack_from("<HI", blob, 4)
        if version == 1:
            raise ConfigError(
                "image format version 1 (one record per tree node) is no longer "
                "read; rebuild the image with repro.deploy.build_image"
            )
        if version != _VERSION:
            raise ConfigError(f"unsupported image version {version}")
        payload_start = _PREAMBLE_BYTES + manifest_len
        if len(blob) < payload_start:
            raise ConfigError(
                f"truncated image: {len(blob)} bytes, but the manifest ends at byte {payload_start}"
            )
        try:
            manifest = json.loads(blob[_PREAMBLE_BYTES:payload_start].decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
            raise ConfigError(f"corrupt image manifest: {exc}") from exc
        payload = blob[payload_start:]
        end, end_layer = 0, None

        def cut(name: str, part: str, span) -> bytes:
            """Slice a (offset, length) span back out of the payload."""
            nonlocal end, end_layer
            offset, length = span
            if offset < 0 or length < 0 or offset + length > len(payload):
                raise ConfigError(
                    f"layer {name!r}: {part} span ({offset}, {length}) lies outside "
                    f"the {len(payload)}-byte payload"
                )
            if offset + length >= end:
                end, end_layer = offset + length, name
            return payload[offset : offset + length]

        def codes(name: str, part: str, span, shape: Tuple[int, ...]) -> bytes:
            """A 2-bit blob that must hold exactly the codes ``shape`` needs."""
            data = cut(name, part, span)
            count = int(np.prod(shape))
            if len(data) != (count + 3) // 4:
                raise ConfigError(
                    f"layer {name!r}: {part} holds {len(data)} bytes, not the "
                    f"{(count + 3) // 4} that {count} 2-bit weights need"
                )
            return data

        def table(name: str, part: str, span, count: int) -> np.ndarray:
            """A float32 table that must hold exactly ``count`` entries."""
            data = cut(name, part, span)
            if len(data) != 4 * count:
                raise ConfigError(
                    f"layer {name!r}: {part} holds {len(data)} bytes, "
                    f"not the {count} float32 entries its shapes need"
                )
            return np.frombuffer(data, dtype="<f4").copy()

        layers = []
        for entry in manifest["layers"]:
            name = entry["name"]
            wb_shape, wc_shape = tuple(entry["wb_shape"]), tuple(entry["wc_shape"])
            if "block_rows" in entry["meta"]:
                _check_block_rows(name, entry["meta"]["block_rows"], wb_shape, wc_shape)
            layers.append(
                LayerRecord(
                    name=name,
                    kind=entry["kind"],
                    meta=entry["meta"],
                    wb_blob=codes(name, "wb", entry["wb_span"], wb_shape),
                    wb_shape=wb_shape,
                    wc_blob=codes(name, "wc", entry["wc_span"], wc_shape),
                    wc_shape=wc_shape,
                    a_hat=table(name, "a_hat", entry["a_hat_span"], wb_shape[0]),
                    out_scale=table(name, "out_scale", entry["scale_span"], wc_shape[0]),
                    out_shift=table(name, "out_shift", entry["shift_span"], wc_shape[0]),
                )
            )
        if end != len(payload):
            raise ConfigError(
                f"{len(payload) - end} stray payload bytes after the last span "
                f"(layer {end_layer!r})"
            )
        return cls(header=manifest["header"], layers=layers)


def _check_block_rows(name: str, block_rows, wb_shape, wc_shape) -> None:
    """Reject a block list that does not tile its stacked record.

    Block ``b`` owns ``wc_shape[1]`` rows of W_b and ``block_rows[b]`` rows
    of W_c, so the counts must be positive, sum to ``wc_shape[0]``, and
    number ``wb_shape[0] / wc_shape[1]``.
    """
    if not isinstance(block_rows, list) or not all(
        isinstance(count, int) and count >= 1 for count in block_rows
    ):
        raise ConfigError(f"layer {name!r}: block_rows {block_rows!r} must be counts >= 1")
    if sum(block_rows) != wc_shape[0]:
        raise ConfigError(
            f"layer {name!r}: block_rows sum to {sum(block_rows)}, but W_c has "
            f"{wc_shape[0]} rows"
        )
    if len(block_rows) * wc_shape[1] != wb_shape[0]:
        raise ConfigError(
            f"layer {name!r}: {len(block_rows)} blocks of {wc_shape[1]} hidden units "
            f"do not make W_b's {wb_shape[0]} rows"
        )


def _conv_record(name: str, kind: str, layer, bn, meta: Dict[str, object]) -> LayerRecord:
    """Build a record for a frozen strassen layer followed by ``bn``."""
    from repro.core.strassen.layers import StrassenDepthwiseConv2d, StrassenLinear
    from repro.nn.norm import bn_scale_shift

    if layer.phase != "frozen":
        raise ConfigError(f"layer {name} must be frozen before imaging")
    if bn is not None:
        scale, shift = bn_scale_shift(bn)
    else:
        channels = layer.out_features if isinstance(layer, StrassenLinear) else (
            layer.channels if isinstance(layer, StrassenDepthwiseConv2d) else layer.out_channels
        )
        scale = np.ones(channels)
        shift = np.zeros(channels)
        if layer.bias is not None:
            shift = layer.bias.data.astype(np.float64)
    wb_blob, wb_shape = pack_ternary(layer.wb.data)
    wc_blob, wc_shape = pack_ternary(layer.wc.data)
    return LayerRecord(
        name=name,
        kind=kind,
        meta=meta,
        wb_blob=wb_blob,
        wb_shape=wb_shape,
        wc_blob=wc_blob,
        wc_shape=wc_shape,
        a_hat=layer.a_hat.data.astype(np.float32),
        out_scale=scale.astype(np.float32),
        out_shift=shift.astype(np.float32),
    )


def build_image(model: STHybridNet) -> ModelImage:
    """Serialise a trained, frozen :class:`STHybridNet` into a model image.

    Batch-norm layers are folded into per-layer (scale, shift) tables; the
    tree's node matmuls are stacked into one ``"tree"`` linear record
    (:func:`_tree_record`), with the tree topology in the header.
    """
    cfg = model.config
    header = {
        "arch": "st-hybrid",
        "width": cfg.width,
        "num_conv_layers": cfg.num_conv_layers,
        "tree_depth": cfg.tree_depth,
        "num_labels": cfg.num_labels,
        "input_shape": list(cfg.input_shape),
        "conv_r": cfg.conv_r,
        "tree_r": cfg.tree_r,
        "prediction_sigma": cfg.prediction_sigma,
    }
    image = ModelImage(header=header)

    image.layers.append(
        _conv_record(
            "conv1",
            "conv",
            model.conv1,
            model.bn1,
            {"stride": [2, 2], "padding": [5, 1], "relu": True},
        )
    )
    for i in range(cfg.num_ds_blocks):
        block = getattr(model, f"ds{i}")
        image.layers.append(
            _conv_record(
                f"ds{i}.dw",
                "dw",
                block.depthwise,
                block.bn_dw,
                {"stride": [1, 1], "padding": [1, 1], "relu": True},
            )
        )
        image.layers.append(
            _conv_record(
                f"ds{i}.pw",
                "pw",
                block.pointwise,
                block.bn_pw,
                {"stride": [1, 1], "padding": [0, 0], "relu": True},
            )
        )
    image.layers.append(_tree_record(model.tree))
    return image


def _tree_record(tree) -> LayerRecord:
    """Stack every tree node's Strassen linear into one ``"tree"`` record.

    Rows run θ_0..θ_{I−1}, W_0..W_{N−1}, V_0..V_{N−1}: W_b, W_c and the
    float tables are each node's stacked in that order, and
    ``meta["block_rows"]`` lists each node's W_c row count (1 for θ,
    ``num_labels`` for W and V).  The ternary weights are the per-node ones
    back to back, so the packed size is the per-node blobs' sum whenever each
    node's weight count is a multiple of 4 (true at 12 labels).
    """
    layers = [getattr(tree, f"theta{k}") for k in range(tree.num_internal)]
    layers += [getattr(tree, f"w{k}") for k in range(tree.num_nodes)]
    layers += [getattr(tree, f"v{k}") for k in range(tree.num_nodes)]
    nodes = [_conv_record("tree", "linear", layer, None, {}) for layer in layers]
    wb_blob, wb_shape = pack_ternary(np.concatenate([node.wb() for node in nodes]))
    wc_blob, wc_shape = pack_ternary(np.concatenate([node.wc() for node in nodes]))
    return LayerRecord(
        name="tree",
        kind="linear",
        meta={"relu": False, "block_rows": [node.wc_shape[0] for node in nodes]},
        wb_blob=wb_blob,
        wb_shape=wb_shape,
        wc_blob=wc_blob,
        wc_shape=wc_shape,
        a_hat=np.concatenate([node.a_hat for node in nodes]),
        out_scale=np.concatenate([node.out_scale for node in nodes]),
        out_shift=np.concatenate([node.out_shift for node in nodes]),
    )
