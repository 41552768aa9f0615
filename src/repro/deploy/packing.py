"""2-bit packing of ternary weight tensors (4 weights per byte).

Encoding: each weight maps to a 2-bit code — ``0 -> 0b00``, ``+1 -> 0b01``,
``-1 -> 0b10`` (``0b11`` is reserved).  Codes fill each byte little-end
first, so weight ``i`` lives at bits ``2*(i % 4)`` of byte ``i // 4``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import QuantizationError

CODE_ZERO, CODE_PLUS, CODE_MINUS, CODE_RESERVED = 0b00, 0b01, 0b10, 0b11


def pack_ternary(values: np.ndarray) -> Tuple[bytes, Tuple[int, ...]]:
    """Pack a {-1, 0, +1} tensor into bytes; returns ``(blob, shape)``.

    Raises :class:`QuantizationError` on non-ternary input — packing is the
    last step after freezing, nothing should quantise here.
    """
    flat = np.asarray(values).reshape(-1)
    if flat.size and not np.isin(flat, (-1.0, 0.0, 1.0)).all():
        bad = flat[~np.isin(flat, (-1.0, 0.0, 1.0))][:4]
        raise QuantizationError(f"non-ternary values cannot be packed: {bad}")
    codes = np.full(flat.shape, CODE_ZERO, dtype=np.uint8)
    codes[flat == 1.0] = CODE_PLUS
    codes[flat == -1.0] = CODE_MINUS
    pad = (-flat.size) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    quads = codes.reshape(-1, 4)
    packed = quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
    return packed.astype(np.uint8).tobytes(), tuple(np.shape(values))


#: byte value -> its four 2-bit codes (weight order) packed into one uint32
#: word, so a blob unpacks with one table lookup; viewing the looked-up words
#: as bytes yields the codes in weight order on any byte order
_CODE_WORDS = (
    (np.arange(256, dtype=np.uint8)[:, None] >> np.array([0, 2, 4, 6], dtype=np.uint8)) & 0b11
).view(np.uint32).ravel()


#: code -> weight value (the reserved code never gets this far)
_CODE_VALUES = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.float32)


def unpack_codes(blob: bytes, count: int) -> np.ndarray:
    """Extract the first ``count`` 2-bit codes from ``blob`` as uint8.

    Validates the blob length and rejects the reserved ``0b11`` code — a
    reserved code in live weight positions means the blob is corrupt (or was
    produced by a future encoding this decoder does not understand).  The
    padding codes after weight ``count`` in the last byte are not checked.
    """
    raw = np.frombuffer(blob, dtype=np.uint8)
    expected_bytes = (count + 3) // 4
    if len(raw) != expected_bytes:
        raise QuantizationError(
            f"blob holds {len(raw)} bytes but {count} weights need {expected_bytes}"
        )
    codes = _CODE_WORDS[raw].view(np.uint8)[:count]
    if codes.max(initial=0) == CODE_RESERVED:
        bad = int(np.argmax(codes == CODE_RESERVED))
        raise QuantizationError(
            f"reserved code 0b11 at weight {bad}: blob is not valid 2-bit ternary"
        )
    return codes


def unpack_ternary(blob: bytes, shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`pack_ternary`; returns a float32 {-1, 0, 1} array."""
    count = math.prod(shape) if shape else 0
    return _CODE_VALUES[unpack_codes(blob, count)].reshape(shape)
