"""Deployment artifacts: 2-bit packing, model image, reference interpreter."""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autodiff.tensor import Tensor, no_grad
from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import ImageInterpreter, ModelImage, build_image, pack_ternary, unpack_ternary
from repro.deploy.packing import CODE_RESERVED, unpack_codes
from repro.errors import ConfigError, QuantizationError
from repro.serving import ClusterRouter

TERNARY_ARRAYS = arrays(
    dtype=np.float32,
    shape=array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
    elements=st.sampled_from([-1.0, 0.0, 1.0]),
)


class TestPacking:
    @given(TERNARY_ARRAYS)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, values):
        blob, shape = pack_ternary(values)
        restored = unpack_ternary(blob, shape)
        np.testing.assert_array_equal(restored, values)

    @given(TERNARY_ARRAYS)
    @settings(max_examples=80, deadline=None)
    def test_four_weights_per_byte(self, values):
        blob, _ = pack_ternary(values)
        assert len(blob) == (values.size + 3) // 4

    def test_rejects_non_ternary(self):
        with pytest.raises(QuantizationError):
            pack_ternary(np.array([0.5, 1.0]))

    def test_unpack_validates_length(self):
        blob, _ = pack_ternary(np.ones(8, dtype=np.float32))
        with pytest.raises(QuantizationError):
            unpack_ternary(blob, (16,))

    def test_empty_tensor_roundtrip(self):
        blob, shape = pack_ternary(np.zeros((0,), dtype=np.float32))
        assert blob == b"" and shape == (0,)
        assert unpack_ternary(blob, shape).shape == (0,)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 9])
    def test_size_not_divisible_by_four(self, size):
        values = np.resize(np.array([1.0, -1.0, 0.0], dtype=np.float32), size)
        blob, shape = pack_ternary(values)
        assert len(blob) == (size + 3) // 4  # trailing codes are zero padding
        np.testing.assert_array_equal(unpack_ternary(blob, shape), values)

    def test_reserved_code_rejected(self):
        with pytest.raises(QuantizationError, match="reserved"):
            unpack_ternary(bytes([0b11]), (4,))

    def test_reserved_code_in_padding_ignored(self):
        # weight count 1: only the low 2 bits are live, garbage padding is fine
        assert unpack_ternary(bytes([0b1101]), (1,))[0] == 1.0

    @pytest.mark.parametrize("count", range(10))
    def test_table_unpack_matches_shift_unpack(self, count):
        """The table lookup decodes every byte value exactly as the four
        shift-and-mask passes it replaced, errors included; reserved codes
        in the last byte's padding stay accepted."""
        for value in range(256):
            blob = bytes([value]) * ((count + 3) // 4)
            try:
                want = _shift_unpack_codes(blob, count)
            except QuantizationError as exc:
                with pytest.raises(QuantizationError) as caught:
                    unpack_codes(blob, count)
                assert str(caught.value) == str(exc), (value, count)
                continue
            got = unpack_codes(blob, count)
            assert got.dtype == want.dtype == np.uint8
            assert got.tobytes() == want.tobytes(), (value, count)


def _shift_unpack_codes(blob: bytes, count: int) -> np.ndarray:
    """The shift-and-mask ``unpack_codes`` the table lookup replaced."""
    raw = np.frombuffer(blob, dtype=np.uint8)
    expected_bytes = (count + 3) // 4
    if len(raw) != expected_bytes:
        raise QuantizationError(
            f"blob holds {len(raw)} bytes but {count} weights need {expected_bytes}"
        )
    codes = np.empty(len(raw) * 4, dtype=np.uint8)
    codes[0::4] = raw & 0b11
    codes[1::4] = (raw >> 2) & 0b11
    codes[2::4] = (raw >> 4) & 0b11
    codes[3::4] = (raw >> 6) & 0b11
    codes = codes[:count]
    if (codes == CODE_RESERVED).any():
        bad = int(np.argmax(codes == CODE_RESERVED))
        raise QuantizationError(
            f"reserved code 0b11 at weight {bad}: blob is not valid 2-bit ternary"
        )
    return codes


@pytest.fixture(scope="module")
def frozen_model():
    model = STHybridNet(HybridConfig(width=8), rng=0)
    freeze_all(model)
    model.eval()
    return model


@pytest.fixture(scope="module")
def image(frozen_model):
    return build_image(frozen_model)


class TestImage:
    def test_layer_inventory(self, image):
        names = [record.name for record in image.layers]
        assert names == ["conv1", "ds0.dw", "ds0.pw", "ds1.dw", "ds1.pw", "tree"]
        # the whole tree is one stacked linear: 3 thetas (one W_c row each),
        # then 7 W and 7 V nodes (num_labels rows each), r = 12 hidden apiece
        tree = image.layer("tree")
        assert tree.kind == "linear"
        assert tree.meta["block_rows"] == [1] * 3 + [12] * 14
        assert tree.wb_shape == (17 * 12, 8) and tree.wc_shape == (3 + 14 * 12, 12)
        assert tree.a_hat.size == 17 * 12 and tree.out_shift.size == 3 + 14 * 12

    def test_requires_frozen(self):
        model = STHybridNet(HybridConfig(width=8), rng=0)  # still full-precision
        with pytest.raises(ConfigError):
            build_image(model)

    def test_serialisation_roundtrip(self, image):
        blob = image.to_bytes()
        restored = ModelImage.from_bytes(blob)
        assert restored.header == image.header
        assert len(restored.layers) == len(image.layers)
        original = image.layer("conv1")
        parsed = restored.layer("conv1")
        np.testing.assert_array_equal(parsed.wb(), original.wb())
        np.testing.assert_array_equal(parsed.a_hat, original.a_hat)

    def test_bad_magic_rejected(self):
        with pytest.raises(ConfigError):
            ModelImage.from_bytes(b"XXXX" + b"\x00" * 16)

    @pytest.mark.parametrize("width", [8, 64])
    def test_reserialisation_is_byte_identical(self, width):
        model = STHybridNet(HybridConfig(width=width), rng=0)
        freeze_all(model)
        blob = build_image(model).to_bytes()
        assert ModelImage.from_bytes(blob).to_bytes() == blob

    def test_truncated_image_rejected(self, image):
        blob = image.to_bytes()
        (manifest_len,) = struct.unpack_from("<I", blob, 6)
        for cut in range(1, 65):
            with pytest.raises(ConfigError):
                ModelImage.from_bytes(blob[:-cut])
        for length in range(10 + manifest_len):
            with pytest.raises(ConfigError):
                ModelImage.from_bytes(blob[:length])
        with pytest.raises(ConfigError, match="'tree'"):
            ModelImage.from_bytes(blob[:-4])

    def test_version_one_image_rejected(self, image):
        blob = bytearray(image.to_bytes())
        struct.pack_into("<H", blob, 4, 1)
        with pytest.raises(ConfigError, match="rebuild the image with repro.deploy.build_image"):
            ModelImage.from_bytes(bytes(blob))

    def test_two_bit_blob_must_match_its_shape(self, image):
        # move conv1's last W_b byte into its W_c blob: the spans stay
        # contiguous and the payload length is unchanged, so only the blob
        # lengths disagree with the shapes
        layers = list(image.layers)
        conv1 = layers[0]
        layers[0] = dataclasses.replace(
            conv1, wb_blob=conv1.wb_blob[:-1], wc_blob=conv1.wb_blob[-1:] + conv1.wc_blob
        )
        blob = ModelImage(header=image.header, layers=layers).to_bytes()
        assert len(blob) == len(image.to_bytes())
        with pytest.raises(ConfigError, match="conv1.*wb holds 59 bytes, not the 60"):
            ModelImage.from_bytes(blob)

    @pytest.mark.parametrize(
        "block_rows, match",
        [
            ([1] * 3 + [12] * 13 + [11], "sum to 170"),
            ([1] * 3 + [12] * 13 + [6, 6], "18 blocks"),
            ([1] * 3 + [12] * 13 + [13, -1], "counts >= 1"),
            ([2, 0, 1] + [12] * 14, "counts >= 1"),
        ],
    )
    def test_block_rows_must_tile_the_tree(self, image, block_rows, match):
        layers = list(image.layers)
        layers[-1] = dataclasses.replace(
            layers[-1], meta={**layers[-1].meta, "block_rows": block_rows}
        )
        blob = ModelImage(header=image.header, layers=layers).to_bytes()
        with pytest.raises(ConfigError, match=f"'tree'.*{match}"):
            ModelImage.from_bytes(blob)

    def test_trailing_bytes_rejected(self, image):
        with pytest.raises(ConfigError, match="stray payload bytes"):
            ModelImage.from_bytes(image.to_bytes() + b"\x00")

    def test_float_table_must_match_its_record(self, image):
        layers = list(image.layers)
        layers[0] = dataclasses.replace(layers[0], a_hat=layers[0].a_hat[:-1])
        blob = ModelImage(header=image.header, layers=layers).to_bytes()
        with pytest.raises(ConfigError, match="conv1.*a_hat"):
            ModelImage.from_bytes(blob)
        layers[0] = dataclasses.replace(image.layers[0], out_shift=image.layers[0].out_shift[:1])
        blob = ModelImage(header=image.header, layers=layers).to_bytes()
        with pytest.raises(ConfigError, match="conv1.*out_shift"):
            ModelImage.from_bytes(blob)

    def test_router_rejects_truncated_image_at_register(self, image):
        router = ClusterRouter(workers=1)
        with pytest.raises(ConfigError):
            router.register("cut", image.to_bytes()[:-4])

    def test_size_accounting(self, image):
        with_scales = image.total_bytes(count_scales=True)
        without = image.total_bytes(count_scales=False)
        assert with_scales > without > 0
        # ternary payload dominates neither view at width 8, but both are
        # well under the fp32 parameter size
        fp32_bytes = 4 * sum(
            int(np.prod(r.wb_shape)) + int(np.prod(r.wc_shape)) for r in image.layers
        )
        assert with_scales < fp32_bytes


class TestInterpreter:
    def test_matches_live_model(self, frozen_model, image, rng):
        x = rng.standard_normal((5, 49, 10)).astype(np.float32)
        with no_grad():
            reference = frozen_model(Tensor(x)).data
        interp = ImageInterpreter(image)
        got = interp(x)
        np.testing.assert_allclose(got, reference, rtol=1e-3, atol=1e-4)

    def test_matches_after_serialisation(self, frozen_model, image, rng):
        x = rng.standard_normal((3, 49, 10)).astype(np.float32)
        interp = ImageInterpreter(ModelImage.from_bytes(image.to_bytes()))
        with no_grad():
            reference = frozen_model(Tensor(x)).data
        np.testing.assert_allclose(interp(x), reference, rtol=1e-3, atol=1e-4)

    def test_predict_labels(self, image, rng):
        interp = ImageInterpreter(image)
        labels = interp.predict(rng.standard_normal((4, 49, 10)).astype(np.float32))
        assert labels.shape == (4,)
        assert ((labels >= 0) & (labels < 12)).all()

    def test_features_shape(self, image, rng):
        interp = ImageInterpreter(image)
        feats = interp.features(rng.standard_normal((2, 49, 10)).astype(np.float32))
        assert feats.shape == (2, 8)

    def test_rejects_unknown_arch(self, image):
        bad = ModelImage(header={"arch": "mystery"}, layers=image.layers)
        with pytest.raises(ConfigError):
            ImageInterpreter(bad)
