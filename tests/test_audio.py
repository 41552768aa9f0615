"""Audio frontend: signal utilities, mel filterbank, DCT, MFCC, augmentation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio import (
    MFCC,
    MFCCConfig,
    add_background_noise,
    dct_matrix,
    frame_signal,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    preemphasis,
    random_time_shift,
    rms_normalize,
)
from repro.errors import ConfigError, ShapeError
from repro.evaluation import StreamingConfig, num_windows
from repro.serving.streams import StreamSession


def frozen_mfcc(config: MFCCConfig, waveform: np.ndarray) -> np.ndarray:
    """The one-pass MFCC the two-stage extractor and the stream featurizer
    must reproduce byte for byte: every frame framed, windowed and
    transformed at once, the FFT padding or truncating via ``n=``."""
    window = np.hamming(config.frame_length)
    filterbank = mel_filterbank(
        config.num_mel_filters, config.effective_fft_length, config.sample_rate
    )
    dct = dct_matrix(config.num_coefficients, config.num_mel_filters)
    signal = np.asarray(waveform, dtype=np.float64)
    if config.preemphasis_coefficient > 0:
        signal = preemphasis(signal, config.preemphasis_coefficient)
    frames = frame_signal(signal, config.frame_length, config.frame_step) * window
    spectrum = np.fft.rfft(frames, n=config.effective_fft_length, axis=1)
    power = (spectrum.real**2 + spectrum.imag**2) / config.effective_fft_length
    mel = power @ filterbank.T
    log_mel = np.log(np.maximum(mel, config.log_floor))
    return (log_mel @ dct.T).astype(np.float32)


class TestSignal:
    def test_preemphasis_flattens_dc(self):
        signal = np.ones(100)
        out = preemphasis(signal, 0.97)
        np.testing.assert_allclose(out[1:], 0.03, atol=1e-12)

    def test_preemphasis_rejects_2d(self):
        with pytest.raises(ShapeError):
            preemphasis(np.ones((2, 3)))

    def test_frame_count_formula(self):
        frames = frame_signal(np.arange(16000), 640, 320)
        assert frames.shape == (49, 640)  # the paper's 49 frames
        np.testing.assert_array_equal(frames[1][:10], np.arange(320, 330))

    def test_frame_too_short_raises(self):
        with pytest.raises(ShapeError):
            frame_signal(np.arange(10), 64, 32)

    def test_rms_normalize(self, rng):
        signal = rng.standard_normal(1000) * 5
        out = rms_normalize(signal, 0.1)
        np.testing.assert_allclose(np.sqrt(np.mean(out**2)), 0.1, rtol=1e-6)
        np.testing.assert_array_equal(rms_normalize(np.zeros(10)), np.zeros(10))


class TestMel:
    @given(st.floats(min_value=1.0, max_value=8000.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_mel_roundtrip(self, hz):
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(hz)), hz, rtol=1e-9)

    def test_filterbank_shape_and_coverage(self):
        bank = mel_filterbank(40, 1024, 16000)
        assert bank.shape == (40, 513)
        assert (bank >= 0).all()
        # triangles peak near 1 (exact unity only when a bin hits the centre)
        assert (bank.max(axis=1) > 0.5).all()
        assert (bank.max(axis=1) <= 1.0).all()
        # centres increase monotonically
        centres = bank.argmax(axis=1)
        assert (np.diff(centres) > 0).all()

    def test_filterbank_invalid_range(self):
        with pytest.raises(ConfigError):
            mel_filterbank(10, 512, 16000, low_hz=9000.0)

    def test_filterbank_matches_the_per_filter_loop(self):
        """The broadcast bank has the bytes of the per-filter loop it
        replaced, filters narrower than one bin included."""
        narrow = 0
        for num_filters in (1, 10, 40, 128):
            for fft_length in (64, 512, 1024):
                for sample_rate in (8000, 16000, 22050):
                    for low_hz, high_hz in ((0.0, None), (20.0, None), (300.0, 3400.0)):
                        args = (num_filters, fft_length, sample_rate, low_hz, high_hz)
                        got = mel_filterbank(*args)
                        want = looped_filterbank(*args)
                        assert got.dtype == want.dtype and got.shape == want.shape, args
                        assert got.tobytes() == want.tobytes(), args
                        top = sample_rate / 2.0 if high_hz is None else high_hz
                        mels = np.linspace(hz_to_mel(low_hz), hz_to_mel(top), num_filters + 2)
                        narrow += np.diff(mel_to_hz(mels)).min() < sample_rate / fft_length
        assert narrow  # some grid points have filters narrower than one bin


def looped_filterbank(num_filters, fft_length, sample_rate, low_hz=20.0, high_hz=None):
    """The per-filter loop ``mel_filterbank`` used to run, kept as its reference."""
    if high_hz is None:
        high_hz = sample_rate / 2.0
    bins = fft_length // 2 + 1
    mel_points = np.linspace(hz_to_mel(low_hz), hz_to_mel(high_hz), num_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.linspace(0.0, sample_rate / 2.0, bins)
    bank = np.zeros((num_filters, bins))
    for m in range(num_filters):
        left, centre, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - left) / max(centre - left, 1e-12)
        down = (right - bin_freqs) / max(right - centre, 1e-12)
        bank[m] = np.clip(np.minimum(up, down), 0.0, None)
    return bank


class TestDCT:
    def test_orthonormal_rows(self):
        m = dct_matrix(40, 40)
        np.testing.assert_allclose(m @ m.T, np.eye(40), atol=1e-10)

    def test_truncated(self):
        m = dct_matrix(10, 40)
        assert m.shape == (10, 40)
        np.testing.assert_allclose(m @ m.T, np.eye(10), atol=1e-10)

    def test_too_many_coefficients(self):
        with pytest.raises(ValueError):
            dct_matrix(41, 40)


class TestMFCC:
    def test_paper_shape(self):
        extractor = MFCC()
        feats = extractor(np.random.default_rng(0).standard_normal(16000))
        assert feats.shape == (49, 10)  # the paper's 49x10 input
        assert feats.dtype == np.float32

    def test_batch(self):
        extractor = MFCC()
        waves = np.random.default_rng(0).standard_normal((3, 16000))
        assert extractor.batch(waves).shape == (3, 49, 10)

    def test_distinguishes_tones(self):
        t = np.arange(16000) / 16000.0
        low = MFCC()(np.sin(2 * np.pi * 300 * t))
        high = MFCC()(np.sin(2 * np.pi * 3000 * t))
        assert np.abs(low - high).mean() > 0.5

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MFCC(MFCCConfig(num_coefficients=50, num_mel_filters=40))

    def test_config_derived_sizes(self):
        cfg = MFCCConfig()
        assert cfg.frame_length == 640
        assert cfg.frame_step == 320
        assert cfg.effective_fft_length == 1024
        assert cfg.num_frames(16000) == 49


@st.composite
def stream_cases(draw):
    """A frame geometry, a window/hop pair of one grid-sharing kind, a
    waveform several windows long and a random chunking of it."""
    stride = draw(st.sampled_from([40, 64, 80, 100, 160]))
    frame = draw(st.integers(min_value=stride, max_value=3 * stride))
    truncate = draw(st.booleans())  # fft_length below the frame: rfft truncates
    fft_length = draw(st.integers(min_value=16, max_value=frame - 1)) if truncate else 0
    coefficient = draw(st.sampled_from([0.97, 0.0]))
    frames = draw(st.integers(min_value=2, max_value=30))
    window = (frames - 1) * stride + frame + draw(st.integers(min_value=0, max_value=stride - 1))
    kind = draw(st.sampled_from(["stride-multiple", "half-stride", "no-shared-grid", "longer"]))
    if kind == "stride-multiple":  # m = 1
        hop = stride * draw(st.integers(min_value=1, max_value=frames))
    elif kind == "half-stride":  # m = 2, as the default 4000-sample hop at stride 320
        hop = stride * draw(st.integers(min_value=0, max_value=frames)) + stride // 2
    elif kind == "no-shared-grid":  # lcm(hop, stride) = hop * stride: q >= frames - 1
        hop = stride * draw(st.integers(min_value=1, max_value=frames)) + 1
    else:
        hop = window + draw(st.integers(min_value=1, max_value=2 * stride))
    count = draw(st.integers(min_value=1, max_value=8))
    length = window + (count - 1) * hop + draw(st.integers(min_value=0, max_value=hop - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    waveform = rng.standard_normal(length) * 0.1
    zeros = rng.random(length) < draw(st.sampled_from([0.0, 0.3]))
    waveform[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))  # ±0.0
    cuts = draw(st.lists(st.integers(min_value=0, max_value=length), max_size=12))
    if draw(st.booleans()):  # chunks that end exactly where a window ends
        cuts += [k * hop + window for k in range(count)]
    config = MFCCConfig(
        sample_rate=16_000,
        frame_ms=frame / 16.0,
        stride_ms=stride / 16.0,
        fft_length=fft_length,
        preemphasis_coefficient=coefficient,
    )
    return config, window, hop, waveform, sorted(set(cuts))


class TestStreamFeaturizer:
    @settings(max_examples=60, deadline=None)
    @given(case=stream_cases())
    def test_session_windows_match_frozen_mfcc(self, case):
        """Every window a session featurizes, however its audio was chunked,
        has the bytes of the one-pass MFCC, and so has ``MFCC()(window)``."""
        config, window, hop, waveform, cuts = case
        streaming = StreamingConfig(
            hop_ms=hop / 16.0, window_seconds=window / 16_000, mfcc=config
        )
        assert (streaming.window_samples, streaming.hop_samples) == (window, hop)
        session = StreamSession("p", streaming, None, None)
        for lo, hi in zip([0, *cuts], [*cuts, len(waveform)]):
            session.feed(waveform[lo:hi])
        extractor = MFCC(config)
        assert len(session.ready) == num_windows(streaming, len(waveform))
        for index, features, _ in session.ready:
            clip = waveform[index * hop : index * hop + window]
            expected = frozen_mfcc(config, clip)
            assert features.dtype == np.float32 and features.shape == expected.shape
            assert features.tobytes() == expected.tobytes()
            assert extractor(clip).tobytes() == expected.tobytes()
        featurizer = session.featurizer
        windows = len(session.ready)
        frames = config.num_frames(window)
        assert featurizer.frames_computed + featurizer.frames_reused == windows * frames
        session.close()
        assert featurizer.state_bytes == 0

    def test_rows_of_partial_power_match_the_whole(self):
        """A 1-row and a 25-row run, through one frame-power call or one
        call each, give the bytes of those rows of the 49-row call (rfft
        transforms rows independently)."""
        extractor = MFCC()
        signal = np.random.default_rng(1).standard_normal(16_000)
        whole = np.empty((49, 513))
        extractor.frame_power(signal, [(0, whole)])
        first, last = np.empty((1, 513)), np.empty((25, 513))
        extractor.frame_power(signal, [(0, first), (24, last)])
        assert first.tobytes() == whole[:1].tobytes()
        assert last.tobytes() == whole[24:].tobytes()
        extractor.frame_power(signal, [(24, last)])
        assert last.tobytes() == whole[24:].tobytes()

    @pytest.mark.parametrize("coefficient", [0.97, 0.0])
    def test_frame_power_reads_any_signal_as_float64(self, coefficient):
        """A float32 or strided clip gives the bytes of its contiguous
        float64 copy, with pre-emphasis on and off."""
        extractor = MFCC(MFCCConfig(preemphasis_coefficient=coefficient))
        samples = np.random.default_rng(2).standard_normal(32_000)
        for signal in (samples[:16_000].astype(np.float32), samples[::2]):
            want, got = np.empty((49, 513)), np.empty((49, 513))
            extractor.frame_power(np.array(signal, dtype=np.float64), [(0, want)])
            extractor.frame_power(signal, [(0, got[:1]), (24, got[24:])])
            assert got[:1].tobytes() == want[:1].tobytes()
            assert got[24:].tobytes() == want[24:].tobytes()

    def test_window_length_is_checked(self):
        featurizer = MFCC().stream(16_000, 4_000)
        with pytest.raises(ShapeError):
            featurizer(np.zeros(15_999))
        with pytest.raises(ConfigError):
            MFCC().stream(16_000, 0)


class TestAugment:
    def test_time_shift_preserves_content(self, rng):
        wave = rng.standard_normal(1000)
        out = random_time_shift(wave, max_shift_ms=10, sample_rate=16000, rng=0)
        assert out.shape == wave.shape
        # energy approximately preserved (zeros pad at most max_shift samples)
        assert np.abs(out).sum() >= 0.7 * np.abs(wave).sum()

    def test_time_shift_zero(self, rng):
        wave = rng.standard_normal(100)
        np.testing.assert_array_equal(
            random_time_shift(wave, 0.0, 16000, rng=0), wave
        )

    def test_noise_mixing_raises_energy(self, rng):
        wave = np.zeros(1000)
        noise = rng.standard_normal(5000)
        out = add_background_noise(wave, noise, volume=0.5, rng=0)
        assert np.abs(out).sum() > 0

    def test_zero_volume_is_identity(self, rng):
        wave = rng.standard_normal(100)
        np.testing.assert_array_equal(
            add_background_noise(wave, rng.standard_normal(200), 0.0, rng=0), wave
        )

    def test_short_noise_is_tiled(self, rng):
        wave = rng.standard_normal(1000)
        out = add_background_noise(wave, rng.standard_normal(100), 0.3, rng=0)
        assert out.shape == wave.shape
