"""MFCC feature extraction pipeline.

The default configuration reproduces the input representation used by the
paper and by Zhang et al. (2017): 1-second 16 kHz audio, 40 ms frames with
20 ms stride (→ 49 frames), 40 mel filters, 10 cepstral coefficients —
a 49x10 time-frequency "image".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.audio.dct import dct_matrix
from repro.audio.mel import mel_filterbank
from repro.audio.signal import hamming_window, preemphasis
from repro.errors import ConfigError, ShapeError


@dataclass(frozen=True)
class MFCCConfig:
    """Configuration of the MFCC frontend.

    Attributes
    ----------
    sample_rate: input sampling rate in Hz.
    frame_ms / stride_ms: analysis window length and hop, in milliseconds.
    num_mel_filters: triangular filters on the mel scale.
    num_coefficients: cepstral coefficients kept after the DCT.
    fft_length: FFT size; 0 selects the next power of two ≥ frame length.
    preemphasis_coefficient: high-pass coefficient; 0 disables.
    log_floor: lower clamp on filterbank energies before the log.
    """

    sample_rate: int = 16_000
    frame_ms: float = 40.0
    stride_ms: float = 20.0
    num_mel_filters: int = 40
    num_coefficients: int = 10
    fft_length: int = 0
    preemphasis_coefficient: float = 0.97
    log_floor: float = 1e-10

    @property
    def frame_length(self) -> int:
        """Frame length in samples."""
        return int(round(self.sample_rate * self.frame_ms / 1000.0))

    @property
    def frame_step(self) -> int:
        """Hop length in samples."""
        return int(round(self.sample_rate * self.stride_ms / 1000.0))

    @property
    def effective_fft_length(self) -> int:
        """FFT size actually used."""
        if self.fft_length:
            return self.fft_length
        n = 1
        while n < self.frame_length:
            n *= 2
        return n

    def num_frames(self, num_samples: int) -> int:
        """Frames produced for a clip of ``num_samples`` samples."""
        return 1 + (num_samples - self.frame_length) // self.frame_step


class MFCC:
    """Stateless MFCC extractor (precomputes window / filterbank / DCT).

    A call runs two stages that :class:`StreamFeaturizer` shares: *frame
    power* (pre-emphasis, Hamming window, ``rfft``, ``|X|² / N`` per frame)
    and *cepstra* (mel filterbank, log, DCT).  The instance keeps no
    scratch between calls, so one extractor may serve several threads.

    >>> extractor = MFCC()
    >>> features = extractor(np.zeros(16000))
    >>> features.shape
    (49, 10)
    """

    def __init__(self, config: MFCCConfig | None = None) -> None:
        self.config = config or MFCCConfig()
        cfg = self.config
        if cfg.num_coefficients > cfg.num_mel_filters:
            raise ConfigError(
                f"num_coefficients {cfg.num_coefficients} exceeds "
                f"num_mel_filters {cfg.num_mel_filters}"
            )
        # the config's derived sizes, read on every call
        self._frame_length = cfg.frame_length
        self._frame_step = cfg.frame_step
        self._fft_length = cfg.effective_fft_length
        self._bins = self._fft_length // 2 + 1
        # samples of each frame the FFT reads: rfft pads short frames with
        # zeros and truncates frames longer than fft_length
        self._fft_span = min(self._frame_length, self._fft_length)
        self._window = hamming_window(self._frame_length)[: self._fft_span]
        self._filterbank = mel_filterbank(cfg.num_mel_filters, self._fft_length, cfg.sample_rate)
        self._dct = dct_matrix(cfg.num_coefficients, cfg.num_mel_filters)

    @property
    def feature_shape_for(self) -> tuple:
        """(frames, coefficients) for a 1-second clip."""
        cfg = self.config
        return (cfg.num_frames(cfg.sample_rate), cfg.num_coefficients)

    def __call__(self, waveform: np.ndarray) -> np.ndarray:
        """Extract MFCCs: returns (num_frames, num_coefficients) float32."""
        signal = self._signal(waveform)
        power = np.empty((self.config.num_frames(len(signal)), self._bins))
        self.frame_power(signal, [(0, power)])
        return self.cepstra(power)

    def _signal(self, waveform: np.ndarray) -> np.ndarray:
        """``waveform`` as a 1-D float64 array of at least one frame."""
        signal = np.asarray(waveform, dtype=np.float64)
        if signal.ndim != 1:
            raise ShapeError(f"MFCC expects a 1-D signal, got {signal.shape}")
        if len(signal) < self._frame_length:
            raise ShapeError(
                f"signal of length {len(signal)} shorter than frame {self._frame_length}"
            )
        return signal

    def frame_power(self, signal: np.ndarray, runs: Sequence[Tuple[int, np.ndarray]]) -> None:
        """Power spectra of runs of frames, through one ``rfft`` call.

        Each ``(first, out)`` of ``runs`` puts the spectra of frames
        ``first .. first + len(out) - 1`` into ``out``.  ``signal`` is the
        whole clip, read as float64: its first sample keeps its raw value
        under pre-emphasis, so frame 0 of a clip differs from the same
        samples framed anywhere else.  Each row depends on its own frame
        only (``rfft`` transforms rows independently), so computing any
        frames gives the bytes a whole-clip call gives those rows.
        """
        # the frame views below read one contiguous float64 buffer
        signal = np.ascontiguousarray(signal, dtype=np.float64)
        step, span = self._frame_step, self._fft_span
        coefficient = self.config.preemphasis_coefficient
        padded = np.empty((sum(len(out) for _, out in runs), self._fft_length))
        padded[:, span:] = 0.0
        row = 0
        for first, out in runs:
            lo = first * step
            hi = lo + (len(out) - 1) * step + span
            if coefficient > 0:
                # y[t] = x[t] - c*x[t-1]; preemphasis() keeps y[0] = x[0],
                # which only the clip's own first sample gets
                if lo:
                    segment = preemphasis(signal[lo - 1 : hi], coefficient)[1:]
                else:
                    segment = preemphasis(signal[:hi], coefficient)
            else:
                segment = signal[lo:hi]
            frames = np.ndarray(
                (len(out), span),
                dtype=np.float64,
                buffer=segment,
                strides=(step * segment.itemsize, segment.itemsize),
            )
            np.multiply(frames, self._window, out=padded[row : row + len(out), :span])
            row += len(out)
        spectrum = np.fft.rfft(padded, axis=1)
        parts = spectrum.view(np.float64)  # re, im interleaved per bin
        np.multiply(parts, parts, out=parts)
        row = 0
        for _, out in runs:
            block = parts[row : row + len(out)]
            np.add(block[:, 0::2], block[:, 1::2], out=out)
            np.divide(out, self._fft_length, out=out)
            row += len(out)

    def cepstra(self, power: np.ndarray) -> np.ndarray:
        """(frames, bins) power spectra -> (frames, coefficients) float32 MFCCs.

        The mel product runs on the whole clip's power matrix: BLAS may
        sum a row differently at another row count, so rows of a partial
        product are not the bytes of the whole one.
        """
        mel = power @ self._filterbank.T
        np.maximum(mel, self.config.log_floor, out=mel)
        np.log(mel, out=mel)
        return (mel @ self._dct.T).astype(np.float32)

    def batch(self, waveforms: np.ndarray) -> np.ndarray:
        """Extract MFCCs for a (N, num_samples) batch → (N, frames, coeffs)."""
        return np.stack([self(w) for w in np.asarray(waveforms)])

    def stream(self, window_samples: int, hop_samples: int) -> "StreamFeaturizer":
        """A featurizer for one stream's consecutive hop-spaced windows."""
        return StreamFeaturizer(self, window_samples, hop_samples)


class StreamFeaturizer:
    """MFCCs of one stream's windows, each frame's power spectrum computed once.

    Window ``k`` starts ``k * hop`` samples into the stream.  It shares its
    frame grid with window ``k - m``, where ``m = lcm(hop, stride) / hop``:
    its frame ``j`` is that window's frame ``j + q``, ``q = lcm / stride``.
    Frame 0 is always computed, because the window-local pre-emphasis keeps
    its first sample raw, and so are the ``q`` frames past the shared run;
    frames ``1 .. frames - 1 - q`` are the power rows window ``k - m``
    kept.  Every window's whole power matrix then goes through
    :meth:`MFCC.cepstra`, so its features are the bytes of
    ``MFCC(config)(window)``.  With ``q >= frames - 1`` no frame is shared
    and every frame is computed.

    The kept rows are ``m`` float64 tails of ``frames - 1 - q`` rows each
    (:attr:`state_bytes`), dropped by :meth:`close`.  Calls must come in
    window order, one per window.
    """

    def __init__(self, extractor: MFCC, window_samples: int, hop_samples: int) -> None:
        if window_samples < 1 or hop_samples < 1:
            raise ConfigError("window_samples and hop_samples must be positive")
        self.extractor = extractor
        self.window_samples = window_samples
        step = extractor._frame_step
        lcm = math.lcm(hop_samples, step)
        self._frames = extractor.config.num_frames(window_samples)
        self._shared = max(0, self._frames - 1 - lcm // step)  # rows reused per window
        # one tail per residue class of the window index modulo m
        period = lcm // hop_samples if self._shared else 0
        self._tails: List[Optional[np.ndarray]] = [None] * period
        self._index = 0  # windows featurized so far
        self.frames_computed = 0
        self.frames_reused = 0

    @property
    def state_bytes(self) -> int:
        """Bytes of power rows held for later windows."""
        return sum(tail.nbytes for tail in self._tails if tail is not None)

    def __call__(self, window: np.ndarray) -> np.ndarray:
        """MFCCs of the stream's next window: ``MFCC(config)(window)``'s bytes."""
        extractor = self.extractor
        signal = extractor._signal(window)
        if len(signal) != self.window_samples:
            raise ShapeError(f"window of {len(signal)} samples, expected {self.window_samples}")
        frames, shared = self._frames, self._shared
        power = np.empty((frames, extractor._bins))
        tail = None
        if shared:
            slot = self._index % len(self._tails)
            tail = self._tails[slot]
        if tail is None:
            extractor.frame_power(signal, [(0, power)])
            self.frames_computed += frames
        else:
            power[1 : 1 + shared] = tail
            extractor.frame_power(signal, [(0, power[:1]), (1 + shared, power[1 + shared :])])
            self.frames_computed += frames - shared
            self.frames_reused += shared
        if shared:
            if tail is None:
                tail = self._tails[slot] = np.empty((shared, extractor._bins))
            tail[...] = power[frames - shared :]
        self._index += 1
        return extractor.cepstra(power)

    def close(self) -> None:
        """Drop the kept power rows."""
        self._tails = [None] * len(self._tails)
