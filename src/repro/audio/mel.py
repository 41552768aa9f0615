"""Mel-scale conversions and the triangular mel filterbank."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def hz_to_mel(hz) -> np.ndarray:
    """Convert Hz to mel (O'Shaughnessy formula, the HTK convention)."""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel) -> np.ndarray:
    """Inverse of :func:`hz_to_mel`."""
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    num_filters: int,
    fft_length: int,
    sample_rate: int,
    low_hz: float = 20.0,
    high_hz: float | None = None,
) -> np.ndarray:
    """Triangular mel filterbank matrix of shape (num_filters, fft_bins).

    ``fft_bins = fft_length // 2 + 1`` (one-sided spectrum).  Filters are
    unit-peak triangles with centres uniformly spaced on the mel scale
    between ``low_hz`` and ``high_hz`` (default Nyquist).
    """
    if high_hz is None:
        high_hz = sample_rate / 2.0
    if not 0 <= low_hz < high_hz <= sample_rate / 2.0:
        raise ConfigError(
            f"invalid filterbank range [{low_hz}, {high_hz}] for sr={sample_rate}"
        )
    bins = fft_length // 2 + 1
    mel_points = np.linspace(hz_to_mel(low_hz), hz_to_mel(high_hz), num_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.linspace(0.0, sample_rate / 2.0, bins)

    # one row per filter: its edges as column vectors against every bin,
    # in two (filters, bins) arrays; the 1e-12 floor keeps a zero-width
    # slope finite
    left, centre, right = hz_points[:-2, None], hz_points[1:-1, None], hz_points[2:, None]
    up = bin_freqs - left
    up /= np.maximum(centre - left, 1e-12)
    down = right - bin_freqs
    down /= np.maximum(right - centre, 1e-12)
    return np.clip(np.minimum(up, down, out=up), 0.0, None, out=up)
