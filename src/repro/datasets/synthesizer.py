"""Formant-based keyword synthesiser (source–filter model).

Each keyword is mapped deterministically to a short sequence of *phonemes*
(formant-target frames); an utterance renders that sequence with a glottal
pulse-train (voiced) or noise (unvoiced) source through three second-order
resonators, with per-utterance speaker variation (pitch, vocal-tract length,
tempo, energy).  Distinct keywords therefore occupy distinct trajectories in
MFCC space — the property the KWS models learn to separate — while
utterances of one keyword vary the way different speakers do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.audio.signal import rms_normalize
from repro.utils.rng import SeedLike, new_rng


@dataclass(frozen=True)
class PhonemeSpec:
    """A single formant target.

    Attributes
    ----------
    formants: centre frequencies (F1, F2, F3) in Hz.
    voiced: pulse-train source when True, noise source otherwise.
    duration_weight: relative share of the utterance's voiced duration.
    amplitude: relative loudness of the segment.
    """

    formants: tuple
    voiced: bool
    duration_weight: float
    amplitude: float


@dataclass(frozen=True)
class KeywordSpec:
    """A keyword's deterministic phoneme sequence."""

    word: str
    phonemes: tuple


def _seed_for(word: str) -> int:
    """Stable 64-bit seed derived from the keyword spelling."""
    digest = hashlib.sha256(word.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


#: number of phonemes in the shared inventory all keywords draw from
INVENTORY_SIZE = 10

#: seed fixing the inventory across processes
_INVENTORY_SEED = 7_777_777


def phoneme_inventory() -> tuple:
    """The shared phoneme inventory (deterministic).

    Keywords are *sequences over a common inventory*, like real speech:
    two words can share most of their phonemes and differ mainly in order
    and timing.  This is what makes the task require local
    (time-translation-robust) feature extraction — time-averaged spectra
    collide between words, so a linear projection on the flattened
    spectrogram (Bonsai's Z) underperforms convolutional front-ends,
    reproducing the paper's §2.2 observation.
    """
    rng = np.random.default_rng(_INVENTORY_SEED)
    inventory: List[PhonemeSpec] = []
    for _ in range(INVENTORY_SIZE):
        f1 = float(rng.uniform(250.0, 850.0))
        f2 = float(rng.uniform(max(900.0, f1 + 250.0), 2400.0))
        f3 = float(rng.uniform(max(2500.0, f2 + 400.0), 3400.0))
        inventory.append(
            PhonemeSpec(
                formants=(f1, f2, f3),
                voiced=bool(rng.random() < 0.75),
                duration_weight=1.0,
                amplitude=1.0,
            )
        )
    return tuple(inventory)


def keyword_spec(word: str) -> KeywordSpec:
    """Derive the canonical phoneme sequence for ``word``.

    Deterministic: the same word always produces the same spec.  The word
    picks 3–4 phonemes from the shared inventory (with word-specific
    durations, amplitudes and a small ±3 % formant colour so that even
    coinciding sequences remain distinguishable in principle).
    """
    import dataclasses

    rng = np.random.default_rng(_seed_for(word))
    inventory = phoneme_inventory()
    num_phonemes = int(rng.integers(3, 5))
    indices = rng.integers(0, len(inventory), size=num_phonemes)
    colour = float(rng.uniform(0.97, 1.03))
    phonemes: List[PhonemeSpec] = []
    for idx in indices:
        base = inventory[int(idx)]
        phonemes.append(
            dataclasses.replace(
                base,
                formants=tuple(f * colour for f in base.formants),
                duration_weight=float(rng.uniform(0.6, 1.4)),
                amplitude=float(rng.uniform(0.6, 1.0)),
            )
        )
    return KeywordSpec(word=word, phonemes=tuple(phonemes))


def _glottal_source(num_samples: int, f0: float, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    """Impulse-train source with mild jitter and a decaying pulse shape."""
    out = np.zeros(num_samples)
    period = sample_rate / f0
    position = 0.0
    while position < num_samples:
        index = int(position)
        out[index] = 1.0
        position += period * (1.0 + 0.02 * rng.standard_normal())
    # Convolve with a short exponential pulse so the source has a -12 dB/oct tilt.
    pulse = np.exp(-np.arange(24) / 6.0)
    return np.convolve(out, pulse)[:num_samples]


def _resonator(x: np.ndarray, centre_hz: float, bandwidth_hz: float, sample_rate: int) -> np.ndarray:
    """Second-order all-pole resonator (one formant)."""
    # scipy.signal costs about a second to import; only synthesis needs it
    from scipy import signal as sps

    r = np.exp(-np.pi * bandwidth_hz / sample_rate)
    theta = 2.0 * np.pi * centre_hz / sample_rate
    a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
    b = np.array([1.0 - r])
    return sps.lfilter(b, a, x)


def synthesize(
    spec: KeywordSpec,
    rng: SeedLike = None,
    sample_rate: int = 16_000,
    clip_seconds: float = 1.0,
    speech_fraction: float | None = None,
) -> np.ndarray:
    """Render one utterance of ``spec`` as a 1-D float waveform.

    Per-utterance draws: fundamental frequency (speaker pitch), vocal-tract
    scale (formant multiplier), tempo, segment amplitudes, and the placement
    of the utterance inside the clip — so no two utterances are identical.
    """
    rng = new_rng(rng)
    clip_samples = int(round(sample_rate * clip_seconds))

    f0 = float(rng.uniform(110.0, 190.0))
    tract_scale = float(rng.uniform(0.95, 1.05))
    tempo = float(rng.uniform(0.93, 1.07))
    if speech_fraction is None:
        speech_fraction = 0.6
    speech_samples = int(clip_samples * speech_fraction * tempo)
    speech_samples = min(speech_samples, clip_samples)

    weights = np.array([p.duration_weight for p in spec.phonemes])
    durations = np.maximum((weights / weights.sum() * speech_samples).astype(int), 32)

    segments: List[np.ndarray] = []
    for phoneme, duration in zip(spec.phonemes, durations):
        if phoneme.voiced:
            src = _glottal_source(duration, f0 * float(rng.uniform(0.96, 1.04)), sample_rate, rng)
        else:
            src = rng.standard_normal(duration) * 0.5
        seg = src
        for centre, bandwidth in zip(phoneme.formants, (90.0, 110.0, 150.0)):
            seg = _resonator(seg, centre * tract_scale, bandwidth, sample_rate)
        # Attack / release envelope removes clicks at segment joints.
        ramp = min(64, duration // 4)
        envelope = np.ones(duration)
        envelope[:ramp] = np.linspace(0.0, 1.0, ramp)
        envelope[-ramp:] = np.linspace(1.0, 0.0, ramp)
        seg = rms_normalize(seg, target_rms=0.1) * phoneme.amplitude * envelope
        segments.append(seg)

    speech = np.concatenate(segments)
    waveform = np.zeros(clip_samples)
    # Uniform placement inside the clip: alignment is *not* a class cue, so
    # models must be robust to it (the property that favours conv features
    # over a flat linear projection).
    slack = max(clip_samples - len(speech), 0)
    start = int(rng.integers(0, slack + 1)) if slack else 0
    end = min(start + len(speech), clip_samples)
    waveform[start:end] = speech[: end - start]
    return rms_normalize(waveform, target_rms=0.08)


def synthesize_batch(
    spec: KeywordSpec, count: int, rng: SeedLike = None, sample_rate: int = 16_000
) -> np.ndarray:
    """Render ``count`` independent utterances → (count, samples) array."""
    rng = new_rng(rng)
    return np.stack([synthesize(spec, rng, sample_rate=sample_rate) for _ in range(count)])


def distinctness_score(words: Sequence[str], utterances_per_word: int = 3, rng: SeedLike = 0) -> float:
    """Separability diagnostic: between-word / within-word MFCC distance.

    Uses time-pooled MFCCs (mean over frames) so the score reflects
    spectral-envelope separability rather than timing alignment — timing
    variation is deliberate (it is what the conv front-ends are for).  Tests
    assert the score is substantially above 1.
    """
    from repro.audio.mfcc import MFCC

    rng = new_rng(rng)
    extractor = MFCC()
    feats = {
        w: np.stack(
            [
                extractor(synthesize(keyword_spec(w), rng)).mean(axis=0)
                for _ in range(utterances_per_word)
            ]
        )
        for w in words
    }
    centroids = {w: f.mean(axis=0) for w, f in feats.items()}
    within = np.mean(
        [np.linalg.norm(f - centroids[w], axis=1).mean() for w, f in feats.items()]
    )
    words = list(words)
    between = np.mean(
        [
            np.linalg.norm(centroids[a] - centroids[b])
            for i, a in enumerate(words)
            for b in words[i + 1 :]
        ]
    )
    return float(between / max(within, 1e-9))
