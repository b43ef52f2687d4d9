"""Speaker embeddings: a deterministic spectral-statistics extractor and the
enrollment pools that fragments are scored against by cosine similarity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dsp import num_full_frames, stft, stft_grid
from .scene import VoiceParams, sample_voice_params, synthesize_voice
from .tracking import DEFAULT_HOP_S

_N_MEL_BANDS = 24
_MEL_LO_HZ = 100.0
_MEL_HI_HZ = 7600.0
_LOG_FLOOR = 1e-30
_UNIT_NORM_TOL = 1e-6
MIN_EMBED_FRAMES = 3

ENROLLMENT_UTTERANCE_S = 20.0


class ShortInputError(ValueError):
    """Signal shorter than the minimum number of analysis frames."""


@dataclass(frozen=True)
class Embedding:
    """Unit-norm embedding vector.

    Embeddings computed by embed() also record how many analysis frames their
    statistics were pooled over, and whether a frame mask had to be ignored
    because it left fewer than MIN_EMBED_FRAMES frames.
    """

    vector: np.ndarray
    pooled_frames: int | None = None
    pooling_fallback: bool = False

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise ValueError("embedding components must be finite")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"embedding must be unit norm, got {norm}")
        object.__setattr__(self, "vector", v)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(sample_rate: int, n_fft: int, n_bands: int = _N_MEL_BANDS) -> np.ndarray:
    """Triangular mel filters over [100, 7600] Hz, shape (n_bands, n_fft//2 + 1).

    Built once per (sample_rate, n_fft, n_bands); the cached array is read-only.
    """
    if _MEL_HI_HZ > sample_rate / 2:
        raise ValueError(f"sample rate {sample_rate} too low for {_MEL_HI_HZ} Hz bands")
    edges_hz = _mel_to_hz(np.linspace(_hz_to_mel(_MEL_LO_HZ), _hz_to_mel(_MEL_HI_HZ), n_bands + 2))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    fb = np.zeros((n_bands, len(freqs)))
    for b in range(n_bands):
        lo, mid, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        fb[b] = np.maximum(0.0, np.minimum(up, down))
    fb.setflags(write=False)
    return fb


def analysis_frame_centers(num_samples: int, sample_rate: int) -> np.ndarray:
    """Centre of each analysis frame embed() computes for a signal of
    num_samples, in samples from the signal start (empty if too short)."""
    n_window, n_hop = stft_grid(sample_rate)
    n_frames = num_full_frames(num_samples, n_window, n_hop)
    return n_hop * np.arange(n_frames) + 0.5 * n_window


def analysis_frame_tracker_frames(num_samples: int, sample_rate: int) -> np.ndarray:
    """For each analysis frame of analysis_frame_centers, the tracker frame
    (of DEFAULT_HOP_S) in which its centre lies."""
    centers = analysis_frame_centers(num_samples, sample_rate)
    return np.floor(centers / (DEFAULT_HOP_S * sample_rate)).astype(int)


def embed(
    signal: np.ndarray, sample_rate: int, frame_mask: np.ndarray | None = None
) -> Embedding:
    """Log-mel band statistics embedding of a mono signal: its unpadded STFT
    (32 ms windows, 16 ms hop, only windows fully inside the signal) pooled by
    embed_power, with frame_mask one boolean per analysis frame."""
    signal = np.asarray(signal, dtype=np.float64)
    n_window, n_hop = stft_grid(sample_rate)
    if num_full_frames(len(signal), n_window, n_hop) < MIN_EMBED_FRAMES:
        raise ShortInputError(
            f"need at least {MIN_EMBED_FRAMES} analysis frames "
            f"({n_window + (MIN_EMBED_FRAMES - 1) * n_hop} samples), got {len(signal)}"
        )
    spec = stft(signal, n_window, n_hop, pad=False)
    return embed_power(np.abs(spec) ** 2, sample_rate, frame_mask)


def embed_power(
    power: np.ndarray, sample_rate: int, frame_mask: np.ndarray | None = None
) -> Embedding:
    """Log-mel band statistics embedding of a power spectrogram |Y|^2.

    power has shape (bins, frames), on the 32 ms / 16 ms STFT grid. Per mel
    band: temporal mean and standard deviation of log-energy. The mean block
    is centered on its own average, which cancels any constant gain on the
    input; the concatenated feature vector is L2-normalized.

    frame_mask, one boolean per frame, selects the frames the statistics are
    pooled over; frames where an interfering speaker leaks in can thus be
    left out. When it selects fewer than MIN_EMBED_FRAMES frames the
    statistics are pooled over all frames and the result is flagged with
    pooling_fallback.
    """
    n_frames = power.shape[1]
    if n_frames < MIN_EMBED_FRAMES:
        raise ShortInputError(f"need at least {MIN_EMBED_FRAMES} analysis frames, got {n_frames}")
    fb = mel_filterbank(sample_rate, stft_grid(sample_rate)[0])
    energies = fb @ power
    fallback = False
    if frame_mask is not None:
        frame_mask = np.asarray(frame_mask, dtype=bool)
        if frame_mask.shape != (n_frames,):
            raise ValueError(f"frame mask has shape {frame_mask.shape}, signal has {n_frames} frames")
        kept = int(frame_mask.sum())
        fallback = kept < MIN_EMBED_FRAMES
        # An all-true mask must leave the embedding bit-identical; indexing
        # would change the memory layout and with it the summation order.
        if not fallback and kept < n_frames:
            energies = energies[:, frame_mask]
    # Floor 60 dB below the loudest band so stray silent frames (window edges,
    # pauses) cannot dominate the statistics. The floor scales with the signal,
    # which keeps the embedding exactly gain-invariant.
    floor = max(float(energies.max()) * 1e-6, _LOG_FLOOR)
    log_energy = np.log(np.maximum(energies, floor))
    means = log_energy.mean(axis=1)
    stds = log_energy.std(axis=1)
    means = means - means.mean()
    feat = np.concatenate([means, stds])
    norm = float(np.linalg.norm(feat))
    if norm < 1e-12:
        feat = np.full(feat.shape, 1.0 / np.sqrt(feat.shape[0]))
        norm = 1.0
    return Embedding(feat / norm, pooled_frames=energies.shape[1], pooling_fallback=fallback)


@dataclass
class EnrollmentPool:
    """Ordered labeled reference embeddings; size is the identity budget M."""

    entries: list[tuple[str, Embedding]]

    def __post_init__(self):
        ids = [identity for identity, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("enrollment identities must be unique")

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def identities(self) -> list[str]:
        return [identity for identity, _ in self.entries]

    def matrix(self) -> np.ndarray:
        return np.stack([emb.vector for _, emb in self.entries])


def build_distractors(
    count: int, seed: int, sample_rate: int = 16000
) -> list[tuple[str, Embedding]]:
    """Distractor entries drawn from the voice prior, reusable across scenes."""
    rng = np.random.default_rng(seed)
    entries = []
    for k in range(count):
        voice = sample_voice_params(rng)
        utt = synthesize_voice(voice, ENROLLMENT_UTTERANCE_S, sample_rate, int(rng.integers(2**63 - 1)))
        entries.append((f"distractor{k:02d}", embed(utt, sample_rate)))
    return entries


def build_enrollment(
    voices: list[VoiceParams],
    m: int,
    seed: int,
    sample_rate: int = 16000,
    distractors: list[tuple[str, Embedding]] | None = None,
) -> EnrollmentPool:
    """Enroll the scene voices plus m - len(voices) distractor identities.

    Each entry is the embedding of a fresh 20 s utterance never used in any
    mixture. Scene speakers come first (speakerNN), then distractors, which
    may be passed in precomputed (the predefined-pool setting) or are sampled
    here from the voice prior.
    """
    if m < len(voices):
        raise ValueError(f"pool size {m} smaller than number of scene voices {len(voices)}")
    rng = np.random.default_rng(seed)
    entries: list[tuple[str, Embedding]] = []
    for j, voice in enumerate(voices):
        utt = synthesize_voice(voice, ENROLLMENT_UTTERANCE_S, sample_rate, int(rng.integers(2**63 - 1)))
        entries.append((f"speaker{j:02d}", embed(utt, sample_rate)))
    needed = m - len(voices)
    if distractors is not None:
        if len(distractors) < needed:
            raise ValueError(f"need {needed} distractors, got {len(distractors)}")
        entries.extend(distractors[:needed])
    else:
        entries.extend(build_distractors(needed, int(rng.integers(2**63 - 1)), sample_rate))
    return EnrollmentPool(entries)
