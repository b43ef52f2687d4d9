"""Speaker embeddings: a deterministic spectral-statistics extractor and the
enrollment pools that fragments are scored against by cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import N_HOP, N_WINDOW, SAMPLE_RATE, num_full_frames, stft
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


def _mel_filterbank() -> np.ndarray:
    """Triangular mel filters over [100, 7600] Hz on the bins of the analysis
    grid, shape (_N_MEL_BANDS, N_WINDOW // 2 + 1), read-only."""
    mels = np.linspace(_hz_to_mel(_MEL_LO_HZ), _hz_to_mel(_MEL_HI_HZ), _N_MEL_BANDS + 2)
    edges_hz = _mel_to_hz(mels)
    # The bins' frequencies, the values of np.fft.rfftfreq(N_WINDOW, 1 / SAMPLE_RATE);
    # computed without it, since numpy loads numpy.fft on first use and
    # importing the package (eval included) then need not.
    freqs = np.arange(N_WINDOW // 2 + 1) * (SAMPLE_RATE / N_WINDOW)
    fb = np.zeros((_N_MEL_BANDS, len(freqs)))
    for b in range(_N_MEL_BANDS):
        lo, mid, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        fb[b] = np.maximum(0.0, np.minimum(up, down))
    fb.setflags(write=False)
    return fb


MEL_FILTERBANK = _mel_filterbank()


def analysis_frame_centers(num_samples: int, *, frames: slice = slice(None)) -> np.ndarray:
    """Centre of each analysis frame embed() computes for a signal of
    num_samples, in samples from the signal start (empty if too short): frame
    k's is N_HOP k + N_WINDOW / 2. frames selects a slice of them, computed
    alone."""
    start, stop, _ = frames.indices(num_full_frames(num_samples))
    return N_HOP * np.arange(start, stop) + 0.5 * N_WINDOW


def analysis_frame_tracker_frames(num_samples: int, *, frames: slice = slice(None)) -> np.ndarray:
    """For each analysis frame of analysis_frame_centers (of the slice
    frames), the tracker frame (of DEFAULT_HOP_S) in which its centre lies."""
    centers = analysis_frame_centers(num_samples, frames=frames)
    return np.floor(centers / (DEFAULT_HOP_S * SAMPLE_RATE)).astype(int)


def embed(signal: np.ndarray, *, frame_mask: np.ndarray | None = None) -> Embedding:
    """Log-mel band statistics embedding of a mono signal: its unpadded STFT
    (32 ms windows, 16 ms hop, only windows fully inside the signal) pooled by
    embed_power, with frame_mask one boolean per analysis frame."""
    signal = np.asarray(signal, dtype=np.float64)
    if num_full_frames(len(signal)) < MIN_EMBED_FRAMES:
        raise ShortInputError(
            f"need at least {MIN_EMBED_FRAMES} analysis frames "
            f"({N_WINDOW + (MIN_EMBED_FRAMES - 1) * N_HOP} samples), got {len(signal)}"
        )
    power = np.abs(stft(signal, pad=False))
    power **= 2
    return embed_power(power, frame_mask=frame_mask)


def embed_power(power: np.ndarray, *, frame_mask: np.ndarray | None = None) -> Embedding:
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
    energies = MEL_FILTERBANK @ power
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


def build_distractors(count: int, seed: int) -> list[tuple[str, Embedding]]:
    """Distractor entries drawn from the voice prior, reusable across scenes."""
    rng = np.random.default_rng(seed)
    entries = []
    for k in range(count):
        voice = sample_voice_params(rng)
        utt = synthesize_voice(voice, ENROLLMENT_UTTERANCE_S, int(rng.integers(2**63 - 1)))
        entries.append((f"distractor{k:02d}", embed(utt)))
        del utt  # not held while the next utterance is synthesized
    return entries


def build_enrollment(voices: list[VoiceParams], seed: int) -> list[tuple[str, Embedding]]:
    """The scene speakers' enrollment entries, speakerNN in scene order.

    Each scene voice is enrolled with the embedding of a fresh 20 s utterance
    never used in any mixture, its seed drawn from seed. gen writes them as
    the scene's pool file; run_pipeline and the acceptance suite build them
    here too (reassignment.enroll_speakers).
    """
    rng = np.random.default_rng(seed)
    entries: list[tuple[str, Embedding]] = []
    for j, voice in enumerate(voices):
        utt = synthesize_voice(voice, ENROLLMENT_UTTERANCE_S, int(rng.integers(2**63 - 1)))
        entries.append((f"speaker{j:02d}", embed(utt)))
        del utt  # not held while the next utterance is synthesized
    return entries


def enrollment_pool(
    speakers: list[tuple[str, Embedding]], m: int, distractors: list[tuple[str, Embedding]]
) -> EnrollmentPool:
    """The scene speakers' entries, then the first m - len(speakers) of the
    distractors the caller passes in, already embedded (the predefined-pool
    setting; [] for a speakers-only pool)."""
    if m < len(speakers):
        raise ValueError(f"pool size {m} smaller than number of scene speakers {len(speakers)}")
    needed = m - len(speakers)
    if len(distractors) < needed:
        raise ValueError(f"need {needed} distractors, got {len(distractors)}")
    return EnrollmentPool(speakers + distractors[:needed])
