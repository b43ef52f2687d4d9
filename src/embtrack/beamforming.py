"""Fragment beamformers on the FOA mixture: Ideal (oracle wet signal),
broadband Delay-and-Sum, and per-band MVDR with diagonal loading.

The SN3D steering vector for a direction (az, el) is
    d = (1, sin az cos el, sin el, cos az cos el),  ||d||^2 = 2,
so DS weights d / 2 pass a plane wave from that direction with unit gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import StftConfig, istft, stft
from .geometry import DoA, angular_distance
from .scene import FoaSignal, SpeakerGroundTruth, foa_gains

MVDR_LOADING = 1e-3
MIN_COV_FRAMES = 10


def steering_vector(doa: DoA) -> np.ndarray:
    """FOA steering vector (W, Y, Z, X) for a plane wave from doa."""
    return foa_gains(doa)


@dataclass
class MvdrDiagnostics:
    """Per-run counters: bands where the loaded covariance was still singular."""

    fallback_bands: int = 0
    total_bands: int = 0


def _window_slice(signal: FoaSignal, window: tuple[float, float] | None) -> np.ndarray:
    if window is None:
        return signal.channels
    a = max(0, int(round(window[0] * signal.sample_rate)))
    b = min(signal.num_samples, int(round(window[1] * signal.sample_rate)))
    return signal.channels[:, a:b]


def beamform_ds(
    mixture: FoaSignal, doa: DoA, window: tuple[float, float] | None = None
) -> np.ndarray:
    """Broadband delay-and-sum: w = d / ||d||^2 applied sample-wise."""
    d = steering_vector(doa)
    w = d / float(d @ d)
    return w @ _window_slice(mixture, window)


def band_covariances(channels: np.ndarray, sample_rate: int, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Per-band spatial covariance of a 4-channel signal, shape (bins, 4, 4).

    channels is the estimation material, 4 x T'. It must provide at least
    MIN_COV_FRAMES STFT frames.
    """
    channels = np.atleast_2d(channels)
    n_window = cfg.window_samples(sample_rate)
    n_hop = cfg.hop_samples(sample_rate)
    min_samples = n_window + (MIN_COV_FRAMES - 1) * n_hop - 2 * n_window
    if channels.shape[1] < max(n_hop, min_samples):
        raise ValueError(
            f"noise reference too short for covariance estimation ({channels.shape[1]} samples)"
        )
    spec = stft(channels, n_window, n_hop)
    # spec: (4, bins, frames) -> covariance over frames per bin
    cov = np.einsum("cft,dft->fcd", spec, np.conj(spec)) / spec.shape[2]
    return 0.5 * (cov + np.conj(np.transpose(cov, (0, 2, 1))))


def mvdr_weights(noise_cov: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, int]:
    """MVDR weights per band: w = R^-1 d / (d^H R^-1 d) after diagonal loading.

    noise_cov has shape (bins, 4, 4). Returns (weights (bins, 4), number of
    bands that fell back to DS because the loaded covariance was singular).
    """
    bins = noise_cov.shape[0]
    weights = np.empty((bins, 4), dtype=complex)
    ds = d / float(d @ d)
    fallbacks = 0
    trace = np.real(np.trace(noise_cov, axis1=1, axis2=2))
    loaded = noise_cov + (MVDR_LOADING * trace / 4.0)[:, None, None] * np.eye(4)
    for f in range(bins):
        try:
            rinv_d = np.linalg.solve(loaded[f], d.astype(complex))
            denom = np.real(d @ rinv_d)
            if not np.isfinite(denom) or denom <= 0:
                raise np.linalg.LinAlgError
            weights[f] = rinv_d / denom
        except np.linalg.LinAlgError:
            weights[f] = ds
            fallbacks += 1
    return weights, fallbacks


def beamform_mvdr(
    mixture: FoaSignal,
    doa: DoA,
    noise_cov: np.ndarray,
    window: tuple[float, float] | None = None,
    cfg: StftConfig = StftConfig(),
    diagnostics: MvdrDiagnostics | None = None,
) -> np.ndarray:
    """Per-band MVDR steered at doa, with the band covariance noise_cov.

    noise_cov is band_covariances of the estimation material: the oracle
    interferer-plus-noise components of the fragment's window, or the mixture
    frames gated to the target track's inactivity. The gated covariance
    depends only on the track, so reassign_scene estimates it once per track
    and every fragment of that track reuses it; the weights are solved per
    call, since the steering DoA is per fragment.
    """
    weights, fallbacks = mvdr_weights(noise_cov, steering_vector(doa))
    if diagnostics is not None:
        diagnostics.fallback_bands += fallbacks
        diagnostics.total_bands += noise_cov.shape[0]

    n_window = cfg.window_samples(mixture.sample_rate)
    n_hop = cfg.hop_samples(mixture.sample_rate)
    chunk = _window_slice(mixture, window)
    spec = stft(chunk, n_window, n_hop)  # (4, bins, frames)
    out_spec = np.einsum("fc,cft->ft", np.conj(weights), spec)
    return istft(out_spec, n_window, n_hop, chunk.shape[1])


def oracle_noise_reference(
    mixture: FoaSignal,
    wet_signals: list[FoaSignal],
    target_index: int,
    window: tuple[float, float] | None = None,
    min_duration: float = 0.5,
) -> np.ndarray:
    """Everything except the target: mixture minus the target's wet signal.

    When a window is given it is symmetrically widened to min_duration so the
    covariance has enough frames.
    """
    a, b = 0, mixture.num_samples
    if window is not None:
        start, end = window
        if end - start < min_duration:
            pad = 0.5 * (min_duration - (end - start))
            start, end = start - pad, end + pad
        a = max(0, int(round(start * mixture.sample_rate)))
        b = min(mixture.num_samples, int(round(end * mixture.sample_rate)))
    return mixture.channels[:, a:b] - wet_signals[target_index].channels[:, a:b]


def gated_noise_reference(
    mixture: FoaSignal,
    inactive_frames: list[int],
    hop: float,
    min_duration: float = 0.5,
) -> np.ndarray:
    """Mixture samples from frames where the target's track is inactive."""
    sr = mixture.sample_rate
    mask = np.zeros(mixture.num_samples, dtype=bool)
    for t in inactive_frames:
        a = int(round(t * hop * sr))
        b = min(mixture.num_samples, int(round((t + 1) * hop * sr)))
        mask[a:b] = True
    if mask.sum() < int(min_duration * sr):
        # Not enough gated material: fall back to the full mixture.
        return mixture.channels
    return mixture.channels[:, mask]


def nearest_speaker_index(
    ground_truth: list[SpeakerGroundTruth], doa: DoA, at_time: float
) -> int:
    """Speaker whose ground-truth DoA at at_time is angularly nearest to doa.

    If nobody is active then, each speaker's temporally nearest segment DoA is
    used instead. Ties go to the lower speaker id.
    """
    candidates = []
    any_active = any(gt.doa_at(at_time) is not None for gt in ground_truth)
    for gt in ground_truth:
        gt_doa = gt.doa_at(at_time) if any_active else gt.nearest_segment_doa(at_time)
        if gt_doa is None:
            continue
        candidates.append((angular_distance(doa, gt_doa), gt.speaker_id))
    return min(candidates)[1]


def beamform_ideal(
    wet_signals: list[FoaSignal],
    ground_truth: list[SpeakerGroundTruth],
    doa: DoA,
    window: tuple[float, float] | None = None,
) -> np.ndarray:
    """Oracle beamformer: W channel of the wet signal of the speaker whose
    ground-truth DoA at the window midpoint is angularly nearest to doa.
    """
    if window is None:
        duration = wet_signals[0].duration if wet_signals else 0.0
        window = (0.0, duration)
    midpoint = 0.5 * (window[0] + window[1])
    best_id = nearest_speaker_index(ground_truth, doa, midpoint)
    return _window_slice(wet_signals[best_id], window)[0]
