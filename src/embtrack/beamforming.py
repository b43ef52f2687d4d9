"""Fragment beamformers on the FOA mixture, in the STFT domain: Ideal (oracle
wet signal), broadband Delay-and-Sum, and per-band MVDR with diagonal loading.

reassign_scene takes one unpadded STFT of the mixture per scene (foa_stft).
A fragment reads the frames of that grid whose centre lies in its extraction
window, a slice of the frame axis, and every beamformer returns the beam's
single-channel STFT on those frames, shape (bins, frames); the embedder pools
|Y|^2 from it directly, so no beam is resynthesised. band_covariances
estimates the MVDR noise covariances from a 4-channel STFT: the gated one
from the frames of the scene's foa_stft that gated_noise_reference selects,
gathered a few bins at a time into one batched matrix product per block, the
oracle one from the padded STFT of its time-domain reference
(oracle_noise_reference), in one einsum.

The SN3D steering vector for a direction (az, el) is
    d = (1, sin az cos el, sin el, cos az cos el),  ||d||^2 = 2,
so DS weights d / 2 pass a plane wave from that direction with unit gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import num_full_frames, stft, stft_grid
from .embedding import analysis_frame_tracker_frames
from .geometry import DoA, angular_distance
from .scene import FoaSignal, SpeakerGroundTruth, foa_gains

MVDR_LOADING = 1e-3
MIN_COV_FRAMES = 10
# Bins per block when band_covariances gathers selected frames: a block is a
# small fraction of the STFT, and with 8 bins its batched matrix product ran
# fastest of 4, 8, 16 and 32 on a 30 s scene with one BLAS thread.
_COV_BLOCK_BINS = 8


def steering_vector(doa: DoA) -> np.ndarray:
    """FOA steering vector (W, Y, Z, X) for a plane wave from doa."""
    return foa_gains(doa)


@dataclass
class MvdrDiagnostics:
    """Per-cell counters: bands where the loaded covariance was still
    singular and, in a gated MVDR cell (None in other cells), the tracks
    whose gated mask fell back to every frame of the mixture."""

    fallback_bands: int = 0
    total_bands: int = 0
    gated_fallback_tracks: set[int] | None = None


def foa_stft(signal: FoaSignal) -> np.ndarray:
    """Unpadded STFT of a 4-channel signal, shape (4, bins, frames).

    Frame k covers samples [k * hop, k * hop + window), the grid embed()
    analyses a signal on. The channels are transformed one at a time into one
    preallocated array, so only one channel's framed copy is held at a time.
    """
    n_window, n_hop = stft_grid(signal.sample_rate)
    n_frames = num_full_frames(signal.num_samples, n_window, n_hop)
    spec = np.empty((4, n_window // 2 + 1, n_frames), dtype=complex)
    for c in range(4):
        spec[c] = stft(signal.channels[c], n_window, n_hop, pad=False)
    return spec


def beamform_ds(mixture: FoaSignal | np.ndarray, doa: DoA) -> np.ndarray:
    """Broadband delay-and-sum: w = d / ||d||^2 applied along the channel axis.

    mixture is a 4-channel STFT, such as a frame slice of foa_stft, giving the
    beam's (bins, frames) STFT, or a FoaSignal, giving its samples. The
    weights are real and the same in every band, so the two commute with the
    STFT.
    """
    d = steering_vector(doa)
    w = d / float(d @ d)
    channels = mixture.channels if isinstance(mixture, FoaSignal) else mixture
    return np.tensordot(w, channels, axes=1)


def band_covariances(spec: np.ndarray, frames: np.ndarray | None = None) -> np.ndarray:
    """Per-band spatial covariance of a 4-channel STFT, shape (bins, 4, 4).

    spec is (4, bins, frames): the padded stft of a time-domain reference, or
    foa_stft of the mixture with frames, a boolean mask over its frame axis,
    selecting the frames to average (all of them when frames is None). At
    least MIN_COV_FRAMES must be selected. Without a mask the covariance is
    one einsum over spec. With one, the selected frames are gathered
    _COV_BLOCK_BINS bins at a time into a contiguous (bins, 4, frames) block,
    so the selection is never copied whole, and each block's covariance is
    one batched product x @ x^H. Either result is made exactly Hermitian.
    """
    count = spec.shape[2] if frames is None else int(np.count_nonzero(frames))
    if count < MIN_COV_FRAMES:
        raise ValueError(f"noise reference too short for covariance estimation ({count} frames)")
    if frames is None:
        cov = np.einsum("cft,dft->fcd", spec, np.conj(spec)) / count
    else:
        selected = np.flatnonzero(frames)
        cov = np.empty((spec.shape[1], 4, 4), dtype=complex)
        for lo in range(0, spec.shape[1], _COV_BLOCK_BINS):
            x = np.take(spec[:, lo : lo + _COV_BLOCK_BINS].transpose(1, 0, 2), selected, axis=2)
            cov[lo : lo + _COV_BLOCK_BINS] = x @ np.conj(x).swapaxes(1, 2)
        cov /= count
    return 0.5 * (cov + np.conj(np.transpose(cov, (0, 2, 1))))


def mvdr_weights(noise_cov: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, int]:
    """MVDR weights per band: w = R^-1 d / (d^H R^-1 d) after diagonal loading.

    noise_cov has shape (bins, 4, 4). Returns (weights (bins, 4), number of
    bands that fell back to DS). Loading in proportion to the trace makes a
    Hermitian PSD covariance positive definite unless its trace is 0, so the
    bands with a positive trace are solved in one batched call and the rest
    fall back to DS.
    """
    d_complex = d.astype(complex)
    trace = np.real(np.trace(noise_cov, axis1=1, axis2=2))
    loaded = noise_cov + (MVDR_LOADING * trace / 4.0)[:, None, None] * np.eye(4)
    solved = trace > 0
    count = int(solved.sum())
    rinv_d = np.linalg.solve(loaded[solved], np.broadcast_to(d_complex[:, None], (count, 4, 1)))
    denom = np.real(d_complex @ rinv_d)
    weights = np.tile((d / float(d @ d)).astype(complex), (len(trace), 1))
    weights[solved] = rinv_d[:, :, 0] / denom
    return weights, len(trace) - count


def beamform_mvdr(
    mixture: np.ndarray,
    doa: DoA,
    noise_cov: np.ndarray,
    diagnostics: MvdrDiagnostics | None = None,
) -> np.ndarray:
    """Per-band MVDR steered at doa, with the band covariance noise_cov.

    mixture is a 4-channel STFT (4, bins, frames), such as a frame slice of
    foa_stft; returns the beam's STFT (bins, frames). noise_cov is
    band_covariances of the estimation material: the STFT of the oracle
    interferer-plus-noise components of the fragment's window, or the frames
    of the scene's foa_stft gated to the target track's inactivity. The gated
    covariance depends only on the track, so reassign_scene estimates it once
    per track and every fragment of that track reuses it; the weights are
    solved per call, since the steering DoA is per fragment.
    """
    weights, fallbacks = mvdr_weights(noise_cov, steering_vector(doa))
    if diagnostics is not None:
        diagnostics.fallback_bands += fallbacks
        diagnostics.total_bands += noise_cov.shape[0]
    return np.einsum("fc,cft->ft", np.conj(weights), mixture)


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
    *,
    min_duration: float = 0.5,
) -> np.ndarray:
    """Boolean mask over the frames of foa_stft(mixture): the analysis frames
    whose centre lies in a tracker frame (analysis_frame_tracker_frames) where
    the target's track is inactive.

    When the selected frames cover less than min_duration, one analysis hop
    each, every frame is selected: the covariance is the full mixture's.
    """
    sr = mixture.sample_rate
    mask = np.isin(analysis_frame_tracker_frames(mixture.num_samples, sr), inactive_frames)
    if np.count_nonzero(mask) * stft_grid(sr)[1] < min_duration * sr:
        mask[:] = True
    return mask


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
    window: tuple[float, float],
    frames: slice,
) -> np.ndarray:
    """Oracle beamformer: STFT of the W channel of the wet signal of the
    speaker whose ground-truth DoA at the window midpoint is angularly nearest
    to doa, on the frames of the foa_stft grid that frames selects.

    Only the samples those frames cover are transformed, so no per-speaker
    STFT is kept.
    """
    midpoint = 0.5 * (window[0] + window[1])
    wet = wet_signals[nearest_speaker_index(ground_truth, doa, midpoint)]
    n_window, n_hop = stft_grid(wet.sample_rate)
    span = wet.channels[0, frames.start * n_hop : (frames.stop - 1) * n_hop + n_window]
    return stft(span, n_window, n_hop, pad=False)
