"""Fragment beamformers on the FOA mixture, in the STFT domain: Ideal (oracle
wet signal), broadband Delay-and-Sum, and per-band MVDR with diagonal loading.

The mixture is analysed on one unpadded STFT grid (foa_stft). A fragment
reads the frames of that grid whose centre lies in its extraction window, a
slice of the frame axis: reassign_scene transforms only the frames a
fragment's windows read (foa_stft(mixture, frames)), or, in a scene with a
gated MVDR cell, slices the whole mixture's STFT, which gives the same
values. Every beamformer returns the beam's single-channel STFT on those
frames, shape (bins, frames); the embedder pools |Y|^2 from it directly, so
no beam is resynthesised. DS weights a long slice a block of bins at a
time, so the slice is never copied whole.

Both MVDR noise covariances are read from that same grid, each a sum of
x @ x^H over blocks of its frames (one batched matrix product per block),
and need MIN_COV_FRAMES frames: a scene shorter than 0.176 s is refused for
every MVDR cell (ExperimentConfig.validate). band_covariances takes the
gated one from the frames of the scene's foa_stft that gated_noise_reference
selects, gathered a few bins at a time. reference_covariances takes the
oracle one, mixture minus target, on the frames oracle_noise_reference
gives, those centred in the fragment window widened to
MIN_NOISE_REFERENCE_S: the mixture's frames come from its foa_stft, and the
target's wet signal is transformed on them a few frames at a time.

The SN3D steering vector for a direction (az, el) is
    d = (1, sin az cos el, sin el, cos az cos el),  ||d||^2 = 2,
so DS weights d / 2 pass a plane wave from that direction with unit gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import N_HOP, N_WINDOW, SAMPLE_RATE, frames_centred_in, num_full_frames, stft, stft_blocks
from .embedding import analysis_frame_tracker_frames
from .geometry import DoA, angular_distance
from .scene import FoaSignal, SpeakerGroundTruth, foa_gains

MVDR_LOADING = 1e-3
MIN_COV_FRAMES = 10
# Shortest noise reference: an oracle window is widened to it, and a gated
# selection covering less falls back to the whole mixture.
MIN_NOISE_REFERENCE_S = 0.5
# Bins per block when band_covariances gathers selected frames: a block is a
# small fraction of the STFT, and with 8 bins its batched matrix product ran
# fastest of 4, 8, 16 and 32 on a 30 s scene with one BLAS thread.
_COV_BLOCK_BINS = 8
# Frames per block of the target's STFT in reference_covariances: a block of
# 16 frames holds 0.26 MB per copy.
_COV_BLOCK_FRAMES = 16
# (bin, frame) cells per channel in a block of the frame slice that
# beamform_ds weights: a 4-channel block copies 262 KB (blocks of a slice
# over 1024 frames hold 4 bins, and more), and a short slice is one block,
# since a call costs more than the copy there. A block's bin count is a
# multiple of 4: with one BLAS thread, such blocks gave the bits of one
# tensordot over the whole slice on every slice tried; blocks of 1 or 2
# bins did not.
_DS_BLOCK_CELLS = 4096
# Frames per block of beamform_ideal's STFT: a block's windowed frames and
# spectra take 0.13 MB, against 2.1 MB for a dsp.STFT_BLOCK_FRAMES block.
_IDEAL_BLOCK_FRAMES = 16


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


def foa_stft(signal: FoaSignal, frames: slice | None = None) -> np.ndarray:
    """Unpadded STFT of a 4-channel signal, shape (4, bins, frames).

    Frame k covers samples [k * hop, k * hop + window), the grid embed()
    analyses a signal on. frames, a slice start:stop of that grid's frame
    axis, transforms only samples [start * hop, (stop - 1) * hop + window),
    and the result holds frames start to stop - 1, the same values as that
    slice of the whole STFT; None transforms the whole signal. An empty
    slice, or one that runs past the grid, is a ValueError. stft fills one
    preallocated C-ordered array one channel at a time (a channel of the
    sample-major mixture a WAV read gives is strided), each in blocks of
    dsp.STFT_BLOCK_FRAMES frames, so at most one block's frames and spectra
    are held besides the result.
    """
    n_frames = num_full_frames(signal.num_samples)
    start, stop = (0, n_frames) if frames is None else (frames.start, frames.stop)
    if not 0 <= start < stop <= n_frames:
        raise ValueError(f"frames {start}:{stop} are not a slice of the {n_frames}-frame grid")
    span = signal.channels[:, start * N_HOP : (stop - 1) * N_HOP + N_WINDOW]
    spec = np.empty((4, N_WINDOW // 2 + 1, stop - start), dtype=complex)
    for c in range(4):
        stft(span[c], pad=False, out=spec[c])
    return spec


def beamform_ds(mixture: FoaSignal | np.ndarray, doa: DoA) -> np.ndarray:
    """Broadband delay-and-sum: w = d / ||d||^2 applied along the channel axis.

    mixture is a 4-channel STFT, such as a frame slice of foa_stft, giving the
    beam's (bins, frames) STFT, or a FoaSignal, giving its samples. The
    weights are real and the same in every band, so the two commute with the
    STFT. An STFT is weighted a block of bins at a time, _DS_BLOCK_CELLS
    cells per channel: tensordot copies a strided operand, and a block is
    all it then copies.
    """
    d = steering_vector(doa)
    w = d / float(d @ d)
    if isinstance(mixture, FoaSignal):
        return np.tensordot(w, mixture.channels, axes=1)
    beam = np.empty(mixture.shape[1:], dtype=np.result_type(w, mixture))
    step = 4 * max(1, _DS_BLOCK_CELLS // (4 * mixture.shape[2]))
    for lo in range(0, len(beam), step):
        beam[lo : lo + step] = np.tensordot(w, mixture[:, lo : lo + step], axes=1)
    return beam


def band_covariances(spec: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Per-band spatial covariance of the selected frames of a 4-channel STFT,
    shape (bins, 4, 4).

    spec is (4, bins, frames), such as foa_stft of the mixture, and frames a
    boolean mask over its frame axis selecting at least MIN_COV_FRAMES frames
    to average. The selected frames are gathered _COV_BLOCK_BINS bins at a
    time into a contiguous (bins, 4, frames) block, so the selection is never
    copied whole, and each block's covariance is one batched product x @ x^H.
    The result is made exactly Hermitian.
    """
    count = _checked_frame_count(int(np.count_nonzero(frames)))
    selected = np.flatnonzero(frames)
    cov = np.empty((spec.shape[1], 4, 4), dtype=complex)
    for lo in range(0, spec.shape[1], _COV_BLOCK_BINS):
        x = np.take(spec[:, lo : lo + _COV_BLOCK_BINS].transpose(1, 0, 2), selected, axis=2)
        cov[lo : lo + _COV_BLOCK_BINS] = x @ np.conj(x).swapaxes(1, 2)
    return _hermitian(cov / count)


def reference_covariances(mixture_stft: np.ndarray, target: FoaSignal, frames: slice) -> np.ndarray:
    """Per-band spatial covariance of the oracle interferer-plus-noise
    reference, foa_stft(mixture) - foa_stft(target) on the frames of that grid
    that frames selects (oracle_noise_reference's), shape (bins, 4, 4),
    averaged over those frames, of which there must be MIN_COV_FRAMES.

    mixture_stft holds those frames of foa_stft(mixture). The target's frames
    are transformed _COV_BLOCK_FRAMES at a time (dsp.stft_blocks, unpadded,
    of the samples they cover), and each block's difference is added to the
    sum as one batched product x @ x^H, so only a block of the target's STFT
    is held. The result is made exactly Hermitian.
    """
    count = _checked_frame_count(frames.stop - frames.start)
    span = target.channels[:, frames.start * N_HOP : (frames.stop - 1) * N_HOP + N_WINDOW]
    cov = np.zeros((N_WINDOW // 2 + 1, 4, 4), dtype=complex)
    for f0, f1, spectra in stft_blocks(span, pad=False, block_frames=_COV_BLOCK_FRAMES):
        x = np.subtract(
            mixture_stft[:, :, f0:f1].transpose(1, 0, 2), spectra.transpose(2, 0, 1), order="C"
        )
        del spectra  # before the next block's spectra are made
        cov += x @ np.conj(x).swapaxes(1, 2)
    return _hermitian(cov / count)


def _checked_frame_count(count: int) -> int:
    if count < MIN_COV_FRAMES:
        raise ValueError(f"noise reference too short for covariance estimation ({count} frames)")
    return count


def _hermitian(cov: np.ndarray) -> np.ndarray:
    """The Hermitian part of a (bins, 4, 4) stack, exactly Hermitian."""
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
    foa_stft; returns the beam's STFT (bins, frames). noise_cov is the band
    covariance of the estimation material: reference_covariances on the
    oracle_noise_reference frames of the fragment's window, or
    band_covariances of the frames of the scene's foa_stft gated to the
    target track's inactivity (estimated once per track by reassign_scene).
    The weights are solved per call, since the steering DoA is per fragment.
    """
    weights, fallbacks = mvdr_weights(noise_cov, steering_vector(doa))
    if diagnostics is not None:
        diagnostics.fallback_bands += fallbacks
        diagnostics.total_bands += noise_cov.shape[0]
    return np.einsum("fc,cft->ft", np.conj(weights), mixture)


def oracle_noise_reference(num_samples: int, window: tuple[float, float] | None = None) -> slice:
    """The frames of foa_stft's grid, for a scene of num_samples, that the
    oracle noise covariance of a fragment window reads (reference_covariances):
    those whose centre lies in the window widened symmetrically to
    MIN_NOISE_REFERENCE_S and clipped to the scene, as a slice of the frame
    axis; every frame when window is None. They hold every frame whose centre
    lies in the window itself.
    """
    start, end = window or (0.0, num_samples / SAMPLE_RATE)
    if end - start < MIN_NOISE_REFERENCE_S:
        pad = 0.5 * (MIN_NOISE_REFERENCE_S - (end - start))
        start, end = start - pad, end + pad
    return slice(*frames_centred_in((start, end), num_samples))


def gated_noise_reference(mixture: FoaSignal, inactive_frames: list[int]) -> np.ndarray:
    """Boolean mask over the frames of foa_stft(mixture): the analysis frames
    whose centre lies in a tracker frame (analysis_frame_tracker_frames) where
    the target's track is inactive.

    When the selected frames cover less than MIN_NOISE_REFERENCE_S, one
    analysis hop each, every frame is selected: the covariance is the full
    mixture's.
    """
    mask = np.isin(analysis_frame_tracker_frames(mixture.num_samples), inactive_frames)
    if np.count_nonzero(mask) * N_HOP < MIN_NOISE_REFERENCE_S * SAMPLE_RATE:
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

    Only the samples those frames cover are transformed, _IDEAL_BLOCK_FRAMES
    frames at a time, so no per-speaker STFT is kept and the beam is the only
    whole-window array held.
    """
    midpoint = 0.5 * (window[0] + window[1])
    wet = wet_signals[nearest_speaker_index(ground_truth, doa, midpoint)]
    span = wet.channels[0, frames.start * N_HOP : (frames.stop - 1) * N_HOP + N_WINDOW]
    return stft(span, pad=False, block_frames=_IDEAL_BLOCK_FRAMES)
