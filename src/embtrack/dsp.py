"""STFT analysis used by the beamformers, their covariance estimates and the
embedder, and its overlap-add inverse (istft), the reference that checks the
STFT-domain beamformers against time-domain ones.

Every signal is at one sample rate, SAMPLE_RATE, and analysed on one grid of
N_WINDOW-sample windows every N_HOP samples; neither is a parameter. The grid
holds the windows that lie fully inside the signal: frame k covers samples
[k * N_HOP, k * N_HOP + N_WINDOW), and a slice of frames the samples
frame_samples gives. Every beam, covariance and embedding reads that grid.
istft inverts the STFT of a signal zero-padded by N_WINDOW samples on each
side, so that every sample of the signal is reconstructed.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The sample rate of every signal, in Hz: scenes are rendered, WAV files
# written and read, and signals analysed at it.
SAMPLE_RATE = 16000

# The analysis grid: periodic-Hann windows at 50% overlap (perfect reconstruction).
STFT_WINDOW_S = 0.032
STFT_HOP_S = 0.016
# The grid in samples at SAMPLE_RATE: 512 and 256.
N_WINDOW = int(round(STFT_WINDOW_S * SAMPLE_RATE))
N_HOP = int(round(STFT_HOP_S * SAMPLE_RATE))


def periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


# Frames windowed and transformed at a time: stft's working memory is one
# block's frames and spectra, whatever the signal length.
STFT_BLOCK_FRAMES = 256


def stft(
    x: np.ndarray,
    *,
    out: np.ndarray | None = None,
    block_frames: int = STFT_BLOCK_FRAMES,
) -> np.ndarray:
    """Complex STFT on the analysis grid, the windows that lie fully inside
    x, shape (bins, frames). x may be (T,) or (channels, T) -> (ch, bins, frames).

    Each channel is windowed and transformed block_frames frames at a time
    (stft_blocks), so no full-length copy of x or of its frames is held.
    Without out, the result is a (…, bins, frames) view of a frames-major
    array (frame k's bins are contiguous); out, if given, is an array of that
    shape to fill instead, in any memory order, and is returned. Every value
    is the same as one rfft over all frames. A float32 x is windowed in
    float64, a widening that is exact, so it gives the same values as its
    float64 copy.
    """
    n_frames = num_full_frames(x.shape[-1])
    if n_frames == 0:
        raise ValueError(f"signal too short for a {N_WINDOW}-sample window")
    lead, n_bins = x.shape[:-1], N_WINDOW // 2 + 1
    if out is None:
        out = np.empty(lead + (n_frames, n_bins), dtype=complex).swapaxes(-1, -2)
    elif out.shape != lead + (n_bins, n_frames):
        raise ValueError(f"out has shape {out.shape}, the STFT {lead + (n_bins, n_frames)}")
    for channel in np.ndindex(lead):
        for f0, f1, spectra in stft_blocks(x[channel], block_frames=block_frames):
            out[channel][:, f0:f1] = spectra.T
            del spectra  # before the next block's spectra are made
    return out


def stft_blocks(
    x: np.ndarray, *, block_frames: int = STFT_BLOCK_FRAMES
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The STFT of x block_frames frames at a time: yields (f0, f1, spectra),
    spectra of shape (…, f1 - f0, bins) holding frames f0 to f1 - 1.

    x is (T,) or (channels, T). Only the samples one block's frames cover
    are windowed.
    """
    win = periodic_hann(N_WINDOW)
    n_frames = num_full_frames(x.shape[-1])
    for f0 in range(0, n_frames, block_frames):
        f1 = min(f0 + block_frames, n_frames)
        span = x[..., frame_samples(slice(f0, f1))]
        yield f0, f1, np.fft.rfft(sliding_window_view(span, N_WINDOW, axis=-1)[..., ::N_HOP, :] * win)


def istft(spec: np.ndarray, length: int) -> np.ndarray:
    """Inverse via overlap-add of the STFT of a length-sample signal
    zero-padded by N_WINDOW samples on each side, stft(np.pad(x, N_WINDOW));
    returns the length samples of x."""
    win = periodic_hann(N_WINDOW)
    frames = np.fft.irfft(spec.T, n=N_WINDOW, axis=1) * win
    n_frames = frames.shape[0]
    out = np.zeros(N_WINDOW + N_HOP * (n_frames - 1))
    norm = np.zeros_like(out)
    for t in range(n_frames):
        out[t * N_HOP : t * N_HOP + N_WINDOW] += frames[t]
        norm[t * N_HOP : t * N_HOP + N_WINDOW] += win**2
    out = out / np.maximum(norm, 1e-12)
    return out[N_WINDOW : N_WINDOW + length]


def num_full_frames(n_samples: int) -> int:
    """Frame count of the analysis grid of an n_samples signal (0 if too short)."""
    if n_samples < N_WINDOW:
        return 0
    return 1 + (n_samples - N_WINDOW) // N_HOP


def frame_samples(frames: slice) -> slice:
    """The samples frames start to stop - 1 of the analysis grid cover."""
    return slice(frames.start * N_HOP, (frames.stop - 1) * N_HOP + N_WINDOW)


def frames_centred_in(window: tuple[float, float], n_samples: int) -> tuple[int, int]:
    """(start, stop): frames start to stop - 1 of the analysis grid of an
    n_samples signal are those whose centre, N_HOP k + N_WINDOW / 2, lies in
    window, [t0, t1) in seconds with each bound rounded to a sample."""
    n_frames = num_full_frames(n_samples)
    # The first frame whose centre is at or after sample b: k = ceil((2 b - N_WINDOW) / (2 N_HOP)).
    return tuple(
        min(n_frames, max(0, -((N_WINDOW - 2 * int(round(t * SAMPLE_RATE))) // (2 * N_HOP))))
        for t in window
    )
