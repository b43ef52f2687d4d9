"""STFT analysis used by the beamformers, their covariance estimates and the
embedder, and its overlap-add inverse (istft), the reference that checks the
STFT-domain beamformers against time-domain ones."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The analysis grid: periodic-Hann windows at 50% overlap (perfect reconstruction).
STFT_WINDOW_S = 0.032
STFT_HOP_S = 0.016


def stft_grid(sample_rate: float) -> tuple[int, int]:
    """(window, hop) of the analysis grid, in samples at sample_rate."""
    return int(round(STFT_WINDOW_S * sample_rate)), int(round(STFT_HOP_S * sample_rate))


def periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(x: np.ndarray, n_window: int, n_hop: int, pad: bool = True) -> np.ndarray:
    """Complex STFT, shape (bins, frames). x may be (T,) or (channels, T) -> (ch, bins, frames).

    With pad=True the signal is zero-padded by one window on each side so the
    inverse transform reconstructs the full length; pad=False keeps only the
    windows fully inside the signal (used for feature extraction).
    """
    if pad:
        zeros = np.zeros(x.shape[:-1] + (n_window,))
        x = np.concatenate([zeros, x, zeros], axis=-1)
    if x.shape[-1] < n_window:
        raise ValueError(f"signal too short for a {n_window}-sample window")
    frames = sliding_window_view(x, n_window, axis=-1)[..., ::n_hop, :] * periodic_hann(n_window)
    return np.swapaxes(np.fft.rfft(frames, axis=-1), -1, -2)


def istft(spec: np.ndarray, n_window: int, n_hop: int, length: int) -> np.ndarray:
    """Inverse of stft via overlap-add; returns `length` samples."""
    win = periodic_hann(n_window)
    frames = np.fft.irfft(spec.T, n=n_window, axis=1) * win
    n_frames = frames.shape[0]
    out = np.zeros(n_window + n_hop * (n_frames - 1))
    norm = np.zeros_like(out)
    for t in range(n_frames):
        out[t * n_hop : t * n_hop + n_window] += frames[t]
        norm[t * n_hop : t * n_hop + n_window] += win**2
    out = out / np.maximum(norm, 1e-12)
    return out[n_window : n_window + length]


def num_full_frames(n_samples: int, n_window: int, n_hop: int) -> int:
    """Frame count of the unpadded stft for an n_samples signal (0 if too short)."""
    if n_samples < n_window:
        return 0
    return 1 + (n_samples - n_window) // n_hop
