import numpy as np
import pytest

from embtrack.dsp import StftConfig, istft, num_full_frames, periodic_hann, stft


def test_periodic_hann_cola_at_half_overlap():
    # hann(t) + hann(t + n/2) is constant, which istft's window-sum
    # normalization turns into perfect reconstruction
    n = 512
    win = periodic_hann(n)
    assert np.allclose(win[: n // 2] + win[n // 2 :], 1.0, atol=1e-12)


@pytest.mark.parametrize("length", [1000, 4096, 16000, 16001])
def test_stft_round_trip(length):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(length)
    spec = stft(x, 512, 256)
    y = istft(spec, 512, 256, length)
    err = np.max(np.abs(x - y))
    assert err < np.max(np.abs(x)) * 1e-10


def test_stft_round_trip_minus_60_db():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(16000)
    y = istft(stft(x, 512, 256), 512, 256, 16000)
    rel = np.sqrt(np.mean((x - y) ** 2) / np.mean(x**2))
    assert 20 * np.log10(rel) < -60.0


def test_stft_multichannel_shape():
    x = np.zeros((4, 2048))
    spec = stft(x, 512, 256)
    assert spec.shape[0] == 4
    assert spec.shape[1] == 257


def test_unpadded_frame_count():
    assert num_full_frames(512, 512, 256) == 1
    assert num_full_frames(512 + 256, 512, 256) == 2
    assert num_full_frames(511, 512, 256) == 0


def test_unpadded_stft_rejects_short_signal():
    with pytest.raises(ValueError):
        stft(np.zeros(100), 512, 256, pad=False)


def test_config_sample_counts():
    cfg = StftConfig()
    assert cfg.window_samples(16000) == 512
    assert cfg.hop_samples(16000) == 256


def framed_stft(x, n_window, n_hop, pad):
    """One channel, framed by an index array: the per-channel reference."""
    xp = np.concatenate([np.zeros(n_window), x, np.zeros(n_window)]) if pad else x
    n_frames = 1 + (len(xp) - n_window) // n_hop
    idx = np.arange(n_window)[None, :] + n_hop * np.arange(n_frames)[:, None]
    return np.fft.rfft(xp[idx] * periodic_hann(n_window), axis=1).T


@pytest.mark.parametrize("pad", [True, False])
def test_multichannel_stft_equals_per_channel_reference(pad):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 30 * 16000))
    spec = stft(x, 512, 256, pad=pad)
    assert np.array_equal(spec, np.stack([framed_stft(ch, 512, 256, pad) for ch in x]))
    assert np.array_equal(stft(x[2], 512, 256, pad=pad), framed_stft(x[2], 512, 256, pad))
