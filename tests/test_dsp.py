import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from embtrack.dsp import (
    N_HOP,
    N_WINDOW,
    SAMPLE_RATE,
    STFT_BLOCK_FRAMES,
    istft,
    num_full_frames,
    num_stft_frames,
    periodic_hann,
    stft,
    stft_blocks,
)


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
    spec = stft(x)
    y = istft(spec, length)
    err = np.max(np.abs(x - y))
    assert err < np.max(np.abs(x)) * 1e-10


def test_stft_round_trip_minus_60_db():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(16000)
    y = istft(stft(x), 16000)
    rel = np.sqrt(np.mean((x - y) ** 2) / np.mean(x**2))
    assert 20 * np.log10(rel) < -60.0


def test_stft_multichannel_shape():
    x = np.zeros((4, 2048))
    spec = stft(x)
    assert spec.shape[0] == 4
    assert spec.shape[1] == 257


def test_unpadded_frame_count():
    assert num_full_frames(512) == 1
    assert num_full_frames(512 + 256) == 2
    assert num_full_frames(511) == 0


def test_unpadded_stft_rejects_short_signal():
    with pytest.raises(ValueError):
        stft(np.zeros(100), pad=False)


def test_config_sample_counts():
    assert (SAMPLE_RATE, N_WINDOW, N_HOP) == (16000, 512, 256)
    assert all(type(v) is int for v in (SAMPLE_RATE, N_WINDOW, N_HOP))


def test_stale_window_and_hop_arguments_raise():
    # Calls of the old (..., n_window, n_hop, ...) signatures must not bind
    # 512 and 256 to the parameters that follow them.
    x = np.zeros(2048)
    spec = stft(x)
    calls = [
        lambda: stft(x, 512, 256),
        lambda: stft(x, 512, 256, pad=False),
        lambda: stft_blocks(x, 512, 256),
        lambda: istft(spec, 512, 256, len(x)),
        lambda: num_full_frames(len(x), 512, 256),
        lambda: num_stft_frames(len(x), 512, 256),
        lambda: num_stft_frames(len(x), 512, 256, False),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def framed_stft(x, pad):
    """One channel, framed by an index array: the per-channel reference."""
    n_window, n_hop = 512, 256
    xp = np.concatenate([np.zeros(n_window), x, np.zeros(n_window)]) if pad else x
    n_frames = 1 + (len(xp) - n_window) // n_hop
    idx = np.arange(n_window)[None, :] + n_hop * np.arange(n_frames)[:, None]
    return np.fft.rfft(xp[idx] * periodic_hann(n_window), axis=1).T


@pytest.mark.parametrize("pad", [True, False])
def test_multichannel_stft_equals_per_channel_reference(pad):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 30 * 16000))
    spec = stft(x, pad=pad)
    assert np.array_equal(spec, np.stack([framed_stft(ch, pad) for ch in x]))
    assert np.array_equal(stft(x[2], pad=pad), framed_stft(x[2], pad))


def unblocked_stft(x, pad=True):
    """stft as one sliding-window product and one rfft over every frame: the
    reference the blocked stft must match bit for bit, memory order included."""
    n_window, n_hop = 512, 256
    if pad:
        zeros = np.zeros(x.shape[:-1] + (n_window,))
        x = np.concatenate([zeros, x, zeros], axis=-1)
    frames = sliding_window_view(x, n_window, axis=-1)[..., ::n_hop, :] * periodic_hann(n_window)
    return np.swapaxes(np.fft.rfft(frames, axis=-1), -1, -2)


def assert_same_stft(spec, reference):
    assert spec.shape == reference.shape
    assert spec.strides == reference.strides
    assert np.array_equal(spec, reference)


# Frame counts of a few blocks with a partial last block, one frame past and
# one short of a whole block, and the 3-50 frame windows of the ideal and DS
# beamformers.
@pytest.mark.parametrize(
    "frames", [3, 7, 50, STFT_BLOCK_FRAMES - 1, STFT_BLOCK_FRAMES, STFT_BLOCK_FRAMES + 1, 3 * STFT_BLOCK_FRAMES + 41]
)
@pytest.mark.parametrize("pad", [True, False])
def test_blocked_stft_equals_unblocked_reference(frames, pad):
    rng = np.random.default_rng(frames)
    # unpadded, `frames` whole frames and a partial hop of leftover samples
    length = 512 + 256 * (frames - 1) + 100
    for x in (rng.standard_normal(length), rng.standard_normal((4, length))):
        assert_same_stft(stft(x, pad=pad), unblocked_stft(x, pad=pad))
    # a float32 strided channel, as read from a sample-major WAV
    x32 = rng.standard_normal((length, 4)).astype(np.float32).T
    assert_same_stft(stft(x32[1], pad=pad), unblocked_stft(x32[1], pad=pad))


@pytest.mark.parametrize("length", [0, 1, 511, 512])
def test_blocked_padded_stft_of_short_signals(length):
    x = np.random.default_rng(length).standard_normal(length)
    assert_same_stft(stft(x), unblocked_stft(x))


def test_stft_out_is_filled_and_returned_in_its_own_memory_order():
    x = np.random.default_rng(3).standard_normal((2, 16000 * 3))
    reference = unblocked_stft(x, pad=False)
    out = np.empty(reference.shape, dtype=complex)  # C order: bins-major
    assert stft(x, pad=False, out=out) is out
    assert out.flags.c_contiguous
    assert np.array_equal(out, reference)
    with pytest.raises(ValueError):
        stft(x, pad=False, out=np.empty(reference.shape[:-1] + (1,), dtype=complex))


def test_stft_working_memory_is_a_fraction_of_its_output():
    # 30 s of 4 channels: the unblocked transform held a padded copy of the
    # signal, every windowed frame and every spectrum besides the result.
    x = np.random.default_rng(4).standard_normal((4, 30 * 16000))
    tracemalloc.start()
    try:
        spec = stft(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - spec.nbytes <= spec.nbytes / 8
