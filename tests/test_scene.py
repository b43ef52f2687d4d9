import copy
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import DIFFUSE_SCALES, slow_noise, whole_array_mix
from embtrack import scene
from embtrack.dsp import SAMPLE_RATE
from embtrack.geometry import DoA, angular_distance
from embtrack.scene import (
    SEPARATION_REGIMES,
    FoaSignal,
    SceneSpec,
    VoiceParams,
    foa_gains,
    generate_diffuse_noise,
    render_scene,
    sample_voice_params,
    simulate,
    synthesize_voice,
)


def _per_harmonic_voice(voice, duration, sample_rate, seed):
    """synthesize_voice with one np.sin per harmonic: the reference the
    wavetable read is checked against. Same RNG draw order."""
    n = int(round(duration * sample_rate))
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sample_rate
    vib = 0.004 * np.sin(2.0 * np.pi * 4.7 * t + rng.uniform(0.0, 2.0 * np.pi))
    drift = 0.006 * slow_noise(rng, n, sample_rate, 3.0)
    phase = 2.0 * np.pi * np.cumsum(voice.f0 * (1.0 + vib + drift)) / sample_rate
    n_harm = max(1, int(min(7400.0, 0.45 * sample_rate) / voice.f0))
    freqs = voice.f0 * np.arange(1, n_harm + 1)
    level_db = voice.spectral_tilt * np.log2(freqs / voice.f0)
    for center, bandwidth, gain_db in voice.resonances:
        level_db = level_db + gain_db * np.exp(-0.5 * ((freqs - center) / bandwidth) ** 2)
    amps = 10.0 ** (level_db / 20.0)
    sig = np.zeros(n)
    phases0 = rng.uniform(0.0, 2.0 * np.pi, size=n_harm)
    for k in range(n_harm):
        sig += amps[k] * np.sin((k + 1) * phase + phases0[k])
    env = 1.0 + 0.35 * np.sin(2.0 * np.pi * voice.modulation_rate * t + rng.uniform(0.0, 2.0 * np.pi))
    env *= 1.0 + 0.15 * slow_noise(rng, n, sample_rate, 2.0)
    sig *= np.maximum(env, 0.05)
    return sig / np.sqrt(np.mean(sig**2))


def _whole_oscillator(rate_hz, phase, n, sample_rate):
    """sin(2 pi rate_hz t + phase) at t = i / sample_rate for all n samples
    at once, by the angle addition synthesize_voice uses: sample i = q P + r
    is sin(a_q) cos(w r) + cos(a_q) sin(w r), a_q the plain angle of sample
    q P and w r that of sample r."""
    period = scene._OSC_PERIOD
    omega = 2.0 * np.pi * rate_hz
    anchors = np.arange(0, n, period) / sample_rate * omega + phase
    offsets = np.arange(min(n, period)) / sample_rate * omega
    q, r = np.divmod(np.arange(n), period)
    return np.sin(anchors)[q] * np.cos(offsets)[r] + np.cos(anchors)[q] * np.sin(offsets)[r]


def _out_of_place_voice(voice, duration, sample_rate, seed):
    """synthesize_voice as whole-array expressions, a new array for each:
    both sines by angle addition from their anchors over the whole utterance
    at once (_whole_oscillator), and the wavetable built from the whole
    spectrum and read by cubic Hermite interpolation. The reference the
    block-wise, in-place version must match bit for bit."""
    n = int(round(duration * sample_rate))
    if n == 0:
        return np.zeros(0)
    rng = np.random.default_rng(seed)
    vib = 0.004 * _whole_oscillator(4.7, rng.uniform(0.0, 2.0 * np.pi), n, sample_rate)
    drift = 0.006 * slow_noise(rng, n, sample_rate, 3.0)
    inst_f0 = voice.f0 * (1.0 + vib + drift)
    n_harm = max(1, int(min(7400.0, 0.45 * sample_rate) / voice.f0))
    harmonics = np.arange(1, n_harm + 1)
    freqs = voice.f0 * harmonics
    level_db = voice.spectral_tilt * np.log2(freqs / voice.f0)
    for center, bandwidth, gain_db in voice.resonances:
        level_db = level_db + gain_db * np.exp(-0.5 * ((freqs - center) / bandwidth) ** 2)
    amps = 10.0 ** (level_db / 20.0)
    size = scene._WAVETABLE_SIZE
    coeffs = (0.5 * size) * amps * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n_harm))
    spectrum = np.zeros((2, size // 2 + 1), dtype=np.complex128)
    spectrum[0, harmonics] = -1j * coeffs
    spectrum[1, harmonics] = (2.0 * np.pi / size) * harmonics * coeffs
    values, slopes = np.fft.irfft(spectrum, n=size, axis=1)
    rise = np.roll(values, -1) - values
    both = slopes + np.roll(slopes, -1)
    a = 3.0 * rise - slopes - both
    b = both - 2.0 * rise
    x = np.cumsum(inst_f0) * (size / sample_rate)
    node = np.floor(x)
    f = x - node
    j = node.astype(np.intp) % size
    sig = values[j] + f * (slopes[j] + f * (a[j] + f * b[j]))
    env = 1.0 + 0.35 * _whole_oscillator(voice.modulation_rate, rng.uniform(0.0, 2.0 * np.pi), n, sample_rate)
    env *= 1.0 + 0.15 * slow_noise(rng, n, sample_rate, 2.0)
    sig *= np.maximum(env, 0.05)
    rms = np.sqrt(np.mean(sig**2))
    return sig / rms if rms > 0 else sig


def _peak_bytes(fn, *args):
    """(fn(*args), tracemalloc's peak while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def one_segment_spec(**kwargs):
    """A spec whose speakers talk through the whole scene in one segment."""
    defaults = dict(
        seed=0,
        num_speakers=1,
        duration=4.0,
        snr=None,
        segment_range=(50.0, 51.0),
        pause_range=(0.0, 1e-9),
    )
    defaults.update(kwargs)
    return SceneSpec(**defaults)


class TestFoaSignal:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_finiteness_check_holds_a_block(self, dtype):
        # A full-size boolean array is an eighth of a float64 signal's bytes
        # and a quarter of a float32 one's.
        channels = np.zeros((4, 30 * 16000), dtype=dtype)
        signal, peak = _peak_bytes(FoaSignal, channels)
        assert signal.channels is channels
        assert peak < channels.nbytes / 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_sample_in_the_last_block_raises(self, bad, dtype):
        channels = np.zeros((4, 3 * scene._FINITE_BLOCK + 5), dtype=dtype)
        channels[3, -1] = bad
        with pytest.raises(ValueError, match="finite"):
            FoaSignal(channels)
        channels[3, -1] = 0.0
        FoaSignal(channels)


class TestEncodeFoa:
    """foa_gains, the plane-wave encoding simulate applies to every source."""

    def test_front_direction(self):
        assert np.allclose(foa_gains(DoA(0.0, 0.0)), [1, 0, 0, 1])  # W, Y, Z, X

    def test_left_direction(self):
        assert np.allclose(foa_gains(DoA(90.0, 0.0)), [1, 1, 0, 0], atol=1e-15)

    def test_zenith_direction(self):
        assert np.allclose(foa_gains(DoA(0.0, 90.0)), [1, 0, 1, 0], atol=1e-15)

    def test_unit_w_and_sn3d_norm(self):
        rng = np.random.default_rng(5)
        for az, el in zip(rng.uniform(-180, 180, 50), rng.uniform(-90, 90, 50)):
            gains = foa_gains(DoA(az, el))
            assert gains[0] == 1.0
            assert float(gains @ gains) == pytest.approx(2.0)


class TestDiffuseNoise:
    def test_channel_power_ratios(self):
        noise = generate_diffuse_noise(60.0, seed=7)
        powers = np.mean(noise.channels**2, axis=1)
        for ch in (1, 2, 3):
            assert powers[ch] / powers[0] == pytest.approx(1.0 / 3.0, rel=0.05)

    def test_nearly_uncorrelated_channels(self):
        noise = generate_diffuse_noise(30.0, seed=3)
        cov = noise.channels @ noise.channels.T / noise.num_samples
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.01

    def test_zero_mean(self):
        noise = generate_diffuse_noise(10.0, seed=1)
        assert np.allclose(np.mean(noise.channels, axis=1), 0.0, atol=0.01)

    def test_zero_duration_is_empty(self):
        noise = generate_diffuse_noise(0.0, seed=0)
        assert noise.num_samples == 0

    def test_deterministic(self):
        a = generate_diffuse_noise(1.0, seed=5)
        b = generate_diffuse_noise(1.0, seed=5)
        assert np.array_equal(a.channels, b.channels)


    @pytest.mark.parametrize("duration", [0.0, 1 / 16000, 1.0, 7.3])
    def test_equals_one_whole_array_draw(self, duration):
        n = int(round(duration * 16000))
        reference = DIFFUSE_SCALES[:, None] * np.random.default_rng(5).standard_normal((4, n))
        assert np.array_equal(generate_diffuse_noise(duration, seed=5).channels, reference)


class TestSynthesizeVoice:
    def test_unit_rms(self):
        voice = sample_voice_params(np.random.default_rng(0))
        s = synthesize_voice(voice, 2.0, seed=1)
        assert np.sqrt(np.mean(s**2)) == pytest.approx(1.0)

    def test_zero_duration_empty(self):
        voice = sample_voice_params(np.random.default_rng(0))
        assert len(synthesize_voice(voice, 0.0, seed=1)) == 0

    def test_deterministic(self):
        voice = sample_voice_params(np.random.default_rng(0))
        a = synthesize_voice(voice, 1.0, seed=9)
        b = synthesize_voice(voice, 1.0, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("f0", [80.0, 300.0])  # 90 and 24 harmonics at 16 kHz
    @pytest.mark.parametrize("duration", [3.0, 20.0, 60.0])
    def test_matches_per_harmonic_sin_sum(self, f0, duration):
        voice = VoiceParams(f0, -6.0, ((700.0, 120.0, 8.0), (1800.0, 200.0, 5.0)), 3.5)
        s = synthesize_voice(voice, duration, seed=4)
        assert np.max(np.abs(s - _per_harmonic_voice(voice, duration, 16000, seed=4))) <= 1e-9
        assert np.sqrt(np.mean(s**2)) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(s, synthesize_voice(voice, duration, seed=4))

    def test_prior_voices_match_per_harmonic_sin_sum(self):
        # 12 voices drawn from the prior, and its corner with the most
        # curvature in the waveform: the lowest f0, the flattest tilt and
        # every resonance at full gain, high up. 2^14 table nodes give 1.9e-9
        # on that corner.
        rng = np.random.default_rng(31)
        voices = [sample_voice_params(rng) for _ in range(12)]
        voices.append(VoiceParams(80.0, -1.0, ((900.0, 300.0, 18.0), (2400.0, 400.0, 18.0), (5000.0, 600.0, 18.0)), 3.0))
        for k, voice in enumerate(voices):
            s = synthesize_voice(voice, 3.0, seed=k)
            assert np.max(np.abs(s - _per_harmonic_voice(voice, 3.0, 16000, seed=k))) <= 1e-9

    @pytest.mark.parametrize("num_samples", [1, 2, 3 * 8192, 2 * 8192 + 1, 40001])
    def test_block_size_changes_no_bit(self, num_samples, monkeypatch):
        voice = VoiceParams(95.0, -5.0, ((900.0, 150.0, 6.0),), 4.0)
        duration = num_samples / 16000
        reference = synthesize_voice(voice, duration, seed=11)
        assert len(reference) == num_samples
        for block in (2, 3, 1000, 8191, 10**6):
            monkeypatch.setattr(scene, "_SYNTH_BLOCK", block)
            assert np.array_equal(synthesize_voice(voice, duration, seed=11), reference)

    @pytest.mark.parametrize("duration", [20.0, 3.3, 0.5])
    def test_in_place_synthesis_changes_no_bit(self, duration):
        rng = np.random.default_rng(21)
        for k in range(12):
            voice = sample_voice_params(rng)
            assert np.array_equal(
                synthesize_voice(voice, duration, seed=k),
                _out_of_place_voice(voice, duration, 16000, seed=k),
            )

    def test_holds_at_most_three_full_length_arrays(self):
        # The out-of-place synthesis peaked at about nine 20 s arrays, the
        # in-place full-length one at four; the block-wise one holds the
        # signal, the RMS temporary, the table and one block's arrays.
        voice = sample_voice_params(np.random.default_rng(0))
        sig, peak = _peak_bytes(synthesize_voice, voice, 20.0, 1)
        assert peak <= 3 * sig.nbytes

    # At n = 5337, (n - 1) * step rounds below the last control point, where
    # linspace puts its end point, and the interpolated value differs.
    @pytest.mark.parametrize("n", [1, 2, 5337, scene._SYNTH_BLOCK - 1, scene._SYNTH_BLOCK + 1, 40001])
    def test_block_slow_noise_equals_whole_array_interp(self, n):
        rng, reference_rng = np.random.default_rng(8), np.random.default_rng(8)
        ctrl = scene._slow_noise_controls(rng, n, 3.0)
        blocks = [
            scene._slow_noise_block(ctrl, n, start, min(start + scene._SYNTH_BLOCK, n))
            for start in range(0, n, scene._SYNTH_BLOCK)
        ]
        assert np.array_equal(np.concatenate(blocks), slow_noise(reference_rng, n, 16000, 3.0))
        assert rng.random() == reference_rng.random()

    # The prior's envelope rates span [1.5, 8] Hz; the vibrato is at 4.7 Hz.
    @pytest.mark.parametrize("rate_hz", [1.5, 4.7, 8.0])
    @pytest.mark.parametrize("phase", [0.0, 6.28])
    def test_oscillator_matches_np_sin(self, rate_hz, phase):
        n = 60 * 16000
        oscillator = scene._oscillator(rate_hz, phase, n)
        blocks = [
            scene._oscillator_block(oscillator, start, min(start + scene._SYNTH_BLOCK, n))
            for start in range(0, n, scene._SYNTH_BLOCK)
        ]
        reference = np.sin(np.arange(n) / 16000 * (2.0 * np.pi * rate_hz) + phase)
        assert np.max(np.abs(np.concatenate(blocks) - reference)) <= 1e-12

    def test_interleaved_table_read_equals_four_row_reads(self):
        # The (L, 4) table's columns are the four Hermite coefficient rows,
        # built as separate arrays, and one gather of its rows reads what
        # four gathers of those rows read.
        rng = np.random.default_rng(3)
        amps, phases0 = rng.uniform(0.1, 1.0, size=40), rng.uniform(0.0, 2.0 * np.pi, size=40)
        table = scene._wavetable(amps, phases0)
        size = scene._WAVETABLE_SIZE
        harmonics = np.arange(1, 41)
        coeffs = (0.5 * size) * amps * np.exp(1j * phases0)
        spectrum = np.zeros((2, 41), dtype=np.complex128)
        spectrum[0, 1:] = -1j * coeffs
        spectrum[1, 1:] = (2.0 * np.pi / size) * harmonics * coeffs
        values, slopes = np.fft.irfft(spectrum, n=size, axis=1)
        rise = np.roll(values, -1) - values
        both = np.roll(slopes, -1) + slopes
        rows = (values, slopes, rise * 3.0 - slopes - both, both - 2.0 * rise)
        index = rng.integers(0, size, size=5000)
        assert table.shape == (size, 4)
        assert np.array_equal(table.take(index, axis=0), np.stack([row.take(index) for row in rows], axis=1))

    def test_f0_bounds_enforced(self):
        with pytest.raises(ValueError):
            VoiceParams(f0=40.0, spectral_tilt=-6.0, resonances=(), modulation_rate=3.0)

    def test_resonance_order_enforced(self):
        with pytest.raises(ValueError):
            VoiceParams(
                f0=120.0,
                spectral_tilt=-6.0,
                resonances=((800.0, 100.0, 6.0), (500.0, 100.0, 6.0)),
                modulation_rate=3.0,
            )


class TestGenerateScene:
    @pytest.mark.parametrize("snr", [15.0, 0.0, -20.0, None])
    def test_per_channel_noise_mix_equals_whole_array_mix(self, snr):
        simulated = simulate(SceneSpec(seed=4, duration=6.0, num_speakers=2, snr=None))
        mixture, wet = simulated.mixture, simulated.wet
        assert np.array_equal(mixture.channels, whole_array_mix(wet, None, None))
        if snr is not None:
            noisy = mixture.channels.copy()
            scene._add_noise(noisy, snr, 77)
            assert np.array_equal(noisy, whole_array_mix(wet, snr, 77))

    def test_mixture_is_the_wet_sum_plus_whole_array_noise(self, monkeypatch):
        calls = []

        def recorded(mixture, snr, noise_seed):
            calls.append((mixture, snr, noise_seed))
            add_noise(mixture, snr, noise_seed)

        add_noise = scene._add_noise
        monkeypatch.setattr(scene, "_add_noise", recorded)
        simulated = simulate(SceneSpec(seed=9, duration=8.0, num_speakers=3))
        mixture, wet = simulated.mixture, simulated.wet
        [(noisy, snr, noise_seed)] = calls
        assert noisy is mixture.channels and snr == 15.0 and noise_seed is not None
        assert np.array_equal(mixture.channels, whole_array_mix(wet, snr, noise_seed))

    def test_speaker_channels_equal_the_whole_segment_expression(self):
        # Fades in place and one reused buffer per segment, with the bits of
        # a faded copy of each segment scaled into a new array per channel.
        spec = SceneSpec(seed=5, duration=20.0)
        rng = np.random.default_rng(spec.seed)
        speakers, gains_db = scene._place_speakers(rng, spec)
        reference_rng = copy.deepcopy(rng)
        sr, n = SAMPLE_RATE, int(round(spec.duration * SAMPLE_RATE))
        for gt, gain_db in zip(speakers, gains_db):
            assert len(gt.segments) >= 3
            expected = np.zeros((4, n))
            gain = 10.0 ** (gain_db / 20.0)
            for onset, offset, doa in gt.segments:
                seg_seed = int(reference_rng.integers(0, 2**63 - 1))
                a, b = int(round(onset * sr)), int(round(offset * sr))
                mono = synthesize_voice(gt.voice, (b - a) / sr, seg_seed)
                scene._apply_fades(mono)
                for row, foa_gain in zip(expected, foa_gains(doa)):
                    row[a : a + len(mono)] += foa_gain * mono * gain
            assert np.array_equal(scene._speaker_channels(rng, gt, gain_db, n), expected)

    def test_each_wet_signal_is_dropped_before_the_next_is_built(self, monkeypatch):
        # A name left bound to a previous speaker's array, or to a view of
        # it, would keep that signal alive while the next one is built.
        order, refs, held = [], [], []
        synthesize = scene.synthesize_voice

        def recorded(*args):
            held.append(any(ref() is not None for ref in refs))
            return synthesize(*args)

        def on_wet(j, signal):
            order.append(j)
            refs.append(weakref.ref(signal.channels))

        monkeypatch.setattr(scene, "synthesize_voice", recorded)
        render_scene(SceneSpec(seed=9, duration=8.0, num_speakers=3), on_wet)
        assert order == [0, 1, 2]
        assert len(held) >= 3 and not any(held)

    def test_holds_at_most_half_a_signal_beyond_its_outputs(self):
        # 30 s, 2 speakers: the whole-array noise draw, its scaled copy and the
        # noisy sum held two full 4-channel signals beyond the outputs.
        simulated, peak = _peak_bytes(simulate, SceneSpec(seed=1, duration=30.0))
        mixture = simulated.mixture.channels
        outputs = mixture.nbytes + sum(w.channels.nbytes for w in simulated.wet)
        assert peak - outputs <= mixture.nbytes / 2

    def test_deterministic_bit_identical(self):
        spec = SceneSpec(seed=42, duration=6.0)
        first, second = simulate(spec), simulate(spec)
        assert np.array_equal(first.mixture.channels, second.mixture.channels)
        for a, b in zip(first.wet, second.wet):
            assert np.array_equal(a.channels, b.channels)
        assert [g.segments for g in first.ground_truth] == [g.segments for g in second.ground_truth]

    def test_single_source_no_noise_mixture_equals_wet(self):
        simulated = simulate(one_segment_spec())
        mix, wet, gt = simulated.mixture, simulated.wet, simulated.ground_truth
        assert len(gt[0].segments) == 1
        assert np.array_equal(mix.channels, wet[0].channels)

    def test_snr_calibration_within_tenth_db(self):
        spec = SceneSpec(seed=3, duration=8.0, snr=15.0)
        simulated = simulate(spec)
        mix, wet, gt = simulated.mixture, simulated.wet, simulated.ground_truth
        speech = np.sum([w.channels[0] for w in wet], axis=0)
        noise = mix.channels[0] - speech
        snr_db = 10 * np.log10(np.mean(speech**2) / np.mean(noise**2))
        assert abs(snr_db - 15.0) < 0.1

    def test_distant_regime_pairwise_separation(self):
        spec = SceneSpec(seed=11, num_speakers=2, duration=12.0, separation_regime="distant")
        gt = simulate(spec).ground_truth
        lo, hi = SEPARATION_REGIMES["distant"]
        for a_on, a_off, a_doa in gt[0].segments:
            for b_on, b_off, b_doa in gt[1].segments:
                if a_on < b_off and b_on < a_off:
                    assert lo <= angular_distance(a_doa, b_doa) <= hi

    def test_close_regime_pairwise_separation(self):
        spec = SceneSpec(seed=11, num_speakers=2, duration=12.0, separation_regime="close")
        gt = simulate(spec).ground_truth
        for a_on, a_off, a_doa in gt[0].segments:
            for b_on, b_off, b_doa in gt[1].segments:
                if a_on < b_off and b_on < a_off:
                    assert 25.0 <= angular_distance(a_doa, b_doa) <= 60.0

    def test_jump_property(self):
        spec = SceneSpec(seed=5, duration=30.0)
        gt = simulate(spec).ground_truth
        for speaker in gt:
            if len(speaker.segments) < 2:
                continue
            jumps = [
                angular_distance(a[2], b[2])
                for a, b in zip(speaker.segments, speaker.segments[1:])
            ]
            assert max(jumps) > 0.0
            # movement only between segments: a gap separates every jump
            for a, b in zip(speaker.segments, speaker.segments[1:]):
                assert b[0] >= a[1]

    def test_static_scene_has_constant_doa(self):
        spec = SceneSpec(seed=5, duration=20.0, jump_on_silence=False)
        gt = simulate(spec).ground_truth
        for speaker in gt:
            doas = [seg[2] for seg in speaker.segments]
            assert all(angular_distance(doas[0], d) == pytest.approx(0.0, abs=1e-4) for d in doas)

    def test_level_difference_drawn_from_range(self):
        spec = SceneSpec(seed=9, duration=10.0, snr=None, level_diff_range=(2.0, 4.0))
        simulated = simulate(spec)
        wet, gt = simulated.wet, simulated.ground_truth
        # compare wet powers normalized by per-speaker active time
        levels = []
        for w, g in zip(wet, gt):
            active = sum(off - on for on, off, _ in g.segments)
            levels.append(10 * np.log10(np.sum(w.channels[0] ** 2) / active))
        diff = abs(levels[0] - levels[1])
        assert 1.0 < diff < 5.0  # fades blur the exact draw slightly

    def test_energy_additivity(self):
        spec = SceneSpec(seed=2, duration=6.0, snr=10.0)
        simulated = simulate(spec)
        mix, wet = simulated.mixture, simulated.wet
        total = np.sum(mix.channels[0] ** 2)
        parts = sum(np.sum(w.channels[0] ** 2) for w in wet)
        noise = np.sum((mix.channels[0] - np.sum([w.channels[0] for w in wet], axis=0)) ** 2)
        cross_bound = 2 * np.sqrt(parts * noise) + parts * 0.5
        assert total <= parts + noise + cross_bound

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(seed=0, duration=0.0)
        with pytest.raises(ValueError):
            SceneSpec(seed=0, num_speakers=0)
        with pytest.raises(ValueError):
            SceneSpec(seed=0, level_diff_range=(4.0, 2.0))
        with pytest.raises(ValueError):
            SceneSpec(seed=0, separation_regime="medium")

    def test_positional_fields_after_the_seed_are_refused(self):
        # A stale positional sample rate must not bind to snr.
        with pytest.raises(TypeError):
            SceneSpec(0, 2, 20.0, 16000)
        with pytest.raises(TypeError):
            SceneSpec(0, 2)

    def test_too_many_speakers_for_regime(self):
        with pytest.raises(ValueError):
            SceneSpec(seed=0, num_speakers=9, separation_regime="distant")


@pytest.mark.parametrize(
    "call",
    [
        lambda: FoaSignal(np.zeros((4, 10)), 16000),
        lambda: synthesize_voice(sample_voice_params(np.random.default_rng(0)), 1.0, 16000, 5),
        lambda: generate_diffuse_noise(1.0, 16000, 5),
        lambda: scene._apply_fades(np.ones(100), 16000),
        lambda: scene._oscillator(4.7, 0.0, 100, 16000),
        lambda: scene._slow_noise_controls(np.random.default_rng(0), 100, 16000, 3.0),
        lambda: scene._speaker_channels(np.random.default_rng(0), None, 0.0, 100, 16000),
    ],
)
def test_positional_sample_rate_is_refused(call):
    # The sample rate is a constant; a call that still passes one
    # positionally must fail, not bind it to the parameter that follows.
    with pytest.raises(TypeError):
        call()
