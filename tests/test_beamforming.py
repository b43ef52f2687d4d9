import tracemalloc

import numpy as np
import pytest

from embtrack.beamforming import (
    MIN_COV_FRAMES,
    MVDR_LOADING,
    MvdrDiagnostics,
    band_covariances,
    beamform_ds,
    beamform_ideal,
    beamform_mvdr,
    foa_stft,
    gated_noise_reference,
    mvdr_weights,
    nearest_speaker_index,
    oracle_noise_reference,
    steering_vector,
)
from embtrack.dsp import istft, num_full_frames, stft
from embtrack.geometry import DoA, doa_from_unit_vector, uniform_sphere
from embtrack.scene import (
    FoaSignal,
    SceneSpec,
    SpeakerGroundTruth,
    VoiceParams,
    generate_scene,
)
from embtrack.tracking import Trajectory

from conftest import encode_foa

SR = 16000
VOICE = VoiceParams(f0=120.0, spectral_tilt=-6.0, resonances=(), modulation_rate=3.0)


def random_doas(n, seed=0):
    rng = np.random.default_rng(seed)
    return [doa_from_unit_vector(v) for v in uniform_sphere(rng, n)]


def power(x):
    return float(np.mean(np.asarray(x) ** 2))


class TestSteeringVector:
    def test_norm_squared_is_two(self):
        for doa in random_doas(1000, seed=1):
            d = steering_vector(doa)
            assert float(d @ d) == pytest.approx(2.0, abs=1e-12)

    def test_front(self):
        assert np.allclose(steering_vector(DoA(0, 0)), [1, 0, 0, 1])


class TestFoaStft:
    def test_channels_are_unpadded_stfts(self):
        rng = np.random.default_rng(16)
        signal = FoaSignal(rng.standard_normal((4, 5000)), SR)
        spec = foa_stft(signal)
        assert spec.shape == (4, 257, num_full_frames(5000, 512, 256))
        for c in range(4):
            assert np.array_equal(spec[c], stft(signal.channels[c], 512, 256, pad=False))


class TestDelayAndSum:
    def test_plane_wave_passthrough_exact(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(4000)
        for doa in random_doas(5, seed=2):
            mixture = encode_foa(s, doa, SR)
            assert np.allclose(beamform_ds(mixture, doa), s, atol=1e-12)
            out = beamform_ds(foa_stft(mixture), doa)
            assert np.allclose(out, stft(s, 512, 256, pad=False), atol=1e-9)

    def test_front_weights(self):
        d = steering_vector(DoA(0, 0))
        w = d / float(d @ d)
        assert np.allclose(w, [0.5, 0, 0, 0.5])

    def test_sir_improvement_at_90_degrees(self):
        rng = np.random.default_rng(3)
        target = rng.standard_normal(SR)
        interferer = rng.standard_normal(SR)
        doa_t, doa_i = DoA(0, 0), DoA(90, 0)
        wet_t = foa_stft(encode_foa(target, doa_t, SR))
        wet_i = foa_stft(encode_foa(interferer, doa_i, SR))
        sir_in = power(np.abs(wet_t[0])) / power(np.abs(wet_i[0]))
        out_t = beamform_ds(wet_t, doa_t)
        out_i = beamform_ds(wet_i, doa_t)
        sir_out = power(np.abs(out_t)) / power(np.abs(out_i))
        improvement_db = 10 * np.log10(sir_out / sir_in)
        assert improvement_db >= 3.0

    def test_linearity(self):
        rng = np.random.default_rng(4)
        y1 = foa_stft(FoaSignal(rng.standard_normal((4, 1000)), SR))
        y2 = foa_stft(FoaSignal(rng.standard_normal((4, 1000)), SR))
        doa = DoA(40, 10)
        lhs = beamform_ds(2.0 * y1 - 3.0 * y2, doa)
        rhs = 2.0 * beamform_ds(y1, doa) - 3.0 * beamform_ds(y2, doa)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_window_slicing(self):
        rng = np.random.default_rng(5)
        spec = foa_stft(FoaSignal(rng.standard_normal((4, SR)), SR))
        full = beamform_ds(spec, DoA(0, 0))
        windowed = beamform_ds(spec[..., 15:31], DoA(0, 0))
        assert np.array_equal(windowed, full[:, 15:31])

    @pytest.mark.parametrize("frames", [slice(0, 61), slice(7, 19), slice(40, 43)])
    def test_stft_domain_equals_stft_of_time_domain(self, frames):
        rng = np.random.default_rng(17)
        mixture = FoaSignal(rng.standard_normal((4, SR)), SR)
        for doa in random_doas(5, seed=18):
            d = steering_vector(doa)
            time_domain = (d / float(d @ d)) @ mixture.channels
            expected = stft(time_domain, 512, 256, pad=False)[:, frames]
            got = beamform_ds(foa_stft(mixture)[..., frames], doa)
            assert np.max(np.abs(got - expected)) < 1e-12


def per_bin_mvdr_weights(noise_cov, d):
    """The per-band loop mvdr_weights replaced, kept as its reference."""
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


class TestMvdr:
    def test_identity_covariance_equals_ds_weights(self):
        d = steering_vector(DoA(33, -12))
        cov = np.tile(np.eye(4, dtype=complex), (5, 1, 1))
        weights, fallbacks = mvdr_weights(cov, d)
        assert fallbacks == 0
        for w in weights:
            assert np.allclose(w, d / 2.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_batched_weights_equal_per_bin_loop(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((257, 4, 6)) + 1j * rng.standard_normal((257, 4, 6))
        covs = np.einsum("bck,bdk->bcd", raw, np.conj(raw)) / 6.0
        covs *= rng.uniform(1e-4, 1e2, size=(257, 1, 1))
        d = steering_vector(random_doas(1, seed=seed + 100)[0])
        weights, fallbacks = mvdr_weights(covs, d)
        expected, expected_fallbacks = per_bin_mvdr_weights(covs, d)
        assert np.array_equal(weights, expected)
        assert fallbacks == expected_fallbacks == 0

    def test_all_zero_band_falls_back_to_ds(self):
        rng = np.random.default_rng(19)
        raw = rng.standard_normal((8, 4, 6)) + 1j * rng.standard_normal((8, 4, 6))
        covs = np.einsum("bck,bdk->bcd", raw, np.conj(raw)) / 6.0
        covs[3] = 0.0
        d = steering_vector(DoA(-20, 15))
        weights, fallbacks = mvdr_weights(covs, d)
        assert fallbacks == 1
        assert np.array_equal(weights[3], d / float(d @ d))
        expected, _ = per_bin_mvdr_weights(covs, d)
        assert np.array_equal(weights, expected)

    def test_identity_covariance_matches_ds_output(self):
        rng = np.random.default_rng(6)
        spec = foa_stft(FoaSignal(rng.standard_normal((4, SR)), SR))
        doa = DoA(-70, 25)
        noise = rng.standard_normal((4, 20 * SR))
        # white uncorrelated noise reference -> covariance ~ scaled identity
        out_mvdr = beamform_mvdr(spec, doa, band_covariances(stft(noise, 512, 256)))
        out_ds = beamform_ds(spec, doa)
        rel = np.sqrt(np.mean(np.abs(out_mvdr - out_ds) ** 2) / np.mean(np.abs(out_ds) ** 2))
        assert rel < 0.1  # sample covariance is only approximately identity

    def test_exact_identity_matches_ds_to_1e9(self):
        # bypass estimation: weights from an exact identity covariance per band
        rng = np.random.default_rng(7)
        mixture = FoaSignal(rng.standard_normal((4, 4096)), SR)
        doa = DoA(10, 5)
        d = steering_vector(doa)
        cov = np.tile(np.eye(4, dtype=complex), (257, 1, 1))
        weights, _ = mvdr_weights(cov, d)
        spec = stft(mixture.channels, 512, 256)
        out_spec = np.einsum("fc,cft->ft", np.conj(weights), spec)
        out = istft(out_spec, 512, 256, 4096)
        ds = beamform_ds(mixture, doa)
        assert np.max(np.abs(out - ds)) < 1e-9 * np.max(np.abs(ds))
        stft_domain = beamform_mvdr(foa_stft(mixture), doa, cov)
        ds_stft = beamform_ds(foa_stft(mixture), doa)
        assert np.max(np.abs(stft_domain - ds_stft)) < 1e-9 * np.max(np.abs(ds_stft))

    def test_distortionless_for_random_covariances(self):
        rng = np.random.default_rng(8)
        doas = random_doas(1000, seed=9)
        raw = rng.standard_normal((1000, 4, 6)) + 1j * rng.standard_normal((1000, 4, 6))
        covs = np.einsum("bck,bdk->bcd", raw, np.conj(raw)) / 6.0
        for i, doa in enumerate(doas):
            d = steering_vector(doa)
            weights, _ = mvdr_weights(covs[i : i + 1], d)
            assert abs(np.conj(weights[0]) @ d - 1.0) < 1e-10

    def test_interferer_suppression_beats_ds(self):
        spec = SceneSpec(seed=21, num_speakers=2, duration=8.0, snr=20.0)
        mixture, wet, gt = generate_scene(spec)
        # steer at speaker 0's first segment, on the frames centred in it
        onset, offset, doa = gt[0].segments[0]
        window = (onset, offset)
        frames = slice(int(onset * SR) // 256, int(offset * SR) // 256 - 1)
        noise_cov = band_covariances(stft(oracle_noise_reference(mixture, wet, 0, window), 512, 256))
        target_only = foa_stft(FoaSignal(wet[0].channels, SR))[..., frames]
        others = foa_stft(FoaSignal(mixture.channels - wet[0].channels, SR))[..., frames]
        ds_sir = power(np.abs(beamform_ds(target_only, doa))) / power(
            np.abs(beamform_ds(others, doa))
        )
        mvdr_t = beamform_mvdr(target_only, doa, noise_cov)
        mvdr_o = beamform_mvdr(others, doa, noise_cov)
        mvdr_sir = power(np.abs(mvdr_t)) / power(np.abs(mvdr_o))
        assert mvdr_sir >= ds_sir

    def test_linearity_with_frozen_covariance(self):
        rng = np.random.default_rng(10)
        noise_ref = rng.standard_normal((4, SR))
        y1 = foa_stft(FoaSignal(rng.standard_normal((4, 2048)), SR))
        y2 = foa_stft(FoaSignal(rng.standard_normal((4, 2048)), SR))
        doa = DoA(120, -30)
        noise_cov = band_covariances(stft(noise_ref, 512, 256))
        lhs = beamform_mvdr(1.5 * y1 + 0.5 * y2, doa, noise_cov)
        rhs = 1.5 * beamform_mvdr(y1, doa, noise_cov) + 0.5 * beamform_mvdr(y2, doa, noise_cov)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_short_noise_reference_rejected(self):
        with pytest.raises(ValueError):
            band_covariances(stft(np.zeros((4, 100)), 512, 256))

    def test_diagnostics_counts_bands(self):
        rng = np.random.default_rng(11)
        spec = foa_stft(FoaSignal(rng.standard_normal((4, 4096)), SR))
        diag = MvdrDiagnostics()
        noise_cov = band_covariances(stft(rng.standard_normal((4, SR)), 512, 256))
        beamform_mvdr(spec, DoA(0, 0), noise_cov, diagnostics=diag)
        assert diag.total_bands == 257
        assert diag.fallback_bands == 0

    def test_band_covariances_hermitian(self):
        rng = np.random.default_rng(12)
        cov = band_covariances(stft(rng.standard_normal((4, 8000)), 512, 256))
        assert np.allclose(cov, np.conj(np.transpose(cov, (0, 2, 1))))


class TestIdealBeamformer:
    # 2 s at 16 kHz: 124 frames on the 32 ms / 16 ms grid
    ALL = slice(0, 124)

    def make_scene(self):
        rng = np.random.default_rng(13)
        s0 = rng.standard_normal(2 * SR)
        s1 = rng.standard_normal(2 * SR)
        wet = [encode_foa(s0, DoA(0, 0), SR), encode_foa(s1, DoA(90, 0), SR)]
        gt = []
        for j, doa in enumerate([DoA(0, 0), DoA(90, 0)]):
            g = SpeakerGroundTruth(speaker_id=j, voice=VOICE)
            g.segments = [(0.0, 2.0, doa)]
            gt.append(g)
        return wet, gt, s0, s1

    def test_exact_steering_returns_target_wet(self):
        wet, gt, s0, s1 = self.make_scene()
        out = beamform_ideal(wet, gt, DoA(0, 0), (0.0, 2.0), self.ALL)
        assert np.array_equal(out, stft(s0, 512, 256, pad=False))

    def test_slightly_off_steering_still_selects_target(self):
        wet, gt, s0, s1 = self.make_scene()
        out = beamform_ideal(wet, gt, DoA(5, 0), (0.0, 2.0), self.ALL)
        assert np.array_equal(out, stft(s0, 512, 256, pad=False))

    def test_equidistant_tie_goes_to_lower_id(self):
        wet, gt, s0, s1 = self.make_scene()
        out = beamform_ideal(wet, gt, DoA(45, 0), (0.0, 2.0), self.ALL)
        assert np.array_equal(out, stft(s0, 512, 256, pad=False))

    def test_inactive_midpoint_uses_nearest_segment(self):
        wet, gt, s0, s1 = self.make_scene()
        gt[0].segments = [(0.0, 0.5, DoA(0, 0))]
        gt[1].segments = [(0.0, 0.5, DoA(90, 0))]
        # window midpoint 1.0 s: nobody active; nearest segment DoAs apply
        out = beamform_ideal(wet, gt, DoA(80, 0), (0.5, 1.5), slice(31, 93))
        assert np.allclose(out, foa_stft(wet[1])[0][:, 31:93], rtol=0, atol=1e-12)

    def test_frames_are_the_wet_stft_on_the_scene_grid(self):
        wet, gt, s0, s1 = self.make_scene()
        for frames in (slice(0, 3), slice(10, 11), slice(50, 124)):
            out = beamform_ideal(wet, gt, DoA(90, 0), (0.0, 2.0), frames)
            assert np.allclose(out, foa_stft(wet[1])[0][:, frames], rtol=0, atol=1e-12)

    def test_nearest_speaker_index(self):
        _, gt, _, _ = self.make_scene()
        assert nearest_speaker_index(gt, DoA(10, 0), 1.0) == 0
        assert nearest_speaker_index(gt, DoA(80, 0), 1.0) == 1


class TestNoiseReferences:
    def test_oracle_is_mixture_minus_target(self):
        spec = SceneSpec(seed=2, num_speakers=2, duration=4.0, snr=15.0)
        mixture, wet, _ = generate_scene(spec)
        ref = oracle_noise_reference(mixture, wet, 0)
        assert np.allclose(ref, mixture.channels - wet[0].channels)

    def test_oracle_window_widened_to_minimum(self):
        spec = SceneSpec(seed=2, num_speakers=2, duration=4.0, snr=15.0)
        mixture, wet, _ = generate_scene(spec)
        ref = oracle_noise_reference(mixture, wet, 0, window=(1.0, 1.1), min_duration=0.5)
        assert ref.shape[1] == int(0.5 * SR)

    @pytest.mark.parametrize("window", [(1.0, 2.5), (1.0, 1.1), (3.9, 3.95), None])
    def test_oracle_slices_before_subtracting(self, window):
        spec = SceneSpec(seed=2, num_speakers=2, duration=4.0, snr=15.0)
        mixture, wet, _ = generate_scene(spec)
        # the formula that subtracts over the whole scene, then slices
        residual = mixture.channels - wet[1].channels
        expected = residual
        if window is not None:
            start, end = window
            if end - start < 0.5:
                pad = 0.5 * (0.5 - (end - start))
                start, end = start - pad, end + pad
            a = max(0, int(round(start * SR)))
            b = min(mixture.num_samples, int(round(end * SR)))
            expected = residual[:, a:b]
        assert np.array_equal(oracle_noise_reference(mixture, wet, 1, window), expected)

    # A hand-built track on a 2 s mixture at a 0.1 s tracker hop: active in
    # tracker frames 2-4 and 12. Analysis frame k (centre 256 k + 256 samples)
    # lies in tracker frame floor(centre / 1600), so frames 2-4 hold the
    # analysis frames 12-30 and frame 12 holds 74-80.
    def gated_mask(self, active, min_duration=0.5):
        rng = np.random.default_rng(14)
        mixture = FoaSignal(rng.standard_normal((4, 2 * SR)), SR)
        track = Trajectory(0, [(t, DoA(30, 0), t in active) for t in range(20)])
        inactive = [t for t, _, a in track.frames if not a]
        return gated_noise_reference(mixture, inactive, min_duration=min_duration)

    def test_gated_uses_inactive_frames(self):
        mask = self.gated_mask({2, 3, 4, 12})
        assert mask.shape == (num_full_frames(2 * SR, 512, 256),) == (124,)
        expected = np.ones(124, dtype=bool)
        expected[12:31] = False
        expected[74:81] = False
        assert np.array_equal(mask, expected)

    def test_gated_falls_back_to_full_mixture(self):
        # inactive only in tracker frame 0: analysis frames 0-5, 6 x 16 ms < 0.5 s
        mask = self.gated_mask(set(range(1, 20)))
        assert mask.shape == (124,) and mask.all()
        # the same track with a shorter minimum keeps its 6 gated frames
        assert np.flatnonzero(self.gated_mask(set(range(1, 20)), min_duration=0.09)).tolist() == [
            0, 1, 2, 3, 4, 5,
        ]


def reference_band_covariances(spec):
    """The covariance formula over a whole 4-channel STFT, in one einsum."""
    cov = np.einsum("cft,dft->fcd", spec, np.conj(spec)) / spec.shape[2]
    return 0.5 * (cov + np.conj(np.transpose(cov, (0, 2, 1))))


class TestBandCovariances:
    @pytest.mark.parametrize("samples", [1792, 5000, 3 * SR])
    def test_time_domain_reference_bits_unchanged(self, samples):
        # the oracle path: the padded STFT of a time-domain reference
        spec = stft(np.random.default_rng(samples).standard_normal((4, samples)), 512, 256)
        assert np.array_equal(band_covariances(spec), reference_band_covariances(spec))

    @pytest.mark.parametrize("fraction", [0.05, 0.6, 1.0])
    def test_gated_equals_gathered_frames(self, fraction):
        rng = np.random.default_rng(16)
        spec = foa_stft(FoaSignal(rng.standard_normal((4, 5 * SR)), SR))
        mask = rng.random(spec.shape[2]) < fraction
        got = band_covariances(spec, mask)
        expected = reference_band_covariances(spec[..., mask])
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "n_fft, selected",
        [
            (512, slice(None)),  # every frame: the full-mixture fallback
            (512, slice(5, 5 + 3 * MIN_COV_FRAMES, 3)),  # exactly MIN_COV_FRAMES frames
            (512, slice(60, 131)),  # one contiguous run
            (301, slice(0, None, 3)),  # 151 bins: the last block is a partial one
        ],
    )
    def test_gated_blocks_equal_the_reference(self, n_fft, selected):
        x = np.random.default_rng(n_fft).standard_normal((4, 3 * SR))
        spec = stft(x, n_fft, n_fft // 2, pad=False)
        mask = np.zeros(spec.shape[2], dtype=bool)
        mask[selected] = True
        got = band_covariances(spec, mask)
        expected = reference_band_covariances(spec[..., mask])
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(got, np.conj(np.transpose(got, (0, 2, 1))))

    def test_too_few_gated_frames_rejected(self):
        spec = foa_stft(FoaSignal(np.random.default_rng(17).standard_normal((4, SR)), SR))
        mask = np.zeros(spec.shape[2], dtype=bool)
        mask[:9] = True
        with pytest.raises(ValueError):
            band_covariances(spec, mask)

    def test_gated_covariance_allocates_a_fraction_of_the_scene_stft(self):
        # A 30 s scene and a track active for its middle 10 s: the old splice
        # and padded STFT of the gated samples allocated more than the scene
        # STFT itself.
        rng = np.random.default_rng(18)
        mixture = FoaSignal(rng.standard_normal((4, 30 * SR)), SR)
        spec = foa_stft(mixture)
        inactive = [t for t in range(300) if not 100 <= t < 200]
        tracemalloc.start()
        try:
            cov = band_covariances(spec, gated_noise_reference(mixture, inactive))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - cov.nbytes < spec.nbytes / 4
