import numpy as np
import pytest

from embtrack.beamforming import (
    MvdrDiagnostics,
    band_covariances,
    beamform_ds,
    beamform_ideal,
    beamform_mvdr,
    gated_noise_reference,
    mvdr_weights,
    nearest_speaker_index,
    oracle_noise_reference,
    steering_vector,
)
from embtrack.geometry import DoA, doa_from_unit_vector, uniform_sphere
from embtrack.scene import (
    FoaSignal,
    SceneSpec,
    SpeakerGroundTruth,
    VoiceParams,
    encode_foa,
    generate_scene,
)

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


class TestDelayAndSum:
    def test_plane_wave_passthrough_exact(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(4000)
        for doa in random_doas(5, seed=2):
            mixture = encode_foa(s, doa, SR)
            out = beamform_ds(mixture, doa)
            assert np.allclose(out, s, atol=1e-12)

    def test_front_weights(self):
        d = steering_vector(DoA(0, 0))
        w = d / float(d @ d)
        assert np.allclose(w, [0.5, 0, 0, 0.5])

    def test_sir_improvement_at_90_degrees(self):
        rng = np.random.default_rng(3)
        target = rng.standard_normal(SR)
        interferer = rng.standard_normal(SR)
        doa_t, doa_i = DoA(0, 0), DoA(90, 0)
        wet_t = encode_foa(target, doa_t, SR)
        wet_i = encode_foa(interferer, doa_i, SR)
        sir_in = power(wet_t.channels[0]) / power(wet_i.channels[0])
        out_t = beamform_ds(wet_t, doa_t)
        out_i = beamform_ds(wet_i, doa_t)
        sir_out = power(out_t) / power(out_i)
        improvement_db = 10 * np.log10(sir_out / sir_in)
        assert improvement_db >= 3.0

    def test_linearity(self):
        rng = np.random.default_rng(4)
        y1 = FoaSignal(rng.standard_normal((4, 1000)), SR)
        y2 = FoaSignal(rng.standard_normal((4, 1000)), SR)
        combo = FoaSignal(2.0 * y1.channels - 3.0 * y2.channels, SR)
        doa = DoA(40, 10)
        lhs = beamform_ds(combo, doa)
        rhs = 2.0 * beamform_ds(y1, doa) - 3.0 * beamform_ds(y2, doa)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_window_slicing(self):
        rng = np.random.default_rng(5)
        mixture = FoaSignal(rng.standard_normal((4, SR)), SR)
        full = beamform_ds(mixture, DoA(0, 0))
        windowed = beamform_ds(mixture, DoA(0, 0), window=(0.25, 0.5))
        assert np.array_equal(windowed, full[SR // 4 : SR // 2])


class TestMvdr:
    def test_identity_covariance_equals_ds_weights(self):
        d = steering_vector(DoA(33, -12))
        cov = np.tile(np.eye(4, dtype=complex), (5, 1, 1))
        weights, fallbacks = mvdr_weights(cov, d)
        assert fallbacks == 0
        for w in weights:
            assert np.allclose(w, d / 2.0, atol=1e-12)

    def test_identity_covariance_matches_ds_output(self):
        rng = np.random.default_rng(6)
        mixture = FoaSignal(rng.standard_normal((4, SR)), SR)
        doa = DoA(-70, 25)
        noise = rng.standard_normal((4, 20 * SR))
        # white uncorrelated noise reference -> covariance ~ scaled identity
        out_mvdr = beamform_mvdr(mixture, doa, band_covariances(noise, SR))
        out_ds = beamform_ds(mixture, doa)
        rel = np.sqrt(np.mean((out_mvdr - out_ds) ** 2) / np.mean(out_ds**2))
        assert rel < 0.1  # sample covariance is only approximately identity

    def test_exact_identity_matches_ds_to_1e9(self):
        # bypass estimation: weights from an exact identity covariance per band
        rng = np.random.default_rng(7)
        mixture = FoaSignal(rng.standard_normal((4, 4096)), SR)
        doa = DoA(10, 5)
        from embtrack.dsp import istft, stft

        d = steering_vector(doa)
        cov = np.tile(np.eye(4, dtype=complex), (257, 1, 1))
        weights, _ = mvdr_weights(cov, d)
        spec = stft(mixture.channels, 512, 256)
        out_spec = np.einsum("fc,cft->ft", np.conj(weights), spec)
        out = istft(out_spec, 512, 256, 4096)
        ds = beamform_ds(mixture, doa)
        assert np.max(np.abs(out - ds)) < 1e-9 * np.max(np.abs(ds))

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
        # steer at speaker 0's first segment
        onset, offset, doa = gt[0].segments[0]
        window = (onset, offset)
        noise_ref = oracle_noise_reference(mixture, wet, 0, window)
        target_only = FoaSignal(wet[0].channels, SR)
        others = FoaSignal(mixture.channels - wet[0].channels, SR)
        ds_sir = power(beamform_ds(target_only, doa, window)) / power(
            beamform_ds(others, doa, window)
        )
        mvdr_t = beamform_mvdr(target_only, doa, band_covariances(noise_ref, SR), window)
        mvdr_o = beamform_mvdr(others, doa, band_covariances(noise_ref, SR), window)
        mvdr_sir = power(mvdr_t) / power(mvdr_o)
        assert mvdr_sir >= ds_sir

    def test_linearity_with_frozen_covariance(self):
        rng = np.random.default_rng(10)
        noise_ref = rng.standard_normal((4, SR))
        y1 = FoaSignal(rng.standard_normal((4, 2048)), SR)
        y2 = FoaSignal(rng.standard_normal((4, 2048)), SR)
        combo = FoaSignal(1.5 * y1.channels + 0.5 * y2.channels, SR)
        doa = DoA(120, -30)
        noise_cov = band_covariances(noise_ref, SR)
        lhs = beamform_mvdr(combo, doa, noise_cov)
        rhs = 1.5 * beamform_mvdr(y1, doa, noise_cov) + 0.5 * beamform_mvdr(y2, doa, noise_cov)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_short_noise_reference_rejected(self):
        mixture = FoaSignal(np.zeros((4, SR)), SR)
        with pytest.raises(ValueError):
            beamform_mvdr(mixture, DoA(0, 0), band_covariances(np.zeros((4, 100)), SR))

    def test_diagnostics_counts_bands(self):
        rng = np.random.default_rng(11)
        mixture = FoaSignal(rng.standard_normal((4, 4096)), SR)
        diag = MvdrDiagnostics()
        noise_cov = band_covariances(rng.standard_normal((4, SR)), SR)
        beamform_mvdr(mixture, DoA(0, 0), noise_cov, diagnostics=diag)
        assert diag.total_bands == 257
        assert diag.fallback_bands == 0

    def test_band_covariances_hermitian(self):
        rng = np.random.default_rng(12)
        cov = band_covariances(rng.standard_normal((4, 8000)), SR)
        assert np.allclose(cov, np.conj(np.transpose(cov, (0, 2, 1))))


class TestIdealBeamformer:
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
        out = beamform_ideal(wet, gt, DoA(0, 0), window=(0.0, 2.0))
        assert np.array_equal(out, s0)

    def test_slightly_off_steering_still_selects_target(self):
        wet, gt, s0, s1 = self.make_scene()
        out = beamform_ideal(wet, gt, DoA(5, 0), window=(0.0, 2.0))
        assert np.array_equal(out, s0)

    def test_equidistant_tie_goes_to_lower_id(self):
        wet, gt, s0, s1 = self.make_scene()
        out = beamform_ideal(wet, gt, DoA(45, 0), window=(0.0, 2.0))
        assert np.array_equal(out, s0)

    def test_inactive_midpoint_uses_nearest_segment(self):
        wet, gt, s0, s1 = self.make_scene()
        gt[0].segments = [(0.0, 0.5, DoA(0, 0))]
        gt[1].segments = [(0.0, 0.5, DoA(90, 0))]
        # window midpoint 1.0 s: nobody active; nearest segment DoAs apply
        out = beamform_ideal(wet, gt, DoA(80, 0), window=(0.5, 1.5))
        assert np.array_equal(out, wet[1].channels[0, SR // 2 : 3 * SR // 2])

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

    def test_gated_uses_inactive_frames(self):
        rng = np.random.default_rng(14)
        mixture = FoaSignal(rng.standard_normal((4, SR)), SR)
        ref = gated_noise_reference(mixture, list(range(5)), hop=0.1)
        assert ref.shape[1] == int(0.5 * SR)

    def test_gated_falls_back_to_full_mixture(self):
        rng = np.random.default_rng(15)
        mixture = FoaSignal(rng.standard_normal((4, SR)), SR)
        ref = gated_noise_reference(mixture, [0], hop=0.1)
        assert ref.shape[1] == SR
