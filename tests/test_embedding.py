import numpy as np
import pytest

from embtrack.embedding import (
    MEL_FILTERBANK,
    MIN_EMBED_FRAMES,
    Embedding,
    EnrollmentPool,
    ShortInputError,
    analysis_frame_centers,
    analysis_frame_tracker_frames,
    build_distractors,
    build_enrollment,
    embed,
    embed_power,
    enrollment_pool,
)
from embtrack.dsp import stft
from embtrack.scene import sample_voice_params, synthesize_voice

from conftest import cosine

SR = 16000


def unit(v):
    v = np.asarray(v, dtype=float)
    return Embedding(v / np.linalg.norm(v))


class TestEmbed:
    def test_deterministic(self):
        voice = sample_voice_params(np.random.default_rng(1))
        s = synthesize_voice(voice, 1.0, seed=4)
        assert cosine(embed(s), embed(s)) == pytest.approx(1.0)

    def test_dimension_and_norm(self):
        voice = sample_voice_params(np.random.default_rng(1))
        e = embed(synthesize_voice(voice, 1.0, seed=4))
        assert e.vector.shape == (48,)
        assert np.linalg.norm(e.vector) == pytest.approx(1.0, abs=1e-9)

    def test_gain_invariance(self):
        voice = sample_voice_params(np.random.default_rng(2))
        s = synthesize_voice(voice, 2.0, seed=5)
        for alpha in (0.05, 0.5, 3.7, 40.0):
            diff = np.max(np.abs(embed(alpha * s).vector - embed(s).vector))
            assert diff < 1e-6

    def test_short_input_raises(self):
        with pytest.raises(ShortInputError):
            embed(np.zeros(900))  # < 3 frames of 32 ms / 16 ms

    def test_minimum_length_accepted(self):
        rng = np.random.default_rng(0)
        embed(rng.standard_normal(512 + 2 * 256))

    def test_same_speaker_beats_cross_speaker(self, panel_similarities):
        same, cross = panel_similarities
        assert same.min() > cross.max()

    def test_panel_separation_margin(self, panel_similarities):
        same, cross = panel_similarities
        assert same.mean() - cross.mean() >= 0.2

    def test_white_noise_scores_below_same_speaker_mean(self, voice_panel, panel_similarities):
        voices, embeddings = voice_panel
        same, _ = panel_similarities
        noise_emb = embed(np.random.default_rng(7).standard_normal(SR))
        scores = [cosine(noise_emb, row[0]) for row in embeddings]
        assert max(scores) < same.mean()

    def test_longer_excerpts_are_more_stable(self):
        # Statistical property: averaged over voices, 2 s excerpts scatter less
        # than 250 ms excerpts of the same utterance.
        def excerpt_variance(utterance, starts, length_s):
            n = int(length_s * SR)
            vecs = [embed(utterance[s : s + n]).vector for s in starts]
            return float(np.trace(np.cov(np.stack(vecs).T)))

        long_var, short_var = [], []
        for vseed in range(6):
            voice = sample_voice_params(np.random.default_rng(vseed))
            utterance = synthesize_voice(voice, 24.0, seed=8)
            starts = np.linspace(0, len(utterance) - 2 * SR, 10).astype(int)
            long_var.append(excerpt_variance(utterance, starts, 2.0))
            short_var.append(excerpt_variance(utterance, starts, 0.25))
        assert np.mean(long_var) < np.mean(short_var)


class TestFrameMask:
    @staticmethod
    def utterance(seed=3, duration=2.0):
        voice = sample_voice_params(np.random.default_rng(seed))
        return synthesize_voice(voice, duration, seed=seed)

    def test_all_true_mask_is_bit_identical(self):
        s = self.utterance()
        n = len(analysis_frame_centers(len(s)))
        masked = embed(s, frame_mask=np.ones(n, dtype=bool))
        plain = embed(s)
        assert np.array_equal(masked.vector, plain.vector)
        assert masked.pooled_frames == plain.pooled_frames == n
        assert not masked.pooling_fallback

    def test_too_few_free_frames_pools_all(self):
        s = self.utterance()
        n = len(analysis_frame_centers(len(s)))
        mask = np.zeros(n, dtype=bool)
        mask[: MIN_EMBED_FRAMES - 1] = True
        masked = embed(s, frame_mask=mask)
        assert np.array_equal(masked.vector, embed(s).vector)
        assert masked.pooled_frames == n
        assert masked.pooling_fallback

    def test_masked_embedding_is_gain_invariant(self):
        s = self.utterance()
        n = len(analysis_frame_centers(len(s)))
        mask = np.arange(n) % 3 != 0
        reference = embed(s, frame_mask=mask)
        assert reference.pooled_frames == int(mask.sum())
        assert np.max(np.abs(reference.vector - embed(s).vector)) > 1e-3
        for alpha in (0.05, 0.5, 3.7, 40.0):
            diff = np.max(np.abs(embed(alpha * s, frame_mask=mask).vector - reference.vector))
            assert diff < 1e-6

    def test_mask_excludes_interfering_speaker(self):
        # target for 1 s, then a louder other voice for 1 s
        target = self.utterance(seed=3, duration=2.0)
        other = 3.0 * self.utterance(seed=4, duration=1.0)
        mixed = np.concatenate([target[:SR], other])
        centers = analysis_frame_centers(len(mixed))
        mask = centers + 256 <= SR  # frames lying wholly in the target's second
        clean = embed(target)
        assert cosine(embed(mixed, frame_mask=mask), clean) > cosine(embed(mixed), clean)

    def test_mask_length_must_match_frames(self):
        s = self.utterance()
        n = len(analysis_frame_centers(len(s)))
        with pytest.raises(ValueError):
            embed(s, frame_mask=np.ones(n + 1, dtype=bool))


class TestEmbedPower:
    @pytest.mark.parametrize("seed, duration", [(3, 2.0), (5, 0.3), (7, 20.0)])
    def test_embed_is_embed_power_of_the_stft(self, seed, duration):
        s = TestFrameMask.utterance(seed, duration)
        power = np.abs(stft(s, pad=False)) ** 2
        n = power.shape[1]
        assert np.array_equal(embed(s).vector, embed_power(power).vector)
        mask = np.arange(n) % 4 != 1
        masked, from_power = embed(s, frame_mask=mask), embed_power(power, frame_mask=mask)
        assert np.array_equal(masked.vector, from_power.vector)
        assert masked.pooled_frames == from_power.pooled_frames == int(mask.sum())

    def test_too_few_frames_raises(self):
        with pytest.raises(ShortInputError):
            embed_power(np.ones((257, MIN_EMBED_FRAMES - 1)))

    def test_bin_count_must_match_window(self):
        with pytest.raises(ValueError):
            embed_power(np.ones((256, 10)))


def test_analysis_frame_centers_match_embed_frames():
    centers = analysis_frame_centers(512 + 4 * 256)
    assert centers.tolist() == [256.0, 512.0, 768.0, 1024.0, 1280.0]
    assert analysis_frame_centers(500).size == 0


def test_analysis_frames_map_to_the_tracker_frame_of_their_centre():
    # 2 s at 16 kHz: frame k is centred at 256 k + 256 samples, and a 0.1 s
    # tracker frame is 1600 samples, so frames 12-30 lie in tracker frames 2-4
    k = np.arange(124)
    tracker_frames = analysis_frame_tracker_frames(2 * SR)
    assert tracker_frames.tolist() == ((256 * k + 256) // 1600).tolist()
    assert np.flatnonzero(np.isin(tracker_frames, [2, 3, 4])).tolist() == list(range(12, 31))


class TestCosine:
    def test_identical(self):
        e = unit([1, 2, 3])
        assert cosine(e, e) == 1.0

    def test_orthogonal(self):
        assert cosine(unit([1, 0]), unit([0, 1])) == pytest.approx(0.0)

    def test_opposite(self):
        assert cosine(unit([1, 0]), unit([-1, 0])) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(unit([1, 0]), unit([1, 0, 0]))


class TestEmbeddingType:
    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError):
            Embedding(np.array([1.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Embedding(np.array([np.nan, 0.0]))


class TestEnrollment:
    def test_pool_of_scene_speakers_only(self):
        rng = np.random.default_rng(4)
        voices = [sample_voice_params(rng) for _ in range(2)]
        pool = enrollment_pool(build_enrollment(voices, seed=11), 2, [])
        assert pool.identities == ["speaker00", "speaker01"]

    def test_distractors_fill_pool(self):
        rng = np.random.default_rng(4)
        voices = [sample_voice_params(rng) for _ in range(2)]
        distractors = build_distractors(4, seed=21)
        pool = enrollment_pool(build_enrollment(voices, seed=11), 6, distractors)
        assert pool.size == 6
        assert pool.identities[:2] == ["speaker00", "speaker01"]
        assert all(i.startswith("distractor") for i in pool.identities[2:])
        # the caller's entries, in order
        assert all(got is drawn for got, drawn in zip(pool.entries[2:], distractors, strict=True))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        voices = [sample_voice_params(rng) for _ in range(2)]
        a = enrollment_pool(build_enrollment(voices, seed=11), 4, build_distractors(2, seed=21))
        b = enrollment_pool(build_enrollment(voices, seed=11), 4, build_distractors(2, seed=21))
        for (ia, ea), (ib, eb) in zip(a.entries, b.entries):
            assert ia == ib
            assert np.array_equal(ea.vector, eb.vector)

    def test_pool_smaller_than_speakers_rejected(self):
        rng = np.random.default_rng(4)
        voices = [sample_voice_params(rng) for _ in range(3)]
        with pytest.raises(ValueError):
            enrollment_pool(build_enrollment(voices, seed=0), 2, [])

    def test_too_few_distractors_rejected(self):
        rng = np.random.default_rng(4)
        voices = [sample_voice_params(rng) for _ in range(2)]
        with pytest.raises(ValueError, match="need 2 distractors, got 1"):
            enrollment_pool(build_enrollment(voices, seed=0), 4, [("distractor00", unit([1, 0]))])

    def test_enrollment_matches_own_speaker(self):
        rng = np.random.default_rng(5)
        voices = [sample_voice_params(rng) for _ in range(2)]
        pool = enrollment_pool(build_enrollment(voices, seed=3), 2, [])
        probe = embed(synthesize_voice(voices[0], 5.0, seed=99))
        scores = [cosine(probe, emb) for _, emb in pool.entries]
        assert scores[0] > scores[1]

    def test_precomputed_distractors_prefix(self):
        rng = np.random.default_rng(4)
        voices = [sample_voice_params(rng) for _ in range(2)]
        distractors = build_distractors(4, seed=21)
        speakers = build_enrollment(voices, seed=11)
        small = enrollment_pool(speakers, 4, distractors)
        large = enrollment_pool(speakers, 6, distractors)
        assert [i for i, _ in large.entries[:4]] == [i for i, _ in small.entries]

    def test_duplicate_identities_rejected(self):
        e = unit([1, 0])
        with pytest.raises(ValueError):
            EnrollmentPool([("a", e), ("a", e)])


def test_mel_filterbank_covers_band():
    fb = MEL_FILTERBANK
    assert fb.shape == (24, 257)
    freqs = np.fft.rfftfreq(512, d=1.0 / SR)
    inside = (freqs > 150) & (freqs < 7500)
    assert np.all(fb[:, inside].sum(axis=0) > 0)


def test_mel_filterbank_is_read_only():
    assert not MEL_FILTERBANK.flags.writeable
    with pytest.raises(ValueError):
        MEL_FILTERBANK[0, 0] = 1.0


def test_stale_sample_rate_arguments_raise():
    # Calls of the old signatures, which took a sample rate, must not bind it
    # to the parameter that follows.
    s = np.ones(4096)
    voices = [sample_voice_params(np.random.default_rng(0))]
    calls = [
        lambda: embed(s, SR),
        lambda: embed(s, SR, None),
        lambda: embed_power(np.ones((257, 10)), SR),
        lambda: analysis_frame_centers(len(s), SR),
        lambda: analysis_frame_tracker_frames(len(s), SR, slice(None)),
        lambda: build_distractors(1, 0, SR),
        lambda: build_enrollment(voices, 0, SR),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
