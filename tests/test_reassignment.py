import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrack import beamforming, dsp, embedding, fileio, reassignment, tracking
from embtrack.beamforming import (
    MvdrDiagnostics,
    band_covariances,
    beamform_ds,
    beamform_ideal,
    foa_stft,
    gated_noise_reference,
    nearest_speaker_index,
    oracle_noise_reference,
    reference_covariances,
)
from embtrack.embedding import (
    MIN_EMBED_FRAMES,
    Embedding,
    EnrollmentPool,
    analysis_frame_centers,
    embed,
    embed_power,
)
from embtrack.fileio import assignment_to_dict
from embtrack.fragments import DurationPolicy, Fragment, segment
from embtrack.geometry import DoA
from embtrack.metrics import evaluate_scene
from embtrack.reassignment import (
    BEAMFORMERS,
    enroll_speakers,
    extract_fragment_embedding,
    reassign,
    reassign_scene,
    run_pipeline,
    shared_distractors,
    track_and_enroll,
)
from embtrack.scene import FoaSignal, Scene, SceneSpec, simulate
from embtrack.tracking import Trajectory


def unit(v):
    v = np.asarray(v, dtype=float)
    return Embedding(v / np.linalg.norm(v))


@pytest.mark.parametrize(
    "call",
    [
        lambda: evaluate_scene([], [], 1.0, 0.1),
        lambda: gated_noise_reference(None, [], 0.1),
        lambda: extract_fragment_embedding(None, None, None, DurationPolicy(), "ds", 0.1),
        lambda: run_pipeline(None, "gt", "ds", DurationPolicy(), 2, 0, 0.1),
    ],
)
def test_positional_tracker_period_is_refused(call):
    # The tracker frame period is a constant; a call that still passes one
    # positionally must fail, not bind it to the parameter that follows.
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: enroll_speakers([], (0,), 16000),
        lambda: reassignment._window_frames(frag(0, 0, 0, 5), (0.0, 0.5), 16000, 16000),
        lambda: beamforming.oracle_noise_reference(16000, (0.0, 0.5), 16000),
    ],
)
def test_positional_sample_rate_is_refused(call):
    # The sample rate is a constant; a call that still passes one
    # positionally must fail, not bind it to the parameter that follows.
    with pytest.raises(TypeError):
        call()


def frag(fid, track, onset, offset, doa=DoA(0, 0), overlapped=()):
    return Fragment(
        fragment_id=fid,
        source_track_id=track,
        onset_frame=onset,
        offset_frame=offset,
        doas=[doa] * (offset - onset + 1),
        representative_doa=doa,
        overlapped_frames=tuple(overlapped),
    )


POOL = EnrollmentPool([("alice", unit([1, 0, 0])), ("bob", unit([0, 1, 0]))])


class TestReassign:
    def test_split_speaker_reunited(self):
        # tracker split speaker A across tracks 0 and 2 after a jump; B is track 1
        fragments = [
            frag(0, 0, 0, 49, DoA(10, 0)),
            frag(1, 1, 20, 79, DoA(120, 0)),
            frag(2, 2, 60, 99, DoA(-80, 0)),
        ]
        embeddings = {
            0: unit([1, 0.1, 0]),
            1: unit([0.1, 1, 0]),
            2: unit([1, 0.2, 0]),  # same voice as fragment 0
        }
        result = reassign(fragments, embeddings, POOL)
        assert result.assignments[0] == "alice"
        assert result.assignments[1] == "bob"
        assert result.assignments[2] == "alice"
        assert len(result.new_trajectories) == 2  # 3 tracks -> 2 identities

    def test_overlap_exclusion_forces_distinct_identities(self):
        fragments = [frag(0, 0, 0, 50), frag(1, 1, 0, 50)]
        # both fragments prefer alice; the second must take bob
        embeddings = {0: unit([1, 0.2, 0]), 1: unit([1, 0.1, 0])}
        result = reassign(fragments, embeddings, POOL)
        assert result.assignments[0] == "alice"
        assert result.assignments[1] == "bob"

    def test_single_fragment_single_identity(self):
        pool = EnrollmentPool([("only", unit([1, 0]))])
        result = reassign([frag(0, 0, 0, 10)], {0: unit([0, 1])}, pool)
        assert result.assignments[0] == "only"

    def test_overlap_degree_exceeding_pool_errors(self):
        # three tracks at one frame cannot come from a tracker with max_tracks = 2
        fragments = [frag(0, 0, 0, 50), frag(1, 1, 0, 50), frag(2, 2, 0, 50)]
        embeddings = {i: unit([1, 0, 0]) for i in range(3)}
        with pytest.raises(AssertionError, match="fragment 2"):
            reassign(fragments, embeddings, POOL)

    def test_fifo_order_is_onset_then_track(self):
        # same onset: lower track id is processed first and wins its best pick
        fragments = [frag(0, 1, 0, 10), frag(1, 0, 0, 10)]
        embeddings = {0: unit([1, 0, 0]), 1: unit([1, 0.5, 0])}
        result = reassign(fragments, embeddings, POOL)
        # fragment 1 (track 0) goes first, takes alice; fragment 0 gets bob
        assert result.assignments[1] == "alice"
        assert result.assignments[0] == "bob"

    def test_score_tie_prefers_lower_pool_index(self):
        pool = EnrollmentPool([("first", unit([1, 0])), ("second", unit([1, 0]))])
        result = reassign([frag(0, 0, 0, 10)], {0: unit([1, 0])}, pool)
        assert result.assignments[0] == "first"

    def test_runner_up_and_margin_recorded(self):
        pool = EnrollmentPool(
            [("alice", unit([1, 0, 0])), ("bob", unit([0, 1, 0])), ("carol", unit([0, 0, 1]))]
        )
        emb = unit([0.2, 1.0, 0.5])
        result = reassign([frag(0, 0, 0, 10)], {0: emb}, pool)
        (d,) = result.diagnostics
        assert (d.identity, d.runner_up) == ("bob", "carol")
        assert d.margin == pytest.approx(emb.vector[1] - emb.vector[2])
        assert d.margin == d.score - float(pool.matrix()[2] @ emb.vector)

    def test_runner_up_skips_excluded_identities(self):
        pool = EnrollmentPool(
            [("alice", unit([1, 0, 0])), ("bob", unit([0, 1, 0])), ("carol", unit([0, 0, 1]))]
        )
        fragments = [frag(0, 0, 0, 50), frag(1, 1, 0, 50)]
        # fragment 1 prefers alice, then bob, but alice is taken by fragment 0
        embeddings = {0: unit([1, 0, 0]), 1: unit([1, 0.6, 0.3])}
        diag = {d.fragment_id: d for d in reassign(fragments, embeddings, pool).diagnostics}
        assert (diag[1].identity, diag[1].runner_up) == ("bob", "carol")
        assert diag[1].margin == pytest.approx(0.3 / np.linalg.norm([1, 0.6, 0.3]))

    def test_runner_up_tie_has_zero_margin(self):
        pool = EnrollmentPool([("first", unit([1, 0])), ("second", unit([1, 0]))])
        (d,) = reassign([frag(0, 0, 0, 10)], {0: unit([1, 0])}, pool).diagnostics
        assert (d.identity, d.runner_up, d.margin) == ("first", "second", 0.0)

    def test_no_runner_up_with_one_candidate(self):
        fragments = [frag(0, 0, 0, 50), frag(1, 1, 0, 50)]
        embeddings = {0: unit([1, 0, 0]), 1: unit([1, 0.1, 0])}
        diag = {d.fragment_id: d for d in reassign(fragments, embeddings, POOL).diagnostics}
        assert diag[0].runner_up == "bob" and diag[0].margin > 0
        assert (diag[1].runner_up, diag[1].margin) == (None, None)  # alice excluded

    def test_every_fragment_assigned_exactly_once(self):
        rng = np.random.default_rng(0)
        fragments = []
        fid = 0
        for track in range(3):
            t = 0
            while t < 180:
                length = int(rng.integers(5, 30))
                fragments.append(frag(fid, track, t, t + length - 1))
                fid += 1
                t += length + int(rng.integers(5, 20))
        pool = EnrollmentPool(
            [(f"id{k}", unit(rng.standard_normal(8))) for k in range(4)]
        )
        embeddings = {f.fragment_id: unit(rng.standard_normal(8)) for f in fragments}
        result = reassign(fragments, embeddings, pool)
        assert set(result.assignments) == {f.fragment_id for f in fragments}
        # overlap exclusion holds pairwise
        by_id = {f.fragment_id: f for f in fragments}
        for a in fragments:
            for b in fragments:
                if a.fragment_id < b.fragment_id and a.overlaps(b):
                    assert result.assignments[a.fragment_id] != result.assignments[b.fragment_id]

    def test_frame_content_preserved(self):
        fragments = [
            frag(0, 0, 0, 9, DoA(10, 0)),
            frag(1, 1, 5, 14, DoA(100, 0)),
            frag(2, 0, 20, 29, DoA(-40, 0)),
        ]
        embeddings = {0: unit([1, 0, 0]), 1: unit([0, 1, 0]), 2: unit([0.9, 0.1, 0])}
        result = reassign(fragments, embeddings, POOL)
        in_frames = sorted(
            (f.onset_frame + k, d.azimuth, d.elevation)
            for f in fragments
            for k, d in enumerate(f.doas)
        )
        out_frames = sorted(
            (i, d.azimuth, d.elevation)
            for traj in result.new_trajectories
            for i, d, active in traj.frames
            if active
        )
        assert in_frames == out_frames

    def test_permutation_safety(self):
        # relabeling input track ids leaves assignments unchanged when all
        # onsets are distinct
        def build(track_ids):
            fragments = [
                frag(0, track_ids[0], 0, 9, DoA(10, 0)),
                frag(1, track_ids[1], 20, 29, DoA(100, 0)),
                frag(2, track_ids[2], 40, 49, DoA(-40, 0)),
            ]
            embeddings = {
                0: unit([1, 0, 0]),
                1: unit([0, 1, 0]),
                2: unit([0.8, 0.6, 0]),
            }
            return reassign(fragments, embeddings, POOL).assignments

        assert build([0, 1, 2]) == build([2, 0, 1])

    def test_output_identities_subset_of_pool(self):
        fragments = [frag(0, 0, 0, 10), frag(1, 1, 30, 40)]
        embeddings = {0: unit([1, 0, 0]), 1: unit([0, 1, 0])}
        result = reassign(fragments, embeddings, POOL)
        assert {t.track_id for t in result.new_trajectories} <= set(POOL.identities)
        assert len(result.new_trajectories) <= POOL.size


class TestExtractFragmentEmbedding:
    SR = 16000

    @pytest.fixture(scope="class")
    def scene(self):
        return simulate(SceneSpec(seed=21, duration=6.0))

    @pytest.fixture(scope="class")
    def spec(self, scene):
        return foa_stft(scene.mixture)

    # 3 s fragment whose middle second (tracker frames 10-19) is shared
    OVERLAPPED = frag(0, 0, 0, 29, DoA(30, 0), overlapped=range(10, 20))
    # frames centred in [0 s, 3 s): centres 256 k + 256 < 48000 for k <= 186
    WINDOW_FRAMES = 187
    WINDOW_SAMPLES = 186 * 256 + 512

    def test_ideal_pools_every_frame(self, scene, spec):
        emb = extract_fragment_embedding(scene, spec, self.OVERLAPPED, DurationPolicy(), "ideal")
        target = nearest_speaker_index(scene.ground_truth, DoA(30, 0), 1.5)
        mono = scene.wet[target].channels[0, : self.WINDOW_SAMPLES]
        assert np.array_equal(emb.vector, embed(mono).vector)
        assert emb.pooled_frames == self.WINDOW_FRAMES
        assert not emb.pooling_fallback

    def test_ideal_needs_no_mixture_stft(self, scene, spec):
        with_spec = extract_fragment_embedding(scene, spec, self.OVERLAPPED, DurationPolicy(), "ideal")
        without = extract_fragment_embedding(scene, None, self.OVERLAPPED, DurationPolicy(), "ideal")
        assert np.array_equal(with_spec.vector, without.vector)

    def test_ds_leaves_out_overlapped_frames(self, scene, spec):
        emb = extract_fragment_embedding(scene, spec, self.OVERLAPPED, DurationPolicy(), "ds")
        mono = beamform_ds(scene.mixture, DoA(30, 0))[: self.WINDOW_SAMPLES]
        # 187 analysis frames; the 62 centred in [1.0 s, 2.0 s) are left out
        assert emb.pooled_frames == 125
        assert not emb.pooling_fallback
        assert np.max(np.abs(emb.vector - embed(mono).vector)) > 1e-6
        free = np.ones(self.WINDOW_FRAMES, dtype=bool)
        free[62:124] = False
        assert np.allclose(emb.vector, embed(mono, frame_mask=free).vector, rtol=0, atol=1e-9)

    def test_ds_without_overlap_pools_every_frame(self, scene, spec):
        lone = frag(0, 0, 0, 29, DoA(30, 0))
        emb = extract_fragment_embedding(scene, spec, lone, DurationPolicy(), "ds")
        beam = beamform_ds(spec[..., : self.WINDOW_FRAMES], DoA(30, 0))
        assert np.array_equal(emb.vector, embed_power(np.abs(beam) ** 2).vector)
        # the STFT-domain beam is the STFT of the time-domain one
        mono = beamform_ds(scene.mixture, DoA(30, 0))[: self.WINDOW_SAMPLES]
        assert np.allclose(emb.vector, embed(mono).vector, rtol=0, atol=1e-9)

    def test_fully_overlapped_window_falls_back_to_all_frames(self, scene, spec):
        shared = frag(0, 0, 0, 29, DoA(30, 0), overlapped=range(30))
        emb = extract_fragment_embedding(scene, spec, shared, DurationPolicy(250), "ds")
        assert emb.pooling_fallback
        assert emb.pooled_frames == 15  # every frame centred in the 250 ms window

    @pytest.mark.parametrize("beamformer", ["ideal", "ds", "mvdr"])
    def test_long_window_holds_little_more_than_its_beam(self, scene, spec, beamformer):
        # A 5.5 s window (343 frames): DS copied the whole 4-channel frame
        # slice (5.6 MB), the oracle MVDR held the float64 reference
        # (2.8 MB), its padded STFT (5.8 MB) and that STFT's conjugate, and
        # ideal transformed 256-frame blocks (2.1 MB of frames and spectra).
        # Now the beam (1.4 MB) and its power are most of what is held.
        long = frag(0, 0, 0, 54, DoA(30, 0))
        extract_fragment_embedding(scene, spec, long, DurationPolicy(), beamformer)  # warm caches
        beam_bytes = 257 * 343 * 16
        tracemalloc.start()
        try:
            emb = extract_fragment_embedding(scene, spec, long, DurationPolicy(), beamformer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emb.pooled_frames == 343
        assert peak < 2 * beam_bytes

    def test_window_with_too_few_frames_reads_three(self, scene, spec):
        # a 30 ms prefix, [0, 30 ms): only the first frame is centred in it,
        # so the window reads the first MIN_EMBED_FRAMES frames
        short = frag(0, 0, 0, 0, DoA(30, 0))
        frames, _ = reassignment._window_frames(short, (0.0, 0.03), scene.mixture.num_samples)
        assert frames == slice(0, MIN_EMBED_FRAMES)
        for beamformer in BEAMFORMERS:
            emb = extract_fragment_embedding(scene, spec, short, DurationPolicy(30), beamformer)
            assert emb.pooled_frames == MIN_EMBED_FRAMES
        ideal = extract_fragment_embedding(scene, spec, short, DurationPolicy(30), "ideal")
        target = nearest_speaker_index(scene.ground_truth, DoA(30, 0), 0.015)
        mono = scene.wet[target].channels[0, : 512 + (MIN_EMBED_FRAMES - 1) * 256]
        assert np.array_equal(ideal.vector, embed(mono).vector)


class TestWindowFrames:
    SR = 16000

    @settings(max_examples=200, deadline=None)
    @given(
        num_samples=st.integers(min_value=512 + (MIN_EMBED_FRAMES - 1) * 256, max_value=30 * SR),
        start=st.floats(min_value=0.0, max_value=0.999),
        length=st.floats(min_value=0.0, max_value=30.0),
        overlapped=st.sets(st.integers(min_value=0, max_value=299), max_size=20),
    )
    def test_frames_are_those_centred_in_the_window(self, num_samples, start, length, overlapped):
        hop = 0.1
        duration = num_samples / self.SR
        window = (start * duration, min(duration, start * duration + length))
        f = frag(0, 0, 0, 0, overlapped=sorted(overlapped))
        frames, free = reassignment._window_frames(f, window, num_samples)
        centers = analysis_frame_centers(num_samples)
        a, b = round(window[0] * self.SR), round(window[1] * self.SR)
        assert 0 <= frames.start and frames.stop <= len(centers)
        assert frames.stop - frames.start >= MIN_EMBED_FRAMES
        in_window = np.flatnonzero((centers >= a) & (centers < b))
        if len(in_window) >= MIN_EMBED_FRAMES:
            inside = centers[frames]
            assert np.all((inside >= a) & (inside < b))
            if frames.start > 0:
                assert centers[frames.start - 1] < a
            if frames.stop < len(centers):
                assert centers[frames.stop] >= b
        else:
            # the MIN_EMBED_FRAMES frames from the first centre at or after the
            # window start, or the grid's last ones where those run past its end
            first = int(np.sum(centers < a))
            assert frames.stop - frames.start == MIN_EMBED_FRAMES
            assert frames.start == first or (frames.stop == len(centers) and frames.start < first)
            assert set(in_window) <= set(range(frames.start, frames.stop))
        tracker_frames = np.floor(centers[frames] / (hop * self.SR)).astype(int)
        assert free.tolist() == [t not in overlapped for t in tracker_frames]

    def test_slice_equals_the_whole_grid_search(self):
        # The integer bounds and the slice's own tracker frames against the
        # whole grid's centres, searched and sliced, on the 3.151 s scene: its
        # last tracker frame holds two centres, so the clamp to the grid's
        # last MIN_EMBED_FRAMES frames is taken.
        num_samples = int(round(3.151 * self.SR))
        centers = analysis_frame_centers(num_samples)
        whole_tracker_frames = np.floor(centers / (0.1 * self.SR)).astype(int)
        f = frag(0, 0, 0, 0, overlapped=[3, 17, 30, 31])
        windows = [(a / 1000, b / 1000) for a in range(0, 3151, 37) for b in (a + 10, a + 100, a + 250, 3151)]
        windows += [(3.1, 3.151), (3.0, 3.1), (0.0, 0.0), (3.151, 3.151)]
        clamped = 0
        for window in windows:
            bounds = [round(window[0] * self.SR), round(window[1] * self.SR)]
            start, stop = (int(i) for i in np.searchsorted(centers, bounds))
            if stop - start < MIN_EMBED_FRAMES:
                start = max(0, min(start, len(centers) - MIN_EMBED_FRAMES))
                stop = start + MIN_EMBED_FRAMES
                clamped += start + MIN_EMBED_FRAMES == len(centers)
            expected_free = ~np.isin(whole_tracker_frames[start:stop], f.overlapped_frames)
            frames, free = reassignment._window_frames(f, window, num_samples)
            assert frames == slice(start, stop)
            assert free.dtype == expected_free.dtype and np.array_equal(free, expected_free)
        assert clamped > 0

    @settings(max_examples=200, deadline=None)
    @given(
        num_samples=st.integers(min_value=512 + (MIN_EMBED_FRAMES - 1) * 256, max_value=30 * SR),
        start=st.floats(min_value=0.0, max_value=0.999),
        length=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_oracle_reference_frames_hold_the_window_frames(self, num_samples, start, length):
        duration = num_samples / self.SR
        window = (start * duration, min(duration, start * duration + length))
        frames, _ = reassignment._window_frames(frag(0, 0, 0, 0), window, num_samples)
        reference = oracle_noise_reference(num_samples, window)
        assert 0 <= reference.start <= frames.start < frames.stop <= reference.stop
        assert reference.stop <= dsp.num_full_frames(num_samples)

    def test_last_tracker_frame_reads_the_grids_last_frames(self):
        # 1.35 s: 83 analysis frames, the last centred at 21248 samples; the
        # last tracker frame, [1.3 s, 1.4 s), holds the centres of frames 81, 82
        num_samples = 21600
        centers = analysis_frame_centers(num_samples)
        window = (1.3, 1.4)
        assert len(centers) == 83
        assert np.flatnonzero((centers >= 20800) & (centers < 22400)).tolist() == [81, 82]
        last = frag(0, 0, 13, 13, overlapped=[12])
        frames, free = reassignment._window_frames(last, window, num_samples)
        assert frames == slice(80, 83)
        assert free.tolist() == [False, True, True]  # frame 80 is centred in tracker frame 12


class TestRunPipeline:
    def test_jump_scene_improves_assa(self):
        # seed 2 produces a scene whose jumps break the tracker's identities
        scene = simulate(SceneSpec(seed=2, duration=30.0))
        result = run_pipeline(scene, "gt", "ideal", DurationPolicy(), m=2, seed=44)
        before = evaluate_scene(scene.ground_truth, result.before, scene.duration)
        after = evaluate_scene(scene.ground_truth, result.after, scene.duration)
        assert after.assa > before.assa

    def test_static_scene_with_perfect_tracking_is_not_damaged(self):
        spec = SceneSpec(
            seed=4,
            duration=20.0,
            jump_on_silence=False,
            pause_range=(0.2, 0.4),  # shorter than the tracker's death window
            snr=None,
        )
        scene = simulate(spec)
        result = run_pipeline(scene, "gt", "ideal", DurationPolicy(), m=2, seed=45)
        before = evaluate_scene(scene.ground_truth, result.before, scene.duration)
        after = evaluate_scene(scene.ground_truth, result.after, scene.duration)
        assert before.assa == pytest.approx(1.0)
        assert after.assa == pytest.approx(1.0)

    def test_deterministic(self):
        scene = simulate(SceneSpec(seed=9, duration=12.0))
        a = run_pipeline(scene, "gt", "ds", DurationPolicy(500), m=2, seed=46)
        b = run_pipeline(scene, "gt", "ds", DurationPolicy(500), m=2, seed=46)
        assert a.assignment.assignments == b.assignment.assignments
        for ta, tb in zip(a.after, b.after):
            assert ta.frames == tb.frames

    def test_pool_holds_the_shared_distractors_of_the_seed(self):
        # the distractors are the one rule's for master seed 46, not a per-scene draw
        scene = simulate(SceneSpec(seed=9, duration=6.0))
        result = run_pipeline(scene, "gt", "ds", DurationPolicy(), m=4, seed=46)
        distractors = shared_distractors(46, [4], 2)
        _, pool = track_and_enroll(scene, (46,), "gt", [4], enroll_speakers(scene.voices, (46,)), distractors)
        assert result.pool.identities == pool.identities == [
            "speaker00", "speaker01", "distractor00", "distractor01"
        ]
        for (_, got), (_, expected) in zip(result.pool.entries, pool.entries, strict=True):
            assert np.array_equal(got.vector, expected.vector)
        for (_, got), (_, drawn) in zip(result.pool.entries[2:], distractors, strict=True):
            assert np.array_equal(got.vector, drawn.vector)

    def test_short_fragment_fallback_in_pipeline(self):
        # a 10 ms prefix holds at most one analysis frame centre, so every
        # window reads the MIN_EMBED_FRAMES frames from its first centre
        scene = simulate(SceneSpec(seed=10, duration=8.0))
        for beamformer in ("ideal", "ds"):
            result = run_pipeline(scene, "gt", beamformer, DurationPolicy(10), m=2, seed=47)
            assert len(result.assignment.assignments) == len(result.fragments)
            assert {d.pooled_frames for d in result.assignment.diagnostics} == {MIN_EMBED_FRAMES}

    def test_fragment_on_the_last_tracker_frame_is_embedded(self):
        # the est tracker leaves fragment 2 on the last tracker frame, (3.1 s,
        # 3.2 s), in which only two analysis frames of the 3.151 s scene are centred
        scene = simulate(SceneSpec(seed=5, duration=3.151))
        tracks_by_m, pool = track_and_enroll(scene, (5,), "est", [2], enroll_speakers(scene.voices, (5,)), [])
        cells = [(2, "ideal", DurationPolicy(), "oracle"), (2, "ds", DurationPolicy(), "oracle")]
        for result in reassign_scene(scene, tracks_by_m, pool, cells):
            diagnostics = result.assignment.diagnostics
            assert (3.1, 3.2) in [tuple(round(t, 6) for t in d.window) for d in diagnostics]
            for d in diagnostics:
                assert d.pooled_frames >= MIN_EMBED_FRAMES
                assert np.isfinite(d.score)

    def test_est_tracker_variant_runs(self):
        scene = simulate(SceneSpec(seed=11, duration=10.0))
        result = run_pipeline(scene, "est", "ideal", DurationPolicy(), m=2, seed=48)
        assert result.before  # produced at least one trajectory

    def test_mvdr_gated_runs(self):
        scene = simulate(SceneSpec(seed=12, duration=10.0))
        result = run_pipeline(
            scene, "gt", "mvdr", DurationPolicy(), m=2, seed=49, noise_cov_source="gated"
        )
        assert len(result.assignment.assignments) == len(result.fragments)

    def test_unknown_names_rejected(self):
        scene = simulate(SceneSpec(seed=13, duration=6.0))
        with pytest.raises(ValueError):
            run_pipeline(scene, "nn", "ideal", DurationPolicy(), m=2, seed=50)
        with pytest.raises(ValueError):
            run_pipeline(scene, "gt", "gsc", DurationPolicy(), m=2, seed=50)

    def test_diagnostic_windows_follow_the_policy(self):
        scene = simulate(SceneSpec(seed=9, duration=12.0))
        result = run_pipeline(scene, "gt", "ds", DurationPolicy(250), m=2, seed=46)
        assert result.assignment.diagnostics
        for d in result.assignment.diagnostics:
            start, end = d.window
            assert end - start <= 0.25 + 1e-9


class TestGatedCovariancePerTrack:
    """The gated MVDR noise covariance depends only on the track, so
    reassign_scene estimates it once per track and M and reuses it."""

    GATED = [(2, "mvdr", DurationPolicy(), "gated"), (2, "mvdr", DurationPolicy(250), "gated")]

    @pytest.fixture(scope="class")
    def inputs(self):
        scene = simulate(SceneSpec(seed=12, duration=10.0))
        tracks_by_m, pool = track_and_enroll(scene, (51,), "gt", [2], enroll_speakers(scene.voices, (51,)), [])
        return scene, tracks_by_m, pool

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(reassignment, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(reassignment, name, counted)
        return calls

    def test_one_band_covariance_per_track(self, inputs, monkeypatch):
        scene, tracks_by_m, pool = inputs
        calls = self.count_calls(monkeypatch, "band_covariances")
        results = list(reassign_scene(scene, tracks_by_m, pool, self.GATED))
        tracks = {f.source_track_id for f in results[0].fragments}
        assert len(results[0].fragments) > len(tracks)  # fragments share tracks
        assert len(calls) == len(tracks)

    def test_ds_and_oracle_cells_estimate_no_gated_covariance(self, inputs, monkeypatch):
        scene, tracks_by_m, pool = inputs
        calls = self.count_calls(monkeypatch, "band_covariances")
        gated = self.count_calls(monkeypatch, "gated_noise_reference")
        oracle = self.count_calls(monkeypatch, "reference_covariances")
        cells = [(2, "ds", DurationPolicy(), "gated"), (2, "mvdr", DurationPolicy(), "oracle")]
        results = list(reassign_scene(scene, tracks_by_m, pool, cells))
        assert gated == [] and calls == []
        assert len(oracle) == len(results[1].fragments)  # the oracle's own window, per fragment

    def test_equals_per_fragment_estimation(self, inputs, monkeypatch):
        scene, tracks_by_m, pool = inputs
        reassign_calls = self.count_calls(monkeypatch, "reassign")  # (fragments, embeddings, ...)
        results = list(reassign_scene(scene, tracks_by_m, pool, self.GATED))
        num_frames = tracking.num_frames(scene.duration)
        inactive = {
            traj.track_id: sorted(set(range(num_frames)) - {t for t, _, a in traj.frames if a})
            for traj in tracks_by_m[2]
        }

        spec = foa_stft(scene.mixture)

        def per_fragment(track_id):
            return band_covariances(spec, gated_noise_reference(scene.mixture, inactive[track_id]))

        for (_m, _bf, policy, _src), result, (fragments, got, *_) in zip(
            self.GATED, results, reassign_calls
        ):
            diagnostics = MvdrDiagnostics(gated_fallback_tracks=set())
            for f in fragments:
                expected = extract_fragment_embedding(
                    scene, spec, f, policy, "mvdr",
                    noise_cov=per_fragment(f.source_track_id), diagnostics=diagnostics,
                )
                assert np.array_equal(got[f.fragment_id].vector, expected.vector)
                assert got[f.fragment_id].pooled_frames == expected.pooled_frames
            assert diagnostics.total_bands > 0
            assert result.mvdr_diagnostics == diagnostics

    def test_gated_covariance_takes_no_second_stft(self, inputs, monkeypatch):
        scene, tracks_by_m, pool = inputs
        calls = []
        original = dsp.stft

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # every module attribute that holds dsp.stft
        for module in (dsp, beamforming, embedding, reassignment):
            if getattr(module, "stft", None) is original:
                monkeypatch.setattr(module, "stft", counted)
        results = list(reassign_scene(scene, tracks_by_m, pool, self.GATED))
        assert results[0].mvdr_diagnostics.total_bands > 0
        assert len(calls) == 4  # foa_stft's four channels, and nothing else

    def test_track_active_for_the_whole_scene_is_counted(self, inputs):
        scene, tracks_by_m, pool = inputs
        n = tracking.num_frames(scene.duration)
        whole = Trajectory(7, [(t, DoA(40, 0), True) for t in range(n)])
        gapped = Trajectory(8, [(t, DoA(-60, 0), t < n // 2) for t in range(n)])
        results = list(reassign_scene(scene, {2: [whole, gapped]}, pool, self.GATED))
        for result in results:
            assert result.mvdr_diagnostics.gated_fallback_tracks == {7}
            doc = assignment_to_dict(result.assignment, result.mvdr_diagnostics)
            assert doc["mvdr_gated_fallback_tracks"] == 1
        ds_cell = [(2, "ds", DurationPolicy(), "gated")]
        ds = next(reassign_scene(scene, {2: [whole, gapped]}, pool, ds_cell))
        assert ds.mvdr_diagnostics.gated_fallback_tracks is None
        doc = assignment_to_dict(ds.assignment, ds.mvdr_diagnostics)
        assert "mvdr_gated_fallback_tracks" not in doc


class TestOneTransformPerFragment:
    """Without a gated MVDR cell, reassign_scene transforms the frames of each
    fragment's windows once for all of its cells, and never the whole scene;
    each embedding equals the one read from the whole scene's STFT."""

    CELLS = [(2, bf, DurationPolicy(ms), "oracle") for bf in BEAMFORMERS for ms in (None, 750, 250)]

    @pytest.fixture(scope="class")
    def short(self):
        # the est tracker leaves a fragment on the last tracker frame, (3.1 s,
        # 3.2 s), in which only two analysis frames of this scene are centred
        scene = simulate(SceneSpec(seed=5, duration=3.151))
        tracks_by_m, pool = track_and_enroll(scene, (5,), "est", [2], enroll_speakers(scene.voices, (5,)), [])
        return scene, tracks_by_m, pool

    @pytest.fixture(scope="class")
    def long(self):
        scene = simulate(SceneSpec(seed=12, duration=20.0))
        tracks_by_m, pool = track_and_enroll(scene, (51,), "gt", [2], enroll_speakers(scene.voices, (51,)), [])
        return scene, tracks_by_m, pool

    @staticmethod
    def record(monkeypatch, name):
        calls = []
        original = getattr(reassignment, name)

        def recorded(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(reassignment, name, recorded)
        return calls

    @pytest.mark.parametrize(
        "inputs, cells",
        [
            ("short", CELLS + [(2, bf, DurationPolicy(10), "oracle") for bf in BEAMFORMERS]),
            ("long", CELLS),
        ],
    )
    def test_equals_the_whole_stft_reference(self, inputs, cells, request, monkeypatch):
        scene, tracks_by_m, pool = request.getfixturevalue(inputs)
        transforms = self.record(monkeypatch, "foa_stft")
        reassign_calls = self.record(monkeypatch, "reassign")  # (fragments, embeddings, ...)
        results = list(reassign_scene(scene, tracks_by_m, pool, cells))
        fragments = results[0].fragments
        # one transform per fragment, none of the whole scene
        assert len(transforms) == len(fragments)
        assert all(len(args) == 2 for args in transforms)

        whole = foa_stft(scene.mixture)
        for (_m, beamformer, policy, _src), result, (_, got, *_) in zip(
            cells, results, reassign_calls, strict=True
        ):
            diagnostics = MvdrDiagnostics()
            for f in fragments:
                expected = extract_fragment_embedding(
                    scene, whole, f, policy, beamformer, diagnostics=diagnostics
                )
                assert np.array_equal(got[f.fragment_id].vector, expected.vector)
                assert got[f.fragment_id].pooled_frames == expected.pooled_frames
                assert got[f.fragment_id].pooling_fallback == expected.pooling_fallback
            assert result.mvdr_diagnostics == diagnostics
        if inputs == "short":
            windows = [tuple(round(t, 6) for t in d.window) for d in results[0].assignment.diagnostics]
            assert (3.1, 3.2) in windows
            assert {d.pooled_frames for d in results[-1].assignment.diagnostics} == {MIN_EMBED_FRAMES}

    def test_ds_beside_a_gated_cell_reads_the_same_frames(self, long, monkeypatch):
        # With a gated MVDR cell the fragments read the whole scene's STFT.
        scene, tracks_by_m, pool = long
        transforms = self.record(monkeypatch, "foa_stft")
        alone = next(reassign_scene(scene, tracks_by_m, pool, [self.CELLS[3]]))
        assert all(len(args) == 2 for args in transforms)
        transforms.clear()
        gated = (2, "mvdr", DurationPolicy(), "gated")
        beside = next(reassign_scene(scene, tracks_by_m, pool, [self.CELLS[3], gated]))
        assert [len(args) for args in transforms] == [1]
        assert alone.assignment == beside.assignment

    def test_holds_less_than_half_the_scene_stft(self, long):
        # The scene's STFT is 20.5 MB. The frames of one fragment's windows
        # (5.7 s, 5.9 MB, at most here) are held, and its beams.
        scene, tracks_by_m, pool = long
        list(reassign_scene(scene, tracks_by_m, pool, self.CELLS))  # warm caches
        stft_bytes = foa_stft(scene.mixture).nbytes
        tracemalloc.start()
        try:
            results = list(reassign_scene(scene, tracks_by_m, pool, self.CELLS))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == len(self.CELLS)
        assert peak < stft_bytes / 2


class TestFloat32ReadScene:
    """A scene read from disk holds the float32 samples of its WAV files;
    every result computed from it equals the one computed from the same
    samples widened to float64, bit for bit."""

    @pytest.fixture(scope="class")
    def scenes(self, tmp_path_factory):
        # 10 s: the scene STFT spans several dsp.STFT_BLOCK_FRAMES blocks
        spec = SceneSpec(seed=22, duration=10.0)
        scene_dir = tmp_path_factory.mktemp("float32") / "scene"
        fileio.write_scene(scene_dir, spec)
        read, _ = fileio.read_scene(scene_dir)

        def widened(signal):
            return FoaSignal(signal.channels.astype(np.float64))

        wide = Scene(widened(read.mixture), [widened(w) for w in read.wet], read.ground_truth)
        assert read.mixture.channels.dtype == np.float32
        assert all(w.channels.dtype == np.float32 for w in read.wet)
        assert wide.mixture.channels.dtype == np.float64
        return read, wide

    def test_foa_stft(self, scenes):
        read, wide = scenes
        assert np.array_equal(foa_stft(read.mixture), foa_stft(wide.mixture))

    # inside the scene, widened at its start, widened past its end, the whole scene
    @pytest.mark.parametrize("window", [(2.0, 3.5), (0.0, 0.1), (9.8, 10.0), (0.0, 10.0)])
    def test_oracle_noise_reference(self, scenes, window):
        read, wide = scenes
        frames = oracle_noise_reference(read.mixture.num_samples, window)
        for target in range(len(read.wet)):
            got = reference_covariances(foa_stft(read.mixture, frames), read.wet[target], frames)
            expected = reference_covariances(foa_stft(wide.mixture, frames), wide.wet[target], frames)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("frames", [slice(0, 3), slice(200, 420), slice(600, 622)])
    def test_beamform_ideal(self, scenes, frames):
        read, wide = scenes
        for target in range(len(read.wet)):
            got = beamform_ideal(read.wet[target], frames)
            expected = beamform_ideal(wide.wet[target], frames)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("beamformer", ["ideal", "ds", "mvdr"])
    def test_reassign_scene_cell(self, scenes, beamformer, monkeypatch):
        calls = []
        original = reassignment.reassign

        def recorded(fragments, embeddings, *args, **kwargs):
            calls.append(embeddings)
            return original(fragments, embeddings, *args, **kwargs)

        monkeypatch.setattr(reassignment, "reassign", recorded)
        cell = [(2, beamformer, DurationPolicy(750), "oracle")]
        results = []
        for scene in scenes:
            tracks_by_m, pool = track_and_enroll(scene, (23,), "gt", [2], enroll_speakers(scene.voices, (23,)), [])
            results.append(next(reassign_scene(scene, tracks_by_m, pool, cell)))
        got, expected = calls
        assert got.keys() == expected.keys() and len(got) > 2
        for fragment_id, embedding in got.items():
            assert np.array_equal(embedding.vector, expected[fragment_id].vector)
        read, wide = results
        assert read.assignment.assignments == wide.assignment.assignments
        assert read.assignment.diagnostics == wide.assignment.diagnostics
        assert read.mvdr_diagnostics == wide.mvdr_diagnostics
