import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrack import beamforming, dsp, embedding, reassignment
from embtrack.beamforming import (
    MvdrDiagnostics,
    band_covariances,
    beamform_ds,
    foa_stft,
    gated_noise_reference,
    nearest_speaker_index,
)
from embtrack.embedding import (
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
    OverlapExclusionError,
    extract_fragment_embedding,
    reassign,
    reassign_scene,
    run_pipeline,
    track_and_enroll,
)
from embtrack.scene import SceneSpec, simulate
from embtrack.tracking import Trajectory


def unit(v):
    v = np.asarray(v, dtype=float)
    return Embedding(v / np.linalg.norm(v))


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
        fragments = [frag(0, 0, 0, 50), frag(1, 1, 0, 50), frag(2, 2, 0, 50)]
        embeddings = {i: unit([1, 0, 0]) for i in range(3)}
        with pytest.raises(OverlapExclusionError, match="fragment 2"):
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

    def test_short_fragment_spatial_fallback(self):
        fragments = [
            frag(0, 0, 0, 30, DoA(10, 0)),
            frag(1, 1, 10, 40, DoA(100, 0)),
            frag(2, 0, 60, 62, DoA(12, 0)),  # too short to embed
        ]
        embeddings = {0: unit([1, 0, 0]), 1: unit([0, 1, 0]), 2: None}
        result = reassign(fragments, embeddings, POOL)
        # nearest previously assigned fragment by DoA is fragment 0 -> alice
        assert result.assignments[2] == "alice"
        diag = {d.fragment_id: d for d in result.diagnostics}
        assert diag[2].used_fallback

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

    def test_no_runner_up_with_one_candidate_or_spatial_fallback(self):
        fragments = [frag(0, 0, 0, 50), frag(1, 1, 0, 50), frag(2, 0, 60, 62)]
        embeddings = {0: unit([1, 0, 0]), 1: unit([1, 0.1, 0]), 2: None}
        diag = {d.fragment_id: d for d in reassign(fragments, embeddings, POOL).diagnostics}
        assert diag[0].runner_up == "bob" and diag[0].margin > 0
        assert (diag[1].runner_up, diag[1].margin) == (None, None)  # alice excluded
        assert diag[2].used_fallback
        assert (diag[2].runner_up, diag[2].margin) == (None, None)

    def test_short_fragment_fallback_respects_exclusion(self):
        fragments = [
            frag(0, 0, 0, 30, DoA(10, 0)),
            frag(1, 1, 25, 60, DoA(100, 0)),
            frag(2, 2, 28, 40, DoA(11, 0)),  # overlaps fragment 0 and 1? no: 0 and 1
        ]
        # fragment 2 overlaps both fragments -> no candidate left? pool is 2.
        # Use a 3-entry pool so one identity remains.
        pool = EnrollmentPool(
            [("alice", unit([1, 0, 0])), ("bob", unit([0, 1, 0])), ("carol", unit([0, 0, 1]))]
        )
        embeddings = {0: unit([1, 0, 0]), 1: unit([0, 1, 0]), 2: None}
        result = reassign(fragments, embeddings, pool)
        assert result.assignments[2] == "carol"

    def test_short_fragment_without_history_takes_lowest_index(self):
        result = reassign([frag(0, 0, 0, 1)], {0: None}, POOL)
        assert result.assignments[0] == "alice"

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
        emb = extract_fragment_embedding(scene, spec, self.OVERLAPPED, DurationPolicy(), "ideal", 0.1)
        target = nearest_speaker_index(scene.ground_truth, DoA(30, 0), 1.5)
        mono = scene.wet[target].channels[0, : self.WINDOW_SAMPLES]
        assert np.array_equal(emb.vector, embed(mono, self.SR).vector)
        assert emb.pooled_frames == self.WINDOW_FRAMES
        assert not emb.pooling_fallback

    def test_ideal_needs_no_mixture_stft(self, scene, spec):
        with_spec = extract_fragment_embedding(scene, spec, self.OVERLAPPED, DurationPolicy(), "ideal", 0.1)
        without = extract_fragment_embedding(scene, None, self.OVERLAPPED, DurationPolicy(), "ideal", 0.1)
        assert np.array_equal(with_spec.vector, without.vector)

    def test_ds_leaves_out_overlapped_frames(self, scene, spec):
        emb = extract_fragment_embedding(scene, spec, self.OVERLAPPED, DurationPolicy(), "ds", 0.1)
        mono = beamform_ds(scene.mixture, DoA(30, 0))[: self.WINDOW_SAMPLES]
        # 187 analysis frames; the 62 centred in [1.0 s, 2.0 s) are left out
        assert emb.pooled_frames == 125
        assert not emb.pooling_fallback
        assert np.max(np.abs(emb.vector - embed(mono, self.SR).vector)) > 1e-6
        free = np.ones(self.WINDOW_FRAMES, dtype=bool)
        free[62:124] = False
        assert np.allclose(emb.vector, embed(mono, self.SR, free).vector, rtol=0, atol=1e-9)

    def test_ds_without_overlap_pools_every_frame(self, scene, spec):
        lone = frag(0, 0, 0, 29, DoA(30, 0))
        emb = extract_fragment_embedding(scene, spec, lone, DurationPolicy(), "ds", 0.1)
        beam = beamform_ds(spec[..., : self.WINDOW_FRAMES], DoA(30, 0))
        assert np.array_equal(emb.vector, embed_power(np.abs(beam) ** 2, self.SR).vector)
        # the STFT-domain beam is the STFT of the time-domain one
        mono = beamform_ds(scene.mixture, DoA(30, 0))[: self.WINDOW_SAMPLES]
        assert np.allclose(emb.vector, embed(mono, self.SR).vector, rtol=0, atol=1e-9)

    def test_fully_overlapped_window_falls_back_to_all_frames(self, scene, spec):
        shared = frag(0, 0, 0, 29, DoA(30, 0), overlapped=range(30))
        emb = extract_fragment_embedding(scene, spec, shared, DurationPolicy(250), "ds", 0.1)
        assert emb.pooling_fallback
        assert emb.pooled_frames == 15  # every frame centred in the 250 ms window

    def test_window_with_too_few_frames_has_no_embedding(self, scene, spec):
        # one 30 ms tracker frame, [0, 30 ms): only the first frame is centred in it
        short = frag(0, 0, 0, 0, DoA(30, 0))
        frames, _ = reassignment._window_frames(short, (0.0, 0.03), scene.mixture.num_samples, self.SR, 0.03)
        assert frames == slice(0, 1)
        for beamformer in BEAMFORMERS:
            assert extract_fragment_embedding(scene, spec, short, DurationPolicy(), beamformer, 0.03) is None


class TestWindowFrames:
    SR = 16000
    NUM_SAMPLES = 30 * SR

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.floats(min_value=0.0, max_value=29.9),
        length=st.floats(min_value=0.01, max_value=30.0),
        overlapped=st.sets(st.integers(min_value=0, max_value=299), max_size=20),
    )
    def test_frames_are_those_centred_in_the_window(self, start, length, overlapped):
        hop = 0.1
        window = (start, min(30.0, start + length))
        f = frag(0, 0, 0, 0, overlapped=sorted(overlapped))
        frames, free = reassignment._window_frames(f, window, self.NUM_SAMPLES, self.SR, hop)
        centers = analysis_frame_centers(self.NUM_SAMPLES, self.SR)
        a, b = round(window[0] * self.SR), round(window[1] * self.SR)
        inside = centers[frames]
        assert np.all((inside >= a) & (inside < b))
        if frames.start > 0:
            assert centers[frames.start - 1] < a
        if frames.stop < len(centers):
            assert centers[frames.stop] >= b
        tracker_frames = np.floor(inside / (hop * self.SR)).astype(int)
        assert free.tolist() == [t not in overlapped for t in tracker_frames]


class TestRunPipeline:
    def test_jump_scene_improves_assa(self):
        # seed 2 produces a scene whose jumps break the tracker's identities
        scene = simulate(SceneSpec(seed=2, duration=30.0))
        result = run_pipeline(scene, "gt", "ideal", DurationPolicy(), m=2, seed=44)
        before = evaluate_scene(scene.ground_truth, result.before, scene.duration, 0.1)
        after = evaluate_scene(scene.ground_truth, result.after, scene.duration, 0.1)
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
        before = evaluate_scene(scene.ground_truth, result.before, scene.duration, 0.1)
        after = evaluate_scene(scene.ground_truth, result.after, scene.duration, 0.1)
        assert before.assa == pytest.approx(1.0)
        assert after.assa == pytest.approx(1.0)

    def test_deterministic(self):
        scene = simulate(SceneSpec(seed=9, duration=12.0))
        a = run_pipeline(scene, "gt", "ds", DurationPolicy(500), m=2, seed=46)
        b = run_pipeline(scene, "gt", "ds", DurationPolicy(500), m=2, seed=46)
        assert a.assignment.assignments == b.assignment.assignments
        for ta, tb in zip(a.after, b.after):
            assert ta.frames == tb.frames

    def test_short_fragment_fallback_in_pipeline(self):
        # tiny hop makes one-frame fragments shorter than the embeddable minimum
        scene = simulate(SceneSpec(seed=10, duration=8.0))
        result = run_pipeline(scene, "gt", "ideal", DurationPolicy(), m=2, seed=47, hop=0.05)
        assert len(result.assignment.assignments) == len(result.fragments)

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

    HOP = 0.1
    GATED = [(2, "mvdr", DurationPolicy(), "gated"), (2, "mvdr", DurationPolicy(250), "gated")]

    @pytest.fixture(scope="class")
    def inputs(self):
        scene = simulate(SceneSpec(seed=12, duration=10.0))
        tracks_by_m, pool = track_and_enroll(scene, (51,), "gt", [2], self.HOP)
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
        results = list(reassign_scene(scene, tracks_by_m, pool, self.GATED, self.HOP))
        tracks = {f.source_track_id for f in results[0].fragments}
        assert len(results[0].fragments) > len(tracks)  # fragments share tracks
        assert len(calls) == len(tracks)

    def test_ds_and_oracle_cells_estimate_no_gated_covariance(self, inputs, monkeypatch):
        scene, tracks_by_m, pool = inputs
        calls = self.count_calls(monkeypatch, "band_covariances")
        gated = self.count_calls(monkeypatch, "gated_noise_reference")
        cells = [(2, "ds", DurationPolicy(), "gated"), (2, "mvdr", DurationPolicy(), "oracle")]
        results = list(reassign_scene(scene, tracks_by_m, pool, cells, self.HOP))
        assert gated == []
        assert len(calls) == len(results[1].fragments)  # the oracle's own window, per fragment

    def test_equals_per_fragment_estimation(self, inputs, monkeypatch):
        scene, tracks_by_m, pool = inputs
        reassign_calls = self.count_calls(monkeypatch, "reassign")  # (fragments, embeddings, ...)
        results = list(reassign_scene(scene, tracks_by_m, pool, self.GATED, self.HOP))
        num_frames = int(round(scene.duration / self.HOP))
        inactive = {
            traj.track_id: sorted(set(range(num_frames)) - {t for t, _, a in traj.frames if a})
            for traj in tracks_by_m[2]
        }

        spec = foa_stft(scene.mixture)

        def per_fragment(track_id):
            mask = gated_noise_reference(scene.mixture, inactive[track_id], self.HOP)
            return band_covariances(spec, mask), bool(mask.all())

        for (_m, _bf, policy, _src), result, (fragments, got, *_) in zip(
            self.GATED, results, reassign_calls
        ):
            diagnostics = MvdrDiagnostics(gated_fallback_tracks=set())
            for f in fragments:
                expected = extract_fragment_embedding(
                    scene, spec, f, policy, "mvdr", self.HOP, "gated", per_fragment, diagnostics
                )
                assert (got[f.fragment_id] is None) == (expected is None)
                if expected is not None:
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
        results = list(reassign_scene(scene, tracks_by_m, pool, self.GATED, self.HOP))
        assert results[0].mvdr_diagnostics.total_bands > 0
        assert len(calls) == 4  # foa_stft's four channels, and nothing else

    def test_track_active_for_the_whole_scene_is_counted(self, inputs):
        scene, tracks_by_m, pool = inputs
        n = int(round(scene.duration / self.HOP))
        whole = Trajectory(7, [(t, DoA(40, 0), True) for t in range(n)])
        gapped = Trajectory(8, [(t, DoA(-60, 0), t < n // 2) for t in range(n)])
        results = list(reassign_scene(scene, {2: [whole, gapped]}, pool, self.GATED, self.HOP))
        for result in results:
            assert result.mvdr_diagnostics.gated_fallback_tracks == {7}
            doc = assignment_to_dict(result.assignment, result.mvdr_diagnostics)
            assert doc["mvdr_gated_fallback_tracks"] == 1
        ds_cell = [(2, "ds", DurationPolicy(), "gated")]
        ds = next(reassign_scene(scene, {2: [whole, gapped]}, pool, ds_cell, self.HOP))
        assert ds.mvdr_diagnostics.gated_fallback_tracks is None
        doc = assignment_to_dict(ds.assignment, ds.mvdr_diagnostics)
        assert "mvdr_gated_fallback_tracks" not in doc
