import math
from dataclasses import dataclass

import numpy as np
import pytest

from embtrack.geometry import DoA, angular_distance, doa_from_unit_vector, uniform_sphere
from embtrack.metrics import evaluate_scene
from embtrack.scene import SpeakerGroundTruth, VoiceParams
from embtrack.tracking import (
    BIRTH_PROBABILITY,
    DEATH_FRAMES,
    NoiseModel,
    ObservationFrame,
    SphericalParticleFilter,
    TrackerConfig,
    Trajectory,
    est_tracker_config,
    gt_tracker_config,
    observe_est,
    observe_gt,
    track,
)

VOICE = VoiceParams(f0=120.0, spectral_tilt=-6.0, resonances=(), modulation_rate=3.0)


def make_gt(segments_by_speaker):
    out = []
    for j, segments in enumerate(segments_by_speaker):
        gt = SpeakerGroundTruth(speaker_id=j, voice=VOICE)
        gt.segments = [(on, off, doa) for on, off, doa in segments]
        out.append(gt)
    return out


class TestObserveGt:
    def test_single_speaker_every_frame(self):
        gt = make_gt([[(0.0, 2.0, DoA(30, 0))]])
        frames = observe_gt(gt)
        assert len(frames) == 20
        for i, frame in enumerate(frames):
            assert frame.frame_index == i
            assert len(frame.detections) == 1
            doa, conf = frame.detections[0]
            assert doa == DoA(30, 0)
            assert conf == 1.0

    def test_inactive_frames_empty(self):
        gt = make_gt([[(0.5, 1.0, DoA(0, 0))]])
        frames = observe_gt(gt, duration=2.0)
        assert len(frames) == 20
        assert frames[0].detections == []
        assert len(frames[7].detections) == 1
        assert frames[15].detections == []

    def test_two_active_speakers_two_detections(self):
        gt = make_gt([[(0.0, 1.0, DoA(10, 0))], [(0.0, 1.0, DoA(-60, 10))]])
        frames = observe_gt(gt)
        assert all(len(f.detections) == 2 for f in frames)


class TestObserveEst:
    def test_degenerate_noise_equals_gt(self):
        gt = make_gt([[(0.0, 1.5, DoA(25, -10))]])
        clean = observe_gt(gt)
        noisy = observe_est(
            gt, noise_model=NoiseModel(math.inf, 0.0, 0.0), seed=3
        )
        for a, b in zip(clean, noisy):
            assert a.frame_index == b.frame_index
            assert len(a.detections) == len(b.detections)
            for (da, _), (db, _) in zip(a.detections, b.detections):
                assert angular_distance(da, db) < 1e-5

    def test_all_missed(self):
        gt = make_gt([[(0.0, 1.0, DoA(0, 0))]])
        frames = observe_est(gt, noise_model=NoiseModel(124.0, 1.0, 0.0), seed=0)
        assert all(f.detections == [] for f in frames)

    def test_mean_error_calibration(self):
        gt = make_gt([[(0.0, 300.0, DoA(40, 20))]])
        frames = observe_est(gt, noise_model=NoiseModel(124.0, 0.0, 0.0), seed=5)
        errors = [angular_distance(f.detections[0][0], DoA(40, 20)) for f in frames]
        assert 6.0 <= float(np.mean(errors)) <= 7.0

    def test_false_alarm_rate(self):
        gt = make_gt([[(0.0, 200.0, DoA(0, 0))]])
        frames = observe_est(gt, noise_model=NoiseModel(124.0, 0.0, 0.5), seed=9)
        extra = sum(len(f.detections) - 1 for f in frames)
        assert extra / len(frames) == pytest.approx(0.5, rel=0.2)

    def test_deterministic(self):
        gt = make_gt([[(0.0, 5.0, DoA(0, 0))]])
        model = NoiseModel(124.0, 0.1, 0.2)
        a = observe_est(gt, model, seed=12)
        b = observe_est(gt, model, seed=12)
        assert all(
            len(fa.detections) == len(fb.detections)
            and all(da == db for (da, _), (db, _) in zip(fa.detections, fb.detections))
            for fa, fb in zip(a, b)
        )


class TestParticleFilter:
    def test_weights_normalized_after_update(self):
        rng = np.random.default_rng(0)
        pf = SphericalParticleFilter(rng, np.array([1.0, 0.0, 0.0]), gt_tracker_config(2))
        for _ in range(20):
            pf.step(rng, np.array([1.0, 0.0, 0.0]))
            assert np.all(pf.weights >= 0)
            assert np.sum(pf.weights) == pytest.approx(1.0)

    def test_resampling_triggers_on_low_ess(self):
        rng = np.random.default_rng(0)
        cfg = gt_tracker_config(2)
        pf = SphericalParticleFilter(rng, np.array([1.0, 0.0, 0.0]), cfg)
        # skewed weights: one far observation makes most particles unlikely
        pf.step(rng, np.array([0.0, 1.0, 0.0]))
        ess = 1.0 / np.sum(pf.weights**2)
        # after a resample weights are uniform again
        assert ess == pytest.approx(len(pf.weights), rel=1e-6)

    def test_mean_converges_to_observation(self):
        rng = np.random.default_rng(1)
        target = np.array([0.0, 1.0, 0.0])
        pf = SphericalParticleFilter(rng, target, gt_tracker_config(2))
        for _ in range(30):
            pf.step(rng, target)
        assert float(pf.mean @ target) > 0.999


class TestTrack:
    def test_empty_observations_empty_output(self):
        assert track([], gt_tracker_config(2)) == []

    def test_single_static_source(self):
        gt = make_gt([[(0.0, 10.0, DoA(30, 10))]])
        frames = observe_gt(gt)
        trajectories = track(frames, gt_tracker_config(2, seed=0))
        assert len(trajectories) == 1
        metrics = evaluate_scene(gt, trajectories, 10.0)
        assert metrics.le <= 5.0
        assert metrics.tsr == 0.0
        assert metrics.tfr == 0.0
        assert metrics.assa == pytest.approx(1.0)

    def test_reappearance_far_away_makes_two_trajectories(self):
        gt = make_gt([[(0.0, 3.0, DoA(0, 0)), (6.0, 9.0, DoA(90, 0))]])
        frames = observe_gt(gt, duration=9.0)
        cfg = gt_tracker_config(4, seed=0)  # death spans 0.5 s < 3 s gap
        trajectories = track(frames, cfg)
        assert len(trajectories) == 2

    def test_reappearance_same_place_resumes_track(self):
        gt = make_gt([[(0.0, 3.0, DoA(0, 0)), (6.0, 9.0, DoA(0, 0))]])
        frames = observe_gt(gt, duration=9.0)
        trajectories = track(frames, gt_tracker_config(4, seed=0))
        assert len(trajectories) == 1

    def test_two_distant_sources_perfect_association(self):
        gt = make_gt(
            [[(0.0, 8.0, DoA(0, 0))], [(0.0, 8.0, DoA(90, 0))]]
        )
        frames = observe_gt(gt)
        trajectories = track(frames, gt_tracker_config(2, seed=0))
        assert len(trajectories) == 2
        metrics = evaluate_scene(gt, trajectories, 8.0)
        assert metrics.assa == pytest.approx(1.0)

    def test_track_count_never_exceeds_budget(self):
        rng = np.random.default_rng(2)
        frames = []
        for t in range(100):
            detections = [
                (DoA(float(az), 0.0), 1.0)
                for az in rng.uniform(-180, 180, size=rng.integers(0, 5))
            ]
            frames.append(ObservationFrame(t, detections))
        cfg = TrackerConfig(max_tracks=3, seed=1)
        trajectories = track(frames, cfg)
        assert len(trajectories) <= 3
        ids = [tr.track_id for tr in trajectories]
        assert ids == sorted(set(ids))

    def test_no_detection_shared_between_tracks(self):
        # two detections per frame, two tracks: per-frame claimed DoAs differ
        gt = make_gt([[(0.0, 5.0, DoA(0, 0))], [(0.0, 5.0, DoA(120, 0))]])
        frames = observe_gt(gt)
        trajectories = track(frames, gt_tracker_config(2, seed=0))
        per_frame = {}
        for tr in trajectories:
            for i, doa, active in tr.frames:
                if active:
                    per_frame.setdefault(i, []).append(doa)
        for doas in per_frame.values():
            if len(doas) == 2:
                assert angular_distance(doas[0], doas[1]) > 60.0

    def test_frame_indices_strictly_increasing(self):
        gt = make_gt([[(0.0, 2.0, DoA(0, 0)), (4.0, 6.0, DoA(40, 0)), (8.0, 10.0, DoA(-90, 0))]])
        frames = observe_gt(gt, duration=10.0)
        for tr in track(frames, gt_tracker_config(2, seed=3)):
            indices = [i for i, _, _ in tr.frames]
            assert indices == sorted(indices)
            assert len(set(indices)) == len(indices)

    def test_error_shrinks_with_filtering(self):
        gt = make_gt([[(0.0, 20.0, DoA(0, 0))]])
        model = NoiseModel(kappa_error=124.0, miss_prob=0.0, false_alarm_rate=0.0)
        frames = observe_est(gt, model, seed=4)
        cfg = TrackerConfig(max_tracks=1, kappa_observation=120.0, gate_deg=30.0, seed=0)
        (trajectory,) = track(frames, cfg)
        errors = [
            angular_distance(doa, DoA(0, 0)) for _, doa, active in trajectory.frames if active
        ]
        # averaged filter estimate beats the raw single-observation error
        assert np.mean(errors[20:]) < 6.0

    def test_deterministic(self):
        gt = make_gt([[(0.0, 5.0, DoA(10, 5)), (7.0, 10.0, DoA(-120, 0))]])
        model = NoiseModel(124.0, 0.05, 0.1)
        frames = observe_est(gt, model, seed=8)
        a = track(frames, gt_tracker_config(3, seed=21))
        b = track(frames, gt_tracker_config(3, seed=21))
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            assert ta.track_id == tb.track_id
            assert ta.frames == tb.frames

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TrackerConfig(max_tracks=0)
        with pytest.raises(ValueError):
            TrackerConfig(max_tracks=1, gate_deg=0.0)


@dataclass
class _RefTrack:
    track_id: int
    filter: SphericalParticleFilter
    frames: list
    miss_streak: int = 0
    last_active_frame: int = 0
    alive: bool = True


@dataclass
class _RefCandidate:
    position: np.ndarray
    support: int
    last_frame: int
    history: list


def _reference_track(observations, config):
    """The tracker track replaced, with explicit support, position and
    liveness bookkeeping, kept as its reference."""
    rng = np.random.default_rng(config.seed)
    tracks, candidates = [], []
    gate = config.gate_deg

    def reinit(tr, position, t):
        tr.filter = SphericalParticleFilter(rng, position, config)
        tr.alive, tr.miss_streak, tr.last_active_frame = True, 0, t

    for frame in observations:
        t = frame.frame_index
        det_vecs = [doa.unit_vector() for doa, _ in frame.detections]
        alive = [tr for tr in tracks if tr.alive]
        pairs = []
        for tr in alive:
            for d, vec in enumerate(det_vecs):
                dist = math.degrees(math.acos(max(-1.0, min(1.0, float(tr.filter.mean @ vec)))))
                if dist <= gate:
                    pairs.append((dist, tr.track_id, d, tr))
        pairs.sort(key=lambda p: (p[0], p[1], p[2]))
        used_tracks, used_dets, assoc = set(), set(), []
        for dist, tid, d, tr in pairs:
            if tid in used_tracks or d in used_dets:
                continue
            used_tracks.add(tid)
            used_dets.add(d)
            assoc.append((tr, d))
        for tr, d in sorted(assoc, key=lambda a: a[0].track_id):
            tr.filter.step(rng, det_vecs[d])
            tr.miss_streak = 0
            tr.last_active_frame = t
            tr.frames.append((t, doa_from_unit_vector(tr.filter.mean), True))
        for tr in alive:
            if tr.track_id in used_tracks:
                continue
            tr.miss_streak += 1
            if tr.miss_streak >= DEATH_FRAMES:
                tr.alive = False
            else:
                tr.frames.append((t, doa_from_unit_vector(tr.filter.mean), False))
        updated = set()
        for d, vec in enumerate(det_vecs):
            if d in used_dets:
                continue
            best, best_dist = None, gate
            for c, cand in enumerate(candidates):
                if c in updated:
                    continue
                dist = math.degrees(math.acos(max(-1.0, min(1.0, float(cand.position @ vec)))))
                if dist <= best_dist:
                    best, best_dist = c, dist
            if best is not None:
                cand = candidates[best]
                cand.position = vec
                cand.support += 1
                cand.last_frame = t
                cand.history.append((t, frame.detections[d][0]))
                updated.add(best)
            elif rng.random() < BIRTH_PROBABILITY:
                candidates.append(_RefCandidate(vec, 1, t, [(t, frame.detections[d][0])]))
                updated.add(len(candidates) - 1)
        candidates = [c for c in candidates if c.last_frame == t]
        remaining = []
        for cand in candidates:
            if cand.support < config.birth_confirm_frames:
                remaining.append(cand)
                continue
            dead = [tr for tr in tracks if not tr.alive]
            near = []
            for tr in dead:
                dist = math.degrees(
                    math.acos(max(-1.0, min(1.0, float(tr.filter.mean @ cand.position))))
                )
                if dist <= gate:
                    near.append((dist, tr.track_id, tr))
            if near:
                tr = min(near, key=lambda x: (x[0], x[1]))[2]
                reinit(tr, cand.position, t)
            elif len(tracks) < config.max_tracks:
                tr = _RefTrack(
                    len(tracks), SphericalParticleFilter(rng, cand.position, config), [],
                    last_active_frame=t,
                )
                tracks.append(tr)
            elif dead:
                tr = min(dead, key=lambda tr: (tr.last_active_frame, tr.track_id))
                reinit(tr, cand.position, t)
            else:
                remaining.append(cand)
                continue
            last_emitted = tr.frames[-1][0] if tr.frames else -1
            tr.frames.extend((fi, doa, True) for fi, doa in cand.history[:-1] if fi > last_emitted)
            tr.frames.append((t, doa_from_unit_vector(tr.filter.mean), True))
        candidates = remaining
    return [Trajectory(tr.track_id, tr.frames) for tr in tracks if tr.frames]


def random_gt(rng, num_speakers, duration, turn_s, pause_s):
    """Speakers with random turns and pauses, each turn at a random DoA."""
    segments_by_speaker = []
    for _ in range(num_speakers):
        segments, t = [], rng.uniform(0.0, pause_s[1])
        while t < duration:
            end = min(t + rng.uniform(*turn_s), duration)
            segments.append((t, end, DoA(rng.uniform(-180, 180), rng.uniform(-40, 40))))
            t = end + rng.uniform(*pause_s)
        segments_by_speaker.append(segments)
    return make_gt(segments_by_speaker)


def fast_turn_taking_gt(rng, num_speakers, duration):
    """One speaker at a time, in short turns from far-apart DoAs."""
    azimuths = np.linspace(-180, 180, num_speakers, endpoint=False)
    segments_by_speaker = [[] for _ in range(num_speakers)]
    t = 0.0
    while t < duration:
        j = int(rng.integers(num_speakers))
        end = min(t + rng.uniform(0.3, 1.2), duration)
        segments_by_speaker[j].append((t, end, DoA(azimuths[j], 0.0)))
        t = end + rng.uniform(0.0, 1.0)
    return make_gt(segments_by_speaker)


class TestReferenceEquality:
    """track must emit exactly the ids and frames of _reference_track."""

    DURATION = 40.0

    @staticmethod
    def assert_same(observations, config):
        ours = track(observations, config)
        ref = _reference_track(observations, config)
        assert [(tr.track_id, tr.frames) for tr in ours] == [
            (tr.track_id, tr.frames) for tr in ref
        ]

    def observations(self, gt, variant, seed):
        if variant == "gt":
            return observe_gt(gt, self.DURATION)
        return observe_est(gt, seed=seed, duration=self.DURATION)

    @pytest.mark.parametrize("variant", ["gt", "est"])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_random_ground_truth(self, variant, m):
        maker = gt_tracker_config if variant == "gt" else est_tracker_config
        for seed in range(3):
            rng = np.random.default_rng([m, seed])
            gt = random_gt(rng, m + 1, self.DURATION, (0.3, 4.0), (0.2, 3.0))
            self.assert_same(self.observations(gt, variant, seed), maker(m, seed))

    @pytest.mark.parametrize("variant", ["gt", "est"])
    def test_fast_turn_taking_single_label(self, variant):
        maker = gt_tracker_config if variant == "gt" else est_tracker_config
        for seed in range(3):
            gt = fast_turn_taking_gt(np.random.default_rng(seed), 3, self.DURATION)
            self.assert_same(self.observations(gt, variant, seed), maker(1, seed))
