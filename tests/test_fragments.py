import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrack.fragments import DurationPolicy, extraction_window, segment, window_doa
from embtrack.geometry import DoA
from embtrack.tracking import Trajectory


def traj_from_mask(track_id, mask, doa=DoA(0, 0)):
    return Trajectory(track_id, [(i, doa, bool(m)) for i, m in enumerate(mask)])


class TestSegment:
    def test_two_runs(self):
        mask = [1] * 10 + [0] * 10 + [1] * 10
        frags = segment([traj_from_mask(0, mask)])
        assert len(frags) == 2
        assert (frags[0].onset_frame, frags[0].offset_frame) == (0, 9)
        assert (frags[1].onset_frame, frags[1].offset_frame) == (20, 29)

    def test_fully_active_single_fragment(self):
        frags = segment([traj_from_mask(0, [1] * 25)])
        assert len(frags) == 1
        assert frags[0].offset_frame - frags[0].onset_frame + 1 == 25

    def test_global_onset_order_and_ids(self):
        t0 = traj_from_mask(0, [0, 0, 1, 1, 0, 0, 0, 1, 1, 1])
        t1 = traj_from_mask(1, [1, 1, 0, 0, 0, 1, 1, 0, 0, 0])
        t2 = traj_from_mask(2, [0, 0, 1, 0, 1, 1, 0, 0, 0, 0])
        frags = segment([t2, t0, t1])  # input order must not matter
        onsets = [(f.onset_frame, f.source_track_id) for f in frags]
        assert onsets == sorted(onsets)
        assert [f.fragment_id for f in frags] == list(range(len(frags)))

    def test_partition_is_lossless(self):
        rng = np.random.default_rng(0)
        trajectories = [
            traj_from_mask(k, rng.integers(0, 2, size=50).tolist()) for k in range(3)
        ]
        frags = segment(trajectories)
        for traj in trajectories:
            active = {i for i, _, m in traj.frames if m}
            covered = set()
            for f in frags:
                if f.source_track_id == traj.track_id:
                    span = set(range(f.onset_frame, f.offset_frame + 1))
                    assert not span & covered  # no frame in two fragments
                    covered |= span
            assert covered == active

    @given(st.lists(st.booleans(), min_size=0, max_size=60))
    @settings(max_examples=100)
    def test_partition_property(self, mask):
        frags = segment([traj_from_mask(0, mask)])
        covered = sorted(
            i for f in frags for i in range(f.onset_frame, f.offset_frame + 1)
        )
        assert covered == [i for i, m in enumerate(mask) if m]
        # maximality: fragments are separated by at least one inactive frame
        for a, b in zip(frags, frags[1:]):
            assert b.onset_frame > a.offset_frame + 1

    def test_gap_in_frame_indices_splits_fragment(self):
        # a dead track re-emitting later produces non-consecutive active frames
        traj = Trajectory(0, [(0, DoA(0, 0), True), (1, DoA(0, 0), True), (5, DoA(0, 0), True)])
        frags = segment([traj])
        assert [(f.onset_frame, f.offset_frame) for f in frags] == [(0, 1), (5, 5)]

    def test_representative_doa_is_spherical_mean(self):
        traj = Trajectory(0, [(0, DoA(10, 0), True), (1, DoA(-10, 0), True)])
        (frag,) = segment([traj])
        assert frag.representative_doa.azimuth == pytest.approx(0.0, abs=1e-9)
        assert frag.representative_doa.elevation == pytest.approx(0.0, abs=1e-9)


class TestOverlappedFrames:
    def test_records_frames_shared_with_another_track(self):
        t0 = traj_from_mask(0, [1] * 8 + [0] * 2 + [1] * 3)  # active 0-7 and 10-12
        t1 = traj_from_mask(1, [0] * 5 + [1] * 4 + [0] * 4)  # active 5-8
        frags = segment([t0, t1])
        spans = {(f.source_track_id, f.onset_frame): f.overlapped_frames for f in frags}
        assert spans == {(0, 0): (5, 6, 7), (1, 5): (5, 6, 7), (0, 10): ()}

    def test_lone_track_has_no_overlapped_frames(self):
        frags = segment([traj_from_mask(0, [1] * 5 + [0] * 3 + [1] * 4)])
        assert len(frags) == 2
        assert all(f.overlapped_frames == () for f in frags)


class TestDurationPolicy:
    def test_parse(self):
        assert DurationPolicy.parse("whole").is_whole
        assert DurationPolicy.parse("250").prefix_ms == 250
        assert DurationPolicy.parse("750ms").prefix_ms == 750

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DurationPolicy(0)


class TestExtractionWindow:
    def test_prefix_window(self):
        (frag,) = segment([traj_from_mask(0, [1] * 30)])  # 3 s at 0.1 hop
        start, end = extraction_window(frag, DurationPolicy(750))
        assert start == pytest.approx(0.0)
        assert end == pytest.approx(0.75)

    def test_short_fragment_clipped(self):
        (frag,) = segment([traj_from_mask(0, [1, 1])])  # 0.2 s
        start, end = extraction_window(frag, DurationPolicy(250))
        assert (start, end) == (pytest.approx(0.0), pytest.approx(0.2))

    def test_whole_spans_fragment(self):
        mask = [0] * 5 + [1] * 20
        (frag,) = segment([traj_from_mask(0, mask)])
        start, end = extraction_window(frag, DurationPolicy(None))
        assert (start, end) == (pytest.approx(0.5), pytest.approx(2.5))

    def test_window_stays_inside_fragment(self):
        mask = [0] * 3 + [1] * 7
        (frag,) = segment([traj_from_mask(0, mask)])
        for policy in (DurationPolicy(None), DurationPolicy(250), DurationPolicy(1500)):
            start, end = extraction_window(frag, policy)
            assert start == pytest.approx(frag.onset_frame * 0.1)
            assert end <= (frag.offset_frame + 1) * 0.1 + 1e-12


class TestWindowDoa:
    def test_whole_uses_representative(self):
        traj = Trajectory(0, [(0, DoA(10, 0), True), (1, DoA(-10, 0), True)])
        (frag,) = segment([traj])
        doa = window_doa(frag, DurationPolicy(None))
        assert doa == frag.representative_doa

    def test_prefix_uses_leading_frames(self):
        frames = [(0, DoA(0, 0), True), (1, DoA(0, 0), True)] + [
            (i, DoA(90, 0), True) for i in range(2, 10)
        ]
        (frag,) = segment([Trajectory(0, frames)])
        doa = window_doa(frag, DurationPolicy(200))
        assert doa.azimuth == pytest.approx(0.0, abs=1e-9)
