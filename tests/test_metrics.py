import itertools
import math

import numpy as np
import pytest

from embtrack.geometry import DoA, angular_distance
from embtrack.metrics import (
    FrameMatching,
    _assign,
    aggregate_report,
    assa,
    bootstrap_stats,
    evaluate_scene,
    le,
    match_frames,
    prediction_frame_doas,
    swap_frag_rates,
)
from embtrack.scene import SpeakerGroundTruth, VoiceParams
from embtrack.tracking import Trajectory

VOICE = VoiceParams(f0=120.0, spectral_tilt=-6.0, resonances=(), modulation_rate=3.0)


def brute_force_match(gt_doas, pred_doas, alpha):
    """Oracle: enumerate all injective assignments, maximize TP count then
    minimize total matched distance."""
    gt_ids = sorted(gt_doas, key=str)
    pred_ids = sorted(pred_doas, key=str)
    k = min(len(gt_ids), len(pred_ids))
    best = (0, 0.0)  # (-tp, total distance), lexicographic minimum wins
    first = True
    for chosen_gt in itertools.permutations(gt_ids, k):
        for chosen_pred in itertools.combinations(pred_ids, k):
            pairs = list(zip(chosen_gt, chosen_pred))
            dists = [angular_distance(gt_doas[g], pred_doas[p]) for g, p in pairs]
            kept = [d for d in dists if d <= alpha]
            cand = (-len(kept), sum(kept))
            if first or cand < best:
                best = cand
                first = False
    return -best[0], best[1]


def matching_from_pairs(frames):
    """Build a FrameMatching from [(matches, unmatched_gt, unmatched_pred)]."""
    m = FrameMatching(alpha_deg=20.0)
    for matches, un_gt, un_pred in frames:
        m.matches.append([(g, p, d) for g, p, d in matches])
        m.unmatched_gt.append(list(un_gt))
        m.unmatched_pred.append(list(un_pred))
    return m


class TestMatchFrames:
    def test_close_pair_matched(self):
        matching = match_frames([{0: DoA(0, 0)}], [{7: DoA(5, 0)}], alpha_deg=20.0)
        assert matching.matches[0] == [(0, 7, pytest.approx(5.0))]
        assert matching.tp == 1 and matching.fn == 0 and matching.fp == 0

    def test_far_pair_unmatched(self):
        matching = match_frames([{0: DoA(0, 0)}], [{7: DoA(25, 0)}], alpha_deg=20.0)
        assert matching.matches[0] == []
        assert matching.fn == 1 and matching.fp == 1

    def test_matches_maximize_tp_then_distance(self):
        # greedy nearest would pair (g0, p0) and strand g1
        gt = {0: DoA(0, 0), 1: DoA(10, 0)}
        pred = {0: DoA(4, 0), 1: DoA(-15, 0)}
        matching = match_frames([gt], [pred], alpha_deg=20.0)
        assert len(matching.matches[0]) == 2

    def test_agrees_with_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n_gt = int(rng.integers(0, 6))
            n_pred = int(rng.integers(0, 6))
            gt = {
                g: DoA(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
                for g in range(n_gt)
            }
            pred = {
                p: DoA(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
                for p in range(n_pred)
            }
            alpha = float(rng.uniform(10, 120))
            matching = match_frames([gt], [pred], alpha_deg=alpha)
            tp_oracle, dist_oracle = brute_force_match(gt, pred, alpha)
            assert matching.tp == tp_oracle
            total = sum(d for _, _, d in matching.matches[0])
            assert total == pytest.approx(dist_oracle, abs=1e-9)

    def test_matched_distances_equal_angular_distance_exactly(self):
        # Unit vectors made once per frame give angular_distance's bits.
        rng = np.random.default_rng(1)
        gt_frames, pred_frames = [], []
        for _ in range(200):
            gt_frames.append({g: DoA(*rng.uniform([-180, -90], [180, 90])) for g in range(3)})
            pred_frames.append({p: DoA(*rng.uniform([-180, -90], [180, 90])) for p in "abcd"})
        matching = match_frames(gt_frames, pred_frames, alpha_deg=180.0)
        for gt, pred, matches in zip(gt_frames, pred_frames, matching.matches):
            assert len(matches) == 3
            for g, p, d in matches:
                assert d == angular_distance(gt[g], pred[p])


class TestAssign:
    def test_within_alpha_pairs_match_a_reference_solver(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(10)
        alpha = 20.0
        for trial in range(3000):
            n_rows, n_cols = (int(x) for x in rng.integers(1, 8, size=2))
            dist = rng.uniform(0.0, 60.0, size=(n_rows, n_cols))
            if trial % 3 == 0:
                dist = np.round(dist / 5.0) * 5.0  # exact ties
            cost = np.where(dist <= alpha, dist, 1e9)
            rows, cols = linear_sum_assignment(cost)
            expected = [(r, c) for r, c in zip(rows.tolist(), cols.tolist()) if dist[r, c] <= alpha]
            got = _assign(cost.tolist())
            assert [(r, c) for r, c in got if dist[r, c] <= alpha] == expected
            assert len(got) == min(n_rows, n_cols)
            assert sum(cost[r, c] for r, c in got) == pytest.approx(cost[rows, cols].sum())

    def test_one_by_one(self):
        assert _assign([[3.5]]) == [(0, 0)]

    def test_more_rows_than_columns(self):
        cost = [[5.0, 2.0], [1.0, 9.0], [0.5, 0.5], [7.0, 7.0]]
        assert _assign(cost) == [(1, 0), (2, 1)]

    def test_all_forbidden_row(self):
        cost = [[1e9, 1e9, 1e9], [2.0, 1.0, 3.0]]
        got = _assign(cost)
        assert len(got) == 2 and got[1] == (1, 1)

    def test_more_gt_than_tracks_and_a_forbidden_gt(self):
        gt = {0: DoA(0, 0), 1: DoA(30, 0), 2: DoA(120, 0)}
        pred = {"a": DoA(28, 0), "b": DoA(3, 0)}
        matching = match_frames([gt], [pred], alpha_deg=20.0)
        assert [(g, p) for g, p, _ in matching.matches[0]] == [(0, "b"), (1, "a")]
        assert matching.unmatched_gt == [[2]] and matching.unmatched_pred == [[]]
        far = match_frames([{0: DoA(0, 0), 1: DoA(90, 0)}], [{"a": DoA(170, 0)}], alpha_deg=20.0)
        assert far.matches == [[]] and far.fn == 2 and far.fp == 1


class TestAssa:
    def test_perfect_tracking(self):
        frames = [([("g", "p", 0.0)], [], []) for _ in range(50)]
        assert assa(matching_from_pairs(frames)) == 1.0

    def test_half_split_two_tracks(self):
        # one GT covered half by track A, half by track B -> 0.5
        frames = [([("g", "A", 0.0)], [], []) for _ in range(25)]
        frames += [([("g", "B", 0.0)], [], []) for _ in range(25)]
        assert assa(matching_from_pairs(frames)) == pytest.approx(0.5)

    def test_swap_case_hand_computed(self):
        # 2 GTs, 2 tracks, full exchange at midpoint of a 100-frame scene.
        # Each of the four TP classes covers 50 frames; its GT appears 100
        # frames and its track 100 frames, so TPA=50, FNA=50, FPA=50 and
        # A(c) = 50/150 = 1/3 for every class.
        frames = []
        for _ in range(50):
            frames.append(([("g0", "A", 0.0), ("g1", "B", 0.0)], [], []))
        for _ in range(50):
            frames.append(([("g0", "B", 0.0), ("g1", "A", 0.0)], [], []))
        assert assa(matching_from_pairs(frames)) == pytest.approx(1.0 / 3.0)

    def test_half_split_with_no_other_usage_is_half(self):
        # the 0.5 case: GT g split between A and B, and A/B track nothing else
        frames = [([("g", "A", 0.0)], [], []) for _ in range(30)]
        frames += [([("g", "B", 0.0)], [], []) for _ in range(30)]
        matching = matching_from_pairs(frames)
        # TPA=30, FNA=30, FPA=0 -> 0.5
        assert assa(matching) == pytest.approx(0.5)

    def test_zero_tps_is_zero(self):
        frames = [([], ["g"], ["p"]) for _ in range(5)]
        assert assa(matching_from_pairs(frames)) == 0.0

    def test_fn_frames_count_against_association(self):
        frames = [([("g", "A", 0.0)], [], []) for _ in range(30)]
        frames += [([], ["g"], []) for _ in range(10)]
        # TPA=30, FNA=10 -> 0.75
        assert assa(matching_from_pairs(frames)) == pytest.approx(0.75)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(1)
        frames = []
        for _ in range(40):
            matches = []
            for g in range(2):
                p = int(rng.integers(0, 3))
                matches.append((f"g{g}", f"p{p}", 0.0))
            # drop duplicate track claims
            seen = set()
            clean = []
            for g, p, d in matches:
                if p not in seen:
                    seen.add(p)
                    clean.append((g, p, d))
            frames.append((clean, [], []))
        base = assa(matching_from_pairs(frames))
        relabeled = [
            ([(f"G{g[-1]}", f"track_{p[-1]}", d) for g, p, d in matches], [], [])
            for matches, _, _ in frames
        ]
        assert assa(matching_from_pairs(relabeled)) == pytest.approx(base)

    def test_merging_fragments_never_decreases_assa(self):
        # GT g tracked by A then B; merging B into A can only help
        split = [([("g", "A", 0.0)], [], []) for _ in range(20)]
        split += [([("g", "B", 0.0)], [], []) for _ in range(20)]
        merged = [([("g", "A", 0.0)], [], []) for _ in range(40)]
        assert assa(matching_from_pairs(merged)) >= assa(matching_from_pairs(split))


class TestLe:
    def test_perfect_prediction(self):
        frames = [([("g", "p", 0.0)], [], []) for _ in range(10)]
        assert le(matching_from_pairs(frames)) == 0.0

    def test_constant_offset(self):
        frames = [([("g", "p", 5.0)], [], []) for _ in range(10)]
        assert le(matching_from_pairs(frames)) == pytest.approx(5.0)

    def test_mean_over_tps_only(self):
        frames = [([("g", "p", 4.0)], [], []), ([], ["g"], ["p"]), ([("g", "p", 8.0)], [], [])]
        assert le(matching_from_pairs(frames)) == pytest.approx(6.0)

    def test_independent_of_association_labels(self):
        frames_a = [([("g0", "A", 3.0), ("g1", "B", 7.0)], [], []) for _ in range(5)]
        frames_b = [([("g0", "B", 3.0), ("g1", "A", 7.0)], [], []) for _ in range(5)]
        assert le(matching_from_pairs(frames_a)) == le(matching_from_pairs(frames_b))


class TestSwapFragRates:
    def test_stable_matching_no_events(self):
        frames = [([("g", "p", 0.0)], [], []) for _ in range(100)]
        assert swap_frag_rates(matching_from_pairs(frames), 10.0) == (0.0, 0.0)

    def test_single_fragmentation(self):
        frames = [([("g", "A", 0.0)], [], []) for _ in range(50)]
        frames += [([("g", "B", 0.0)], [], []) for _ in range(50)]
        tsr, tfr = swap_frag_rates(matching_from_pairs(frames), 10.0)
        assert tfr == pytest.approx(0.1)  # 1 event / 10 s
        assert tsr == 0.0

    def test_exchange_counts_two_swaps_and_two_fragmentations(self):
        frames = [([("g0", "A", 0.0), ("g1", "B", 0.0)], [], []) for _ in range(50)]
        frames += [([("g0", "B", 0.0), ("g1", "A", 0.0)], [], []) for _ in range(50)]
        tsr, tfr = swap_frag_rates(matching_from_pairs(frames), 10.0)
        assert tsr == pytest.approx(0.2)
        assert tfr == pytest.approx(0.2)

    def test_events_persist_across_gaps(self):
        frames = [([("g", "A", 0.0)], [], []), ([], ["g"], []), ([("g", "B", 0.0)], [], [])]
        tsr, tfr = swap_frag_rates(matching_from_pairs(frames), 3.0)
        assert tfr == pytest.approx(1.0 / 3.0)


class TestBootstrap:
    def test_identical_scores_zero_std(self):
        rng = np.random.default_rng(0)
        mean, std = bootstrap_stats([0.7] * 20, 0.8, 100, rng)
        assert mean == pytest.approx(0.7)
        assert std == pytest.approx(0.0, abs=1e-12)

    def test_full_fraction_equals_plain_mean(self):
        rng = np.random.default_rng(0)
        values = [0.1, 0.5, 0.9, 0.3]
        mean, std = bootstrap_stats(values, 1.0, 50, rng)
        assert mean == pytest.approx(np.mean(values))
        assert std == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_per_seed(self):
        values = list(np.random.default_rng(3).uniform(0, 1, 30))
        a = bootstrap_stats(values, 0.8, 100, np.random.default_rng(42))
        b = bootstrap_stats(values, 0.8, 100, np.random.default_rng(42))
        assert a == b

    @pytest.mark.parametrize("n", [1, 2, 5, 50, 200, 1000])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.8, 1.0])
    def test_matches_one_subsample_mean_per_iteration(self, n, fraction):
        iters = 100
        for seed in range(5):
            values = np.random.default_rng(1000 + seed).uniform(0, 1, n)
            rng = np.random.default_rng(seed)
            k = max(1, math.ceil(fraction * n))
            means = np.array(
                [values[rng.choice(n, size=k, replace=False)].mean() for _ in range(iters)]
            )
            expected = (float(means.mean()), float(means.std()))
            got = bootstrap_stats(list(values), fraction, iters, np.random.default_rng(seed))
            assert got == expected

    def test_aggregate_report_shape(self):
        scenes = []
        rng = np.random.default_rng(1)
        for _ in range(150):
            gt = SpeakerGroundTruth(0, VOICE)
            gt.segments = [(0.0, 2.0, DoA(0, 0))]
            traj = Trajectory(0, [(i, DoA(0, 0), True) for i in range(20)])
            scenes.append(evaluate_scene([gt], [traj], 2.0))
        report = aggregate_report(scenes, fraction=0.8, iters=100, seed=5)
        assert report.mean["assa"] == pytest.approx(1.0)
        assert report.bootstrap_std["assa"] <= 0.01
        assert report.counts["scenes"] == 150

    def test_aggregate_report_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_report([])


class TestEvaluateScene:
    def test_end_to_end_perfect(self):
        gt = SpeakerGroundTruth(0, VOICE)
        gt.segments = [(0.0, 3.0, DoA(12, -4))]
        traj = Trajectory("spk", [(i, DoA(12, -4), True) for i in range(30)])
        m = evaluate_scene([gt], [traj], 3.0)
        assert m.assa == 1.0
        assert m.le == pytest.approx(0.0, abs=1e-4)
        assert (m.tsr, m.tfr) == (0.0, 0.0)
        assert (m.tp, m.fp, m.fn) == (30, 0, 0)

    def test_prediction_frames_ignore_inactive(self):
        traj = Trajectory(0, [(0, DoA(0, 0), True), (1, DoA(0, 0), False)])
        frames = prediction_frame_doas([traj], 2)
        assert len(frames[0]) == 1
        assert len(frames[1]) == 0
