"""Tracking evaluation: localization error, association accuracy over whole
trajectories, LOCATA-style swap/fragmentation rates, and bootstrap aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .geometry import DoA, angle_between
from .scene import SpeakerGroundTruth
from .tracking import Trajectory, gt_frame_doas, num_frames

DEFAULT_ALPHA_DEG = 20.0
DEFAULT_BOOTSTRAP_FRACTION = 0.8
DEFAULT_BOOTSTRAP_ITERS = 100
_FORBIDDEN = 1e9


@dataclass
class FrameMatching:
    """Per-frame bijective partial matching between GT speakers and tracks.

    Matches maximize the number of pairs within alpha degrees, then minimize
    the total angular distance (Hungarian assignment per frame).
    """

    alpha_deg: float
    matches: list[list[tuple[Hashable, Hashable, float]]] = field(default_factory=list)
    unmatched_gt: list[list[Hashable]] = field(default_factory=list)
    unmatched_pred: list[list[Hashable]] = field(default_factory=list)

    @property
    def tp(self) -> int:
        return sum(len(m) for m in self.matches)

    @property
    def fn(self) -> int:
        return sum(len(u) for u in self.unmatched_gt)

    @property
    def fp(self) -> int:
        return sum(len(u) for u in self.unmatched_pred)


def prediction_frame_doas(
    trajectories: list[Trajectory], num_frames: int
) -> list[dict[Hashable, DoA]]:
    """Active predicted DoAs per frame, keyed by track id."""
    frames: list[dict[Hashable, DoA]] = [{} for _ in range(num_frames)]
    for traj in trajectories:
        for frame_index, doa, active in traj.frames:
            if active and 0 <= frame_index < num_frames:
                frames[frame_index][traj.track_id] = doa
    return frames


def _assign(cost: list[list[float]]) -> list[tuple[int, int]]:
    """Minimum-cost assignment of min(rows, cols) (row, col) pairs of a
    rectangular cost matrix, sorted by row.

    Shortest augmenting paths with dual potentials (Crouse, IEEE TAES 2016):
    rows join one at a time, each by a Dijkstra search over the columns in
    reduced costs. A matrix with more rows than columns is solved transposed.
    Among columns at equal path cost the search prefers a free one, and it
    scans columns from the last, so an all-equal matrix gives the diagonal.
    """
    transpose = len(cost) > len(cost[0])
    if transpose:
        cost = [list(column) for column in zip(*cost)]
    n_cols = len(cost[0])
    u = [0.0] * len(cost)
    v = [0.0] * n_cols
    col4row = [-1] * len(cost)
    row4col = [-1] * n_cols
    path = [-1] * n_cols
    for cur in range(len(cost)):
        short = [math.inf] * n_cols
        seen_rows: list[int] = []
        seen_cols: list[int] = []
        remaining = list(range(n_cols - 1, -1, -1))
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            seen_rows.append(i)
            index, lowest = -1, math.inf
            for k, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < short[j]:
                    path[j] = i
                    short[j] = r
                if short[j] < lowest or (short[j] == lowest and row4col[j] == -1):
                    index, lowest = k, short[j]
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - short[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - short[j]
        j = sink
        while True:  # augment along the path back to the new row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    pairs = enumerate(col4row)
    return sorted((c, r) for r, c in pairs) if transpose else list(pairs)


def match_frames(
    gt_frames: list[dict[Hashable, DoA]],
    pred_frames: list[dict[Hashable, DoA]],
    alpha_deg: float = DEFAULT_ALPHA_DEG,
) -> FrameMatching:
    """Hungarian matching per frame on the angular-distance matrix; pairs
    beyond alpha are forbidden."""
    if len(gt_frames) != len(pred_frames):
        raise ValueError("ground truth and prediction frame counts differ")
    matching = FrameMatching(alpha_deg=alpha_deg)
    for gt_doas, pred_doas in zip(gt_frames, pred_frames):
        gt_ids = sorted(gt_doas, key=str)
        pred_ids = sorted(pred_doas, key=str)
        matched: list[tuple[Hashable, Hashable, float]] = []
        if gt_ids and pred_ids:
            # angular_distance, with each DoA's unit vector made once per frame.
            gt_units = [gt_doas[g].unit_vector() for g in gt_ids]
            pred_units = [pred_doas[p].unit_vector() for p in pred_ids]
            dist = [[angle_between(u, v) for v in pred_units] for u in gt_units]
            cost = [[d if d <= alpha_deg else _FORBIDDEN for d in row] for row in dist]
            for r, c in _assign(cost):
                if dist[r][c] <= alpha_deg:
                    matched.append((gt_ids[r], pred_ids[c], dist[r][c]))
        matched_gt = {g for g, _, _ in matched}
        matched_pred = {p for _, p, _ in matched}
        matching.matches.append(matched)
        matching.unmatched_gt.append([g for g in gt_ids if g not in matched_gt])
        matching.unmatched_pred.append([p for p in pred_ids if p not in matched_pred])
    return matching


def assa(matching: FrameMatching) -> float:
    """Association accuracy: mean over TPs of TPA / (TPA + FNA + FPA).

    For a TP c = (g, p), TPA counts frames where g is matched to p, FNA the
    frames where g appears without being matched to p, and FPA the frames
    where p appears without being matched to g. Zero TPs gives 0.
    """
    tpa: dict[tuple[Hashable, Hashable], int] = {}
    gt_count: dict[Hashable, int] = {}
    pred_count: dict[Hashable, int] = {}
    for matched, un_gt, un_pred in zip(matching.matches, matching.unmatched_gt, matching.unmatched_pred):
        for g, p, _ in matched:
            tpa[(g, p)] = tpa.get((g, p), 0) + 1
            gt_count[g] = gt_count.get(g, 0) + 1
            pred_count[p] = pred_count.get(p, 0) + 1
        for g in un_gt:
            gt_count[g] = gt_count.get(g, 0) + 1
        for p in un_pred:
            pred_count[p] = pred_count.get(p, 0) + 1
    total_tp = sum(tpa.values())
    if total_tp == 0:
        return 0.0
    score = 0.0
    for (g, p), n in tpa.items():
        fna = gt_count[g] - n
        fpa = pred_count[p] - n
        score += n * (n / (n + fna + fpa))
    return score / total_tp


def le(matching: FrameMatching) -> float:
    """Localization error: mean angular distance over matched pairs, degrees."""
    dists = [d for matched in matching.matches for _, _, d in matched]
    return float(np.mean(dists)) if dists else 0.0


def swap_frag_rates(matching: FrameMatching, scene_duration: float) -> tuple[float, float]:
    """(TSR, TFR) in events per second.

    Fragmentation: a GT id matched to a different track than its most recent
    prior match. Swap: a track matched to a different GT id than its most
    recent prior match.
    """
    last_track: dict[Hashable, Hashable] = {}
    last_gt: dict[Hashable, Hashable] = {}
    swaps = 0
    frags = 0
    for matched in matching.matches:
        for g, p, _ in matched:
            if g in last_track and last_track[g] != p:
                frags += 1
            if p in last_gt and last_gt[p] != g:
                swaps += 1
            last_track[g] = p
            last_gt[p] = g
    return swaps / scene_duration, frags / scene_duration


@dataclass
class SceneMetrics:
    assa: float
    le: float
    tsr: float
    tfr: float
    tp: int
    fp: int
    fn: int

    def as_dict(self) -> dict[str, float]:
        return {
            "assa": self.assa,
            "le": self.le,
            "tsr": self.tsr,
            "tfr": self.tfr,
            "tp": float(self.tp),
            "fp": float(self.fp),
            "fn": float(self.fn),
        }


METRIC_NAMES = ("assa", "le", "tsr", "tfr")


def evaluate_scene(
    ground_truth: list[SpeakerGroundTruth],
    trajectories: list[Trajectory],
    duration: float,
    *,
    alpha_deg: float = DEFAULT_ALPHA_DEG,
) -> SceneMetrics:
    """All metrics for one scene's predictions against its ground truth."""
    n_frames = num_frames(duration)
    matching = match_frames(
        gt_frame_doas(ground_truth, n_frames),
        prediction_frame_doas(trajectories, n_frames),
        alpha_deg,
    )
    tsr, tfr = swap_frag_rates(matching, duration)
    return SceneMetrics(
        assa=assa(matching),
        le=le(matching),
        tsr=tsr,
        tfr=tfr,
        tp=matching.tp,
        fp=matching.fp,
        fn=matching.fn,
    )


@dataclass
class MetricsReport:
    """Aggregate over scenes: plain means plus bootstrap mean/std per metric."""

    mean: dict[str, float]
    bootstrap_mean: dict[str, float]
    bootstrap_std: dict[str, float]
    counts: dict[str, int]
    per_scene: list[dict[str, float]]
    alpha_deg: float
    bootstrap_fraction: float
    bootstrap_iters: int

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "bootstrap_mean": self.bootstrap_mean,
            "bootstrap_std": self.bootstrap_std,
            "counts": self.counts,
            "per_scene": self.per_scene,
            "alpha_deg": self.alpha_deg,
            "bootstrap": {"fraction": self.bootstrap_fraction, "iters": self.bootstrap_iters},
        }


def bootstrap_stats(
    values: list[float], fraction: float, iters: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Mean and std over `iters` subsample means (without replacement).

    The subsamples are drawn one `rng.choice` call at a time, which fixes the
    random stream, and averaged in one gather: each row mean sums its k
    values in the order a single subsample's mean does.
    """
    n = len(values)
    k = max(1, math.ceil(fraction * n))
    arr = np.asarray(values)
    draws = np.array([rng.choice(n, size=k, replace=False) for _ in range(iters)])
    means = arr[draws].mean(axis=1)
    return float(means.mean()), float(means.std())


def aggregate_report(
    per_scene: list[SceneMetrics],
    fraction: float = DEFAULT_BOOTSTRAP_FRACTION,
    iters: int = DEFAULT_BOOTSTRAP_ITERS,
    seed: int = 0,
    alpha_deg: float = DEFAULT_ALPHA_DEG,
) -> MetricsReport:
    """Bootstrap aggregation of per-scene metrics, deterministic per seed."""
    if not per_scene:
        raise ValueError("no scenes to aggregate")
    rng = np.random.default_rng(seed)
    mean = {}
    boot_mean = {}
    boot_std = {}
    for name in METRIC_NAMES:
        values = [getattr(s, name) for s in per_scene]
        mean[name] = float(np.mean(values))
        bm, bs = bootstrap_stats(values, fraction, iters, rng)
        boot_mean[name] = bm
        boot_std[name] = bs
    counts = {
        "tp": sum(s.tp for s in per_scene),
        "fp": sum(s.fp for s in per_scene),
        "fn": sum(s.fn for s in per_scene),
        "scenes": len(per_scene),
    }
    return MetricsReport(
        mean=mean,
        bootstrap_mean=boot_mean,
        bootstrap_std=boot_std,
        counts=counts,
        per_scene=[s.as_dict() for s in per_scene],
        alpha_deg=alpha_deg,
        bootstrap_fraction=fraction,
        bootstrap_iters=iters,
    )
