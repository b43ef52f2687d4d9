"""Multi-target Bayesian tracking of DoA observations on the unit sphere.

One von Mises-Fisher particle filter per track, greedy gated association,
count-based birth confirmation and death. The number of distinct track
identities over a scene is bounded by TrackerConfig.max_tracks: once the label
budget is exhausted, a new birth reuses the label of the longest-dead track,
so a trajectory may contain DoA discontinuities across its inactive gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import DoA, doa_from_unit_vector, sample_vmf, spherical_mean, uniform_sphere
from .scene import SpeakerGroundTruth

DEFAULT_HOP_S = 0.1


@dataclass(frozen=True)
class ObservationFrame:
    frame_index: int
    detections: list[tuple[DoA, float]]


@dataclass
class Trajectory:
    """Identity-labeled DoA sequence; reassigned trajectories carry string ids."""

    track_id: int | str
    frames: list[tuple[int, DoA, bool]] = field(default_factory=list)


@dataclass(frozen=True)
class TrackerConfig:
    max_tracks: int
    particles_per_track: int = 96
    kappa_dynamics: float = 8000.0
    kappa_observation: float = 500.0
    gate_deg: float = 20.0
    birth_probability: float = 1.0
    birth_confirm_frames: int = 2
    death_frames: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_tracks < 1:
            raise ValueError("max_tracks must be >= 1")
        if not (0.0 < self.gate_deg <= 180.0):
            raise ValueError("gate must be in (0, 180] degrees")
        if not (0.0 <= self.birth_probability <= 1.0):
            raise ValueError("birth_probability must be in [0, 1]")


def gt_tracker_config(max_tracks: int, seed: int = 0) -> TrackerConfig:
    """Preset for exact ground-truth observations."""
    return TrackerConfig(
        max_tracks=max_tracks,
        kappa_observation=2000.0,
        gate_deg=15.0,
        birth_probability=1.0,
        birth_confirm_frames=2,
        death_frames=5,
        seed=seed,
    )


def est_tracker_config(max_tracks: int, seed: int = 0) -> TrackerConfig:
    """Preset for noisy estimated observations (wider gate, slower births)."""
    return TrackerConfig(
        max_tracks=max_tracks,
        kappa_observation=120.0,
        gate_deg=30.0,
        birth_probability=1.0,
        birth_confirm_frames=3,
        death_frames=5,
        seed=seed,
    )


@dataclass(frozen=True)
class NoiseModel:
    """Corruption applied to ground-truth DoAs to emulate an estimated front-end."""

    kappa_error: float = 124.0
    miss_prob: float = 0.05
    false_alarm_rate: float = 0.05

    def __post_init__(self):
        if self.kappa_error <= 0:
            raise ValueError("kappa_error must be positive")
        if not (0.0 <= self.miss_prob <= 1.0):
            raise ValueError("miss_prob must be in [0, 1]")
        if self.false_alarm_rate < 0:
            raise ValueError("false_alarm_rate must be >= 0")


def _num_frames(ground_truth: list[SpeakerGroundTruth], hop: float, duration: float | None) -> int:
    if duration is None:
        duration = max((seg[1] for gt in ground_truth for seg in gt.segments), default=0.0)
    return int(round(duration / hop))


def observe_gt(
    ground_truth: list[SpeakerGroundTruth],
    hop: float = DEFAULT_HOP_S,
    duration: float | None = None,
) -> list[ObservationFrame]:
    """One exact detection per active speaker per frame (frame-center rule)."""
    frames = []
    for t in range(_num_frames(ground_truth, hop, duration)):
        center = (t + 0.5) * hop
        detections = []
        for gt in ground_truth:
            doa = gt.doa_at(center)
            if doa is not None:
                detections.append((doa, 1.0))
        frames.append(ObservationFrame(t, detections))
    return frames


def observe_est(
    ground_truth: list[SpeakerGroundTruth],
    hop: float = DEFAULT_HOP_S,
    noise_model: NoiseModel = NoiseModel(),
    seed: int = 0,
    duration: float | None = None,
) -> list[ObservationFrame]:
    """Ground-truth detections independently dropped, vMF-perturbed, plus
    Poisson false alarms drawn uniformly on the sphere."""
    rng = np.random.default_rng(seed)
    frames = []
    for frame in observe_gt(ground_truth, hop, duration):
        detections: list[tuple[DoA, float]] = []
        for doa, conf in frame.detections:
            if rng.random() < noise_model.miss_prob:
                continue
            perturbed = sample_vmf(rng, doa.unit_vector(), noise_model.kappa_error)
            detections.append((doa_from_unit_vector(perturbed), conf))
        for _ in range(rng.poisson(noise_model.false_alarm_rate)):
            detections.append((doa_from_unit_vector(uniform_sphere(rng, 1)[0]), 1.0))
        frames.append(ObservationFrame(frame.frame_index, detections))
    return frames


class SphericalParticleFilter:
    """Particle set on S^2 with vMF random-walk dynamics and vMF likelihood."""

    def __init__(self, rng: np.random.Generator, init_direction: np.ndarray, config: TrackerConfig):
        self.config = config
        n = config.particles_per_track
        self.particles = sample_vmf(
            rng, np.tile(init_direction, (n, 1)), config.kappa_observation
        )
        self.weights = np.full(n, 1.0 / n)
        self.mean = spherical_mean(self.particles, self.weights)

    def step(self, rng: np.random.Generator, observation: np.ndarray) -> None:
        """Predict with the random walk, reweight by the vMF likelihood,
        resample when the effective sample size drops below half."""
        cfg = self.config
        self.particles = sample_vmf(rng, self.particles, cfg.kappa_dynamics)
        dots = self.particles @ observation
        log_w = np.log(self.weights) + cfg.kappa_observation * dots
        log_w -= log_w.max()
        w = np.exp(log_w)
        total = w.sum()
        if total <= 0 or not np.isfinite(total):
            w = np.full_like(w, 1.0 / len(w))
        else:
            w = w / total
        self.weights = w
        ess = 1.0 / float(np.sum(w**2))
        if ess < 0.5 * len(w):
            self._systematic_resample(rng)
        self.mean = spherical_mean(self.particles, self.weights)

    def _systematic_resample(self, rng: np.random.Generator) -> None:
        n = len(self.weights)
        positions = (rng.random() + np.arange(n)) / n
        cumulative = np.cumsum(self.weights)
        cumulative[-1] = 1.0
        idx = np.searchsorted(cumulative, positions)
        self.particles = self.particles[idx]
        self.weights = np.full(n, 1.0 / n)


@dataclass
class _Track:
    track_id: int
    filter: SphericalParticleFilter
    frames: list[tuple[int, DoA, bool]]
    miss_streak: int = 0
    last_active_frame: int = 0
    alive: bool = True


@dataclass
class _Candidate:
    position: np.ndarray
    support: int
    last_frame: int
    history: list[tuple[int, DoA]]


def _reinit_track(
    tr: _Track, rng: np.random.Generator, position: np.ndarray, config: TrackerConfig, t: int
) -> None:
    tr.filter = SphericalParticleFilter(rng, position, config)
    tr.alive = True
    tr.miss_streak = 0
    tr.last_active_frame = t


def track(observations: list[ObservationFrame], config: TrackerConfig) -> list[Trajectory]:
    """Run the multi-target tracker over a frame sequence.

    Returns at most config.max_tracks identity-labeled trajectories, ordered by
    track id. Deterministic for a given config.seed.
    """
    rng = np.random.default_rng(config.seed)
    tracks: list[_Track] = []
    candidates: list[_Candidate] = []
    gate = config.gate_deg

    for frame in observations:
        t = frame.frame_index
        det_vecs = [doa.unit_vector() for doa, _ in frame.detections]

        # Greedy nearest-neighbor association within the gate; ties go to the
        # lower track id, then the lower detection index.
        alive = [tr for tr in tracks if tr.alive]
        pairs = []
        for tr in alive:
            for d, vec in enumerate(det_vecs):
                dist = math.degrees(
                    math.acos(max(-1.0, min(1.0, float(tr.filter.mean @ vec))))
                )
                if dist <= gate:
                    pairs.append((dist, tr.track_id, d, tr))
        pairs.sort(key=lambda p: (p[0], p[1], p[2]))
        used_tracks: set[int] = set()
        used_dets: set[int] = set()
        assoc: list[tuple[_Track, int]] = []
        for dist, tid, d, tr in pairs:
            if tid in used_tracks or d in used_dets:
                continue
            used_tracks.add(tid)
            used_dets.add(d)
            assoc.append((tr, d))

        # Update associated tracks in track-id order for reproducible rng use.
        for tr, d in sorted(assoc, key=lambda a: a[0].track_id):
            tr.filter.step(rng, det_vecs[d])
            tr.miss_streak = 0
            tr.last_active_frame = t
            tr.frames.append((t, doa_from_unit_vector(tr.filter.mean), True))

        # Coast or kill unassociated tracks.
        for tr in alive:
            if tr.track_id in used_tracks:
                continue
            tr.miss_streak += 1
            if tr.miss_streak >= config.death_frames:
                tr.alive = False
            else:
                tr.frames.append((t, doa_from_unit_vector(tr.filter.mean), False))

        # Feed unassociated detections to birth candidates.
        updated: set[int] = set()
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
            elif rng.random() < config.birth_probability:
                candidates.append(
                    _Candidate(
                        position=vec,
                        support=1,
                        last_frame=t,
                        history=[(t, frame.detections[d][0])],
                    )
                )
                updated.add(len(candidates) - 1)

        # Consecutive support only: unsupported candidates are dropped.
        candidates = [c for c in candidates if c.last_frame == t]

        # Promote confirmed candidates. Label choice, in order: a dead track
        # whose last position is within the gate (spatial continuity), a fresh
        # label while the budget allows, then the longest-dead track's label.
        remaining: list[_Candidate] = []
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
                _reinit_track(tr, rng, cand.position, config, t)
            elif len(tracks) < config.max_tracks:
                tr = _Track(
                    track_id=len(tracks),
                    filter=SphericalParticleFilter(rng, cand.position, config),
                    frames=[],
                    last_active_frame=t,
                )
                tracks.append(tr)
            elif dead:
                tr = min(dead, key=lambda tr: (tr.last_active_frame, tr.track_id))
                _reinit_track(tr, rng, cand.position, config, t)
            else:
                remaining.append(cand)  # budget exhausted, keep waiting
                continue
            # Backfill the frames observed while the candidate was pending so
            # activity coverage starts at the detection that seeded the birth.
            # A reused label keeps its older frames, so only later ones extend it.
            last_emitted = tr.frames[-1][0] if tr.frames else -1
            tr.frames.extend(
                (fi, doa, True) for fi, doa in cand.history[:-1] if fi > last_emitted
            )
            tr.frames.append((t, doa_from_unit_vector(tr.filter.mean), True))
        candidates = remaining

    return [Trajectory(tr.track_id, tr.frames) for tr in tracks if tr.frames]
