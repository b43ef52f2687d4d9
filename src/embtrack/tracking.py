"""Multi-target Bayesian tracking of DoA observations on the unit sphere.

One von Mises-Fisher particle filter per track, greedy gated association,
count-based birth confirmation and death. A birth candidate is the list of
its (frame, DoA, unit vector) detections in consecutive frames: its support
is its length, its last frame and position those of its last detection. A
detection no track claims extends the nearest candidate within the gate that
this frame has not yet extended, or else starts a new candidate. A candidate
that a frame does not extend is dropped, and one whose support reaches
TrackerConfig.birth_confirm_frames becomes a track. A track dies after
DEATH_FRAMES consecutive frames without a detection.

The number of distinct track identities over a scene is bounded by
TrackerConfig.max_tracks: once the label budget is exhausted, a new birth
reuses the label of the longest-dead track, so a trajectory may contain DoA
discontinuities across its inactive gaps.

Fixed settings: each filter has PARTICLES_PER_TRACK particles and moves by a
vMF random walk of concentration KAPPA_DYNAMICS per frame, and an unclaimed
detection starts a candidate with probability BIRTH_PROBABILITY. That draw is
taken even at 1.0: dropping it would shift every later draw, and so every
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import DoA, doa_from_unit_vector, sample_vmf, spherical_mean, uniform_sphere
from .scene import SpeakerGroundTruth

DEFAULT_HOP_S = 0.1
PARTICLES_PER_TRACK = 96
KAPPA_DYNAMICS = 8000.0
BIRTH_PROBABILITY = 1.0
DEATH_FRAMES = 5


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
    kappa_observation: float = 500.0
    gate_deg: float = 20.0
    birth_confirm_frames: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.max_tracks < 1:
            raise ValueError("max_tracks must be >= 1")
        if not (0.0 < self.gate_deg <= 180.0):
            raise ValueError("gate must be in (0, 180] degrees")


def gt_tracker_config(max_tracks: int, seed: int = 0) -> TrackerConfig:
    """Preset for exact ground-truth observations."""
    return TrackerConfig(max_tracks, kappa_observation=2000.0, gate_deg=15.0, seed=seed)


def est_tracker_config(max_tracks: int, seed: int = 0) -> TrackerConfig:
    """Preset for noisy estimated observations (wider gate, slower births)."""
    return TrackerConfig(
        max_tracks, kappa_observation=120.0, gate_deg=30.0, birth_confirm_frames=3, seed=seed
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


def num_frames(duration: float) -> int:
    """Tracker frames in a scene of the given duration."""
    return int(round(duration / DEFAULT_HOP_S))


def gt_frame_doas(ground_truth: list[SpeakerGroundTruth], n_frames: int) -> list[dict[int, DoA]]:
    """Active GT speaker DoAs per frame, in ground-truth order: a speaker is
    active in frame t when it is active at the frame centre, (t + 0.5)
    DEFAULT_HOP_S."""
    frames: list[dict[int, DoA]] = []
    for t in range(n_frames):
        center = (t + 0.5) * DEFAULT_HOP_S
        frames.append(
            {gt.speaker_id: doa for gt in ground_truth if (doa := gt.doa_at(center)) is not None}
        )
    return frames


def observe_gt(
    ground_truth: list[SpeakerGroundTruth], duration: float | None = None
) -> list[ObservationFrame]:
    """One exact detection per active speaker per frame (frame-center rule)."""
    if duration is None:
        duration = max((seg[1] for gt in ground_truth for seg in gt.segments), default=0.0)
    return [
        ObservationFrame(t, [(doa, 1.0) for doa in doas.values()])
        for t, doas in enumerate(gt_frame_doas(ground_truth, num_frames(duration)))
    ]


def observe_est(
    ground_truth: list[SpeakerGroundTruth],
    noise_model: NoiseModel = NoiseModel(),
    seed: int = 0,
    duration: float | None = None,
) -> list[ObservationFrame]:
    """Ground-truth detections independently dropped, vMF-perturbed, plus
    Poisson false alarms drawn uniformly on the sphere."""
    rng = np.random.default_rng(seed)
    frames = []
    for frame in observe_gt(ground_truth, duration):
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
        n = PARTICLES_PER_TRACK
        self.particles = sample_vmf(
            rng, np.tile(init_direction, (n, 1)), config.kappa_observation
        )
        self.weights = np.full(n, 1.0 / n)
        self.mean = spherical_mean(self.particles, self.weights)

    def step(self, rng: np.random.Generator, observation: np.ndarray) -> None:
        """Predict with the random walk, reweight by the vMF likelihood,
        resample when the effective sample size drops below half."""
        self.particles = sample_vmf(rng, self.particles, KAPPA_DYNAMICS)
        dots = self.particles @ observation
        log_w = np.log(self.weights) + self.config.kappa_observation * dots
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
    """A label and its filter; the filter is started when the label is chosen."""

    track_id: int
    filter: SphericalParticleFilter | None = None
    frames: list[tuple[int, DoA, bool]] = field(default_factory=list)
    misses: int = 0


def _angle_deg(u: np.ndarray, v: np.ndarray) -> float:
    """Great-circle angle between two unit vectors in degrees."""
    return math.degrees(math.acos(max(-1.0, min(1.0, float(u @ v)))))


def _last_active_frame(tr: _Track) -> int:
    return next(fi for fi, _, active in reversed(tr.frames) if active)


def track(observations: list[ObservationFrame], config: TrackerConfig) -> list[Trajectory]:
    """Run the multi-target tracker over a frame sequence.

    Returns at most config.max_tracks identity-labeled trajectories, ordered by
    track id. Deterministic for a given config.seed.
    """
    rng = np.random.default_rng(config.seed)
    tracks: list[_Track] = []  # tracks[i].track_id == i
    candidates: list[list[tuple[int, DoA, np.ndarray]]] = []
    gate = config.gate_deg

    for frame in observations:
        t = frame.frame_index
        det_vecs = [doa.unit_vector() for doa, _ in frame.detections]

        # Greedy nearest-neighbor association within the gate; ties go to the
        # lower track id, then the lower detection index.
        alive = [tr for tr in tracks if tr.misses < DEATH_FRAMES]
        pairs = sorted(
            (dist, tr.track_id, d)
            for tr in alive
            for d, vec in enumerate(det_vecs)
            if (dist := _angle_deg(tr.filter.mean, vec)) <= gate
        )
        assoc: dict[int, int] = {}
        for _, tid, d in pairs:
            if tid not in assoc and d not in assoc.values():
                assoc[tid] = d

        # Update associated tracks in track-id order for reproducible rng use.
        for tid in sorted(assoc):
            tr = tracks[tid]
            tr.filter.step(rng, det_vecs[assoc[tid]])
            tr.misses = 0
            tr.frames.append((t, doa_from_unit_vector(tr.filter.mean), True))

        # Coast or kill unassociated tracks.
        for tr in alive:
            if tr.track_id not in assoc:
                tr.misses += 1
                if tr.misses < DEATH_FRAMES:
                    tr.frames.append((t, doa_from_unit_vector(tr.filter.mean), False))

        # Feed unassociated detections to birth candidates. Consecutive support
        # only: the candidates this frame does not extend are dropped. The
        # extended ones keep their order and the newborn follow in detection
        # order; candidate ties and the promotion order depend on it.
        newborn = []
        for d, (doa, _) in enumerate(frame.detections):
            if d in assoc.values():
                continue
            vec = det_vecs[d]
            best, best_dist = None, gate
            for cand in candidates:
                if cand[-1][0] == t:
                    continue
                dist = _angle_deg(cand[-1][2], vec)
                if dist <= best_dist:
                    best, best_dist = cand, dist
            if best is not None:
                best.append((t, doa, vec))
            elif rng.random() < BIRTH_PROBABILITY:
                newborn.append([(t, doa, vec)])
        candidates = [cand for cand in candidates if cand[-1][0] == t] + newborn

        # Promote confirmed candidates. Label choice, in order: a dead track
        # whose last position is within the gate (spatial continuity), a fresh
        # label while the budget allows, then the longest-dead track's label.
        remaining = []
        for cand in candidates:
            if len(cand) < config.birth_confirm_frames:
                remaining.append(cand)
                continue
            position = cand[-1][2]
            dead = [tr for tr in tracks if tr.misses >= DEATH_FRAMES]
            near = [
                (dist, tr.track_id)
                for tr in dead
                if (dist := _angle_deg(tr.filter.mean, position)) <= gate
            ]
            if near:
                tr = tracks[min(near)[1]]
            elif len(tracks) < config.max_tracks:
                tr = _Track(len(tracks))
                tracks.append(tr)
            elif dead:
                tr = min(dead, key=lambda tr: (_last_active_frame(tr), tr.track_id))
            else:
                remaining.append(cand)  # budget exhausted, keep waiting
                continue
            tr.filter = SphericalParticleFilter(rng, position, config)
            tr.misses = 0
            # Backfill the frames observed while the candidate was pending so
            # activity coverage starts at the detection that seeded the birth.
            # A reused label keeps its older frames, so only later ones extend it.
            last_emitted = tr.frames[-1][0] if tr.frames else -1
            tr.frames.extend((fi, doa, True) for fi, doa, _ in cand[:-1] if fi > last_emitted)
            tr.frames.append((t, doa_from_unit_vector(tr.filter.mean), True))
        candidates = remaining

    return [Trajectory(tr.track_id, tr.frames) for tr in tracks]
