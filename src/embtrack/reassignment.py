"""Fragment-level identity reassignment against an enrollment pool.

Fragments are visited first-in-first-out (by onset). Each one takes the
enrolled identity with the highest cosine similarity among the identities not
already assigned to a temporally overlapping fragment.

Both time grids are fixed: tracker frames of tracking.DEFAULT_HOP_S and the
32 ms / 16 ms analysis grid of dsp.stft_grid; an analysis frame belongs to
the tracker frame its centre lies in (analysis_frame_tracker_frames). The
spectral work is done once per scene: reassign_scene takes one STFT of the
4-channel mixture (foa_stft), and a fragment's extraction window reads the
frames of that grid whose centre lies in it. The beamformers weight those
frames per bin, and the embedder pools log-mel statistics straight from the
beam's |Y|^2; nothing is resynthesised.

Every fragment is embedded. A window in which fewer than MIN_EMBED_FRAMES
frame centres lie (a prefix or tracker frame shorter than 64 ms, or the
scene's last tracker frame) reads the MIN_EMBED_FRAMES frames that start at
its first centre, or the grid's last ones where that would run past its end.

A fragment's embedding is pooled over the frames of its extraction window in
which no other track is active, when the beamformer reads the mixture (DS,
MVDR): its beam passes the other speaker only partly attenuated (the FOA DS
beam is a cardioid), and leakage averaged into the statistics pulls the
embedding towards the wrong identity, the more so the longer the window. The
ideal beamformer reads the target's own wet signal and pools over all frames.

Every per-scene path (the library's run_pipeline, the batch runner and the
acceptance suite) runs the same two steps. track_and_enroll is the seeded
front-end: it owns every stage seed, derive_seed(*key, stage[, m]). The key
is (master seed, scene index) in the batch runner and (seed,) in
run_pipeline. reassign_scene is the post-tracking step: it segments each M's
trajectories once and then, per cell (m, beamformer, policy, noise covariance
source), beamforms, embeds and reassigns every fragment. The gated MVDR noise
covariance is taken from the frames of the scene STFT whose centre lies in a
tracker frame where the fragment's track is inactive, so it depends only on
the track: it is estimated once per track and M, on that track's first gated
MVDR fragment, and shared by every cell of that M. The oracle one is taken
from the STFT of the fragment window's interferer-plus-noise signal.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .beamforming import (
    MvdrDiagnostics,
    band_covariances,
    beamform_ds,
    beamform_ideal,
    beamform_mvdr,
    foa_stft,
    gated_noise_reference,
    nearest_speaker_index,
    oracle_noise_reference,
)
from .dsp import stft, stft_grid
from .embedding import (
    MIN_EMBED_FRAMES,
    Embedding,
    EnrollmentPool,
    analysis_frame_centers,
    analysis_frame_tracker_frames,
    build_enrollment,
    embed_power,
)
from .fragments import DurationPolicy, Fragment, extraction_window, segment, window_doa
from .scene import Scene
from .seeding import derive_seed
from .tracking import (
    Trajectory,
    est_tracker_config,
    gt_tracker_config,
    num_frames,
    observe_est,
    observe_gt,
    track,
)

BEAMFORMERS = ("ideal", "ds", "mvdr")
TRACKER_VARIANTS = ("gt", "est")
NOISE_COV_SOURCES = ("oracle", "gated")


@dataclass
class FragmentDiagnostic:
    fragment_id: int
    identity: str
    score: float
    excluded: list[str]
    window: tuple[float, float]
    pooled_frames: int  # analysis frames the embedding was pooled over
    pooling_fallback: bool  # too few frames free of other tracks: pooled all
    # Second-best admissible identity and score minus its score; None when
    # only one candidate is left.
    runner_up: str | None
    margin: float | None
    # Always False and never written out: bench/tracer.py still sums it.
    used_fallback: bool = False


@dataclass
class AssignmentResult:
    assignments: dict[int, str]
    new_trajectories: list[Trajectory]
    diagnostics: list[FragmentDiagnostic] = field(default_factory=list)


def reassign(
    fragments: list[Fragment],
    fragment_embeddings: dict[int, Embedding],
    pool: EnrollmentPool,
    policy: DurationPolicy = DurationPolicy(),
) -> AssignmentResult:
    """FIFO assignment with overlap exclusion.

    fragment_embeddings maps fragment id to its embedding. policy is the one
    the embeddings were extracted with; the diagnostics record its extraction
    window.

    Some identity is always left. Fragments are visited by onset, so every
    already-assigned fragment that overlaps a fragment f contains f's onset
    frame, and fragments of one track are disjoint, so those come from
    distinct tracks other than f's. A tracker with max_tracks = pool.size
    therefore leaves at most pool.size - 1 identities excluded.
    """
    order = sorted(fragments, key=lambda f: (f.onset_frame, f.source_track_id))
    assignments: dict[int, str] = {}
    diagnostics: list[FragmentDiagnostic] = []
    assigned: list[Fragment] = []
    pool_matrix = pool.matrix() if pool.size else np.zeros((0, 0))

    for frag in order:
        excluded = sorted(
            {assignments[f.fragment_id] for f in assigned if f.overlaps(frag)}
        )
        candidates = [
            (idx, identity)
            for idx, identity in enumerate(pool.identities)
            if identity not in excluded
        ]
        assert candidates, f"fragment {frag.fragment_id}: more overlapping tracks than identities"
        emb = fragment_embeddings[frag.fragment_id]
        scores = pool_matrix[[idx for idx, _ in candidates]] @ emb.vector
        best = int(np.argmax(scores))
        identity = candidates[best][1]
        score = float(scores[best])
        runner_up, margin = None, None
        if len(candidates) > 1:
            rest = scores.copy()
            rest[best] = -np.inf
            second = int(np.argmax(rest))
            runner_up, margin = candidates[second][1], score - float(scores[second])
        assignments[frag.fragment_id] = identity
        assigned.append(frag)
        diagnostics.append(
            FragmentDiagnostic(
                fragment_id=frag.fragment_id,
                identity=identity,
                score=score,
                excluded=excluded,
                window=extraction_window(frag, policy),
                pooled_frames=emb.pooled_frames,
                pooling_fallback=emb.pooling_fallback,
                runner_up=runner_up,
                margin=margin,
            )
        )

    new_trajectories = _build_trajectories(order, assignments)
    return AssignmentResult(assignments, new_trajectories, diagnostics)


def _build_trajectories(
    fragments: list[Fragment], assignments: dict[int, str]
) -> list[Trajectory]:
    by_identity: dict[str, list[tuple[int, object, bool]]] = {}
    for frag in fragments:
        frames = by_identity.setdefault(assignments[frag.fragment_id], [])
        for offset, doa in enumerate(frag.doas):
            frames.append((frag.onset_frame + offset, doa, True))
    trajectories = []
    for identity in sorted(by_identity):
        frames = sorted(by_identity[identity], key=lambda f: f[0])
        trajectories.append(Trajectory(track_id=identity, frames=frames))
    return trajectories


@dataclass
class PipelineResult:
    before: list[Trajectory]
    fragments: list[Fragment]
    pool: EnrollmentPool
    assignment: AssignmentResult
    mvdr_diagnostics: MvdrDiagnostics

    @property
    def after(self) -> list[Trajectory]:
        return self.assignment.new_trajectories


def reads_wet(beamformer: str, noise_cov_source: str) -> bool:
    """Whether a cell reads scene.wet: the ideal beamformer's target signal and
    the oracle MVDR noise reference come from the wet signals; DS and gated
    MVDR read only the mixture."""
    return beamformer == "ideal" or (beamformer == "mvdr" and noise_cov_source == "oracle")


def extract_fragment_embedding(
    scene: Scene,
    mixture_stft: np.ndarray | None,
    frag: Fragment,
    policy: DurationPolicy,
    beamformer: str,
    *,
    noise_cov_source: str = "oracle",
    gated_covariance: Callable[[int], tuple[np.ndarray, bool]] | None = None,
    diagnostics: MvdrDiagnostics | None = None,
) -> Embedding:
    """Beamform the fragment window and embed it.

    mixture_stft is foa_stft(scene.mixture), which "ds" and "mvdr" read ("ideal"
    does not; it may then be None). The window reads the frames of that grid
    whose centre lies in it, and at least MIN_EMBED_FRAMES (_window_frames).
    For "ds" and "mvdr" the embedding is pooled over the frames whose centre's
    tracker frame is not in frag.overlapped_frames, since there the mixture
    also carries another track's speaker (embed_power pools over all frames
    when fewer than MIN_EMBED_FRAMES are free). "ideal" reads only the
    target's wet signal and always pools over all frames. gated_covariance
    maps a track id to its gated MVDR noise covariance and whether that fell
    back to the full mixture (needed for noise_cov_source "gated"; a fallback
    track is added to diagnostics.gated_fallback_tracks, which must then be a
    set); the oracle covariance is estimated per fragment, from the STFT of
    its own window's reference.
    """
    window = extraction_window(frag, policy)
    steer = window_doa(frag, policy)
    frames, free = _window_frames(frag, window, scene.mixture.num_samples, scene.sample_rate)
    if beamformer == "ideal":
        beam = beamform_ideal(scene.wet, scene.ground_truth, steer, window, frames)
        free = None
    elif beamformer == "ds":
        beam = beamform_ds(mixture_stft[..., frames], steer)
    elif beamformer == "mvdr":
        if noise_cov_source == "oracle":
            midpoint = 0.5 * (window[0] + window[1])
            target = nearest_speaker_index(scene.ground_truth, steer, midpoint)
            noise = oracle_noise_reference(scene.mixture, scene.wet, target, window)
            noise_cov = band_covariances(stft(noise, *stft_grid(scene.sample_rate)))
        elif noise_cov_source == "gated":
            noise_cov, full_mixture = gated_covariance(frag.source_track_id)
            if full_mixture and diagnostics is not None:
                diagnostics.gated_fallback_tracks.add(frag.source_track_id)
        else:
            raise ValueError(f"unknown noise covariance source {noise_cov_source!r}")
        beam = beamform_mvdr(mixture_stft[..., frames], steer, noise_cov, diagnostics)
    else:
        raise ValueError(f"unknown beamformer {beamformer!r}")
    return embed_power(np.abs(beam) ** 2, scene.sample_rate, free)


def _window_frames(
    frag: Fragment, window: tuple[float, float], num_samples: int, sample_rate: int
) -> tuple[slice, np.ndarray]:
    """The analysis frames of the scene grid whose centre lies in the window,
    as a slice of the frame axis, and for each of them whether its centre
    lies in a tracker frame where no other track is active.

    When fewer than MIN_EMBED_FRAMES centres lie in the window, the slice is
    the MIN_EMBED_FRAMES frames that start at its first centre, or the grid's
    last ones if those would run past its end.
    """
    centers = analysis_frame_centers(num_samples, sample_rate)
    bounds = [round(window[0] * sample_rate), round(window[1] * sample_rate)]
    start, stop = (int(i) for i in np.searchsorted(centers, bounds))
    if stop - start < MIN_EMBED_FRAMES:
        start = max(0, min(start, len(centers) - MIN_EMBED_FRAMES))
        stop = start + MIN_EMBED_FRAMES
    tracker_frames = analysis_frame_tracker_frames(num_samples, sample_rate)[start:stop]
    return slice(start, stop), ~np.isin(tracker_frames, frag.overlapped_frames)


def _gated_covariances(
    scene: Scene, mixture_stft: np.ndarray | None, trajectories: list[Trajectory]
) -> Callable[[int], tuple[np.ndarray, bool]]:
    """Track id -> (band covariance of the frames of mixture_stft whose centre
    lies in a tracker frame where that track is inactive, whether the mask
    fell back to every frame), estimated on first use and kept for later ones."""
    all_frames = set(range(num_frames(scene.duration)))
    by_id = {traj.track_id: traj for traj in trajectories}
    covariances: dict[int, tuple[np.ndarray, bool]] = {}

    def covariance(track_id: int) -> tuple[np.ndarray, bool]:
        if track_id not in covariances:
            active = {t for t, _, a in by_id[track_id].frames if a}
            inactive = sorted(all_frames - active)
            mask = gated_noise_reference(scene.mixture, inactive)
            covariances[track_id] = band_covariances(mixture_stft, mask), bool(mask.all())
        return covariances[track_id]

    return covariance


def track_and_enroll(
    scene: Scene,
    key: tuple[int | str, ...],
    tracker_variant: str,
    enrollment_sizes: Sequence[int],
    distractors: list[tuple[str, Embedding]] | None = None,
) -> tuple[dict[int, list[Trajectory]], EnrollmentPool]:
    """The seeded front-end: observe once, track once per M, enroll once.

    The "est" front-end corrupts the ground truth with the default NoiseModel.

    Stage seeds are derive_seed(*key, "observe"), derive_seed(*key,
    "tracker", m) and derive_seed(*key, "enrollment"). The pool has
    max(enrollment_sizes) entries; the pool for a smaller M is its prefix,
    since scene speakers come first and distractors are shared.
    """
    if tracker_variant == "gt":
        observations = observe_gt(scene.ground_truth, scene.duration)
        maker = gt_tracker_config
    elif tracker_variant == "est":
        seed = derive_seed(*key, "observe")
        observations = observe_est(scene.ground_truth, seed=seed, duration=scene.duration)
        maker = est_tracker_config
    else:
        raise ValueError(f"unknown tracker variant {tracker_variant!r}")
    tracks_by_m = {
        m: track(observations, maker(m, derive_seed(*key, "tracker", m))) for m in enrollment_sizes
    }
    pool = build_enrollment(
        scene.voices,
        max(enrollment_sizes),
        derive_seed(*key, "enrollment"),
        scene.sample_rate,
        distractors,
    )
    return tracks_by_m, pool


def reassign_scene(
    scene: Scene,
    tracks_by_m: dict[int, list[Trajectory]],
    pool: EnrollmentPool,
    cells: Sequence[tuple[int, str, DurationPolicy, str]],
) -> Iterator[PipelineResult]:
    """The post-tracking step: segment -> window -> beamform -> embed -> reassign.

    A cell is (m, beamformer, duration policy, noise covariance source). The
    trajectories of each M named by a cell are segmented once, and the
    mixture's STFT is taken once (not at all when every cell is "ideal").
    The gated MVDR noise covariance of a track is estimated once per M from
    that STFT, on the first gated MVDR fragment of that track, and reused by
    every later fragment of the track in every cell of that M; other cells
    estimate none. A gated MVDR cell's diagnostics name the tracks it used
    whose gated mask fell back to every frame. Each cell embeds every
    fragment and reassigns against the first m pool entries. Yields one
    result per cell, in order, each computed when it is asked for, so the
    batch runner writes and marks a cell complete before the next one starts.
    """
    mixture_stft = None
    if any(cell[1] != "ideal" for cell in cells):
        mixture_stft = foa_stft(scene.mixture)
    segmented = {
        m: (segment(tracks_by_m[m]), _gated_covariances(scene, mixture_stft, tracks_by_m[m]))
        for m in {cell[0] for cell in cells}
    }

    for m, beamformer, policy, noise_cov_source in cells:
        fragments, gated_covariance = segmented[m]
        gated = beamformer == "mvdr" and noise_cov_source == "gated"
        diagnostics = MvdrDiagnostics(gated_fallback_tracks=set() if gated else None)
        embeddings = {
            frag.fragment_id: extract_fragment_embedding(
                scene, mixture_stft, frag, policy, beamformer, noise_cov_source=noise_cov_source,
                gated_covariance=gated_covariance, diagnostics=diagnostics,
            )
            for frag in fragments
        }
        m_pool = EnrollmentPool(pool.entries[:m])
        assignment = reassign(fragments, embeddings, m_pool, policy)
        yield PipelineResult(tracks_by_m[m], fragments, m_pool, assignment, diagnostics)


def run_pipeline(
    scene: Scene,
    tracker_variant: str = "gt",
    beamformer: str = "ideal",
    policy: DurationPolicy = DurationPolicy(),
    m: int = 2,
    seed: int = 0,
    *,
    noise_cov_source: str = "oracle",
) -> PipelineResult:
    """track -> segment -> window -> beamform -> embed -> reassign for one cell.

    Emits both the tracker trajectories and the reassigned ones so the two can
    be evaluated as a pair. Deterministic for a given seed: the stage seeds
    are track_and_enroll's with key (seed,).
    """
    tracks_by_m, pool = track_and_enroll(scene, (seed,), tracker_variant, [m])
    cell = (m, beamformer, policy, noise_cov_source)
    return next(reassign_scene(scene, tracks_by_m, pool, [cell]))
