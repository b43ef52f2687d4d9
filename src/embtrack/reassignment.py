"""Fragment-level identity reassignment against an enrollment pool.

Fragments are visited first-in-first-out (by onset). Each one takes the
enrolled identity with the highest cosine similarity among the identities not
already assigned to a temporally overlapping fragment.

Both time grids are fixed: tracker frames of tracking.DEFAULT_HOP_S and the
32 ms / 16 ms analysis grid, dsp.N_WINDOW-sample windows every dsp.N_HOP
samples at dsp.SAMPLE_RATE; an analysis frame belongs to the tracker frame
its centre lies in (analysis_frame_tracker_frames). A fragment's
extraction window reads the frames of that grid whose centre lies in it.
reassign_scene transforms the 4-channel mixture (foa_stft) once per
fragment: the frames its cells read, those of its windows and of an oracle
MVDR window's noise reference. Only a scene with a gated MVDR cell, whose
covariance reads every frame where the track is inactive, takes the whole
mixture's STFT, once, and its fragments read their frames of that. The
beamformers and both MVDR covariances read those frames, and the embedder
pools log-mel statistics straight from the beam's |Y|^2; nothing is
resynthesised. Per fragment, only its frames and the beam's STFT are held
whole: DS weights a long frame slice a block of bins at a time, and the
oracle covariance transforms the target a block of frames at a time.

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
front-end: every stage seed is derive_seed(*key, stage[, m]). The key is
(master seed, scene index) in the batch runner, (seed,) in run_pipeline and
(master seed, suite tag, scene index) in the acceptance suite. It takes the
scene speakers' pool entries from enroll_speakers, seeded with
derive_seed(*key, "enrollment"): the batch runner reads those that gen wrote
with it, and the other paths call it. Its distractors come from the one
distractor rule, shared_distractors: one set per master seed, shared by
every scene. reassign_scene is the post-tracking
step: it segments each M's trajectories once, then beamforms and embeds each
fragment for every cell (m, beamformer, policy, noise covariance source) of
its M, and then reassigns the fragments cell by cell. A gated MVDR noise
covariance depends only on the fragment's track, so it is estimated once per
track and M.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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
    reference_covariances,
)
from .dsp import frames_centred_in, num_full_frames
from .embedding import (
    MIN_EMBED_FRAMES,
    Embedding,
    EnrollmentPool,
    analysis_frame_tracker_frames,
    build_distractors,
    build_enrollment,
    embed_power,
    enrollment_pool,
)
from .fragments import DurationPolicy, Fragment, extraction_window, segment, window_doa
from .scene import Scene, VoiceParams
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


def is_gated_mvdr(beamformer: str, noise_cov_source: str) -> bool:
    """Whether a cell is gated MVDR, whose noise covariance is estimated once
    per track from the frames of the whole mixture's STFT where its track is
    inactive."""
    return beamformer == "mvdr" and noise_cov_source == "gated"


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
    first_frame: int = 0,
    noise_cov: np.ndarray | None = None,
    diagnostics: MvdrDiagnostics | None = None,
) -> Embedding:
    """Beamform the fragment window and embed it.

    mixture_stft holds frames first_frame onwards of foa_stft(scene.mixture)'s
    grid: the whole STFT with first_frame 0, or foa_stft(scene.mixture,
    frames) with first_frame frames.start. "ds" and "mvdr" read it ("ideal"
    does not; it may then be None). The window reads the frames of that grid
    whose centre lies in it, and at least MIN_EMBED_FRAMES (_window_frames);
    an oracle "mvdr" covariance reads the oracle_noise_reference frames of
    the window. mixture_stft must hold the frames that are read.
    "ideal" and an oracle "mvdr" covariance read the oracle target, which
    this picks once: the wet signal of the speaker nearest_speaker_index
    gives for the steering DoA at the window midpoint. "ds" and "mvdr" with
    a given noise_cov read no wet signal.
    For "ds" and "mvdr" the embedding is pooled over the frames whose centre's
    tracker frame is not in frag.overlapped_frames, since there the mixture
    also carries another track's speaker (embed_power pools over all frames
    when fewer than MIN_EMBED_FRAMES are free). "ideal" reads only the
    target's wet signal and always pools over all frames. noise_cov is the
    "mvdr" band covariance, such as the gated one of the fragment's track;
    when it is None the oracle covariance is estimated on the same grid,
    from mixture_stft minus the target's wet STFT on those frames
    (reference_covariances, which transforms the target a block of frames
    at a time). The beam is the only whole-window array this holds: DS
    weights a long frame slice a block of bins at a time.
    """
    window = extraction_window(frag, policy)
    steer = window_doa(frag, policy)
    frames, free = _window_frames(frag, window, scene.mixture.num_samples)
    local = slice(frames.start - first_frame, frames.stop - first_frame)
    if beamformer == "ideal" or (beamformer == "mvdr" and noise_cov is None):
        midpoint = 0.5 * (window[0] + window[1])
        target = scene.wet[nearest_speaker_index(scene.ground_truth, steer, midpoint)]
    if beamformer == "ideal":
        beam = beamform_ideal(target, frames)
        free = None
    elif beamformer == "ds":
        beam = beamform_ds(mixture_stft[..., local], steer)
    elif beamformer == "mvdr":
        if noise_cov is None:
            noise = oracle_noise_reference(scene.mixture.num_samples, window)
            noise_stft = mixture_stft[..., noise.start - first_frame : noise.stop - first_frame]
            noise_cov = reference_covariances(noise_stft, target, noise)
        beam = beamform_mvdr(mixture_stft[..., local], steer, noise_cov, diagnostics)
    else:
        raise ValueError(f"unknown beamformer {beamformer!r}")
    return embed_power(np.abs(beam) ** 2, frame_mask=free)


def _window_frames(
    frag: Fragment, window: tuple[float, float], num_samples: int
) -> tuple[slice, np.ndarray]:
    """The analysis frames of the scene grid whose centre lies in the window,
    as a slice of the frame axis, and for each of them whether its centre
    lies in a tracker frame where no other track is active.

    When fewer than MIN_EMBED_FRAMES centres lie in the window, the slice is
    the MIN_EMBED_FRAMES frames that start at its first centre, or the grid's
    last ones if those would run past its end. The bounds are found in
    integers and only the slice's centres are computed.
    """
    start, stop = frames_centred_in(window, num_samples)
    if stop - start < MIN_EMBED_FRAMES:
        start = max(0, min(start, num_full_frames(num_samples) - MIN_EMBED_FRAMES))
        stop = start + MIN_EMBED_FRAMES
    frames = slice(start, stop)
    tracker_frames = analysis_frame_tracker_frames(num_samples, frames=frames)
    return frames, ~np.isin(tracker_frames, frag.overlapped_frames)


def _gated_covariances(
    scene: Scene, mixture_stft: np.ndarray, tracks: list[Trajectory], fragments: list[Fragment]
) -> tuple[dict[int, np.ndarray], set[int]]:
    """For every track with a fragment, the band covariance of the frames of
    mixture_stft whose centre lies in a tracker frame where that track is
    inactive; and the tracks whose mask fell back to every frame."""
    all_frames = set(range(num_frames(scene.duration)))
    used = {frag.source_track_id for frag in fragments}
    covariances: dict[int, np.ndarray] = {}
    fallback_tracks: set[int] = set()
    for traj in tracks:
        if traj.track_id in used:
            inactive = sorted(all_frames - {t for t, _, a in traj.frames if a})
            mask = gated_noise_reference(scene.mixture, inactive)
            covariances[traj.track_id] = band_covariances(mixture_stft, mask)
            if mask.all():
                fallback_tracks.add(traj.track_id)
    return covariances, fallback_tracks


def shared_distractors(
    master_seed: int, enrollment_sizes: Sequence[int], num_speakers: int
) -> list[tuple[str, Embedding]]:
    """The one distractor rule: max(enrollment_sizes) - num_speakers entries
    drawn with derive_seed(master_seed, "distractors"), once per run (not per
    scene) and shared by every scene. A smaller set is a prefix of a larger."""
    need = max(enrollment_sizes) - num_speakers
    return build_distractors(need, derive_seed(master_seed, "distractors")) if need > 0 else []


def enroll_speakers(
    voices: Sequence[VoiceParams], key: tuple[int | str, ...]
) -> list[tuple[str, Embedding]]:
    """The scene speakers' pool entries for a scene key: build_enrollment
    seeded with derive_seed(*key, "enrollment"). gen calls it once per scene
    and writes the entries to the scene's pool file, which run reads back;
    run_pipeline and the acceptance suite call it in place of that file."""
    return build_enrollment(list(voices), derive_seed(*key, "enrollment"))


def track_and_enroll(
    scene: Scene,
    key: tuple[int | str, ...],
    tracker_variant: str,
    enrollment_sizes: Sequence[int],
    speakers: list[tuple[str, Embedding]],
    distractors: list[tuple[str, Embedding]],
) -> tuple[dict[int, list[Trajectory]], EnrollmentPool]:
    """The seeded front-end: observe once, track once per M, make the pool.

    The "est" front-end corrupts the ground truth with the default NoiseModel.

    Stage seeds are derive_seed(*key, "observe") and derive_seed(*key,
    "tracker", m). speakers are the scene speakers' entries,
    enroll_speakers(scene.voices, key) (seeded with derive_seed(*key,
    "enrollment")), as gen writes them. The pool is speakers, then the first
    of distractors (shared_distractors' of the master seed),
    max(enrollment_sizes) entries; a smaller M takes a prefix.
    """
    if tracker_variant == "gt":
        observations = observe_gt(scene.ground_truth, duration=scene.duration)
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
    return tracks_by_m, enrollment_pool(speakers, max(enrollment_sizes), distractors)


def reassign_scene(
    scene: Scene,
    tracks_by_m: dict[int, list[Trajectory]],
    pool: EnrollmentPool,
    cells: Sequence[tuple[int, str, DurationPolicy, str]],
) -> Iterator[PipelineResult]:
    """The post-tracking step: segment -> window -> beamform -> embed -> reassign.

    A cell is (m, beamformer, duration policy, noise covariance source). The
    trajectories of each M named by a cell are segmented once, and each
    fragment is then embedded for every cell of its M. The cells that read
    the mixture (DS, MVDR) share one transform of it per fragment: foa_stft
    of the union of the frames they read (a DS window's own, an oracle MVDR
    window's oracle_noise_reference frames, which hold its own), so no other
    frame is transformed. A gated MVDR covariance reads every frame where
    its track is inactive, so a scene with a gated MVDR cell takes
    foa_stft(scene.mixture) once instead, and its fragments read their
    frames of that. Each M with a gated MVDR cell first estimates from it
    the gated noise covariance of every track with a fragment, and the set
    of those tracks whose gated mask fell back to every frame; each gated
    MVDR cell of that M uses those covariances and names that set in its
    diagnostics. Other cells estimate none.

    Every cell's embeddings are computed before the first result is yielded,
    so an embedding that fails leaves no cell of the scene done. Results
    come one per cell, in order, and a cell reassigns against the first m
    pool entries only when its result is asked for, so the batch runner
    writes and marks a cell complete before the next one is reassigned.
    """
    gated_ms = {m for m, bf, _, source in cells if is_gated_mvdr(bf, source)}
    whole_stft = foa_stft(scene.mixture) if gated_ms else None
    fragments_by_m = {m: segment(tracks_by_m[m]) for m in {cell[0] for cell in cells}}
    gated_by_m = {
        m: _gated_covariances(scene, whole_stft, tracks_by_m[m], fragments_by_m[m])
        for m in gated_ms
    }
    # Per cell: the gated covariances it uses (none but in a gated MVDR cell)
    # and its diagnostics.
    covariances, diagnostics = [], []
    for m, beamformer, _, noise_cov_source in cells:
        gated = is_gated_mvdr(beamformer, noise_cov_source)
        cell_covariances, fallback_tracks = gated_by_m[m] if gated else ({}, None)
        covariances.append(cell_covariances)
        diagnostics.append(MvdrDiagnostics(gated_fallback_tracks=fallback_tracks))
    embeddings: list[dict[int, Embedding]] = [{} for _ in cells]

    num_samples = scene.mixture.num_samples
    for m, fragments in fragments_by_m.items():
        of_m = [i for i, cell in enumerate(cells) if cell[0] == m]
        mixture_cells = [cells[i][1:3] for i in of_m if cells[i][1] != "ideal"]
        for frag in fragments:
            spec, first_frame = whole_stft, 0
            if mixture_cells and whole_stft is None:
                # Without a gated cell every MVDR cell is oracle.
                windows = [(bf, extraction_window(frag, policy)) for bf, policy in mixture_cells]
                reads = [
                    oracle_noise_reference(num_samples, w) if bf == "mvdr"
                    else _window_frames(frag, w, num_samples)[0]
                    for bf, w in windows
                ]
                first_frame = min(r.start for r in reads)
                spec = foa_stft(scene.mixture, slice(first_frame, max(r.stop for r in reads)))
            for i in of_m:
                _, beamformer, policy, _ = cells[i]
                embeddings[i][frag.fragment_id] = extract_fragment_embedding(
                    scene, spec, frag, policy, beamformer, first_frame=first_frame,
                    noise_cov=covariances[i].get(frag.source_track_id), diagnostics=diagnostics[i],
                )

    for (m, _, policy, _), cell_embeddings, cell_diagnostics in zip(cells, embeddings, diagnostics):
        fragments = fragments_by_m[m]
        m_pool = EnrollmentPool(pool.entries[:m])
        assignment = reassign(fragments, cell_embeddings, m_pool, policy)
        yield PipelineResult(tracks_by_m[m], fragments, m_pool, assignment, cell_diagnostics)


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
    be evaluated as a pair. Deterministic for a given seed: the master seed
    of track_and_enroll's key (seed,) and of shared_distractors.
    """
    distractors = shared_distractors(seed, [m], len(scene.voices))
    speakers = enroll_speakers(scene.voices, (seed,))
    tracks_by_m, pool = track_and_enroll(scene, (seed,), tracker_variant, [m], speakers, distractors)
    cell = (m, beamformer, policy, noise_cov_source)
    return next(reassign_scene(scene, tracks_by_m, pool, [cell]))
