"""Trajectory fragmentation and the fragment input-duration policy."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .geometry import DoA, doa_from_unit_vector, spherical_mean
from .tracking import DEFAULT_HOP_S, Trajectory


@dataclass(frozen=True)
class DurationPolicy:
    """How much of a fragment feeds embedding extraction: whole, or a prefix."""

    prefix_ms: int | None = None  # None means the whole fragment

    def __post_init__(self):
        if self.prefix_ms is not None and self.prefix_ms <= 0:
            raise ValueError("prefix_ms must be positive")

    @property
    def is_whole(self) -> bool:
        return self.prefix_ms is None

    def __str__(self) -> str:
        return "whole" if self.is_whole else f"{self.prefix_ms}ms"

    @classmethod
    def parse(cls, text: str) -> "DurationPolicy":
        text = text.strip().lower().removesuffix("ms")
        if text == "whole":
            return cls(None)
        return cls(int(text))


@dataclass
class Fragment:
    """A maximal run of consecutive active frames within one trajectory.

    overlapped_frames lists, in order, the tracker frames of the fragment in
    which another trajectory is active too. A beamformer that reads the
    mixture lets that other speaker leak into the fragment's signal there, so
    embedding extraction leaves those frames out of its statistics.
    """

    fragment_id: int
    source_track_id: int
    onset_frame: int
    offset_frame: int  # inclusive
    doas: list[DoA]
    representative_doa: DoA
    overlapped_frames: tuple[int, ...] = ()

    def overlaps(self, other: "Fragment") -> bool:
        return self.onset_frame <= other.offset_frame and other.onset_frame <= self.offset_frame


def _mean_doa(doas: list[DoA]) -> DoA:
    vectors = np.stack([d.unit_vector() for d in doas])
    return doa_from_unit_vector(spherical_mean(vectors))


def segment(trajectories: list[Trajectory]) -> list[Fragment]:
    """Split each trajectory into maximal runs of consecutive active frames.

    Fragments are ordered globally by onset (ties broken by lower track id)
    and their ids follow that order. Each fragment records the frames in
    which at least one other trajectory is active (Fragment.overlapped_frames).
    """
    active_count = Counter(
        t for traj in trajectories for t in {t for t, _, active in traj.frames if active}
    )

    raw: list[tuple[int, int, int, list[DoA]]] = []
    for traj in trajectories:
        run_frames: list[int] = []
        run_doas: list[DoA] = []
        prev = None
        for frame_index, doa, active in traj.frames:
            if not active:
                continue
            if prev is not None and frame_index != prev + 1 and run_frames:
                raw.append((run_frames[0], traj.track_id, run_frames[-1], run_doas))
                run_frames, run_doas = [], []
            run_frames.append(frame_index)
            run_doas.append(doa)
            prev = frame_index
        if run_frames:
            raw.append((run_frames[0], traj.track_id, run_frames[-1], run_doas))
    raw.sort(key=lambda r: (r[0], r[1]))
    return [
        Fragment(
            fragment_id=i,
            source_track_id=track_id,
            onset_frame=onset,
            offset_frame=offset,
            doas=doas,
            representative_doa=_mean_doa(doas),
            overlapped_frames=tuple(
                t for t in range(onset, offset + 1) if active_count[t] > 1
            ),
        )
        for i, (onset, track_id, offset, doas) in enumerate(raw)
    ]


def extraction_window(fragment: Fragment, policy: DurationPolicy) -> tuple[float, float]:
    """Time window (seconds) of the fragment used for embedding extraction.

    Prefix windows start at the fragment onset and are clipped to its end;
    fragments shorter than the prefix are used whole.
    """
    start = fragment.onset_frame * DEFAULT_HOP_S
    end = (fragment.offset_frame + 1) * DEFAULT_HOP_S
    if policy.is_whole:
        return start, end
    return start, min(end, start + policy.prefix_ms / 1000.0)


def window_doa(fragment: Fragment, policy: DurationPolicy) -> DoA:
    """Beam-steering direction: spherical mean of the DoAs inside the window."""
    if policy.is_whole:
        return fragment.representative_doa
    _, end = extraction_window(fragment, policy)
    last = min(fragment.offset_frame, int(np.ceil(end / DEFAULT_HOP_S)) - 1)
    count = max(1, last - fragment.onset_frame + 1)
    return _mean_doa(fragment.doas[:count])
