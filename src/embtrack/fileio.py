"""On-disk formats: float32 WAV audio, ground-truth JSON, trajectory and
fragment JSON lines, and assignment reports.

A WAV file holds one FoaSignal, little-endian throughout:

    "RIFF" <u32 file size - 8> "WAVE"
    "fmt " <u32 18> <u16 3 (IEEE float)> <u16 4 channels> <u32 sample rate>
           <u32 16 * sample rate (bytes/s)> <u16 16 (block align)>
           <u16 32 (bits)> <u16 0 (cbSize)>
    "fact" <u32 4> <u32 samples per channel>
    "data" <u32 16 * samples> <f4 W Y Z X, one sample of each channel in turn>

read_wav walks the chunks in any order, skips the ones it does not know
(an odd-sized chunk is followed by a pad byte) and accepts only 4-channel
32-bit float audio; anything else is a ValueError. Given a sha256, it hashes
the bytes it read and checks them before it parses them, so a file whose
hash is checked is read once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .beamforming import MvdrDiagnostics
from .fragments import Fragment
from .geometry import DoA
from .reassignment import AssignmentResult
from .scene import FoaSignal, Scene, SceneSpec, SpeakerGroundTruth, VoiceParams
from .tracking import Trajectory

_IEEE_FLOAT = 3
_CHANNELS = 4
_BLOCK_ALIGN = 4 * _CHANNELS


def write_wav(path: str | Path, signal: FoaSignal) -> None:
    samples = np.ascontiguousarray(signal.channels.T, dtype="<f4")
    data = samples.tobytes()
    rate = signal.sample_rate
    fmt = struct.pack(
        "<HHIIHHH", _IEEE_FLOAT, _CHANNELS, rate, rate * _BLOCK_ALIGN, _BLOCK_ALIGN, 32, 0
    )
    chunks = (
        b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"fact" + struct.pack("<II", 4, len(samples))
        + b"data" + struct.pack("<I", len(data))
    )
    riff = b"RIFF" + struct.pack("<I", 4 + len(chunks) + len(data)) + b"WAVE"
    with open(path, "wb") as f:
        f.write(riff + chunks)
        f.write(data)


def read_wav(path: str | Path, *, sha256: str | None = None) -> FoaSignal:
    raw = Path(path).read_bytes()
    if sha256 is not None and hashlib.sha256(raw).hexdigest() != sha256:
        raise ValueError(f"{path} does not match sha256 {sha256}")
    raw = memoryview(raw)
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    chunks = {}
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{path}: {chunk_id!r} chunk truncated")
        chunks.setdefault(chunk_id, body)
        pos += 8 + size + size % 2
    fmt, data = chunks.get(b"fmt "), chunks.get(b"data")
    if fmt is None or data is None or len(fmt) < 16:
        raise ValueError(f"{path}: no 16-byte fmt chunk or no data chunk")
    tag, channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if (tag, channels, bits) != (_IEEE_FLOAT, _CHANNELS, 32):
        raise ValueError(
            f"{path}: expected 4-channel 32-bit float audio, got format {tag}, "
            f"{channels} channels, {bits} bits"
        )
    if len(data) % _BLOCK_ALIGN:
        raise ValueError(f"{path}: data chunk is not a whole number of samples")
    samples = np.frombuffer(data, dtype="<f4").reshape(-1, _CHANNELS)
    return FoaSignal(samples.T.astype(np.float64), sample_rate)


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _from_json(klass, d: dict):
    """klass(**d), with the JSON lists made back into the tuples klass holds."""
    return klass(**{name: _tuples(value) for name, value in d.items()})


def spec_to_dict(spec: SceneSpec) -> dict:
    return dataclasses.asdict(spec)


def spec_from_dict(d: dict) -> SceneSpec:
    return _from_json(SceneSpec, d)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to a temporary file next to path, then os.replace it over
    path: path holds its old or its new content, never a partial one, and no
    temporary file stays behind, also when the write fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def dump_json(obj, path: str | Path) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    write_text_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_ground_truth(path: str | Path, ground_truth: list[SpeakerGroundTruth], spec: SceneSpec) -> None:
    doc = {
        "spec": spec_to_dict(spec),
        "speakers": [
            {
                "speaker_id": gt.speaker_id,
                "voice": dataclasses.asdict(gt.voice),
                "segments": [
                    {"onset": on, "offset": off, "azimuth": doa.azimuth, "elevation": doa.elevation}
                    for on, off, doa in gt.segments
                ],
            }
            for gt in ground_truth
        ],
    }
    dump_json(doc, path)


def read_ground_truth(path: str | Path) -> tuple[list[SpeakerGroundTruth], SceneSpec]:
    doc = json.loads(Path(path).read_text())
    speakers = []
    for s in doc["speakers"]:
        gt = SpeakerGroundTruth(speaker_id=s["speaker_id"], voice=_from_json(VoiceParams, s["voice"]))
        gt.segments = [
            (seg["onset"], seg["offset"], DoA(seg["azimuth"], seg["elevation"]))
            for seg in s["segments"]
        ]
        speakers.append(gt)
    return speakers, spec_from_dict(doc["spec"])


def write_scene(scene_dir: str | Path, scene: Scene, spec: SceneSpec) -> None:
    """Mixture and wet WAVs plus the ground-truth JSON document."""
    scene_dir = Path(scene_dir)
    scene_dir.mkdir(parents=True, exist_ok=True)
    write_wav(scene_dir / "mixture.wav", scene.mixture)
    for j, wet in enumerate(scene.wet):
        write_wav(scene_dir / f"speaker{j:02d}.wav", wet)
    write_ground_truth(scene_dir / "ground_truth.json", scene.ground_truth, spec)


def read_scene(
    scene_dir: str | Path, wet: bool = True, *, sha256: str | None = None
) -> tuple[Scene, SceneSpec]:
    """The scene write_scene wrote; with wet False its speakerNN.wav files are
    not read and scene.wet is empty. sha256, when given, is the hash the
    mixture.wav bytes must have (read_wav checks it before parsing them)."""
    scene_dir = Path(scene_dir)
    ground_truth, spec = read_ground_truth(scene_dir / "ground_truth.json")
    mixture = read_wav(scene_dir / "mixture.wav", sha256=sha256)
    speakers = range(len(ground_truth)) if wet else ()
    signals = [read_wav(scene_dir / f"speaker{j:02d}.wav") for j in speakers]
    return Scene(mixture, signals, ground_truth), spec


def trajectories_to_jsonl(trajectories: list[Trajectory]) -> str:
    """One record per trajectory: {track_id, frames: [[index, az, el, active]]}.

    Also the import format for trajectories produced by external trackers.
    Frame indices count tracker frames of tracking.DEFAULT_HOP_S = 0.1 s
    from the scene's start: frame i spans [0.1 i, 0.1 (i + 1)) s and is
    scored at its centre. That period is a constant, not a parameter, so
    the library, run and eval all read every trajectory on that one grid.
    """
    lines = []
    for traj in trajectories:
        record = {
            "track_id": traj.track_id,
            "frames": [
                [index, doa.azimuth, doa.elevation, bool(active)]
                for index, doa, active in traj.frames
            ],
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def trajectories_from_jsonl(text: str) -> list[Trajectory]:
    trajectories = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        frames = [
            (int(index), DoA(az, el), bool(active))
            for index, az, el, active in record["frames"]
        ]
        trajectories.append(Trajectory(track_id=record["track_id"], frames=frames))
    return trajectories


def write_trajectories(path: str | Path, trajectories: list[Trajectory]) -> None:
    write_text_atomic(path, trajectories_to_jsonl(trajectories))


def read_trajectories(path: str | Path) -> list[Trajectory]:
    return trajectories_from_jsonl(Path(path).read_text())


def write_fragments(path: str | Path, fragments: list[Fragment]) -> None:
    lines = []
    for f in fragments:
        record = {
            "fragment_id": f.fragment_id,
            "track_id": f.source_track_id,
            "onset_frame": f.onset_frame,
            "offset_frame": f.offset_frame,
            "representative_doa": [f.representative_doa.azimuth, f.representative_doa.elevation],
        }
        lines.append(json.dumps(record, sort_keys=True))
    write_text_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def assignment_to_dict(result: AssignmentResult, mvdr: MvdrDiagnostics) -> dict:
    """The cell's assignments, per-fragment diagnostics and MVDR band counts
    (0 for cells without MVDR), plus, in a gated MVDR cell, the number of
    tracks whose gated covariance fell back to the full mixture; the
    reassigned trajectories are the cell's tracks_after.jsonl."""
    doc = {
        "assignments": {str(k): v for k, v in result.assignments.items()},
        "mvdr_fallback_bands": mvdr.fallback_bands,
        "mvdr_total_bands": mvdr.total_bands,
        "diagnostics": [
            {
                "fragment_id": d.fragment_id,
                "identity": d.identity,
                "score": d.score,
                "excluded": d.excluded,
                "window": list(d.window),
                "pooled_frames": d.pooled_frames,
                "pooling_fallback": d.pooling_fallback,
                "runner_up": d.runner_up,
                "margin": d.margin,
            }
            for d in result.diagnostics
        ],
    }
    if mvdr.gated_fallback_tracks is not None:
        doc["mvdr_gated_fallback_tracks"] = len(mvdr.gated_fallback_tracks)
    return doc


def write_assignment(path: str | Path, result: AssignmentResult, mvdr: MvdrDiagnostics) -> None:
    dump_json(assignment_to_dict(result, mvdr), path)
