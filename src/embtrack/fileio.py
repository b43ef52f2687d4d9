"""On-disk formats: float32 WAV audio, ground-truth JSON, enrollment pool,
trajectory and fragment JSON lines, and assignment reports.

A WAV file holds one FoaSignal, little-endian throughout:

    "RIFF" <u32 file size - 8> "WAVE"
    "fmt " <u32 18> <u16 3 (IEEE float)> <u16 4 channels> <u32 16000>
           <u32 256000 (bytes/s)> <u16 16 (block align)>
           <u16 32 (bits)> <u16 0 (cbSize)>
    "fact" <u32 4> <u32 samples per channel>
    "data" <u32 16 * samples> <f4 W Y Z X, one sample of each channel in turn>

The rate in the header is dsp.SAMPLE_RATE, the one rate of every signal.
write_wav returns the sha256 of the bytes it wrote, unless told not to hash
them (write_scene hashes only the mixture). read_wav walks the
chunks in any order, skips the ones it does not know (an odd-sized chunk is
followed by a pad byte) and accepts only 4-channel 32-bit float audio at
SAMPLE_RATE; anything else is a ValueError that names the file. Given a
sha256, it hashes the bytes it read and checks them before it parses them,
so a file whose hash is checked is read once. The signal it returns is a
read-only float32 (4, T) view of those bytes, so it takes no memory beyond
the file's; its consumers widen the samples to float64, which is exact,
where they compute with them.

An enrollment pool file holds one JSON line {"identity": str, "vector":
[float, ...]} per entry, in pool order (write_enrollment); the vectors read
back bit for bit (read_enrollment).

A ground_truth.json keeps the scene spec's sample_rate key, written as
SAMPLE_RATE; a spec that names another rate is a ValueError.
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
from .dsp import SAMPLE_RATE
from .embedding import Embedding, EnrollmentPool
from .fragments import Fragment
from .geometry import DoA
from .reassignment import AssignmentResult
from .scene import FoaSignal, Scene, SceneSpec, SpeakerGroundTruth, VoiceParams, render_scene
from .tracking import Trajectory

_IEEE_FLOAT = 3
_CHANNELS = 4
_BLOCK_ALIGN = 4 * _CHANNELS
# Samples per block that write_wav interleaves, hashes and writes (256 KB).
_WAV_BLOCK = 16384


def write_wav(path: str | Path, signal: FoaSignal, *, sha256: bool = True) -> str | None:
    """Write signal as float32 WAV; returns the sha256 hex digest of the
    file, or None with sha256 False, when nothing is hashed.

    The samples are interleaved into float32 _WAV_BLOCK samples at a time,
    and each block is hashed and written from one reused buffer, so no
    whole-file copy is made; the bytes are those of one float32 copy of
    signal.channels.T.
    """
    channels = signal.channels
    num_samples = channels.shape[1]
    data_bytes = num_samples * _BLOCK_ALIGN
    fmt = struct.pack(
        "<HHIIHHH",
        _IEEE_FLOAT, _CHANNELS, SAMPLE_RATE, SAMPLE_RATE * _BLOCK_ALIGN, _BLOCK_ALIGN, 32, 0,
    )
    chunks = (
        b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"fact" + struct.pack("<II", 4, num_samples)
        + b"data" + struct.pack("<I", data_bytes)
    )
    header = b"RIFF" + struct.pack("<I", 4 + len(chunks) + data_bytes) + b"WAVE" + chunks
    digest = hashlib.sha256(header) if sha256 else None
    block = np.empty((min(num_samples, _WAV_BLOCK), _CHANNELS), dtype="<f4")
    with open(path, "wb") as f:
        f.write(header)
        for start in range(0, num_samples, _WAV_BLOCK):
            samples = block[: min(num_samples - start, _WAV_BLOCK)]
            for c in range(_CHANNELS):  # a column at a time: faster than one transposed copy
                samples[:, c] = channels[c, start : start + len(samples)]
            if digest is not None:
                digest.update(samples)
            f.write(samples)
    return digest.hexdigest() if digest is not None else None


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
    if sample_rate != SAMPLE_RATE:
        raise ValueError(f"{path}: audio at {sample_rate} Hz, not at {SAMPLE_RATE} Hz")
    if len(data) % _BLOCK_ALIGN:
        raise ValueError(f"{path}: data chunk is not a whole number of samples")
    samples = np.frombuffer(data, dtype="<f4").reshape(-1, _CHANNELS)
    return FoaSignal(samples.T)


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _from_json(klass, d: dict):
    """klass(**d), with the JSON lists made back into the tuples klass holds."""
    return klass(**{name: _tuples(value) for name, value in d.items()})


def spec_to_dict(spec: SceneSpec) -> dict:
    return {**dataclasses.asdict(spec), "sample_rate": SAMPLE_RATE}


def spec_from_dict(d: dict) -> SceneSpec:
    """The SceneSpec of spec_to_dict's dict; a sample_rate other than
    SAMPLE_RATE is a ValueError."""
    d = dict(d)
    rate = d.pop("sample_rate", SAMPLE_RATE)
    if rate != SAMPLE_RATE:
        raise ValueError(f"scene spec at {rate} Hz, not at {SAMPLE_RATE} Hz")
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
    """The ground truth and spec write_ground_truth wrote. Speaker j's wet
    signal is speakerNN.wav with NN = j, so speaker ids other than 0 to J - 1
    in file order are a ValueError."""
    doc = json.loads(Path(path).read_text())
    ids = [s["speaker_id"] for s in doc["speakers"]]
    if not all(type(i) is int for i in ids) or ids != list(range(len(ids))):
        raise ValueError(f"{path}: speaker ids {ids} are not 0 to {len(ids) - 1} in order")
    speakers = []
    for s in doc["speakers"]:
        gt = SpeakerGroundTruth(speaker_id=s["speaker_id"], voice=_from_json(VoiceParams, s["voice"]))
        gt.segments = [
            (seg["onset"], seg["offset"], DoA(seg["azimuth"], seg["elevation"]))
            for seg in s["segments"]
        ]
        speakers.append(gt)
    return speakers, spec_from_dict(doc["spec"])


def write_scene(scene_dir: str | Path, spec: SceneSpec) -> str:
    """Render spec's scene into scene_dir one signal at a time; returns the
    sha256 of mixture.wav.

    Each speakerNN.wav is written as soon as render_scene has built that
    speaker's wet signal, which is then dropped; mixture.wav and
    ground_truth.json follow. So the mixture accumulator and one wet signal
    are all the float64 signals held at a time. Only the mixture is hashed:
    the manifest binds it, not the speaker WAVs. An existing mixture.wav is
    removed before the first speaker WAV is written, so a write that fails
    part-way does not leave an old mixture beside new speaker WAVs.
    """
    scene_dir = Path(scene_dir)
    scene_dir.mkdir(parents=True, exist_ok=True)
    (scene_dir / "mixture.wav").unlink(missing_ok=True)
    mixture, ground_truth = render_scene(
        spec, lambda j, wet: write_wav(scene_dir / f"speaker{j:02d}.wav", wet, sha256=False)
    )
    sha256 = write_wav(scene_dir / "mixture.wav", mixture)
    write_ground_truth(scene_dir / "ground_truth.json", ground_truth, spec)
    return sha256


def read_scene(
    scene_dir: str | Path, wet: bool = True, *, sha256: str | None = None
) -> tuple[Scene, SceneSpec]:
    """The scene write_scene wrote; with wet False its speakerNN.wav files are
    not read and scene.wet is empty. sha256, when given, is the hash the
    mixture.wav bytes must have (read_wav checks it before parsing them). A
    WAV not at SAMPLE_RATE (read_wav), a mixture whose length is not the
    int(round(spec.duration * SAMPLE_RATE)) samples render_scene writes, or
    a speaker WAV whose length differs from the mixture's, is a ValueError."""
    scene_dir = Path(scene_dir)
    ground_truth, spec = read_ground_truth(scene_dir / "ground_truth.json")
    path = scene_dir / "mixture.wav"
    mixture = read_wav(path, sha256=sha256)
    expected = int(round(spec.duration * SAMPLE_RATE))
    if mixture.num_samples != expected:
        raise ValueError(f"{path}: {mixture.num_samples} samples, the scene spec has {expected}")
    speakers = range(len(ground_truth)) if wet else ()
    signals = []
    for j in speakers:
        path = scene_dir / f"speaker{j:02d}.wav"
        signal = read_wav(path)
        if signal.num_samples != mixture.num_samples:
            raise ValueError(
                f"{path}: {signal.num_samples} samples, the mixture has {mixture.num_samples}"
            )
        signals.append(signal)
    return Scene(mixture, signals, ground_truth), spec


def write_enrollment(path: str | Path, entries: list[tuple[str, Embedding]]) -> str:
    """Write pool entries, one JSON line {"identity", "vector"} each, in pool
    order; returns the sha256 of the file. JSON writes each float by its
    shortest repr, so read_enrollment gives back the very same vectors."""
    lines = [
        json.dumps({"identity": identity, "vector": emb.vector.tolist()}, sort_keys=True)
        for identity, emb in entries
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    write_text_atomic(path, text)
    return hashlib.sha256(text.encode()).hexdigest()


def read_enrollment(path: str | Path, *, sha256: str | None = None) -> list[tuple[str, Embedding]]:
    """The entries write_enrollment wrote. sha256, when given, is the hash
    the file's bytes must have. An entry whose identity is not a string,
    whose vector is not a list of numbers of the same length as the others
    or not of unit norm, or an identity listed twice, is a ValueError."""
    raw = Path(path).read_bytes()
    if sha256 is not None and hashlib.sha256(raw).hexdigest() != sha256:
        raise ValueError(f"{path} does not match sha256 {sha256}")
    entries = []
    for line in raw.decode().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        identity, vector = record["identity"], record["vector"]
        numbers = isinstance(vector, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in vector
        )
        if not isinstance(identity, str) or not numbers:
            raise ValueError(f"{path}: malformed enrollment entry {line[:80]!r}")
        entries.append((identity, Embedding(np.array(vector, dtype=np.float64))))
    if len({emb.vector.shape for _, emb in entries}) > 1:
        raise ValueError(f"{path}: enrollment vectors differ in length")
    return EnrollmentPool(entries).entries


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
    """The trajectories of trajectories_to_jsonl's format. A track_id that is
    neither an int (not a bool) nor a str, a frame index that is not an int
    (a float, or a bool) or that is negative, or an active flag that is not
    a JSON bool, is a ValueError."""
    trajectories = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        track_id = record["track_id"]
        if type(track_id) not in (int, str):
            raise ValueError(f"track_id {track_id!r} is neither an int nor a str")
        frames = []
        for index, az, el, active in record["frames"]:
            if type(index) is not int or index < 0:
                raise ValueError(f"frame index {index!r} is not a non-negative int")
            if type(active) is not bool:
                raise ValueError(f"active flag {active!r} is not a bool")
            frames.append((index, DoA(az, el), active))
        trajectories.append(Trajectory(track_id=track_id, frames=frames))
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
