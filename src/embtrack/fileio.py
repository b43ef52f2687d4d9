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

Every JSON file is read through decode, against the declaration of what
it holds; a value of another type, a non-finite number, or a missing or
unknown key is a ValueError that names the file (or line), the path to the
value and the value. Every file lists every field: no default fills a
missing one (defaults fill only a config, in ExperimentConfig.from_dict).
The declarations:

    manifest.json       experiment.DatasetManifest, its rows experiment.SceneRow
    run_manifest.json   experiment.RunManifest
    ground_truth.json   GroundTruthFile: its speakers Speaker, each segment
                        Segment, and its spec SceneSpec (spec_from_dict)
    enrollment.jsonl    PoolEntry per line, in pool order (write_enrollment);
                        the vectors read back bit for bit
    tracks*.jsonl       TrackRecord per line (trajectories_from_jsonl)

A ground_truth.json keeps the scene spec's sample_rate key, written as
SAMPLE_RATE; a spec without it, or that names another rate, is a ValueError.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import reprlib
import struct
import types
import typing
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

# The declarations of the JSON files, besides the dataclasses they hold; a
# ground_truth.json's spec is read by spec_from_dict.
Segment = typing.TypedDict("Segment", {"onset": float, "offset": float, "azimuth": float, "elevation": float})
Speaker = typing.TypedDict(
    "Speaker", {"speaker_id": int, "voice": VoiceParams, "segments": tuple[Segment, ...]})
GroundTruthFile = typing.TypedDict(
    "GroundTruthFile", {"spec": dict[str, object], "speakers": tuple[Speaker, ...]})
PoolEntry = typing.TypedDict("PoolEntry", {"identity": str, "vector": tuple[float, ...]})
TrackRecord = typing.TypedDict(
    "TrackRecord", {"track_id": int | str, "frames": tuple[tuple[int, float, float, bool], ...]})

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


class _Mismatch(Exception):
    """args: what is wrong, then the key or index of each container left, innermost first."""


# Each leaf hint's test of a JSON value, and what the test asks for.
_LEAVES = {
    int: (lambda v: type(v) is int, "an int"),
    float: (lambda v: type(v) is int or (type(v) is float and math.isfinite(v)), "a finite number"),
    bool: (lambda v: type(v) is bool, "a bool"),
    str: (lambda v: type(v) is str, "a str"),
    type(None): (lambda v: v is None, "null"),
    object: (lambda v: True, "any value"),
}


def decode(hint, value, where: str):
    """value, as json.loads parsed it, built into the type hint that declares
    it, or a ValueError that names where, the path from there and the value.
    A dataclass takes a mapping of all its fields, defaults or not (defaults
    fill only a config, in ExperimentConfig.from_dict, so every file lists
    every field); a TypedDict one of its keys (its optional keys may be
    missing), dict[str, X] one of X values; other keys are refused, as is what
    the dataclass refuses.
    tuple[X, ...] takes a list of X values, tuple[A, B] a list of an A and a
    B. Leaves are exact: int is an int but not a bool, float a finite int or
    float, bool, str, None and unions of leaves their own values, object any
    value. Values come back as read: no int is made a float."""
    try:
        return _plan(hint)(value)
    except _Mismatch as e:
        at = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(e.args[1:])).lstrip(".")
        raise ValueError(": ".join(filter(None, (where, at, e.args[0])))) from None


def read_json(path: str | Path, hint):
    """The JSON file at path, decoded against hint."""
    return decode(hint, json.loads(Path(path).read_text()), str(path))


def _field(key: str, plan, value):
    """plan(value) for the value at key of a mapping; no plan means an unknown key."""
    if plan is None:
        raise _Mismatch(f"unknown key {key!r}")
    try:
        return plan(value)
    except _Mismatch as e:
        e.args += (key,)
        raise


@functools.cache
def _plan(hint):
    """The function that decode applies to a JSON value of hint, worked out once."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _LEAVES or origin in (typing.Union, types.UnionType):
        tests, names = zip(*(_LEAVES[leaf] for leaf in args or (hint,)))
        test = tests[0] if len(tests) == 1 else lambda v: any(t(v) for t in tests)
        expected = " or ".join(names)

        def leaf(value):
            if test(value):
                return value
            raise _Mismatch(f"{reprlib.repr(value)} is not {expected}")

        return leaf
    if origin is tuple:
        length = None if args[1:] == (...,) else len(args)
        items = itertools.repeat(_plan(args[0])) if length is None else tuple(map(_plan, args))
        expected = "a list" if length is None else f"a list of {length}"

        def items_plan(value):  # one try for the whole list: a trajectory's frames are the hot path
            if type(value) is not list or (length is not None and len(value) != length):
                raise _Mismatch(f"{reprlib.repr(value)} is not {expected}")
            out = []
            try:
                for item, v in zip(items, value):
                    out.append(item(v))
            except _Mismatch as e:
                e.args += (len(out),)
                raise
            return tuple(out)

        return items_plan
    if origin is dict:
        item = _plan(args[1])
        plan_of, required, make = (lambda key: item), set(), dict
    elif typing.is_typeddict(hint):
        plan_of = {key: _plan(h) for key, h in typing.get_type_hints(hint).items()}.get
        required, make = hint.__required_keys__, dict
    else:  # a dataclass
        hints, fields = typing.get_type_hints(hint), dataclasses.fields(hint)
        plan_of = {f.name: _plan(hints[f.name]) for f in fields}.get
        required, make = {f.name for f in fields}, hint

    def mapping_plan(value):
        if type(value) is not dict:
            raise _Mismatch(f"{reprlib.repr(value)} is not a mapping")
        out = {key: _field(key, plan_of(key), v) for key, v in value.items()}
        if missing := required - out.keys():
            raise _Mismatch(f"missing key {min(missing)!r}")
        try:
            return make(**out)
        except ValueError as e:
            raise _Mismatch(str(e)) from None

    return mapping_plan


def spec_to_dict(spec: SceneSpec) -> dict:
    return {**dataclasses.asdict(spec), "sample_rate": SAMPLE_RATE}


def spec_from_dict(d: dict, where: str = "scene spec") -> SceneSpec:
    """The SceneSpec of spec_to_dict's dict, decoded; a missing sample_rate,
    or one other than SAMPLE_RATE, is a ValueError."""
    d = dict(d)
    if "sample_rate" not in d:
        raise ValueError(f"{where}: missing key 'sample_rate'")
    if (rate := d.pop("sample_rate")) != SAMPLE_RATE:
        raise ValueError(f"scene spec at {rate} Hz, not at {SAMPLE_RATE} Hz")
    return decode(SceneSpec, d, where)


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


def _jsonl(records) -> str:
    """One sorted-key JSON line per record; a NaN or infinity is a ValueError."""
    return "".join(json.dumps(record, sort_keys=True, allow_nan=False) + "\n" for record in records)


def dump_json(obj, path: str | Path) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline. A NaN
    or infinity is a ValueError, raised before path is touched: no writer
    emits a non-standard JSON constant."""
    write_text_atomic(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def write_ground_truth(path: str | Path, ground_truth: list[SpeakerGroundTruth], spec: SceneSpec) -> None:
    speakers = [
        {
            **dataclasses.asdict(gt),
            "segments": [
                {"onset": on, "offset": off, **dataclasses.asdict(doa)} for on, off, doa in gt.segments
            ],
        }
        for gt in ground_truth
    ]
    dump_json({"spec": spec_to_dict(spec), "speakers": speakers}, path)


def read_ground_truth(path: str | Path) -> tuple[list[SpeakerGroundTruth], SceneSpec]:
    """The ground truth and spec write_ground_truth wrote. Speaker j's wet
    signal is speakerNN.wav with NN = j, so speaker ids other than 0 to J - 1
    in file order are a ValueError. So is a speaker whose segments are not
    one or more sorted, disjoint spans with 0 <= onset < offset <= the
    spec's duration, as scene._sample_activity draws them."""
    doc = read_json(path, GroundTruthFile)
    spec = spec_from_dict(doc["spec"], f"{path}: spec")
    ids = [s["speaker_id"] for s in doc["speakers"]]
    if ids != list(range(len(ids))):
        raise ValueError(f"{path}: speaker ids {ids} are not 0 to {len(ids) - 1} in order")
    speakers = []
    for j, s in enumerate(doc["speakers"]):
        segments = [(g["onset"], g["offset"], DoA(g["azimuth"], g["elevation"])) for g in s["segments"]]
        bounds = [0.0, *(t for on, off, _ in segments for t in (on, off)), spec.duration]
        if not segments or bounds != sorted(bounds) or any(on == off for on, off, _ in segments):
            raise ValueError(
                f"{path}: speakers[{j}].segments are not sorted, disjoint spans in [0, {spec.duration}] s"
            )
        speakers.append(SpeakerGroundTruth(speaker_id=j, voice=s["voice"], segments=segments))
    return speakers, spec


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
    text = _jsonl({"identity": identity, "vector": emb.vector.tolist()} for identity, emb in entries)
    write_text_atomic(path, text)
    return hashlib.sha256(text.encode()).hexdigest()


def read_enrollment(path: str | Path, *, sha256: str | None = None) -> list[tuple[str, Embedding]]:
    """The entries write_enrollment wrote, each line decoded against
    PoolEntry. sha256, when given, is the hash the file's bytes must have.
    Vectors of different lengths or not of unit norm, or an identity listed
    twice, are a ValueError."""
    raw = Path(path).read_bytes()
    if sha256 is not None and hashlib.sha256(raw).hexdigest() != sha256:
        raise ValueError(f"{path} does not match sha256 {sha256}")
    entries = []
    for n, line in enumerate(raw.decode().splitlines(), 1):
        if line.strip():
            entry = decode(PoolEntry, json.loads(line), f"{path} line {n}")
            entries.append((entry["identity"], Embedding(np.array(entry["vector"], dtype=np.float64))))
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

    An imported file must pass trajectories_from_jsonl's checks: each line
    a TrackRecord (an int or str track_id; frames of an int index, finite
    azimuth and elevation, and a JSON bool active flag), each index
    non-negative and listed once in its record, each track_id used by one
    record, and each elevation in [-90, 90].
    """
    return _jsonl(
        {
            "track_id": traj.track_id,
            "frames": [
                [index, doa.azimuth, doa.elevation, bool(active)] for index, doa, active in traj.frames
            ],
        }
        for traj in trajectories
    )


def trajectories_from_jsonl(text: str) -> list[Trajectory]:
    """The trajectories of trajectories_to_jsonl's format, each line decoded
    against TrackRecord. A negative frame index, an index listed twice in a
    record or a track_id used by two records is a ValueError."""
    trajectories = []
    track_ids = set()
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        record = decode(TrackRecord, json.loads(line), f"line {n}")
        track_id, indices = record["track_id"], [frame[0] for frame in record["frames"]]
        if track_id in track_ids:
            raise ValueError(f"line {n}: track_id {track_id!r} is used by an earlier record")
        if min(indices, default=0) < 0:
            raise ValueError(f"line {n}: frame index {min(indices)} is negative")
        if len(set(indices)) < len(indices):
            raise ValueError(f"line {n}: track {track_id!r} lists a frame index twice")
        track_ids.add(track_id)
        frames = [(index, DoA(az, el), active) for index, az, el, active in record["frames"]]
        trajectories.append(Trajectory(track_id=track_id, frames=frames))
    return trajectories


def write_trajectories(path: str | Path, trajectories: list[Trajectory]) -> None:
    write_text_atomic(path, trajectories_to_jsonl(trajectories))


def read_trajectories(path: str | Path) -> list[Trajectory]:
    return trajectories_from_jsonl(Path(path).read_text())


def write_fragments(path: str | Path, fragments: list[Fragment]) -> None:
    records = (
        {
            "fragment_id": f.fragment_id,
            "track_id": f.source_track_id,
            "onset_frame": f.onset_frame,
            "offset_frame": f.offset_frame,
            "representative_doa": [f.representative_doa.azimuth, f.representative_doa.elevation],
        }
        for f in fragments
    )
    write_text_atomic(path, _jsonl(records))


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
