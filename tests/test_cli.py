import dataclasses
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import previous_write_scene
from embtrack import embedding, experiment, fileio
from embtrack import scene as scene_module
from embtrack.cli import main
from embtrack.embedding import build_distractors
from embtrack.experiment import (
    COMPLETE_MARKER,
    ConfigError,
    DataError,
    DatasetConfig,
    ExperimentConfig,
    RunConfig,
    cmd_eval,
    cmd_gen,
    cmd_run,
)
from embtrack.fragments import DurationPolicy
from embtrack.geometry import DoA
from embtrack.metrics import aggregate_report, evaluate_scene
from embtrack.reassignment import enroll_speakers, reassign_scene, shared_distractors, track_and_enroll
from embtrack.scene import FoaSignal, SceneSpec, sample_voice_params, simulate
from embtrack.seeding import derive_seed
from embtrack.tracking import Trajectory

SMALL = {
    "master_seed": 7,
    "dataset": {"count": 3, "duration": 8.0, "regime": "distant"},
    "run": {
        "tracker": "gt",
        "beamformers": ["ideal", "ds"],
        "durations": ["250", "whole"],
        "enrollment_sizes": [2],
    },
    "eval": {"bootstrap_iters": 20},
}


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(SMALL)))
    cmd_gen(cfg, out)
    return cfg, out


@pytest.fixture(scope="module")
def small_results(small_dataset, tmp_path_factory):
    cfg, data = small_dataset
    results = tmp_path_factory.mktemp("results")
    cmd_run(cfg, data, results)
    return cfg, data, results


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "small.yaml"
    path.write_text(yaml.safe_dump(SMALL))
    return path


@pytest.fixture(scope="module")
def one_scene(tmp_path_factory):
    data = tmp_path_factory.mktemp("one_scene")
    cmd_gen(ExperimentConfig.from_dict({"master_seed": 3, "dataset": {"count": 1, "duration": 6.0}}), data)
    return data


def set_wav_rate(path: Path, rate: int) -> None:
    """Rewrite the sample rate (and byte rate) in a write_wav file's header."""
    raw = bytearray(path.read_bytes())
    struct.pack_into("<II", raw, 24, rate, 16 * rate)
    path.write_bytes(bytes(raw))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestFileIo:
    def test_scene_round_trip(self, tmp_path):
        spec = SceneSpec(seed=1, duration=4.0)
        scene = simulate(spec)
        fileio.write_scene(tmp_path / "s", spec)
        loaded, spec_back = fileio.read_scene(tmp_path / "s")
        assert spec_back == spec
        assert np.allclose(loaded.mixture.channels, scene.mixture.channels, atol=1e-6)
        assert len(loaded.wet) == 2
        for a, b in zip(loaded.ground_truth, scene.ground_truth):
            assert a.speaker_id == b.speaker_id
            assert len(a.segments) == len(b.segments)

    def test_wav_is_float32_4ch(self, tmp_path):
        spec = SceneSpec(seed=1, duration=1.0)
        scene = simulate(spec)
        fileio.write_wav(tmp_path / "x.wav", scene.mixture)
        from scipy.io import wavfile

        sr, data = wavfile.read(tmp_path / "x.wav")
        assert sr == 16000
        assert data.dtype == np.float32
        assert data.shape[1] == 4

    @pytest.mark.parametrize(
        "num_samples", [0, 1, 3, 16000, fileio._WAV_BLOCK, 2 * fileio._WAV_BLOCK + 1]
    )
    def test_wav_bytes_match_an_independent_writer(self, tmp_path, num_samples):
        from scipy.io import wavfile

        channels = np.random.default_rng(num_samples).standard_normal((4, num_samples))
        fileio.write_wav(tmp_path / "ours.wav", FoaSignal(channels))
        wavfile.write(tmp_path / "reference.wav", 16000, channels.astype(np.float32).T)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "reference.wav").read_bytes()

    def test_wav_round_trip_is_exact_for_float32_values(self, tmp_path):
        rng = np.random.default_rng(4)
        channels = rng.standard_normal((4, 5001))
        channels[:, :4] = [0.0, -0.0, 1e-40, 3.4e38]  # zero signs, a subnormal, near the max
        channels = channels.astype(np.float32).astype(np.float64)
        fileio.write_wav(tmp_path / "x.wav", FoaSignal(channels))
        back = fileio.read_wav(tmp_path / "x.wav")
        assert struct.unpack_from("<I", (tmp_path / "x.wav").read_bytes(), 24) == (16000,)
        assert back.channels.dtype == np.float32
        assert back.channels.astype(np.float64).tobytes() == channels.tobytes()

    @pytest.mark.parametrize("rate", [0, 8000, 22050])
    def test_wav_reader_refuses_another_sample_rate(self, tmp_path, rate):
        from scipy.io import wavfile

        path = tmp_path / "x.wav"
        wavfile.write(path, rate, np.zeros((800, 4), dtype=np.float32))
        with pytest.raises(ValueError, match=f"{path}: audio at {rate} Hz, not at 16000 Hz"):
            fileio.read_wav(path)

    def test_wav_reader_returns_a_read_only_view_of_the_bytes_it_read(self, tmp_path):
        # 30 s at 16 kHz: a 7.68 MB file. Besides the bytes read, only a
        # block of the finiteness check's booleans (256 KB) is allocated; a
        # full-size boolean array would take a quarter of the file size, and
        # any copy of the samples, even a float32 one, twice the file size.
        channels = np.random.default_rng(5).standard_normal((4, 30 * 16000))
        path = tmp_path / "x.wav"
        fileio.write_wav(path, FoaSignal(channels))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            back = fileio.read_wav(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * size
        samples = back.channels
        assert samples.dtype == np.float32 and samples.shape == (4, 30 * 16000)
        assert np.array_equal(samples, channels.astype(np.float32))
        assert not samples.flags.writeable
        with pytest.raises(ValueError):
            samples[0, 0] = 1.0
        base = samples
        while isinstance(base, np.ndarray):
            base = base.base
        raw = base.obj  # the memoryview over the bytes read_wav read
        assert raw == path.read_bytes()
        assert np.shares_memory(samples, np.frombuffer(raw, dtype=np.uint8))

    def test_signal_keeps_float32_and_widens_other_input(self):
        single = np.zeros((4, 3), dtype=np.float32)
        assert FoaSignal(single).channels is single
        for channels in (np.zeros((4, 3), dtype=np.int16), np.zeros((4, 3), dtype=np.float16), [[0]] * 4):
            assert FoaSignal(channels).channels.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_wav_writer_holds_a_block(self, tmp_path, dtype):
        # 30 s at 16 kHz: a 7.68 MB file, written and hashed from one
        # 256 KB block; a whole float32 copy of the samples is the file size.
        channels = np.random.default_rng(6).standard_normal((4, 30 * 16000)).astype(dtype)
        signal = FoaSignal(channels)
        tracemalloc.start()
        try:
            digest = fileio.write_wav(tmp_path / "x.wav", signal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        raw = (tmp_path / "x.wav").read_bytes()
        assert peak < len(raw) / 8
        assert digest == hashlib.sha256(raw).hexdigest()
        assert np.array_equal(fileio.read_wav(tmp_path / "x.wav").channels, channels.astype(np.float32))

    @pytest.mark.parametrize("num_samples", [0, 3, 16000])
    def test_wav_writer_returns_the_sha256_of_the_file(self, tmp_path, num_samples):
        channels = np.random.default_rng(num_samples).standard_normal((4, num_samples))
        path = tmp_path / "x.wav"
        digest = fileio.write_wav(path, FoaSignal(channels))
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_scene_writer_returns_the_sha256_of_the_mixture(self, tmp_path):
        spec = SceneSpec(seed=1, duration=1.0)
        digest = fileio.write_scene(tmp_path / "s", spec)
        assert digest == hashlib.sha256((tmp_path / "s" / "mixture.wav").read_bytes()).hexdigest()

    def test_wav_reader_skips_unknown_and_odd_sized_chunks(self, tmp_path):
        channels = np.arange(12.0).reshape(4, 3)
        fileio.write_wav(tmp_path / "x.wav", FoaSignal(channels))
        raw = (tmp_path / "x.wav").read_bytes()
        extra = b"LIST" + (3).to_bytes(4, "little") + b"abc" + b"\0"
        raw = raw[:12] + extra + raw[12:]
        raw = raw[:4] + (len(raw) - 8).to_bytes(4, "little") + raw[8:]
        (tmp_path / "y.wav").write_bytes(raw)
        assert np.array_equal(fileio.read_wav(tmp_path / "y.wav").channels, channels)

    def test_wav_reader_checks_the_sha256_of_the_bytes_it_parses(self, tmp_path):
        channels = np.arange(12.0).reshape(4, 3)
        path = tmp_path / "x.wav"
        fileio.write_wav(path, FoaSignal(channels))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert np.array_equal(fileio.read_wav(path, sha256=digest).channels, channels)
        with pytest.raises(ValueError, match="does not match sha256"):
            fileio.read_wav(path, sha256=hashlib.sha256(b"other").hexdigest())

    def test_spec_and_voice_round_trip(self, tmp_path):
        spec = SceneSpec(
            seed=5, num_speakers=3, duration=3.0, snr=None, level_diff_range=(1.0, 3.5),
            separation_regime="close", segment_range=(1.5, 2.5), pause_range=(1.0, 1.5),
            jump_on_silence=False,
        )
        assert fileio.spec_from_dict(json.loads(json.dumps(fileio.spec_to_dict(spec)))) == spec
        scene = simulate(spec)
        fileio.write_ground_truth(tmp_path / "gt.json", scene.ground_truth, spec)
        speakers, spec_back = fileio.read_ground_truth(tmp_path / "gt.json")
        assert spec_back == spec
        assert [s.voice for s in speakers] == [gt.voice for gt in scene.ground_truth]
        assert all(isinstance(r, tuple) for s in speakers for r in s.voice.resonances)

    def test_trajectory_jsonl_round_trip(self, tmp_path):
        trajectories = [
            Trajectory(0, [(0, DoA(10, 5), True), (1, DoA(11, 5), False)]),
            Trajectory("speaker01", [(4, DoA(-120, -45), True)]),
        ]
        path = tmp_path / "t.jsonl"
        fileio.write_trajectories(path, trajectories)
        loaded = fileio.read_trajectories(path)
        assert [t.track_id for t in loaded] == [0, "speaker01"]
        assert loaded[0].frames == trajectories[0].frames

    def test_trajectory_jsonl_external_import(self, tmp_path):
        path = tmp_path / "ext.jsonl"
        path.write_text('{"track_id": 3, "frames": [[0, 10.0, -5.0, true]]}\n')
        (traj,) = fileio.read_trajectories(path)
        assert traj.track_id == 3
        assert traj.frames == [(0, DoA(10.0, -5.0), True)]


    def test_enrollment_round_trip_is_exact(self, tmp_path):
        voices = [sample_voice_params(np.random.default_rng(k)) for k in range(2)]
        entries = enroll_speakers(voices, (6, 0)) + build_distractors(1, seed=9)
        path = tmp_path / "enrollment.jsonl"
        digest = fileio.write_enrollment(path, entries)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        back = fileio.read_enrollment(path, sha256=digest)
        assert [i for i, _ in back] == ["speaker00", "speaker01", "distractor00"]
        for (_, got), (_, written) in zip(back, entries, strict=True):
            assert np.array_equal(got.vector, written.vector)
        with pytest.raises(ValueError, match="does not match sha256"):
            fileio.read_enrollment(path, sha256=hashlib.sha256(b"other").hexdigest())

    @pytest.mark.parametrize(
        "line",
        [
            '{"identity": 3, "vector": [1.0, 0.0]}',
            '{"identity": "a", "vector": [true, 0.0]}',
            '{"identity": "a", "vector": [2.0, 0.0]}',
            '{"identity": "a", "vector": [1.0, 0.0]}\n{"identity": "a", "vector": [0.0, 1.0]}',
            '{"identity": "a", "vector": [1.0, 0.0]}\n{"identity": "b", "vector": [0.0, 0.0, 1.0]}',
            '{"vector": [1.0, 0.0]}',
        ],
        ids=["int-identity", "bool-component", "not-unit", "twice", "lengths", "no-identity"],
    )
    def test_enrollment_reader_refuses_malformed_entries(self, tmp_path, line):
        path = tmp_path / "enrollment.jsonl"
        path.write_text(line + "\n")
        with pytest.raises((ValueError, KeyError)):
            fileio.read_enrollment(path)

    @pytest.mark.parametrize("index", ["1.5", "true", "-1", "1.0", '"1"'])
    def test_trajectory_frame_index_must_be_a_non_negative_int(self, index):
        text = '{"track_id": 3, "frames": [[%s, 10.0, -5.0, true]]}\n' % index
        words = "frame index" if index == "-1" else f"line 1: frames[0][0]: {json.loads(index)!r} is not an int"
        with pytest.raises(ValueError, match=re.escape(words)):
            fileio.trajectories_from_jsonl(text)

    @pytest.mark.parametrize("track_id", ['["speaker00"]', "true", "1.5", "null", '{"id": 0}'])
    def test_trajectory_track_id_must_be_an_int_or_a_str(self, track_id):
        text = '{"track_id": %s, "frames": [[0, 10.0, -5.0, true]]}\n' % track_id
        with pytest.raises(ValueError, match="track_id"):
            fileio.trajectories_from_jsonl(text)

    @pytest.mark.parametrize("active", ['"false"', '"true"', "0.5", "1", "0", "null"])
    def test_trajectory_active_flag_must_be_a_bool(self, active):
        text = '{"track_id": 3, "frames": [[0, 10.0, -5.0, %s]]}\n' % active
        with pytest.raises(ValueError, match=re.escape(f"line 1: frames[0][3]: {json.loads(active)!r} is not a bool")):
            fileio.trajectories_from_jsonl(text)

    @pytest.mark.parametrize("ids", [[1, 0], [5, 6], [0, 2], [False, True], ["0", "1"]])
    def test_ground_truth_speaker_ids_must_be_their_file_order(self, tmp_path, ids):
        # speaker j's wet signal is speakerNN.wav with NN = j
        scene = simulate(SceneSpec(seed=4, duration=1.0))
        path = tmp_path / "gt.json"
        fileio.write_ground_truth(path, scene.ground_truth, SceneSpec(seed=4, duration=1.0))
        assert [s.speaker_id for s in fileio.read_ground_truth(path)[0]] == [0, 1]
        doc = json.loads(path.read_text())
        doc["speakers"] = [dict(speaker, speaker_id=i) for speaker, i in zip(doc["speakers"], ids)]
        path.write_text(json.dumps(doc))
        words = "speaker ids" if type(ids[0]) is int else f"speakers[0].speaker_id: {ids[0]!r} is not an int"
        with pytest.raises(ValueError, match=re.escape(words)):
            fileio.read_ground_truth(path)


class TestConfig:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"unknown_section": 1})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"dataset": {"planets": 9}})

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset=DatasetConfig(regime="medium")).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(run=RunConfig(tracker="nn")).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(run=RunConfig(enrollment_sizes=(1,))).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(run=RunConfig(durations=("sometimes",))).validate()

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(
            master_seed=3,
            workers=2,
            dataset=DatasetConfig(count=4, regime="close", snr=None, jump_on_silence=False),
            run=RunConfig(beamformers=("ds", "mvdr"), durations=("250", "whole"), enrollment_sizes=(2, 4)),
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        cfg.validate()
        assert cfg.workers == 1


class TestGen:
    def test_scene_directories_created(self, small_dataset):
        cfg, out = small_dataset
        scenes = sorted((out / "scenes").iterdir())
        assert [s.name for s in scenes] == ["scene_0000", "scene_0001", "scene_0002"]
        for s in scenes:
            assert (s / "mixture.wav").exists()
            assert (s / "ground_truth.json").exists()
            assert (s / "speaker00.wav").exists()
            assert (s / "speaker01.wav").exists()

    def test_zero_scenes_empty_manifest(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"dataset": {"count": 0}})
        cmd_gen(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenes"] == []

    @pytest.mark.parametrize("jump_on_silence", [True, False])
    @pytest.mark.parametrize("snr", [15.0, None])
    @pytest.mark.parametrize("num_speakers", [1, 2, 3])
    def test_streamed_scene_equals_the_whole_scene_writer(
        self, tmp_path, num_speakers, snr, jump_on_silence
    ):
        # 5 s: each WAV spans several write blocks and finiteness-check blocks.
        spec = SceneSpec(
            seed=31 + num_speakers, num_speakers=num_speakers, duration=5.0, snr=snr,
            jump_on_silence=jump_on_silence,
        )
        digest = fileio.write_scene(tmp_path / "streamed", spec)
        previous_write_scene(tmp_path / "whole", spec)
        streamed = tree_bytes(tmp_path / "streamed")
        assert len(streamed) == num_speakers + 2
        assert streamed == tree_bytes(tmp_path / "whole")
        assert digest == hashlib.sha256(streamed["mixture.wav"]).hexdigest()

    def test_scene_holds_the_mixture_and_one_wet_signal(self, tmp_path):
        # 30 s: the mixture, or one wet signal, is 15.4 MB in float64. The
        # whole-scene writer held the mixture, every wet signal and a float32
        # copy of each file it wrote.
        peaks = {}
        for num_speakers in (2, 3):
            cfg = ExperimentConfig.from_dict(
                {"master_seed": 12, "dataset": {"duration": 30.0, "num_speakers": num_speakers}}
            )
            tracemalloc.start()
            try:
                experiment._gen_one((cfg, 0, tmp_path / f"j{num_speakers}"))
                _, peaks[num_speakers] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        signal_bytes = 4 * 30 * 16000 * 8
        assert peaks[2] <= 2.5 * signal_bytes
        assert abs(peaks[3] - peaks[2]) <= 1e6

    def test_failed_regen_leaves_no_mixture_beside_new_speaker_wavs(
        self, one_scene, tmp_path, monkeypatch
    ):
        # A re-gen with another seed fails at the second speaker WAV: the old
        # mixture would still match the old manifest, beside a new speaker00.
        data = tmp_path / "data"
        shutil.copytree(one_scene, data)
        write_wav = fileio.write_wav

        def failing(path, signal, **kwargs):
            if Path(path).name == "speaker01.wav":
                raise OSError("no space left on device")
            return write_wav(path, signal, **kwargs)

        monkeypatch.setattr(fileio, "write_wav", failing)
        cfg = ExperimentConfig.from_dict({"master_seed": 4, "dataset": {"count": 1, "duration": 6.0}})
        with pytest.raises(OSError, match="no space"):
            cmd_gen(cfg, data)
        monkeypatch.undo()
        old, new = (root / "scenes" / "scene_0000" for root in (one_scene, data))
        assert (new / "speaker00.wav").read_bytes() != (old / "speaker00.wav").read_bytes()
        assert not (new / "mixture.wav").exists()
        results = tmp_path / "results"
        assert main(["run", "--dataset", str(data), "--out", str(results)]) == 3
        assert list(results.rglob(COMPLETE_MARKER)) == []

    def test_pool_file_holds_the_library_speakers_entries(self, small_dataset):
        cfg, out = small_dataset
        manifest = json.loads((out / "manifest.json").read_text())
        for row in manifest["scenes"]:
            scene_dir = out / "scenes" / row["scene_id"]
            path = scene_dir / experiment.ENROLLMENT_FILE
            assert row["enrollment_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
            gt, _spec = fileio.read_ground_truth(scene_dir / "ground_truth.json")
            expected = enroll_speakers([s.voice for s in gt], (cfg.master_seed, row["index"]))
            for (got_id, got), (want_id, want) in zip(fileio.read_enrollment(path), expected, strict=True):
                assert got_id == want_id and np.array_equal(got.vector, want.vector)

    def test_rerun_same_seed_identical_hashes(self, small_dataset, tmp_path):
        cfg, out = small_dataset
        cmd_gen(cfg, tmp_path)
        a = json.loads((out / "manifest.json").read_text())
        b = json.loads((tmp_path / "manifest.json").read_text())
        assert [s["sha256"] for s in a["scenes"]] == [s["sha256"] for s in b["scenes"]]


class TestRun:
    def test_cells_complete(self, small_results):
        cfg, data, results = small_results
        for scene in ("scene_0000", "scene_0001", "scene_0002"):
            assert (results / scene / "tracks_gt_m2.jsonl").exists()
            for cell in ("gt_m2_ideal_250", "gt_m2_ideal_whole", "gt_m2_ds_250", "gt_m2_ds_whole"):
                cell_dir = results / scene / cell
                assert (cell_dir / "COMPLETE").exists()
                assert (cell_dir / "assignment.json").exists()
                assert (cell_dir / "tracks_after.jsonl").exists()
                assert (cell_dir / "fragments.jsonl").exists()

    def test_pool_is_the_library_front_end_with_the_shared_distractors(self, one_scene, tmp_path):
        # M=4 over two speakers: the pool holds two of the run's shared distractors
        cfg = ExperimentConfig.from_dict(
            {"master_seed": 3, "run": {"beamformers": ["ds"], "enrollment_sizes": [4]}}
        )
        results = tmp_path / "results"
        cmd_run(cfg, one_scene, results)
        scene, _spec = fileio.read_scene(one_scene / "scenes" / "scene_0000", wet=False)
        distractors = shared_distractors(3, [4], 2)
        speakers = enroll_speakers(scene.voices, (3, 0))
        tracks_by_m, pool = track_and_enroll(scene, (3, 0), "gt", [4], speakers, distractors)
        assert pool.identities == ["speaker00", "speaker01", "distractor00", "distractor01"]
        for (_, got), (_, drawn) in zip(pool.entries[2:], distractors, strict=True):
            assert np.array_equal(got.vector, drawn.vector)
        cell = (4, "ds", DurationPolicy(), "oracle")
        result = next(reassign_scene(scene, tracks_by_m, pool, [cell]))
        expected = tmp_path / "assignment.json"
        fileio.write_assignment(expected, result.assignment, result.mvdr_diagnostics)
        written = results / "scene_0000" / "gt_m4_ds_whole" / "assignment.json"
        assert written.read_bytes() == expected.read_bytes()

    def test_resume_skips_and_matches(self, small_results, tmp_path):
        cfg, data, results = small_results
        # remove one cell and resume: outputs must match a fresh full run
        victim = results / "scene_0001" / "gt_m2_ds_whole"
        reference = (victim / "assignment.json").read_text()
        for f in victim.iterdir():
            f.unlink()
        victim.rmdir()
        cmd_run(cfg, data, results)
        assert (victim / "assignment.json").read_text() == reference

    def test_assignment_document_shape(self, small_results, one_scene, tmp_path):
        cfg, data, results = small_results
        doc = json.loads(
            (results / "scene_0000" / "gt_m2_ideal_whole" / "assignment.json").read_text()
        )
        keys = {"assignments", "diagnostics", "mvdr_fallback_bands", "mvdr_total_bands"}
        assert set(doc) == keys
        # a gated MVDR cell also counts its tracks whose gated mask fell back
        # to the full mixture
        gated = tmp_path / "gated"
        assert main([
            "run", "--dataset", str(one_scene), "--out", str(gated),
            "--beamformers", "mvdr", "--durations", "whole", "--noise-cov", "gated",
        ]) == 0
        cell = gated / "scene_0000"
        gated_doc = json.loads((cell / "gt_m2_mvdr_whole" / "assignment.json").read_text())
        assert set(gated_doc) == keys | {"mvdr_gated_fallback_tracks"}
        tracks = fileio.read_trajectories(cell / "tracks_gt_m2.jsonl")
        assert 0 <= gated_doc["mvdr_gated_fallback_tracks"] <= len(tracks)
        for d in doc["diagnostics"]:
            assert set(d) == {
                "fragment_id", "identity", "score", "excluded", "window", "pooled_frames",
                "pooling_fallback", "runner_up", "margin",
            }
            assert isinstance(d["score"], float)  # every fragment is scored by its embedding
            if d["runner_up"] is not None:
                assert d["runner_up"] != d["identity"] and d["margin"] >= 0.0

    def test_assignment_records_cell_window_and_pooling(self, small_results):
        cfg, data, results = small_results
        diagnostics = [
            d
            for scene in ("scene_0000", "scene_0001", "scene_0002")
            for d in json.loads(
                (results / scene / "gt_m2_ds_250" / "assignment.json").read_text()
            )["diagnostics"]
        ]
        assert diagnostics
        for d in diagnostics:
            start, end = d["window"]
            assert end - start <= 0.25 + 1e-9
            assert isinstance(d["pooling_fallback"], bool)
            # MIN_EMBED_FRAMES to the 15 or 16 frames of the scene grid
            # whose centre lies in a 250 ms window (4000 / 256 = 15.6)
            assert 3 <= d["pooled_frames"] <= 16


    def test_mvdr_band_counts_recorded_per_cell(self, one_scene, tmp_path):
        results = tmp_path / "results"
        assert main([
            "run", "--dataset", str(one_scene), "--out", str(results),
            "--beamformers", "ds,mvdr", "--durations", "whole",
        ]) == 0
        mvdr = json.loads((results / "scene_0000" / "gt_m2_mvdr_whole" / "assignment.json").read_text())
        ds = json.loads((results / "scene_0000" / "gt_m2_ds_whole" / "assignment.json").read_text())
        assert mvdr["mvdr_total_bands"] > 0
        assert 0 <= mvdr["mvdr_fallback_bands"] <= mvdr["mvdr_total_bands"]
        assert (ds["mvdr_total_bands"], ds["mvdr_fallback_bands"]) == (0, 0)
        assert "mvdr_gated_fallback_tracks" not in mvdr  # oracle covariances

    @pytest.mark.parametrize(
        "name, content",
        [
            ("mixture.wav", None),
            ("speaker01.wav", None),
            ("ground_truth.json", None),
            ("mixture.wav", b"not a wav file"),
            ("ground_truth.json", b"{}"),
        ],
    )
    def test_missing_or_unreadable_scene_file_exit_code(self, one_scene, tmp_path, name, content):
        data = tmp_path / "data"
        shutil.copytree(one_scene, data)
        path = data / "scenes" / "scene_0000" / name
        if content is None:
            path.unlink()
        else:
            path.write_bytes(content)
        assert main(["run", "--dataset", str(data), "--out", str(tmp_path / "results")]) == 3

    def test_only_ideal_and_oracle_mvdr_read_wet_signals(self, one_scene, tmp_path, capsys):
        dry = tmp_path / "dry"
        shutil.copytree(one_scene, dry)
        for path in dry.glob("scenes/*/speaker*.wav"):
            path.unlink()
        gated = ["--tracker", "est", "--beamformers", "ds,mvdr", "--noise-cov", "gated"]
        trees = []
        for data, out in ((one_scene, "results_full"), (dry, "results_dry")):
            assert main(["run", "--dataset", str(data), "--out", str(tmp_path / out), *gated]) == 0
            trees.append(tree_bytes(tmp_path / out))
        assert trees[0] == trees[1]
        capsys.readouterr()
        for beamformer, out in (("ideal", "results_ideal"), ("mvdr", "results_oracle")):
            argv = ["run", "--dataset", str(dry), "--out", str(tmp_path / out), "--beamformers", beamformer]
            assert main(argv) == 3
            assert "speaker00.wav" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["short", "sample_rate"])
    def test_speaker_wav_not_matching_the_mixture_exit_code(self, one_scene, tmp_path, capsys, kind):
        data = tmp_path / "data"
        shutil.copytree(one_scene, data)
        path = data / "scenes" / "scene_0000" / "speaker00.wav"
        wet = fileio.read_wav(path)
        if kind == "short":
            fileio.write_wav(path, FoaSignal(wet.channels[:, : wet.num_samples // 3]))
        else:
            set_wav_rate(path, 22050)
        results = tmp_path / "results"
        argv = ["run", "--dataset", str(data), "--out", str(results), "--beamformers", "ideal,mvdr"]
        assert main(argv) == 3
        assert f"{path}: " in capsys.readouterr().err
        assert list(results.rglob(COMPLETE_MARKER)) == []

    @pytest.mark.parametrize(
        "kind",
        ["pcm16", "two_channels", "truncated", "not_riff", "0_hz", "8_khz", "one_sample_short"],
    )
    def test_unreadable_mixture_wav_exit_code(self, one_scene, tmp_path, capsys, kind):
        from scipy.io import wavfile

        data = tmp_path / "data"
        shutil.copytree(one_scene, data)
        path = data / "scenes" / "scene_0000" / "mixture.wav"
        mixture = fileio.read_wav(path)
        assert mixture.num_samples == 96000
        if kind == "pcm16":
            wavfile.write(path, 16000, np.zeros((800, 4), dtype=np.int16))
        elif kind == "two_channels":
            wavfile.write(path, 16000, np.zeros((800, 2), dtype=np.float32))
        elif kind == "truncated":
            path.write_bytes(path.read_bytes()[:-7])
        elif kind == "not_riff":
            path.write_bytes(b"RIFX" + path.read_bytes()[4:])
        else:
            # A well-formed WAV that is not the scene spec's: a DS-only run
            # reads no speaker WAV to compare it with.
            rate, n = {"0_hz": (0, 96000), "8_khz": (8000, 96000)}.get(kind, (16000, 95999))
            fileio.write_wav(path, FoaSignal(mixture.channels[:, :n]))
            set_wav_rate(path, rate)
        # The manifest is made to match, so the scene reader is what refuses the file.
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["scenes"][0]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (data / "manifest.json").write_text(json.dumps(manifest))
        results = tmp_path / "results"
        argv = ["run", "--dataset", str(data), "--out", str(results), "--beamformers", "ds"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"cannot read {path.parent}: {path}: " in err
        if kind in ("0_hz", "8_khz"):
            assert f"audio at {rate} Hz, not at 16000 Hz" in err
        if kind == "one_sample_short":
            assert f"{n} samples, the scene spec has 96000" in err
        assert list(results.rglob(COMPLETE_MARKER)) == []

    def test_mixture_not_matching_manifest_sha256_exit_code(self, small_dataset, tmp_path):
        _cfg, data = small_dataset
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        scenes = copy / "scenes"
        shutil.copyfile(scenes / "scene_0001" / "mixture.wav", scenes / "scene_0000" / "mixture.wav")
        argv = ["run", "--dataset", str(copy), "--out", str(tmp_path / "results")]
        assert main(argv + ["--beamformers", "ideal", "--durations", "whole"]) == 3

    @pytest.mark.parametrize("kind", ["missing", "tampered", "other-scene"])
    def test_pool_not_matching_manifest_sha256_exit_code(self, small_dataset, tmp_path, capsys, kind):
        _cfg, data = small_dataset
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        pool = copy / "scenes" / "scene_0001" / experiment.ENROLLMENT_FILE
        if kind == "missing":
            pool.unlink()
        elif kind == "tampered":
            pool.write_text(pool.read_text().replace("speaker01", "speaker02"))
        else:
            shutil.copyfile(copy / "scenes" / "scene_0000" / experiment.ENROLLMENT_FILE, pool)
        results = tmp_path / "results"
        argv = ["run", "--dataset", str(copy), "--out", str(results), "--beamformers", "ds"]
        assert main(argv) == 3
        assert experiment.ENROLLMENT_FILE in capsys.readouterr().err
        # scene_0000 ran first; nothing of scene_0001 was written
        assert {p.parent.parent.name for p in results.rglob(COMPLETE_MARKER)} == {"scene_0000"}
        assert list((results / "scene_0001").rglob("*")) == []

    def test_manifest_without_pool_hashes_exit_code(self, one_scene, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(one_scene, data)
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["scenes"][0]["enrollment_sha256"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        results = tmp_path / "results"
        assert main(["run", "--dataset", str(data), "--out", str(results)]) == 3
        assert "regenerate it with embtrack gen" in capsys.readouterr().err
        assert not results.exists()

    def test_rerun_against_another_pool_is_refused(self, one_scene, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(one_scene, data)
        results = tmp_path / "results"
        argv = ["run", "--dataset", str(data), "--out", str(results), "--beamformers", "ds"]
        assert main(argv) == 0
        before = tree_bytes(results)
        # The same mixture, with the speakers' pool entries of another key.
        scene_dir = data / "scenes" / "scene_0000"
        gt, _spec = fileio.read_ground_truth(scene_dir / "ground_truth.json")
        digest = fileio.write_enrollment(
            scene_dir / experiment.ENROLLMENT_FILE, enroll_speakers([s.voice for s in gt], (4, 0))
        )
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["scenes"][0]["enrollment_sha256"] = digest
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert main(argv) == 2
        assert "another pool hashes" in capsys.readouterr().err
        assert tree_bytes(results) == before

    def test_run_synthesizes_only_distractor_audio(self, one_scene, tmp_path, monkeypatch):
        # The scene speakers' entries come from the pool file gen wrote; with
        # M = 3 over two speakers, run synthesizes the one shared distractor.
        durations = []
        synthesize = scene_module.synthesize_voice

        def spy(voice, duration, seed):
            durations.append(duration)
            return synthesize(voice, duration, seed)

        monkeypatch.setattr(scene_module, "synthesize_voice", spy)
        monkeypatch.setattr(embedding, "synthesize_voice", spy)
        base = ["run", "--dataset", str(one_scene), "--beamformers", "ideal,ds", "--seed", "3"]
        assert main(base + ["--out", str(tmp_path / "m2")]) == 0
        assert durations == []
        assert main(base + ["--out", str(tmp_path / "m3"), "--enrollment-sizes", "3"]) == 0
        assert durations == [embedding.ENROLLMENT_UTTERANCE_S]

    @pytest.mark.parametrize("kind", ["other-scene", "no-speakers"])
    def test_ground_truth_of_another_scene_exit_code(self, small_results, tmp_path, capsys, kind):
        _cfg, dataset, results = small_results
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        path = data / "scenes" / "scene_0000" / "ground_truth.json"
        if kind == "other-scene":
            shutil.copyfile(data / "scenes" / "scene_0001" / "ground_truth.json", path)
        else:
            doc = json.loads(path.read_text())
            doc["speakers"] = []
            path.write_text(json.dumps(doc))
        run = ["run", "--seed", "7", "--dataset", str(data), "--beamformers", "ds"]
        assert main(run + ["--out", str(tmp_path / "results")]) == 3
        assert "is not the ground truth of this dataset's scene" in capsys.readouterr().err
        assert list((tmp_path / "results").rglob(COMPLETE_MARKER)) == []
        report = tmp_path / "report.json"
        ev = ["eval", "--seed", "7", "--dataset", str(data), "--results", str(results)]
        assert main(ev + ["--out", str(report)]) == 3
        assert "is not the ground truth of this dataset's scene" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("ids", [[5, 6], [1, 0]], ids=["out-of-range", "swapped"])
    def test_ground_truth_speaker_ids_out_of_file_order_exit_code(self, small_results, tmp_path, capsys, ids):
        # Ids beyond the speaker WAVs raised an IndexError; swapped ids made the
        # ideal and oracle MVDR cells read the other speaker's WAV.
        _cfg, dataset, results = small_results
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        path = data / "scenes" / "scene_0000" / "ground_truth.json"
        doc = json.loads(path.read_text())
        for speaker, i in zip(doc["speakers"], ids, strict=True):
            speaker["speaker_id"] = i
        path.write_text(json.dumps(doc))
        run = ["run", "--seed", "7", "--dataset", str(data), "--beamformers", "ideal,mvdr"]
        assert main(run + ["--out", str(tmp_path / "results")]) == 3
        assert f"speaker ids {ids} are not 0 to 1 in order" in capsys.readouterr().err
        assert list((tmp_path / "results").rglob(COMPLETE_MARKER)) == []
        report = tmp_path / "report.json"
        ev = ["eval", "--seed", "7", "--dataset", str(data), "--results", str(results)]
        assert main(ev + ["--out", str(report)]) == 3
        assert "speaker ids" in capsys.readouterr().err
        assert not report.exists()

    def test_ground_truth_at_another_sample_rate_exit_code(self, small_results, tmp_path, capsys):
        # Every signal is at 16 kHz: a spec naming another rate is refused as
        # the ground truth is read, by run and by eval.
        _cfg, dataset, results = small_results
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        path = data / "scenes" / "scene_0000" / "ground_truth.json"
        doc = json.loads(path.read_text())
        assert doc["spec"]["sample_rate"] == 16000
        doc["spec"]["sample_rate"] = 22050
        path.write_text(json.dumps(doc))
        run = ["run", "--seed", "7", "--dataset", str(data), "--beamformers", "ds"]
        assert main(run + ["--out", str(tmp_path / "results")]) == 3
        assert "scene spec at 22050 Hz, not at 16000 Hz" in capsys.readouterr().err
        assert list((tmp_path / "results").rglob(COMPLETE_MARKER)) == []
        report = tmp_path / "report.json"
        ev = ["eval", "--seed", "7", "--dataset", str(data), "--results", str(results)]
        assert main(ev + ["--out", str(report)]) == 3
        assert f"cannot read {path}: scene spec at 22050 Hz" in capsys.readouterr().err
        assert not report.exists()

    def test_resuming_a_complete_run_reads_no_scene_file(self, one_scene, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(one_scene, data)
        results = tmp_path / "results"
        argv = ["run", "--dataset", str(data), "--out", str(results)]
        assert main(argv) == 0
        before = tree_bytes(results)
        (data / "scenes" / "scene_0000" / "mixture.wav").unlink()
        assert main(argv) == 0
        assert tree_bytes(results) == before

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--workers", "2"], 0),
            (["--seed", "99"], 2),
            (["--noise-cov", "gated"], 2),
            (["--beamformers", "ideal,ds"], 2),
        ],
    )
    def test_rerun_into_results_of_another_config(self, one_scene, tmp_path, flags, code):
        results = tmp_path / "results"
        argv = ["run", "--dataset", str(one_scene), "--out", str(results), "--beamformers", "mvdr"]
        assert main(argv) == 0
        shutil.rmtree(results / "scene_0000" / "gt_m2_mvdr_whole")
        before = tree_bytes(results)
        assert main(argv + flags) == code
        if code:
            assert tree_bytes(results) == before  # refused before writing anything
        else:
            assert (results / "scene_0000" / "gt_m2_mvdr_whole" / "COMPLETE").exists()

    def test_rerun_on_another_dataset(self, one_scene, tmp_path):
        other = tmp_path / "other"
        cmd_gen(ExperimentConfig.from_dict({"master_seed": 4, "dataset": {"count": 1, "duration": 6.0}}), other)
        results = tmp_path / "results"
        assert main(["run", "--dataset", str(one_scene), "--out", str(results)]) == 0
        before = tree_bytes(results)
        assert main(["run", "--dataset", str(other), "--out", str(results)]) == 2
        assert tree_bytes(results) == before

    def test_failed_manifest_write_keeps_the_old_manifest(self, one_scene, tmp_path, monkeypatch):
        results = tmp_path / "results"
        argv = ["run", "--dataset", str(one_scene), "--out", str(results), "--workers", "1"]
        assert main(argv) == 0
        old = (results / "run_manifest.json").read_bytes()
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == "run_manifest.json":
                raise OSError("killed while writing")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            main(argv[:-1] + ["2"])
        assert (results / "run_manifest.json").read_bytes() == old
        assert [p.name for p in results.rglob("*.tmp")] == []
        monkeypatch.undo()
        assert main(argv[:-1] + ["2"]) == 0
        assert json.loads((results / "run_manifest.json").read_text())["config"]["workers"] == 2

    def test_dataset_section_comes_from_the_dataset(self, tmp_path):
        data = tmp_path / "data"
        three = {"dataset": {"count": 1, "duration": 4.0, "num_speakers": 3}, "run": {"enrollment_sizes": [3]}}
        cmd_gen(ExperimentConfig.from_dict(three), data)
        results = tmp_path / "results"
        # without the gen config, the default enrollment size 2 is below the dataset's 3 speakers
        assert main(["run", "--dataset", str(data), "--out", str(results)]) == 2
        assert not results.exists()
        assert main(["run", "--dataset", str(data), "--out", str(results), "--enrollment-sizes", "4"]) == 0
        run_manifest = json.loads((results / "run_manifest.json").read_text())
        assert run_manifest["config"]["dataset"]["num_speakers"] == 3

    def test_worker_pool_matches_one_process(self, tmp_path):
        data = tmp_path / "data"
        assert main(["gen", "--seed", "11", "--count", "2", "--duration", "6", "--out", str(data)]) == 0
        trees = {}
        for workers in ("1", "2"):
            results = tmp_path / f"results_{workers}"
            assert main([
                "run", "--dataset", str(data), "--out", str(results), "--workers", workers,
                "--beamformers", "ideal,ds", "--durations", "whole,250",
            ]) == 0
            trees[workers] = tree_bytes(results)
            run_manifest = json.loads(trees[workers].pop("run_manifest.json"))
            assert run_manifest["config"].pop("workers") == int(workers)
            trees[workers]["run_manifest.json"] = run_manifest
        assert trees["1"] == trees["2"]


class TestEval:
    def test_report_and_csvs(self, small_results, tmp_path):
        cfg, data, results = small_results
        report = cmd_eval(
            cfg,
            results,
            data,
            tmp_path / "report.json",
            per_scene_csv=tmp_path / "scenes.csv",
            trend_csv=tmp_path / "trend.csv",
        )
        assert (tmp_path / "report.json").exists()
        assert len(report["cells"]) == 4
        for pair in report["cells"].values():
            for phase in ("before", "after"):
                assert 0.0 <= pair[phase]["mean"]["assa"] <= 1.0
        lines = (tmp_path / "scenes.csv").read_text().splitlines()
        assert lines[0] == "scene,cell,phase,assa,le,tsr,tfr"
        assert len(lines) == 1 + 4 * 2 * 3  # cells x phases x scenes
        trend = (tmp_path / "trend.csv").read_text().splitlines()
        assert len(trend) == 1 + 4

    def test_before_is_scored_once_per_enrollment_size(self, small_dataset, tmp_path):
        cfg, data = small_dataset
        cfg = dataclasses.replace(
            cfg, run=dataclasses.replace(cfg.run, durations=("whole",), enrollment_sizes=(2, 3))
        )
        results = tmp_path / "results"
        cmd_run(cfg, data, results)
        report = cmd_eval(cfg, results, data, tmp_path / "report.json")
        expected = {}
        for m in (2, 3):
            per_scene = []
            for scene in ("scene_0000", "scene_0001", "scene_0002"):
                gt, spec = fileio.read_ground_truth(data / "scenes" / scene / "ground_truth.json")
                before = fileio.read_trajectories(results / scene / f"tracks_gt_m{m}.jsonl")
                per_scene.append(
                    evaluate_scene(gt, before, spec.duration, alpha_deg=cfg.eval.alpha_deg)
                )
            expected[m] = aggregate_report(
                per_scene,
                fraction=cfg.eval.bootstrap_fraction,
                iters=cfg.eval.bootstrap_iters,
                seed=derive_seed(cfg.master_seed, "bootstrap"),
                alpha_deg=cfg.eval.alpha_deg,
            ).as_dict()
        assert expected[2] != expected[3]
        for m in (2, 3):
            for bf in ("ideal", "ds"):
                assert report["cells"][f"gt_m{m}_{bf}_whole"]["before"] == expected[m]

    def test_repeated_trajectory_texts_are_scored_once(self, small_results, tmp_path, monkeypatch):
        cfg, data, results = small_results
        copy = tmp_path / "results"
        shutil.copytree(results, copy)
        # In one scene two cells' after files become byte-identical and a third differs.
        scene = copy / "scene_0001"
        text = (scene / "gt_m2_ideal_whole" / "tracks_after.jsonl").read_bytes()
        (scene / "gt_m2_ds_whole" / "tracks_after.jsonl").write_bytes(text)
        trajectories = fileio.read_trajectories(scene / "gt_m2_ideal_whole" / "tracks_after.jsonl")
        fileio.write_trajectories(scene / "gt_m2_ds_250" / "tracks_after.jsonl", trajectories[1:])

        run = SMALL["run"]
        cells = [f"gt_m2_{bf}_{dur}" for bf in run["beamformers"] for dur in run["durations"]]
        files = {"before": "tracks_gt_m2.jsonl"}
        files.update({cell: f"{cell}/tracks_after.jsonl" for cell in cells})
        scenes = ("scene_0000", "scene_0001", "scene_0002")
        texts = {key: tuple((copy / s / f).read_bytes() for s in scenes) for key, f in files.items()}
        assert texts["gt_m2_ds_250"][1] != text
        distinct_files = sum(len({texts[key][i] for key in files}) for i in range(len(scenes)))
        assert distinct_files < len(files) * len(scenes)

        # The reference scores every file.
        kwargs = dict(
            fraction=cfg.eval.bootstrap_fraction,
            iters=cfg.eval.bootstrap_iters,
            seed=derive_seed(cfg.master_seed, "bootstrap"),
            alpha_deg=cfg.eval.alpha_deg,
        )
        expected = {}
        for key, relative in files.items():
            per_scene = []
            for s in scenes:
                gt, spec = fileio.read_ground_truth(data / "scenes" / s / "ground_truth.json")
                trajectories = fileio.read_trajectories(copy / s / relative)
                per_scene.append(
                    evaluate_scene(gt, trajectories, spec.duration, alpha_deg=cfg.eval.alpha_deg)
                )
            expected[key] = aggregate_report(per_scene, **kwargs).as_dict()

        calls = {"evaluate_scene": 0, "read_trajectories": 0, "aggregate_report": 0}

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)

            return wrapper

        monkeypatch.setattr(experiment, "evaluate_scene", counted("evaluate_scene", evaluate_scene))
        monkeypatch.setattr(experiment, "aggregate_report", counted("aggregate_report", aggregate_report))
        monkeypatch.setattr(
            fileio, "read_trajectories", counted("read_trajectories", fileio.read_trajectories)
        )
        report = cmd_eval(cfg, copy, data, tmp_path / "report.json")
        for cell in cells:
            assert report["cells"][cell] == {"before": expected["before"], "after": expected[cell]}
        assert calls == {
            "evaluate_scene": distinct_files,
            "read_trajectories": distinct_files,
            "aggregate_report": len(set(texts.values())),
        }

    def test_truncated_duplicate_trajectory_file_is_a_data_error(self, small_results, tmp_path):
        cfg, data, results = small_results
        copy = tmp_path / "results"
        shutil.copytree(results, copy)
        scene = copy / "scene_0001"
        text = (scene / "gt_m2_ideal_whole" / "tracks_after.jsonl").read_bytes()
        # Without its last "}\n" the copy's last record is cut off.
        (scene / "gt_m2_ds_whole" / "tracks_after.jsonl").write_bytes(text[:-2])
        with pytest.raises(DataError):
            cmd_eval(cfg, copy, data, tmp_path / "report.json")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("index", ["1.5", "-1"])
    def test_bad_frame_index_in_imported_tracks_exit_code(self, small_results, small_config, tmp_path, index):
        _cfg, data, results = small_results
        copy = tmp_path / "results"
        shutil.copytree(results, copy)
        path = copy / "scene_0001" / "gt_m2_ds_whole" / "tracks_after.jsonl"
        path.write_text('{"frames": [[%s, 10.0, -5.0, true]], "track_id": "speaker00"}\n' % index)
        argv = ["eval", "--config", str(small_config), "--dataset", str(data), "--results", str(copy)]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 3
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("azimuth", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_azimuth_in_imported_tracks_exit_code(
        self, small_results, small_config, tmp_path, capsys, azimuth
    ):
        # A NaN azimuth would lie at 0 degrees from every direction and score
        # as a perfect match.
        _cfg, data, results = small_results
        copy = tmp_path / "results"
        shutil.copytree(results, copy)
        path = copy / "scene_0001" / "gt_m2_ds_whole" / "tracks_after.jsonl"
        path.write_text('{"frames": [[0, %s, -5.0, true]], "track_id": "speaker00"}\n' % azimuth)
        argv = ["eval", "--config", str(small_config), "--dataset", str(data), "--results", str(copy)]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 3
        assert f"line 1: frames[0][1]: {float(azimuth)!r} is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_list_track_id_in_imported_tracks_exit_code(self, small_results, small_config, tmp_path, capsys):
        # An unhashable track_id made eval exit 1 with a TypeError from metrics.
        _cfg, data, results = small_results
        copy = tmp_path / "results"
        shutil.copytree(results, copy)
        path = copy / "scene_0001" / "gt_m2_ds_whole" / "tracks_after.jsonl"
        path.write_text('{"frames": [[0, 10.0, -5.0, true]], "track_id": ["speaker00"]}\n')
        argv = ["eval", "--config", str(small_config), "--dataset", str(data), "--results", str(copy)]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 3
        assert "line 1: track_id: ['speaker00'] is not an int or a str" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("active", ['"false"', "0.5", "1"])
    def test_non_bool_active_flag_in_imported_tracks_exit_code(
        self, small_results, small_config, tmp_path, capsys, active
    ):
        # Every active flag of a cell's tracks replaced: "false" was scored as active.
        _cfg, data, results = small_results
        copy = tmp_path / "results"
        shutil.copytree(results, copy)
        path = copy / "scene_0001" / "gt_m2_ds_whole" / "tracks_after.jsonl"
        text, count = re.subn(r", (true|false)\]", f", {active}]", path.read_text())
        assert count > 0 and "true]" not in text
        path.write_text(text)
        argv = ["eval", "--config", str(small_config), "--dataset", str(data), "--results", str(copy)]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 3
        assert f"line 1: frames[0][3]: {json.loads(active)!r} is not a bool" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_missing_results_is_data_error(self, small_dataset, tmp_path):
        cfg, data = small_dataset
        with pytest.raises(DataError):
            cmd_eval(cfg, tmp_path / "nowhere", data, tmp_path / "r.json")


    @pytest.mark.parametrize(
        "flags, run_section, code",
        [
            (["--seed", "99"], {}, 2),
            ([], {"noise_cov": "gated"}, 0),  # the run section is the results'
            (["--alpha", "30"], {}, 0),  # the eval section is not bound
        ],
    )
    def test_results_of_another_run_are_refused(
        self, small_results, tmp_path, flags, run_section, code
    ):
        _cfg, data, results = small_results
        config = tmp_path / "eval.yaml"
        config.write_text(yaml.safe_dump(SMALL | {"run": SMALL["run"] | run_section}))
        report = tmp_path / "r.json"
        argv = ["eval", "--config", str(config), "--dataset", str(data), "--results", str(results)]
        assert main(argv + ["--out", str(report)] + flags) == code
        assert report.exists() == (code == 0)
        if code == 0:
            run_manifest = json.loads((results / "run_manifest.json").read_text())
            assert json.loads(report.read_text())["config"]["run"] == run_manifest["config"]["run"]

    def test_results_on_another_dataset_are_refused(self, small_results, tmp_path, capsys):
        _cfg, _data, results = small_results
        other = tmp_path / "other"
        cmd_gen(ExperimentConfig.from_dict(SMALL | {"master_seed": 8}), other)
        report = tmp_path / "r.json"
        argv = ["eval", "--seed", "7", "--dataset", str(other), "--results", str(results)]
        assert main(argv + ["--out", str(report)]) == 2
        assert "another scene hashes" in capsys.readouterr().err
        assert not report.exists()

    def test_plain_eval_after_a_flag_only_run(self, one_scene, tmp_path):
        results = tmp_path / "results"
        report = tmp_path / "report.json"
        assert main([
            "run", "--dataset", str(one_scene), "--out", str(results),
            "--tracker", "est", "--beamformers", "ds,mvdr", "--noise-cov", "gated",
        ]) == 0
        assert main(["eval", "--dataset", str(one_scene), "--results", str(results), "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert sorted(doc["cells"]) == ["est_m2_ds_whole", "est_m2_mvdr_whole"]
        assert doc["config"]["run"]["noise_cov"] == "gated"

    @pytest.mark.parametrize("content", [None, "not json\n"])
    def test_missing_or_unreadable_run_manifest_exit_code(
        self, small_results, small_config, tmp_path, content
    ):
        _cfg, data, results = small_results
        copy = tmp_path / "results"
        shutil.copytree(results, copy)
        if content is None:
            (copy / "run_manifest.json").unlink()
        else:
            (copy / "run_manifest.json").write_text(content)
        report = tmp_path / "r.json"
        argv = ["eval", "--config", str(small_config), "--dataset", str(data), "--results", str(copy)]
        assert main(argv + ["--out", str(report)]) == 3
        assert not report.exists()

    @pytest.mark.parametrize(
        "name, content",
        [
            ("gt_m2_ds_whole/COMPLETE", None),
            ("gt_m2_ds_whole/tracks_after.jsonl", None),
            ("gt_m2_ds_whole/tracks_after.jsonl", "not json\n"),
            ("tracks_gt_m2.jsonl", None),
            ("tracks_gt_m2.jsonl", '{"track_id": 0}\n'),
        ],
    )
    def test_incomplete_or_unreadable_results_exit_code(
        self, small_results, small_config, tmp_path, name, content
    ):
        _cfg, data, results = small_results
        copy = tmp_path / "results"
        shutil.copytree(results, copy)
        path = copy / "scene_0001" / name
        if content is None:
            path.unlink()
        else:
            path.write_text(content)
        argv = ["eval", "--config", str(small_config), "--dataset", str(data)]
        assert main(argv + ["--results", str(copy), "--out", str(tmp_path / "r.json")]) == 3
        assert main(argv + ["--results", str(results), "--out", str(tmp_path / "r.json")]) == 0


class TestCliProcess:
    def test_full_cycle_and_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(SMALL | {"dataset": {"count": 2, "duration": 6.0}}))
        data = tmp_path / "data"
        results = tmp_path / "results"
        report = tmp_path / "report.json"
        assert main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
        assert main([
            "run", "--config", str(cfg_path), "--dataset", str(data), "--out", str(results),
            "--beamformers", "ideal", "--durations", "whole",
        ]) == 0
        eval_argv = [
            "eval", "--config", str(cfg_path), "--dataset", str(data),
            "--results", str(results), "--out", str(report),
        ]
        # The config's ds/250 cells were never run; eval scores the run's cells.
        assert main(eval_argv) == 0
        assert list(json.loads(report.read_text())["cells"]) == ["gt_m2_ideal_whole"]
        report.unlink()
        (results / "scene_0001" / "gt_m2_ideal_whole" / COMPLETE_MARKER).unlink()
        assert main(eval_argv) == 3
        assert not report.exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("dataset:\n  regime: sideways\n")
        assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"dataset": {"num_speakers": 0}},
            {"dataset": {"duration": float("nan")}},
            {"dataset": {"duration": float("inf")}},
            {"dataset": {"num_speakers": 9}, "run": {"enrollment_sizes": [9]}},
            {"dataset": {"count": "two"}},
            {"dataset": {"sample_rate": 8000}},
            {"run": {"enrollment_sizes": 3}},
            {"run": {"enrollment_sizes": []}},
            {"run": {"hop": 0}},
            {"run": {"est_miss_prob": 2}},
            {"workers": -2},
            {"workers": 0},
            {"eval": {"alpha_deg": -5.0}},
        ],
    )
    def test_bad_config_exit_code(self, tmp_path, doc):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(yaml.safe_dump(doc))
        data = tmp_path / "data"
        assert main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 2
        assert not (data / "manifest.json").exists()

    @pytest.mark.parametrize(
        "content, argv",
        [
            ("run:\n", ["run", "--tracker", "est"]),
            ("run: 5\n", ["run", "--beamformers", "ds"]),
            ("dataset: [1]\n", ["gen", "--count", "1"]),
        ],
        ids=["null-run", "int-run", "list-dataset"],
    )
    def test_non_mapping_section_set_by_a_flag_exit_code(
        self, one_scene, tmp_path, capsys, content, argv
    ):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(content)
        out = tmp_path / "out"
        dataset = ["--dataset", str(one_scene)] if argv[0] == "run" else []
        assert main(argv + dataset + ["--config", str(cfg_path), "--out", str(out)]) == 2
        assert "must be a mapping" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--beamformers", "ds,ds"],
            ["--enrollment-sizes", "2,4,2"],
            ["--durations", "250,250ms"],
            ["--beamformers", "ds,ds", "--durations", "whole,whole"],
        ],
        ids=["beamformer", "enrollment-size", "duration", "beamformer-and-duration"],
    )
    def test_repeated_sweep_value_exit_code(self, one_scene, tmp_path, capsys, flags):
        # a repeated value would name, and compute, the same cell twice
        results = tmp_path / "results"
        assert main(["run", "--dataset", str(one_scene), "--out", str(results)] + flags) == 2
        assert "lists a value twice" in capsys.readouterr().err
        assert not (results / "run_manifest.json").exists()

    @pytest.mark.parametrize(
        "content",
        [b"a: [\n", b"dataset:\n  regime: \xff\xfe\n", "directory", "missing"],
        ids=["yaml", "not-utf8", "directory", "missing"],
    )
    def test_malformed_config_file_exit_code(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "bad.yaml"
        if content == "directory":
            cfg_path.mkdir()
        elif content != "missing":
            cfg_path.write_bytes(content)
        data = tmp_path / "data"
        assert main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (data / "manifest.json").exists()

    @pytest.mark.parametrize(
        "row",
        [
            {"scene_id": "scene_0000", "index": 0},
            "scene_0000",
            {"index": 0, "sha256": "0" * 64},
            {"scene_id": "scene_0000", "index": "0", "sha256": "0" * 64},
        ],
        ids=["no-sha256", "not-a-mapping", "no-scene_id", "str-index"],
    )
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_malformed_manifest_row_exit_code(self, one_scene, tmp_path, capsys, command, row):
        data = tmp_path / "data"
        shutil.copytree(one_scene, data)
        results = tmp_path / "results"
        if command == "eval":
            assert main(["run", "--dataset", str(data), "--out", str(results)]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["scenes"] = [row]
        (data / "manifest.json").write_text(json.dumps(manifest))
        report = tmp_path / "report.json"
        argv = [command, "--dataset", str(data), "--out", str(report if command == "eval" else results)]
        if command == "eval":
            argv += ["--results", str(results)]
        assert main(argv) == 3
        assert "data error" in capsys.readouterr().err
        assert not report.exists()
        assert (results / "run_manifest.json").exists() == (command == "eval")

    @pytest.mark.parametrize("repeat", ["row", "scene_id", "index"])
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_manifest_listing_a_scene_twice_exit_code(self, small_dataset, tmp_path, capsys, command, repeat):
        _cfg, dataset = small_dataset
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        results = tmp_path / "results"
        if command == "eval":
            run = ["run", "--dataset", str(data), "--out", str(results), "--beamformers", "ds"]
            assert main(run + ["--durations", "whole"]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        first, second = manifest["scenes"][:2]
        if repeat == "row":
            manifest["scenes"].append(first)
        else:
            second[repeat] = first[repeat]
        (data / "manifest.json").write_text(json.dumps(manifest))
        report = tmp_path / "report.json"
        argv = [command, "--dataset", str(data), "--out", str(report if command == "eval" else results)]
        if command == "eval":
            argv += ["--results", str(results)]
        assert main(argv) == 3
        assert "twice" in capsys.readouterr().err
        assert not report.exists()
        assert (results / "run_manifest.json").exists() == (command == "eval")

    def test_scene_too_short_to_embed_exit_code(self, one_scene, tmp_path):
        # 0.063 s is 1008 samples: 2 analysis frames, one short of MIN_EMBED_FRAMES
        data = tmp_path / "data"
        assert main(["gen", "--count", "1", "--duration", "0.063", "--out", str(data)]) == 2
        assert not (data / "manifest.json").exists()
        assert main(["gen", "--count", "1", "--duration", "0.064", "--out", str(data)]) == 0
        # a dataset written before such durations were refused
        old = tmp_path / "old"
        shutil.copytree(one_scene, old)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["dataset"]["duration"] = 0.03
        (old / "manifest.json").write_text(json.dumps(manifest))
        results = tmp_path / "results"
        assert main(["run", "--dataset", str(old), "--out", str(results)]) == 2
        assert not results.exists()

    @pytest.mark.parametrize("duration, code", [("0.17", 2), ("0.176", 0)])
    def test_scene_too_short_for_a_gated_covariance_exit_code(self, tmp_path, duration, code):
        # A track's gated mask falls back to every analysis frame of the scene:
        # 0.17 s holds 9, 0.176 s (2816 samples) exactly MIN_COV_FRAMES = 10.
        data = tmp_path / "data"
        assert main(["gen", "--count", "1", "--duration", duration, "--out", str(data)]) == 0
        results = tmp_path / "results"
        argv = ["run", "--dataset", str(data), "--out", str(results), "--beamformers", "mvdr"]
        assert main(argv + ["--noise-cov", "gated"]) == code
        assert (results / "run_manifest.json").exists() == (code == 0)
        if code == 0:  # every track fell back to the scene's 10 frames
            doc = json.loads((results / "scene_0000/gt_m2_mvdr_whole/assignment.json").read_text())
            assert doc["mvdr_gated_fallback_tracks"] == len(doc["assignments"]) > 0
        # DS and oracle MVDR: the oracle covariance reads the same grid
        oracle = ["run", "--dataset", str(data), "--out", str(tmp_path / "oracle")]
        assert main(oracle + ["--beamformers", "ds,mvdr"]) == code
        assert (tmp_path / "oracle" / "run_manifest.json").exists() == (code == 0)

    @pytest.mark.parametrize("sizes", ["a,b", "2.5"])
    def test_non_integer_enrollment_sizes_exit_code(self, one_scene, tmp_path, capsys, sizes):
        results = tmp_path / "results"
        argv = ["run", "--dataset", str(one_scene), "--out", str(results)]
        assert main(argv + ["--enrollment-sizes", sizes]) == 2
        assert "config error" in capsys.readouterr().err
        assert not results.exists()

    def test_dataset_of_another_config_version_exit_code(self, one_scene, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(one_scene, data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["dataset"]["sample_rate"] = 16000
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert main(["run", "--dataset", str(data), "--out", str(tmp_path / "results")]) == 3
        assert not (tmp_path / "results").exists()

    def test_missing_dataset_exit_code(self, tmp_path):
        assert (
            main(["run", "--dataset", str(tmp_path / "ghost"), "--out", str(tmp_path / "r")])
            == 3
        )


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # No command needs scipy: importing the CLI and a whole gen/run/eval
    # cycle in one process leave every scipy module unloaded.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"""
import json, sys
import embtrack.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
optimize = "scipy.optimize" in sys.modules
root = {str(tmp_path)!r}
codes = [
    embtrack.cli.main(["gen", "--count", "1", "--duration", "4", "--out", root + "/data"]),
    embtrack.cli.main([
        "run", "--dataset", root + "/data", "--out", root + "/results",
        "--beamformers", "ideal,mvdr", "--durations", "whole,250",
    ]),
    embtrack.cli.main([
        "eval", "--dataset", root + "/data", "--results", root + "/results",
        "--out", root + "/report.json",
    ]),
]
print(json.dumps([optimize, after_import, codes, scipy_modules()]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    optimize, after_import, codes, after_eval = json.loads(proc.stdout.splitlines()[-1])
    assert optimize is False
    assert after_import == []
    assert codes == [0, 0, 0]
    assert after_eval == []


def test_cli_import_leaves_the_process_pool_unloaded():
    # A serial command never starts a pool: importing the CLI loads neither
    # multiprocessing nor concurrent.futures.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = """
import json, sys
import embtrack.cli
print(json.dumps(sorted(
    m for m in sys.modules
    if m.split(".")[0] == "multiprocessing" or m.startswith("concurrent.futures")
)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
