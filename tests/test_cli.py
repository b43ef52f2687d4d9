import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from embtrack import fileio
from embtrack.cli import main
from embtrack.experiment import (
    COMPLETE_MARKER,
    ConfigError,
    DatasetConfig,
    ExperimentConfig,
    RunConfig,
    cmd_eval,
    cmd_gen,
    cmd_run,
)
from embtrack.geometry import DoA
from embtrack.metrics import aggregate_report, evaluate_scene
from embtrack.scene import FoaSignal, SceneSpec, simulate
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


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestFileIo:
    def test_scene_round_trip(self, tmp_path):
        spec = SceneSpec(seed=1, duration=4.0)
        scene = simulate(spec)
        fileio.write_scene(tmp_path / "s", scene, spec)
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

    @pytest.mark.parametrize("num_samples", [0, 1, 3, 16000])
    def test_wav_bytes_match_an_independent_writer(self, tmp_path, num_samples):
        from scipy.io import wavfile

        channels = np.random.default_rng(num_samples).standard_normal((4, num_samples))
        fileio.write_wav(tmp_path / "ours.wav", FoaSignal(channels, 16000))
        wavfile.write(tmp_path / "reference.wav", 16000, channels.astype(np.float32).T)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "reference.wav").read_bytes()

    def test_wav_round_trip_is_exact_for_float32_values(self, tmp_path):
        rng = np.random.default_rng(4)
        channels = rng.standard_normal((4, 5001))
        channels[:, :4] = [0.0, -0.0, 1e-40, 3.4e38]  # zero signs, a subnormal, near the max
        channels = channels.astype(np.float32).astype(np.float64)
        fileio.write_wav(tmp_path / "x.wav", FoaSignal(channels, 22050))
        back = fileio.read_wav(tmp_path / "x.wav")
        assert back.sample_rate == 22050
        assert back.channels.tobytes() == channels.tobytes()

    def test_wav_reader_skips_unknown_and_odd_sized_chunks(self, tmp_path):
        channels = np.arange(12.0).reshape(4, 3)
        fileio.write_wav(tmp_path / "x.wav", FoaSignal(channels, 16000))
        raw = (tmp_path / "x.wav").read_bytes()
        extra = b"LIST" + (3).to_bytes(4, "little") + b"abc" + b"\0"
        raw = raw[:12] + extra + raw[12:]
        raw = raw[:4] + (len(raw) - 8).to_bytes(4, "little") + raw[8:]
        (tmp_path / "y.wav").write_bytes(raw)
        assert np.array_equal(fileio.read_wav(tmp_path / "y.wav").channels, channels)

    def test_wav_reader_checks_the_sha256_of_the_bytes_it_parses(self, tmp_path):
        channels = np.arange(12.0).reshape(4, 3)
        path = tmp_path / "x.wav"
        fileio.write_wav(path, FoaSignal(channels, 16000))
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

    @pytest.mark.parametrize("kind", ["pcm16", "two_channels", "truncated", "not_riff"])
    def test_unreadable_mixture_wav_exit_code(self, one_scene, tmp_path, capsys, kind):
        from scipy.io import wavfile

        data = tmp_path / "data"
        shutil.copytree(one_scene, data)
        path = data / "scenes" / "scene_0000" / "mixture.wav"
        if kind == "pcm16":
            wavfile.write(path, 16000, np.zeros((800, 4), dtype=np.int16))
        elif kind == "two_channels":
            wavfile.write(path, 16000, np.zeros((800, 2), dtype=np.float32))
        elif kind == "truncated":
            path.write_bytes(path.read_bytes()[:-7])
        else:
            path.write_bytes(b"RIFX" + path.read_bytes()[4:])
        # The manifest is made to match, so the WAV reader is what refuses the file.
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["scenes"][0]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert main(["run", "--dataset", str(data), "--out", str(tmp_path / "results")]) == 3
        assert f"cannot read {path.parent}: {path}: " in capsys.readouterr().err

    def test_mixture_not_matching_manifest_sha256_exit_code(self, small_dataset, tmp_path):
        _cfg, data = small_dataset
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        scenes = copy / "scenes"
        shutil.copyfile(scenes / "scene_0001" / "mixture.wav", scenes / "scene_0000" / "mixture.wav")
        argv = ["run", "--dataset", str(copy), "--out", str(tmp_path / "results")]
        assert main(argv + ["--beamformers", "ideal", "--durations", "whole"]) == 3

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

    def test_missing_results_is_data_error(self, small_dataset, tmp_path):
        from embtrack.experiment import DataError

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
