import json
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from embtrack import fileio
from embtrack.cli import main
from embtrack.experiment import (
    ConfigError,
    DatasetConfig,
    ExperimentConfig,
    RunConfig,
    cmd_eval,
    cmd_gen,
    cmd_run,
)
from embtrack.geometry import DoA
from embtrack.scene import SceneSpec, simulate
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

    def test_workers_env(self, monkeypatch):
        cfg = ExperimentConfig()
        monkeypatch.setenv("EMBTRACK_WORKERS", "3")
        assert cfg.effective_workers() == 3
        monkeypatch.delenv("EMBTRACK_WORKERS")
        assert cfg.effective_workers() == 1


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

    def test_assignment_document_shape(self, small_results):
        cfg, data, results = small_results
        doc = json.loads(
            (results / "scene_0000" / "gt_m2_ideal_whole" / "assignment.json").read_text()
        )
        assert set(doc) == {
            "assignments",
            "diagnostics",
            "trajectories",
            "mvdr_fallback_bands",
            "mvdr_total_bands",
        }
        for d in doc["diagnostics"]:
            assert set(d) >= {"fragment_id", "identity", "score", "excluded", "window"}

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
            if d["used_fallback"]:
                assert d["pooled_frames"] is None
            else:
                assert 3 <= d["pooled_frames"] <= 14  # MIN_EMBED_FRAMES to a 250 ms window


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

    def test_missing_results_is_data_error(self, small_dataset, tmp_path):
        from embtrack.experiment import DataError

        cfg, data = small_dataset
        with pytest.raises(DataError):
            cmd_eval(cfg, tmp_path / "nowhere", data, tmp_path / "r.json")


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
        assert main([
            "eval", "--config", str(cfg_path), "--dataset", str(data),
            "--results", str(results), "--out", str(report),
        ]) == 3  # config asks for ds/250 cells that were never run
        cfg_small = tmp_path / "cfg_small.yaml"
        cfg_small.write_text(
            yaml.safe_dump(
                SMALL
                | {
                    "dataset": {"count": 2, "duration": 6.0},
                    "run": {"beamformers": ["ideal"], "durations": ["whole"]},
                }
            )
        )
        assert main([
            "eval", "--config", str(cfg_small), "--dataset", str(data),
            "--results", str(results), "--out", str(report),
        ]) == 0
        assert report.exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("dataset:\n  regime: sideways\n")
        assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 2

    def test_missing_dataset_exit_code(self, tmp_path):
        assert (
            main(["run", "--dataset", str(tmp_path / "ghost"), "--out", str(tmp_path / "r")])
            == 3
        )
