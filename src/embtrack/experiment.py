"""Batch orchestration: dataset generation, sweep execution, evaluation.

The config holds only what a caller sets: the master seed, the number of
scene worker processes, the swept scene parameters (DatasetConfig; the rest
of the scene model is SceneSpec's defaults), the sweep (RunConfig: tracker,
beamformers, durations, pool sizes M, MVDR noise covariance source) and the
eval settings. Neither the sample rate nor either time grid is a setting,
here or in the library: every signal is at dsp.SAMPLE_RATE, tracker frames
are tracking.DEFAULT_HOP_S long and the analysis grid is dsp.N_WINDOW-sample
windows every dsp.N_HOP samples. The "est" front-end's corruption is the
default tracking.NoiseModel, as in the library's run_pipeline.
ExperimentConfig.from_dict decodes a config against the dataclasses'
declared types (fileio.decode) and validate checks their values; either
kind of bad value, or a sweep value listed twice, is a ConfigError.

All randomness derives from one master seed. A scene's seed is
derive_seed(master, index, "scene"). gen writes each scene
(fileio.write_scene: the speaker WAVs, mixture.wav and ground_truth.json)
and then its enrollment pool file, ENROLLMENT_FILE: the scene speakers'
entries of reassignment.enroll_speakers with key (master, index), seeded
with derive_seed(master, index, "enrollment"). The pool is data fixed by the
dataset, so no run synthesizes a scene speaker's enrollment audio. run draws
the pool's distractors once, with the library's one rule
(reassignment.shared_distractors, seeded with derive_seed(master,
"distractors")), and runs each scene through the library's seeded
front-end, reassignment.track_and_enroll, with key (master, index) and the
speakers' entries read back: every other stage seed is derive_seed(master,
index, stage[, m]).
Every sweep cell therefore sees the same scenes, tracks and pools, and paired
comparisons are meaningful. Each M's trajectories are segmented once per
scene and shared by that M's cells, and each fragment's frames of the
mixture are transformed once for all of them (reassignment.reassign_scene):
every cell of a scene is embedded before the first is written, so a scene
that fails leaves none of its cells marked complete. run and
eval take the dataset section from the dataset's manifest, and eval takes
the run section from the results' run_manifest.json. Both files are
decoded against their declarations, DatasetManifest and RunManifest; a
manifest that does not decode, or that lists a scene_id or index twice, is
a DataError. gen records in each scene's manifest row the sha256 of the
mixture bytes and of the pool file it writes (the speaker WAVs are not
hashed); run reads each mixture and pool once and checks their bytes against
those hashes before parsing them, and a manifest without pool hashes, from
an older gen, is a DataError. run and eval refuse a ground_truth.json whose
spec is not the manifest's scene's or that does not list its speakers. run's
run_manifest.json is written before the first scene and binds the results
directory to one master seed, run section and dataset (mixture and pool
hashes); a rerun that differs in any of them is refused.
Completed scene/cell outputs are marked on disk and skipped on resume. eval
scores each distinct trajectory file of a scene once (cmd_eval), and refuses
a cell without its marker, or results whose run_manifest.json binds them to
another master seed or dataset.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypedDict

from . import fileio, metrics
from .beamforming import MIN_COV_FRAMES
from .dsp import SAMPLE_RATE, num_full_frames
from .embedding import MIN_EMBED_FRAMES
from .fragments import DurationPolicy
from .metrics import SceneMetrics, aggregate_report, evaluate_scene
from .reassignment import (
    BEAMFORMERS,
    NOISE_COV_SOURCES,
    TRACKER_VARIANTS,
    enroll_speakers,
    reads_wet,
    reassign_scene,
    shared_distractors,
    track_and_enroll,
)
from .scene import SceneSpec, SpeakerGroundTruth
from .seeding import derive_seed

COMPLETE_MARKER = "COMPLETE"
ENROLLMENT_FILE = "enrollment.jsonl"  # a scene's pool of its speakers' entries


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class DataError(RuntimeError):
    """Missing or unreadable dataset/results (CLI exit code 3)."""


@dataclass(frozen=True)
class DatasetConfig:
    """The swept scene parameters; the rest of the scene model is SceneSpec's defaults."""

    count: int = 50
    regime: str = "distant"
    duration: float = 30.0
    num_speakers: int = 2
    snr: float | None = 15.0
    jump_on_silence: bool = True

    def validate(self) -> None:
        if self.count < 0:
            raise ConfigError("dataset.count must be >= 0")
        try:
            spec = self.scene_spec(0, 0)
        except ValueError as e:
            raise ConfigError(f"bad dataset section: {e}") from None
        # Every fragment window reads at least MIN_EMBED_FRAMES frames of the scene grid.
        frames = _analysis_frames(spec)
        if frames < MIN_EMBED_FRAMES:
            raise ConfigError(
                f"dataset.duration {self.duration} s holds {frames} analysis frames, "
                f"fewer than the {MIN_EMBED_FRAMES} an embedding needs"
            )

    def scene_spec(self, index: int, master_seed: int) -> SceneSpec:
        return SceneSpec(
            seed=derive_seed(master_seed, index, "scene"),
            num_speakers=self.num_speakers,
            duration=self.duration,
            snr=self.snr,
            separation_regime=self.regime,
            jump_on_silence=self.jump_on_silence,
        )


def _analysis_frames(spec: SceneSpec) -> int:
    """Frames of the analysis grid in a scene of spec."""
    return num_full_frames(int(round(spec.duration * SAMPLE_RATE)))


@dataclass(frozen=True)
class RunConfig:
    tracker: str = "gt"
    beamformers: tuple[str, ...] = ("ideal",)
    durations: tuple[str, ...] = ("whole",)
    enrollment_sizes: tuple[int, ...] = (2,)
    noise_cov: str = "oracle"

    def validate(self, num_speakers: int) -> None:
        if self.tracker not in TRACKER_VARIANTS:
            raise ConfigError(f"unknown tracker {self.tracker!r}")
        for bf in self.beamformers:
            if bf not in BEAMFORMERS:
                raise ConfigError(f"unknown beamformer {bf!r}")
        if self.noise_cov not in NOISE_COV_SOURCES:
            raise ConfigError(f"unknown noise covariance source {self.noise_cov!r}")
        for d in self.durations:
            try:
                DurationPolicy.parse(d)
            except ValueError as e:
                raise ConfigError(f"bad duration {d!r}: {e}") from None
        if not self.enrollment_sizes:
            raise ConfigError("run.enrollment_sizes must not be empty")
        # A repeated value would name, and compute, the same cell twice.
        cells = [(m, bf, DurationPolicy.parse(d)) for m, bf, d in self.cells()]
        if len(set(cells)) < len(cells):
            raise ConfigError(f"the run section lists a value twice: {self}")
        for m in self.enrollment_sizes:
            if m < num_speakers:
                raise ConfigError(f"enrollment size {m} < number of speakers {num_speakers}")

    def cells(self) -> list[tuple[int, str, str]]:
        """The Cartesian sweep {M} x {beamformer} x {duration}."""
        return list(itertools.product(self.enrollment_sizes, self.beamformers, self.durations))


@dataclass(frozen=True)
class EvalConfig:
    alpha_deg: float = metrics.DEFAULT_ALPHA_DEG
    bootstrap_fraction: float = metrics.DEFAULT_BOOTSTRAP_FRACTION
    bootstrap_iters: int = metrics.DEFAULT_BOOTSTRAP_ITERS

    def validate(self) -> None:
        if not (0.0 < self.alpha_deg <= 180.0):
            raise ConfigError("eval.alpha_deg must be in (0, 180]")
        if not (0.0 < self.bootstrap_fraction <= 1.0):
            raise ConfigError("bootstrap fraction must be in (0, 1]")
        if self.bootstrap_iters < 1:
            raise ConfigError("bootstrap iters must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int = 0
    workers: int = 1  # scene processes; 1 runs scenes in this process
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    run: RunConfig = field(default_factory=RunConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        self.dataset.validate()
        self.run.validate(self.dataset.num_speakers)
        self.eval.validate()
        # An MVDR noise covariance, oracle or gated, may read every frame of
        # the scene, and needs at least MIN_COV_FRAMES of them.
        if "mvdr" in self.run.beamformers:
            frames = _analysis_frames(self.dataset.scene_spec(0, self.master_seed))
            if frames < MIN_COV_FRAMES:
                raise ConfigError(
                    f"dataset.duration {self.dataset.duration} s holds {frames} analysis frames, "
                    f"fewer than the {MIN_COV_FRAMES} an MVDR noise covariance needs"
                )

    @classmethod
    def from_dict(cls, doc) -> "ExperimentConfig":
        """The config of a YAML or JSON mapping, decoded (fileio.decode),
        with durations made strings (YAML reads `250` as an int); a value
        that does not fit its field is a ConfigError."""
        run = doc.get("run") if isinstance(doc, dict) else None
        if isinstance(run, dict) and isinstance(run.get("durations"), list):
            doc = {**doc, "run": {**run, "durations": [str(d) for d in run["durations"]]}}
        try:
            return fileio.decode(cls, doc, "config")
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def to_dict(self) -> dict:
        """The config in JSON values, which from_dict reads back."""
        return json.loads(json.dumps(dataclasses.asdict(self)))


# The declarations of manifest.json, its scene rows, and run_manifest.json (fileio.decode).
_SceneKeys = TypedDict("_SceneKeys", {"scene_id": str, "index": int, "seed": int, "sha256": str})


class SceneRow(_SceneKeys, total=False):
    enrollment_sha256: str  # missing in a manifest of a gen that wrote no pool files


DatasetManifest = TypedDict(
    "DatasetManifest", {"master_seed": int, "dataset": DatasetConfig, "scenes": tuple[SceneRow, ...]})
RunManifest = TypedDict("RunManifest", {
    "config": ExperimentConfig, "cells": tuple[str, ...], "scenes": tuple[str, ...],
    "sha256": dict[str, str], "enrollment_sha256": dict[str, str]})


def _scene_id(index: int) -> str:
    return f"scene_{index:04d}"


def _read(reader, path: Path):
    """reader(path); a missing or unreadable file is a DataError. The readers
    decode each JSON file (fileio.decode), so a malformed one is a ValueError."""
    try:
        return reader(path)
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read {path}: {e}") from None


def _map(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], in a pool of `workers` processes when that is more than one."""
    if workers > 1 and len(tasks) > 1:
        # Imported here: a serial command need not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _gen_one(args: tuple) -> dict:
    """Write one scene of the dataset (fileio.write_scene: each speaker WAV as
    soon as its signal is built, an old mixture.wav removed first, then the
    mixture and the ground truth), then its enrollment pool file, and return
    its manifest row. The pool is built from the voices of the ground truth
    as written, once the scene's signals are dropped."""
    cfg, index, out_dir = args
    spec = cfg.dataset.scene_spec(index, cfg.master_seed)
    scene_dir = Path(out_dir) / "scenes" / _scene_id(index)
    sha256 = fileio.write_scene(scene_dir, spec)
    ground_truth, _spec = fileio.read_ground_truth(scene_dir / "ground_truth.json")
    speakers = enroll_speakers([gt.voice for gt in ground_truth], (cfg.master_seed, index))
    return {
        "scene_id": _scene_id(index),
        "index": index,
        "seed": spec.seed,
        "sha256": sha256,
        "enrollment_sha256": fileio.write_enrollment(scene_dir / ENROLLMENT_FILE, speakers),
    }


def cmd_gen(cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """Generate the dataset on disk; returns the manifest path."""
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(cfg, index, out_dir) for index in range(cfg.dataset.count)]
    manifest = {
        "master_seed": cfg.master_seed,
        "dataset": dataclasses.asdict(cfg.dataset),
        "scenes": _map(_gen_one, tasks, cfg.workers),
    }
    path = out_dir / "manifest.json"
    fileio.dump_json(manifest, path)
    return path


def _open_dataset(
    cfg: ExperimentConfig, dataset_dir: str | Path
) -> tuple[ExperimentConfig, tuple[SceneRow, ...], int]:
    """cfg with the dataset section the dataset was generated with, validated,
    the dataset's scene rows and the master seed gen wrote it with. A
    manifest that is not a DatasetManifest, or rows that share a scene_id or
    an index, are a DataError; a row without enrollment_sha256 (from a gen
    that wrote no pool files) says to regenerate the dataset."""
    path = Path(dataset_dir) / "manifest.json"
    manifest = _read(lambda p: fileio.read_json(p, DatasetManifest), path)
    scenes = manifest["scenes"]
    if any("enrollment_sha256" not in row for row in scenes):
        raise DataError(
            f"the dataset in {dataset_dir} has no enrollment pool files (an older gen "
            "wrote it); regenerate it with embtrack gen"
        )
    for key in ("scene_id", "index"):
        values = [row[key] for row in scenes]
        if len(set(values)) < len(values):
            raise DataError(f"the dataset manifest in {dataset_dir} lists a {key} twice")
    cfg = dataclasses.replace(cfg, dataset=manifest["dataset"])
    cfg.validate()
    if not scenes:
        raise DataError("dataset manifest lists no scenes")
    return cfg, scenes, manifest["master_seed"]


def cell_name(tracker: str, m: int, beamformer: str, duration: str) -> str:
    return f"{tracker}_m{m}_{beamformer}_{duration}"


def _check_ground_truth(
    expected: SceneSpec, spec: SceneSpec, ground_truth: list[SpeakerGroundTruth], path: Path
) -> None:
    """DataError unless the ground truth read from path is that of the scene
    the manifest lists: its spec is expected (DatasetConfig.scene_spec of the
    scene's index and the dataset's master seed) and it lists that many
    speakers."""
    if spec != expected or len(ground_truth) != expected.num_speakers:
        raise DataError(
            f"{path} is not the ground truth of this dataset's scene: its spec or its "
            f"{len(ground_truth)} speakers differ from the manifest's scene"
        )


def _run_one(args: tuple) -> str:
    """Run every cell of one scene not yet marked complete (a scene with
    every cell and tracks file on disk is skipped). Before anything of the
    scene is written, the mixture and the pool file are checked against
    their manifest hashes and the ground truth against the scene's spec; any
    of them missing or not matching is a DataError."""
    cfg, index, expected_spec, sha256, enrollment_sha256, dataset_dir, out_dir, distractors = args
    scene_id = _scene_id(index)
    scene_dir = Path(dataset_dir) / "scenes" / scene_id
    result_dir = Path(out_dir) / scene_id
    result_dir.mkdir(parents=True, exist_ok=True)

    run = cfg.run
    cells = [
        (m, bf, dur)
        for (m, bf, dur) in run.cells()
        if not (result_dir / cell_name(run.tracker, m, bf, dur) / COMPLETE_MARKER).exists()
    ]
    tracks_missing = [
        m
        for m in run.enrollment_sizes
        if not (result_dir / f"tracks_{run.tracker}_m{m}.jsonl").exists()
    ]
    if not cells and not tracks_missing:
        return scene_id

    wet = any(reads_wet(bf, run.noise_cov) for _, bf, _ in cells)
    scene, spec = _read(lambda path: fileio.read_scene(path, wet, sha256=sha256), scene_dir)
    _check_ground_truth(expected_spec, spec, scene.ground_truth, scene_dir / "ground_truth.json")
    pool_path = scene_dir / ENROLLMENT_FILE
    speakers = _read(lambda path: fileio.read_enrollment(path, sha256=enrollment_sha256), pool_path)
    if len(speakers) != len(scene.voices):
        raise DataError(f"{pool_path} enrolls {len(speakers)} speakers, the scene has {len(scene.voices)}")
    tracks_by_m, pool = track_and_enroll(
        scene, (cfg.master_seed, index), run.tracker, run.enrollment_sizes, speakers, distractors
    )
    for m, trajectories in tracks_by_m.items():
        fileio.write_trajectories(result_dir / f"tracks_{run.tracker}_m{m}.jsonl", trajectories)
    specs = [(m, bf, DurationPolicy.parse(dur), run.noise_cov) for m, bf, dur in cells]
    for (m, bf, dur), result in zip(cells, reassign_scene(scene, tracks_by_m, pool, specs)):
        cell_dir = result_dir / cell_name(run.tracker, m, bf, dur)
        cell_dir.mkdir(parents=True, exist_ok=True)
        fileio.write_fragments(cell_dir / "fragments.jsonl", result.fragments)
        fileio.write_assignment(
            cell_dir / "assignment.json", result.assignment, result.mvdr_diagnostics
        )
        fileio.write_trajectories(cell_dir / "tracks_after.jsonl", result.after)
        (cell_dir / COMPLETE_MARKER).write_text("")
    return scene_id


def _run_manifest(cfg: ExperimentConfig, scenes: tuple[SceneRow, ...]) -> RunManifest:
    return {
        "config": cfg,
        "cells": tuple(cell_name(cfg.run.tracker, m, bf, dur) for m, bf, dur in cfg.run.cells()),
        "scenes": tuple(row["scene_id"] for row in scenes),
        "sha256": {row["scene_id"]: row["sha256"] for row in scenes},
        "enrollment_sha256": {row["scene_id"]: row["enrollment_sha256"] for row in scenes},
    }


# What a results directory is bound to, read from a run manifest.
_BINDING = {
    "master seed": lambda manifest: manifest["config"].master_seed,
    "run section": lambda manifest: manifest["config"].run,
    "scene hashes": lambda manifest: manifest["sha256"],
    "pool hashes": lambda manifest: manifest["enrollment_sha256"],
}


def _check_binding(results_dir: Path, stored: RunManifest, run_manifest: RunManifest) -> None:
    """ConfigError unless the run manifest stored in results_dir binds it to
    the master seed, run section, scene and pool hashes of run_manifest."""
    changed = [key for key, bound in _BINDING.items() if bound(stored) != bound(run_manifest)]
    if changed:
        raise ConfigError(f"{results_dir} holds a run with another {', '.join(changed)}")


def cmd_run(cfg: ExperimentConfig, dataset_dir: str | Path, out_dir: str | Path) -> Path:
    """Execute the sweep over a generated dataset; resumable per scene/cell.

    run_manifest.json is written before the first scene and binds out_dir to
    one master seed, run section and dataset: a rerun that differs in any of
    them is a ConfigError and writes nothing.
    """
    cfg, scenes, dataset_seed = _open_dataset(cfg, dataset_dir)
    out_dir = Path(out_dir)
    run_manifest = _run_manifest(cfg, scenes)
    path = out_dir / "run_manifest.json"
    if path.exists():
        _check_binding(out_dir, _read(lambda p: fileio.read_json(p, RunManifest), path), run_manifest)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.dump_json({**run_manifest, "config": cfg.to_dict()}, path)
    distractors = shared_distractors(cfg.master_seed, cfg.run.enrollment_sizes, cfg.dataset.num_speakers)
    tasks = [
        (
            cfg, row["index"], cfg.dataset.scene_spec(row["index"], dataset_seed), row["sha256"],
            row["enrollment_sha256"], str(dataset_dir), str(out_dir), distractors,
        )
        for row in scenes
    ]
    _map(_run_one, tasks, cfg.workers)
    return path


def cmd_eval(
    cfg: ExperimentConfig,
    results_dir: str | Path,
    dataset_dir: str | Path,
    out_path: str | Path,
    per_scene_csv: str | Path | None = None,
    trend_csv: str | Path | None = None,
) -> dict:
    """Paired before/after metrics per sweep cell, with bootstrap statistics.

    The cells are those of the run section in results_dir's
    run_manifest.json; cfg's own run section is not used. One pass over the
    scenes: each scene's ground truth is read once, and of its trajectory
    files (each M's `before` file, which every cell of that M shares, and
    each cell's `after` file) each distinct text is parsed and scored once; a
    file whose bytes repeat another's in that scene reuses its score. Each
    distinct list of per-scene scores is aggregated once: aggregate_report
    seeds its own generator, so the report is the same as scoring every file.
    A cell without its COMPLETE marker, an unreadable or malformed trajectory
    file, a ground truth that is not the manifest's scene's, or a missing or
    unreadable run_manifest.json, is a DataError;
    results of another master seed or dataset are a ConfigError. Either way
    no report is written.
    """
    results_dir = Path(results_dir)
    dataset_dir = Path(dataset_dir)
    if not results_dir.exists():
        raise DataError(f"no results directory {results_dir}")
    stored = _read(lambda p: fileio.read_json(p, RunManifest), results_dir / "run_manifest.json")
    run = stored["config"].run
    cfg, scenes, dataset_seed = _open_dataset(dataclasses.replace(cfg, run=run), dataset_dir)
    _check_binding(results_dir, stored, _run_manifest(cfg, scenes))

    names = {(m, bf, dur): cell_name(run.tracker, m, bf, dur) for m, bf, dur in run.cells()}
    # Each M's `before` file, then each cell's `after` file, relative to a scene's results.
    files = {m: f"tracks_{run.tracker}_m{m}.jsonl" for m in run.enrollment_sizes}
    files.update({name: f"{name}/tracks_after.jsonl" for name in names.values()})
    # Per scene, the score of each distinct file text, and per file, the
    # index of its text's score in each scene.
    scores: list[list[SceneMetrics]] = []
    text_ids: dict[int | str, list[int]] = {key: [] for key in files}
    for row in scenes:
        scene_id = row["scene_id"]
        gt_path = dataset_dir / "scenes" / scene_id / "ground_truth.json"
        gt, spec = _read(fileio.read_ground_truth, gt_path)
        _check_ground_truth(cfg.dataset.scene_spec(row["index"], dataset_seed), spec, gt, gt_path)
        result_dir = results_dir / scene_id
        for name in names.values():
            if not (result_dir / name / COMPLETE_MARKER).exists():
                raise DataError(f"missing or incomplete results for {scene_id}/{name}")
        seen: dict[bytes, int] = {}
        scene_scores: list[SceneMetrics] = []
        for key, relative in files.items():
            path = result_dir / relative
            text = _read(Path.read_bytes, path)
            if text not in seen:
                seen[text] = len(scene_scores)
                trajectories = _read(fileio.read_trajectories, path)
                scene_scores.append(
                    evaluate_scene(gt, trajectories, spec.duration, alpha_deg=cfg.eval.alpha_deg)
                )
            text_ids[key].append(seen[text])
        scores.append(scene_scores)

    kwargs = dict(
        fraction=cfg.eval.bootstrap_fraction,
        iters=cfg.eval.bootstrap_iters,
        seed=derive_seed(cfg.master_seed, "bootstrap"),
        alpha_deg=cfg.eval.alpha_deg,
    )
    # aggregate_report seeds its own generator, so equal score lists give equal reports.
    reports: dict[tuple[int, ...], dict] = {}

    def report_of(key: int | str) -> dict:
        ids = tuple(text_ids[key])
        if ids not in reports:
            per_scene = [distinct[i] for distinct, i in zip(scores, ids)]
            reports[ids] = aggregate_report(per_scene, **kwargs).as_dict()
        return reports[ids]

    cells = {
        name: {"before": report_of(m), "after": report_of(name)}
        for (m, _bf, _dur), name in names.items()
    }
    trend_rows = [
        {
            "cell": name,
            "m": m,
            "beamformer": bf,
            "duration": dur,
            "assa_before_mean": cells[name]["before"]["bootstrap_mean"]["assa"],
            "assa_before_std": cells[name]["before"]["bootstrap_std"]["assa"],
            "assa_after_mean": cells[name]["after"]["bootstrap_mean"]["assa"],
            "assa_after_std": cells[name]["after"]["bootstrap_std"]["assa"],
        }
        for (m, bf, dur), name in names.items()
    ]
    report = {
        "config": cfg.to_dict(),
        "num_scenes": len(scenes),
        "cells": cells,
        "trend": trend_rows,
    }
    fileio.dump_json(report, out_path)

    if per_scene_csv is not None:
        _write_per_scene_csv(per_scene_csv, scenes, cells)
    if trend_csv is not None:
        _write_trend_csv(trend_csv, trend_rows)
    return report


def _write_per_scene_csv(path: str | Path, scenes, cells) -> None:
    lines = ["scene,cell,phase,assa,le,tsr,tfr"]
    for name, pair in sorted(cells.items()):
        for phase in ("before", "after"):
            for row, per_scene in zip(scenes, pair[phase]["per_scene"]):
                lines.append(
                    f"{row['scene_id']},{name},{phase},"
                    f"{per_scene['assa']:.6f},{per_scene['le']:.6f},"
                    f"{per_scene['tsr']:.6f},{per_scene['tfr']:.6f}"
                )
    fileio.write_text_atomic(path, "\n".join(lines) + "\n")


def _write_trend_csv(path: str | Path, trend_rows: list[dict]) -> None:
    lines = ["m,beamformer,duration,assa_before_mean,assa_before_std,assa_after_mean,assa_after_std"]
    for r in trend_rows:
        lines.append(
            f"{r['m']},{r['beamformer']},{r['duration']},"
            f"{r['assa_before_mean']:.6f},{r['assa_before_std']:.6f},"
            f"{r['assa_after_mean']:.6f},{r['assa_after_std']:.6f}"
        )
    fileio.write_text_atomic(path, "\n".join(lines) + "\n")
