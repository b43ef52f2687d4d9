"""Batch orchestration: dataset generation, sweep execution, evaluation.

The config holds only what a caller sets: the master seed, the number of
scene worker processes, the swept scene parameters (DatasetConfig; the rest
of the scene model is SceneSpec's defaults), the sweep (RunConfig: tracker,
beamformers, durations, pool sizes M, MVDR noise covariance source) and the
eval settings. Neither time grid is a setting, here or in the library:
tracker frames are tracking.DEFAULT_HOP_S long and the analysis grid is
dsp.stft_grid's. The "est" front-end's corruption is the default
tracking.NoiseModel, as in the library's run_pipeline.
ExperimentConfig.validate checks each field's declared type before its
value; either kind of bad value is a ConfigError.

All randomness derives from one master seed. A scene's seed is
derive_seed(master, index, "scene"); running it calls the library's seeded
front-end, reassignment.track_and_enroll, with key (master, index), so every
later stage seed is derive_seed(master, index, stage[, m]), the same rule
the library uses. Every sweep cell therefore sees the same scenes, tracks
and pools, and paired comparisons are meaningful. Each M's trajectories are
segmented once per scene and shared by that M's cells
(reassignment.reassign_scene). run and eval take the dataset section from
the dataset's manifest, and eval takes the run section from the results'
run_manifest.json; a manifest whose section this config cannot read is a
DataError. run reads each mixture once and checks its bytes against the
manifest's sha256 before parsing them. Its run_manifest.json is written
before the first scene and binds the results directory to one master seed,
run section and dataset; a rerun that differs in any of them is refused.
Completed scene/cell outputs are marked on disk and skipped on resume. eval
is one pass over the scenes: it reads each scene's ground truth once, scores
each M's `before` tracks once (every cell of that M carries that one report)
and each cell's `after` tracks, and refuses a cell without its marker, or
results whose run_manifest.json binds them to another master seed or
dataset.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import fileio
from .embedding import MIN_EMBED_FRAMES, Embedding, analysis_frame_centers, build_distractors
from .fragments import DurationPolicy
from .metrics import aggregate_report, evaluate_scene
from .reassignment import (
    BEAMFORMERS,
    NOISE_COV_SOURCES,
    TRACKER_VARIANTS,
    reads_wet,
    reassign_scene,
    track_and_enroll,
)
from .scene import SceneSpec, simulate
from .seeding import derive_seed

COMPLETE_MARKER = "COMPLETE"


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
        num_samples = int(round(spec.duration * spec.sample_rate))
        frames = len(analysis_frame_centers(num_samples, spec.sample_rate))
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
        for m in self.enrollment_sizes:
            if m < num_speakers:
                raise ConfigError(f"enrollment size {m} < number of speakers {num_speakers}")


@dataclass(frozen=True)
class EvalConfig:
    alpha_deg: float = 20.0
    bootstrap_fraction: float = 0.8
    bootstrap_iters: int = 100

    def validate(self) -> None:
        if not (0.0 < self.alpha_deg <= 180.0):
            raise ConfigError("eval.alpha_deg must be in (0, 180]")
        if not (0.0 < self.bootstrap_fraction <= 1.0):
            raise ConfigError("bootstrap fraction must be in (0, 1]")
        if self.bootstrap_iters < 1:
            raise ConfigError("bootstrap iters must be >= 1")


def _has_type(value, hint) -> bool:
    """Whether a config value is of its field's declared type: an int passes
    for a float, a bool for neither."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_has_type(v, args[0]) for v in value)
    if args:  # a union such as float | None
        return any(_has_type(value, arg) for arg in args)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


def _check_types(section) -> None:
    for name, hint in typing.get_type_hints(type(section)).items():
        value = getattr(section, name)
        if dataclasses.is_dataclass(hint):
            _check_types(value)
        elif not _has_type(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{type(section).__name__}.{name}: {value!r} is not of type {expected}")


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int = 0
    workers: int = 1  # scene processes; 1 runs scenes in this process
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    run: RunConfig = field(default_factory=RunConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self) -> None:
        _check_types(self)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        self.dataset.validate()
        self.run.validate(self.dataset.num_speakers)
        self.eval.validate()

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return _from_dict(cls, doc)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _from_dict(klass, doc):
    """klass(**doc), its sections built the same way, with lists made tuples
    and durations strings (YAML reads `250` as an int)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{klass.__name__} must be a mapping, not {doc!r}")
    hints = typing.get_type_hints(klass)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {klass.__name__} keys: {sorted(unknown)}")
    values = {}
    for name, value in doc.items():
        if dataclasses.is_dataclass(hints[name]):
            value = _from_dict(hints[name], value)
        elif isinstance(value, list):
            value = tuple(str(x) for x in value) if name == "durations" else tuple(value)
        values[name] = value
    return klass(**values)


def _scene_id(index: int) -> str:
    return f"scene_{index:04d}"


def _read(reader, path: Path):
    """reader(path); a missing or unreadable file is a DataError."""
    try:
        return reader(path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise DataError(f"cannot read {path}: {e}") from None


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _map(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], in a pool of `workers` processes when that is more than one."""
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _gen_one(args: tuple) -> dict:
    cfg, index, out_dir = args
    spec = cfg.dataset.scene_spec(index, cfg.master_seed)
    scene_dir = Path(out_dir) / "scenes" / _scene_id(index)
    fileio.write_scene(scene_dir, simulate(spec), spec)
    return {
        "scene_id": _scene_id(index),
        "index": index,
        "seed": spec.seed,
        "sha256": _sha256_file(scene_dir / "mixture.wav"),
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


def load_manifest(dataset_dir: str | Path) -> dict:
    return _read(lambda path: json.loads(path.read_text()), Path(dataset_dir) / "manifest.json")


def _open_dataset(cfg: ExperimentConfig, dataset_dir: str | Path) -> tuple[ExperimentConfig, list[dict]]:
    """cfg with the dataset section the dataset was generated with, validated,
    and the dataset's scene rows."""
    manifest = load_manifest(dataset_dir)
    try:
        cfg = dataclasses.replace(cfg, dataset=DatasetConfig(**manifest["dataset"]))
        scenes = manifest["scenes"]
    except (KeyError, TypeError) as e:
        raise DataError(f"malformed dataset manifest in {dataset_dir}: {e!r}") from None
    cfg.validate()
    if not scenes:
        raise DataError("dataset manifest lists no scenes")
    return cfg, scenes


def cell_name(tracker: str, m: int, beamformer: str, duration: str) -> str:
    return f"{tracker}_m{m}_{beamformer}_{duration}"


def run_cells(cfg: ExperimentConfig) -> list[tuple[int, str, str]]:
    """The Cartesian sweep {M} x {beamformer} x {duration}."""
    return [
        (m, bf, dur)
        for m in cfg.run.enrollment_sizes
        for bf in cfg.run.beamformers
        for dur in cfg.run.durations
    ]


def _shared_distractors(cfg: ExperimentConfig) -> list[tuple[str, Embedding]]:
    need = max(cfg.run.enrollment_sizes) - cfg.dataset.num_speakers
    if need <= 0:
        return []
    return build_distractors(need, derive_seed(cfg.master_seed, "distractors"))


def _run_one(args: tuple) -> str:
    cfg, index, sha256, dataset_dir, out_dir, distractors = args
    scene_id = _scene_id(index)
    scene_dir = Path(dataset_dir) / "scenes" / scene_id
    result_dir = Path(out_dir) / scene_id
    result_dir.mkdir(parents=True, exist_ok=True)

    run = cfg.run
    cells = [
        (m, bf, dur)
        for (m, bf, dur) in run_cells(cfg)
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
    scene, _spec = _read(lambda path: fileio.read_scene(path, wet, sha256=sha256), scene_dir)
    tracks_by_m, pool = track_and_enroll(
        scene, (cfg.master_seed, index), run.tracker, run.enrollment_sizes, distractors=distractors
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


def _run_manifest(cfg: ExperimentConfig, scenes: list[dict]) -> dict:
    return {
        "config": cfg.to_dict(),
        "cells": [cell_name(cfg.run.tracker, m, bf, dur) for m, bf, dur in run_cells(cfg)],
        "scenes": [row["scene_id"] for row in scenes],
        "sha256": {row["scene_id"]: row["sha256"] for row in scenes},
    }


def _binding(run_manifest: dict) -> dict:
    """What a results directory is bound to, in JSON values."""
    config = run_manifest["config"]
    binding = {
        "master seed": config["master_seed"],
        "run section": config["run"],
        "scene hashes": run_manifest["sha256"],
    }
    return json.loads(json.dumps(binding))


def _check_binding(results_dir: Path, run_manifest: dict) -> None:
    """ConfigError unless results_dir's run_manifest.json binds it to the
    master seed, run section and scene hashes of run_manifest; DataError when
    that file is missing or unreadable."""
    stored = _read(lambda p: _binding(json.loads(p.read_text())), results_dir / "run_manifest.json")
    changed = [key for key, value in _binding(run_manifest).items() if stored[key] != value]
    if changed:
        raise ConfigError(f"{results_dir} holds a run with another {', '.join(changed)}")


def cmd_run(cfg: ExperimentConfig, dataset_dir: str | Path, out_dir: str | Path) -> Path:
    """Execute the sweep over a generated dataset; resumable per scene/cell.

    run_manifest.json is written before the first scene and binds out_dir to
    one master seed, run section and dataset: a rerun that differs in any of
    them is a ConfigError and writes nothing.
    """
    cfg, scenes = _open_dataset(cfg, dataset_dir)
    out_dir = Path(out_dir)
    run_manifest = _run_manifest(cfg, scenes)
    path = out_dir / "run_manifest.json"
    if path.exists():
        _check_binding(out_dir, run_manifest)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.dump_json(run_manifest, path)
    distractors = _shared_distractors(cfg)
    tasks = [
        (cfg, row["index"], row["sha256"], str(dataset_dir), str(out_dir), distractors)
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
    scenes: each scene's ground truth and each M's `before` trajectories are
    read and scored once, and every cell of that M carries the one `before`
    report. A cell without its COMPLETE marker, or a missing or unreadable
    run_manifest.json, is a DataError; results of another master seed or
    dataset are a ConfigError. Either way no report is written.
    """
    results_dir = Path(results_dir)
    dataset_dir = Path(dataset_dir)
    if not results_dir.exists():
        raise DataError(f"no results directory {results_dir}")
    run = _read(
        lambda p: _from_dict(RunConfig, json.loads(p.read_text())["config"]["run"]),
        results_dir / "run_manifest.json",
    )
    cfg, scenes = _open_dataset(dataclasses.replace(cfg, run=run), dataset_dir)
    _check_binding(results_dir, _run_manifest(cfg, scenes))

    names = {(m, bf, dur): cell_name(run.tracker, m, bf, dur) for m, bf, dur in run_cells(cfg)}
    before = {m: [] for m in run.enrollment_sizes}
    after = {name: [] for name in names.values()}
    for row in scenes:
        scene_id = row["scene_id"]
        gt, spec = _read(
            fileio.read_ground_truth, dataset_dir / "scenes" / scene_id / "ground_truth.json"
        )
        result_dir = results_dir / scene_id

        def score(path: Path):
            trajectories = _read(fileio.read_trajectories, path)
            return evaluate_scene(gt, trajectories, spec.duration, alpha_deg=cfg.eval.alpha_deg)

        for m, per_scene in before.items():
            per_scene.append(score(result_dir / f"tracks_{run.tracker}_m{m}.jsonl"))
        for name, per_scene in after.items():
            if not (result_dir / name / COMPLETE_MARKER).exists():
                raise DataError(f"missing or incomplete results for {scene_id}/{name}")
            per_scene.append(score(result_dir / name / "tracks_after.jsonl"))

    kwargs = dict(
        fraction=cfg.eval.bootstrap_fraction,
        iters=cfg.eval.bootstrap_iters,
        seed=derive_seed(cfg.master_seed, "bootstrap"),
        alpha_deg=cfg.eval.alpha_deg,
    )
    before_reports = {m: aggregate_report(scores, **kwargs).as_dict() for m, scores in before.items()}
    cells = {
        name: {
            "before": before_reports[m],
            "after": aggregate_report(after[name], **kwargs).as_dict(),
        }
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
