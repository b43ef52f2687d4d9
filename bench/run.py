"""embtrack benchmark: `gen` -> `run` -> `eval` wall time and tracking quality.

Run from the repository root:

    python3 bench/run.py --workload distant-sweep --seed 1 --seconds 60 --trace 0

A repetition writes one config, times a fresh interpreter importing
`embtrack.cli` (setup_s), runs `embtrack gen`, `run` and `eval` as child
processes into a fresh directory with `workers: 1`, checks the outputs and
deletes the directory again (`run` would skip cells already marked COMPLETE,
so a reused directory times a no-op). Repetition k of seed s uses master seed
1000*s + k, so a seed always gives the same inputs. Repetitions go on while
the next one is expected to end within --seconds, and at least MIN_REPS run.
The gen, run and eval times are means over repetitions (each repetition has
its own inputs), set-up time and peak RSS are medians, and the report metrics
are means over the first MIN_REPS reports, so they do not depend on machine
speed. Every reported time is scaled for the host's speed during the run (see
REFERENCE); the results file keeps each repetition's unscaled times and the
scale.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced
repetition, then traced ones (bench/traced_cli.py) from the same seed, checks
that the first traced report is byte-identical to the untraced one, and
prints the per-layer metrics. The last line of stdout is the result JSON.
Each run also writes a results file, with its environment, under
.bench_work/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTERS, SPAN_NAMES, span_times

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "distant-sweep": {
        "dataset": {"count": 2, "regime": "distant", "duration": 30.0},
        "run": {
            "tracker": "gt",
            "beamformers": ["ideal", "ds", "mvdr"],
            "durations": ["whole", "750", "250"],
            "enrollment_sizes": [2],
            "noise_cov": "oracle",
        },
    },
    "est-gated": {
        "dataset": {"count": 2, "regime": "distant", "duration": 30.0},
        "run": {
            "tracker": "est",
            "beamformers": ["ds", "mvdr"],
            "durations": ["whole"],
            "enrollment_sizes": [4],
            "noise_cov": "gated",
        },
    },
}

MIN_REPS = 3
RUN_LIMIT_S = 170.0
# BLAS pools are pinned to one thread: scenes run with one worker, and a
# shared machine gives steadier times without thread oversubscription.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
IMPORTER = [sys.executable, "-c", "import embtrack.cli"]
# The host this runs on changes speed by up to 1.6x, for seconds to tens of
# minutes at a time, and all commands slow together. Each repetition also times
# REFERENCE, a fresh interpreter importing the program's third-party
# dependencies but none of its code, and every time a run reports is scaled by
# REFERENCE_S / (the run's mean REFERENCE time): times read as on a host where
# REFERENCE takes REFERENCE_S, roughly its time on a quiet 2-vCPU x86-64 VM.
REFERENCE = [sys.executable, "-c", "import numpy, scipy.io.wavfile, scipy.optimize, yaml"]
REFERENCE_S = 0.5

E2E_UNITS = {
    "setup_s": "s",
    "gen_s": "s",
    "run_s": "s",
    "eval_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "le_after_deg": "deg",
    "scored_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count/scene"
        units[f"{name}.self_ms"] = "ms/scene"
    for name in COUNTERS:
        if not name.startswith("reassignment."):
            units[name] = "count/scene"
    units["scene.synthesize_voice.audio_s"] = "s/scene"
    units["fileio.dataset_bytes"] = "bytes/scene"
    units["reassignment.spatial_fallback_frac"] = "ratio"
    units["cli.import_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["assa_before"] = "%"
    units["assa_after"] = "%"
    return units


class Timeout(Exception):
    """The run's time limit expired while a child process was running."""


def _on_alarm(signum, frame):
    raise Timeout(f"run exceeded {RUN_LIMIT_S:.0f} s")


def spawn(argv: list[str], env: dict, log_path: Path, deadline: float) -> tuple[int, float, float]:
    """Run argv to completion: (exit code, wall s, peak RSS MB read with wait4)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        signal.setitimer(signal.ITIMER_REAL, 0)
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EMBTRACK_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, str(BLAS_THREADS)))
    return env


def rep_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def cell_names(run: dict) -> list[str]:
    return [
        f"{run['tracker']}_m{m}_{bf}_{dur}"
        for m in run["enrollment_sizes"]
        for bf in run["beamformers"]
        for dur in run["durations"]
    ]


def all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def log_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


def repetition(workload: str, seed: int, rep_dir: Path, env: dict, traced: bool, deadline: float) -> dict:
    """One gen -> run -> eval pass on a fresh directory, with output checks."""
    cfg = {"master_seed": seed, "workers": 1, **WORKLOADS[workload]}
    count = cfg["dataset"]["count"]
    cells = cell_names(cfg["run"])
    rep = {"seed": seed, "attempted": count * len(cells), "failed": 0, "errors": []}

    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    config = rep_dir / "config.yaml"
    config.write_text(json.dumps(cfg))  # JSON is YAML
    data, results, report = rep_dir / "data", rep_dir / "results", rep_dir / "report.json"
    commands = {
        "gen": ["gen", "--config", config, "--out", data],
        "run": ["run", "--config", config, "--dataset", data, "--out", results],
        "eval": ["eval", "--config", config, "--dataset", data, "--results", results, "--out", report],
    }
    steps = [("reference", REFERENCE)] + ([] if traced else [("setup", IMPORTER)])
    for name, args in commands.items():
        args = [str(a) for a in args]
        if traced:
            steps.append((name, [sys.executable, str(TRACED_CLI), str(rep_dir / f"spans_{name}.json"), *args]))
        else:
            steps.append((name, [sys.executable, "-m", "embtrack.cli", *args]))
    try:
        peaks = []
        for name, argv in steps:
            log = rep_dir / f"{name}.log"
            try:
                code, wall, peak = spawn(argv, env, log, deadline)
            except Timeout as e:
                rep["errors"].append(f"{name}: {e}")
                rep["failed"] = rep["attempted"]
                return rep
            if code != 0:
                rep["errors"].append(f"{name} exited with {code}: {log_tail(log)}")
                rep["failed"] = rep["attempted"]
                return rep
            rep[f"{name}_s"] = wall
            if name != "reference":
                peaks.append(peak)
        rep["pipeline_s"] = rep["gen_s"] + rep["run_s"] + rep["eval_s"]
        rep["peak_rss_mb"] = max(peaks)
        try:
            check_outputs(rep, data, results, report, count, cells)
        except (OSError, ValueError, KeyError, TypeError) as e:
            rep["errors"].append(f"unreadable outputs: {e!r}")
            rep["failed"] = rep["attempted"]
        if traced:
            rep["layers"], rep["inclusive_ms"] = layer_values(rep_dir, count)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def check_outputs(rep: dict, data: Path, results: Path, report: Path, count: int, cells: list[str]) -> None:
    """Count scene-cells not scored: no COMPLETE marker, or absent or non-finite in the report."""
    scenes = [row["scene_id"] for row in json.loads((data / "manifest.json").read_text())["scenes"]]
    rep["report"] = report.read_bytes()
    doc = json.loads(rep["report"])
    if len(scenes) != count or doc["num_scenes"] != count or sorted(doc["cells"]) != sorted(cells):
        rep["errors"].append(
            f"expected {count} scenes and cells {cells}, got {len(scenes)} scenes, "
            f"report with {doc['num_scenes']} scenes and cells {sorted(doc['cells'])}"
        )
        rep["failed"] = rep["attempted"]
        return
    scored = 0
    for cell in cells:
        if not all_finite(doc["cells"][cell]):
            rep["errors"].append(f"{cell}: non-finite metric in report")
            continue
        for scene in scenes:
            if (results / scene / cell / "COMPLETE").exists():
                scored += 1
            else:
                rep["errors"].append(f"{scene}/{cell}: no COMPLETE marker")
    rep["failed"] = rep["attempted"] - scored
    phases = [doc["cells"][c] for c in cells]
    rep["quality"] = {
        "assa_before": 100.0 * statistics.fmean(p["before"]["mean"]["assa"] for p in phases),
        "assa_after": 100.0 * statistics.fmean(p["after"]["mean"]["assa"] for p in phases),
        "le_after_deg": statistics.fmean(p["after"]["mean"]["le"] for p in phases),
    }


def layer_values(rep_dir: Path, count: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-scene calls and self ms per traced function plus the counters, and
    per-scene inclusive ms (kept in the results file only)."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    total_s = dict.fromkeys(SPAN_NAMES, 0.0)
    counters = dict.fromkeys(COUNTERS, 0.0)
    import_s = []
    for name in ("gen", "run", "eval"):
        doc = json.loads((rep_dir / f"spans_{name}.json").read_text())
        for span, (n, own, total) in span_times(doc["spans"]).items():
            calls[span] += n
            self_s[span] += own
            total_s[span] += total
        for key, value in doc["counters"].items():
            counters[key] += value
        import_s.append(doc["import_s"])
    values = {}
    for span in SPAN_NAMES:
        values[f"{span}.calls"] = calls[span] / count
        values[f"{span}.self_ms"] = 1000.0 * self_s[span] / count
    fragments = counters.pop("reassignment.fragments")
    fallbacks = counters.pop("reassignment.spatial_fallbacks")
    values["reassignment.spatial_fallback_frac"] = fallbacks / fragments if fragments else 0.0
    values.update({key: value / count for key, value in counters.items()})
    values["cli.import_s"] = statistics.median(import_s)
    return values, {span: 1000.0 * total_s[span] / count for span in SPAN_NAMES}


def measure(
    workload: str, seed: int, work: Path, env: dict, traced: bool, min_reps: int, seconds: float, deadline: float
) -> list[dict]:
    """Repetitions k = 0, 1, ... until the next one would end after `seconds`."""
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        reps.append(repetition(workload, rep_seed(seed, len(reps)), work / "rep", env, traced, deadline))
        reps[-1]["wall_s"] = time.monotonic() - began
        if reps[-1]["errors"] and "pipeline_s" not in reps[-1]:
            break
        typical = statistics.median(r["wall_s"] for r in reps)
        now = time.monotonic()
        if now + typical > deadline or (len(reps) >= min_reps and now - start + typical > seconds):
            break
    return reps


def environment(root: Path, seeds: list[int]) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "commit": commit,
        "seeds": seeds,
    }


def host_scale(reps: list[dict]) -> float:
    """REFERENCE_S over the run's mean REFERENCE time."""
    return REFERENCE_S / statistics.fmean(r["reference_s"] for r in reps if "reference_s" in r)


def end_to_end(reps: list[dict], scale: float) -> dict[str, float]:
    timed = [r for r in reps if "pipeline_s" in r]
    scored = [r for r in reps[:MIN_REPS] if "quality" in r]
    values = {}
    # Each repetition has inputs of its own, and the mean of their command
    # times varies less from run to run than their median; set-up does the
    # same work every time.
    for key in ("gen_s", "run_s", "eval_s", "pipeline_s"):
        values[key] = scale * statistics.fmean(r[key] for r in timed)
    values["setup_s"] = scale * statistics.median(r["setup_s"] for r in timed)
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in timed)
    values["le_after_deg"] = statistics.fmean(r["quality"]["le_after_deg"] for r in scored)
    attempted = sum(r["attempted"] for r in reps)
    values["scored_frac"] = (attempted - sum(r["failed"] for r in reps)) / attempted
    return values


def per_layer(untraced: dict, reps: list[dict], scale: float) -> dict[str, float]:
    traced = [r for r in reps if "layers" in r and "quality" in r]
    values = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
    for key in values:
        if key.endswith(".self_ms") or key == "cli.import_s":
            values[key] *= scale
    values["trace.overhead_s"] = scale * (reps[0]["pipeline_s"] - untraced["pipeline_s"])
    for key in ("assa_before", "assa_after"):
        values[key] = statistics.median(r["quality"][key] for r in traced)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "embtrack" / "cli.py").is_file():
        print(f"error: no embtrack sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(root)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # The first import writes bytecode caches; later ones are what each command pays.
        code, *_ = spawn(IMPORTER, env, work / "import.log", deadline)
        if code != 0:
            print(f"error: cannot import embtrack.cli: {log_tail(work / 'import.log')}", file=sys.stderr)
            return 2
        errors: list[str] = []
        if args.trace:
            began = time.monotonic()
            untraced = repetition(args.workload, rep_seed(args.seed, 0), work / "rep", env, False, deadline)
            left = args.seconds - (time.monotonic() - began)
            reps = measure(args.workload, args.seed, work, env, True, 1, left, deadline)
            all_reps = [untraced, *reps]
            if untraced.get("report") is not None and reps[0].get("report") != untraced["report"]:
                errors.append("traced report.json differs from the untraced one")
            ok = "pipeline_s" in untraced and "layers" in reps[0] and "quality" in reps[0]
            metrics = per_layer(untraced, reps, host_scale(all_reps)) if ok else None
            units = per_layer_units()
        else:
            all_reps = measure(args.workload, args.seed, work, env, False, MIN_REPS, args.seconds, deadline)
            ok = any("pipeline_s" in r for r in all_reps) and any("quality" in r for r in all_reps[:MIN_REPS])
            metrics = end_to_end(all_reps, host_scale(all_reps)) if ok else None
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for r in all_reps:
        errors.extend(f"seed {r['seed']}: {e}" for e in r["errors"])
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if metrics is None:
        print("error: no repetition completed", file=sys.stderr)
        return 1

    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results = {
        "workload": args.workload,
        "config": WORKLOADS[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(root, [r["seed"] for r in all_reps]),
        "host_scale": host_scale(all_reps),
        "repetitions": [{k: v for k, v in r.items() if k != "report"} for r in all_reps],
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    out = results_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({k: results[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
