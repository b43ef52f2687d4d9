"""The benchmark's layer tracer still finds every layer it times.

bench/traced_cli.py runs in a child process, so the tracer never patches this
test process. A refactor that renames a traced function, or that calls a
layer without going through its module attribute, fails here instead of
silently dropping out of the per-layer benchmark.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from embtrack.cli import main

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "bench"


def traced_run(tmp_path, seed, duration, run_args):
    """gen one scene, then a traced `run` on it; the results directory and
    the span count per name."""
    data, results, spans_path = tmp_path / "data", tmp_path / "results", tmp_path / "spans.json"
    gen = ["gen", "--seed", seed, "--count", "1", "--duration", duration, "--out", str(data)]
    assert main(gen) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no __pycache__ in bench/
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "traced_cli.py"), str(spans_path),
            "run", "--seed", seed, "--dataset", str(data), "--out", str(results), *run_args,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    # Tracer.install raises, before the command runs, if a LAYERS function is gone.
    assert proc.returncode == 0, proc.stderr
    return results, Counter(span[0] for span in json.loads(spans_path.read_text())["spans"])


def test_traced_run_reaches_every_beamformer_and_embedding(tmp_path):
    # The speakers' pool entries come from gen's pool file; with M = 3 over
    # two speakers, run embeds one shared distractor.
    _results, calls = traced_run(
        tmp_path, "5", "6",
        ["--beamformers", "ideal,ds,mvdr", "--durations", "whole", "--enrollment-sizes", "3"],
    )
    # A name missing from LAYERS, or a layer called around its module
    # attribute, records no span and fails the count check.
    for name in (
        "beamforming.beamform_ideal",
        "beamforming.beamform_ds",
        "beamforming.beamform_mvdr",
        "reassignment.extract_fragment_embedding",
        "reassignment.reassign",
        "embedding.embed",
    ):
        assert calls[name] > 0, name
    assert calls["fragments.segment"] == 1  # one scene, one M: segmented once for 3 cells
    assert calls["reassignment.reassign"] == 3


def test_traced_gated_mvdr_estimates_one_covariance_per_track(tmp_path):
    results, calls = traced_run(
        tmp_path, "12", "10",
        ["--beamformers", "mvdr", "--durations", "whole", "--noise-cov", "gated"],
    )
    lines = (results / "scene_0000" / "gt_m2_mvdr_whole" / "fragments.jsonl").read_text().splitlines()
    tracks = {json.loads(line)["track_id"] for line in lines}
    assert calls["beamforming.gated_noise_reference"] == len(tracks)
    assert calls["beamforming.band_covariances"] == len(tracks)
    assert calls["beamforming.band_covariances"] < calls["beamforming.beamform_mvdr"]
