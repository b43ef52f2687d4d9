"""Span tracer for the embtrack layers, installed from outside the package.

`Tracer.install` wraps each function named in LAYERS and replaces every
attribute, in every loaded `embtrack` module, that holds the same function
object, so callers that did `from .x import f` are traced too. A missing
function raises instead of reporting zero.

A span is [name, start, end, parent, scene]: perf_counter seconds, the index
of the enclosing span (or None) and the scene id. Scene ids are known inside
`experiment._gen_one` / `experiment._run_one`; `eval` walks scenes inline, so
its spans carry None. A recursive call (the 2-D `stft` calls itself per
channel) is folded into its outermost span. Spans and counters stay in memory
until `write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = {
    "scene": ("simulate", "synthesize_voice", "generate_diffuse_noise"),
    "embedding": ("build_enrollment", "build_distractors", "embed"),
    "tracking": ("observe_gt", "observe_est", "track"),
    "fragments": ("segment",),
    "beamforming": (
        "beamform_ideal",
        "beamform_ds",
        "beamform_mvdr",
        "band_covariances",
        "mvdr_weights",
        "oracle_noise_reference",
        "gated_noise_reference",
    ),
    "dsp": ("stft", "istft"),
    "reassignment": ("extract_fragment_embedding", "reassign"),
    "metrics": ("evaluate_scene", "match_frames", "aggregate_report"),
    "fileio": (
        "write_scene",
        "read_scene",
        "read_trajectories",
        "write_trajectories",
        "write_fragments",
        "write_assignment",
    ),
    "experiment": ("cmd_gen", "cmd_run", "cmd_eval"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Per-scene orchestration functions whose first argument is the task tuple
# (cfg, scene index, ...); spans opened inside them carry that scene's id.
SCENE_SCOPES = ("experiment._gen_one", "experiment._run_one")

COUNTERS = (
    "scene.synthesize_voice.audio_s",
    "embedding.short_inputs",
    "tracking.labels",
    "fragments.count",
    "beamforming.mvdr_singular_bands",
    "beamforming.mvdr_total_bands",
    "beamforming.gated_full_mixture_fallbacks",
    "dsp.stft.frames",
    "reassignment.fragments",
    "reassignment.spatial_fallbacks",
    "fileio.dataset_bytes",
)


def _count_synthesize_voice(c, call, out, exc):
    c["scene.synthesize_voice.audio_s"] += call().arguments["duration"]


def _count_embed(c, call, out, exc):
    if isinstance(exc, importlib.import_module("embtrack.embedding").ShortInputError):
        c["embedding.short_inputs"] += 1


def _count_track(c, call, out, exc):
    c["tracking.labels"] += len({traj.track_id for traj in out})


def _count_segment(c, call, out, exc):
    c["fragments.count"] += len(out)


def _count_mvdr_weights(c, call, out, exc):
    weights, singular = out
    c["beamforming.mvdr_singular_bands"] += singular
    c["beamforming.mvdr_total_bands"] += weights.shape[0]


def _count_gated_noise_reference(c, call, out, exc):
    # The fallback returns the mixture's own channel array, not a gated copy.
    c["beamforming.gated_full_mixture_fallbacks"] += out is call().arguments["mixture"].channels


def _count_stft(c, call, out, exc):
    channels = out.shape[0] if out.ndim == 3 else 1
    c["dsp.stft.frames"] += channels * out.shape[-1]


def _count_reassign(c, call, out, exc):
    c["reassignment.fragments"] += len(out.diagnostics)
    c["reassignment.spatial_fallbacks"] += sum(d.used_fallback for d in out.diagnostics)


def _count_write_scene(c, call, out, exc):
    scene_dir = Path(call().arguments["scene_dir"])
    c["fileio.dataset_bytes"] += sum(p.stat().st_size for p in scene_dir.iterdir())


# Counter hooks run after the span has closed, with (counters, lazy bound
# arguments, return value or None, exception or None).
HOOKS = {
    "scene.synthesize_voice": _count_synthesize_voice,
    "embedding.embed": _count_embed,
    "tracking.track": _count_track,
    "fragments.segment": _count_segment,
    "beamforming.mvdr_weights": _count_mvdr_weights,
    "beamforming.gated_noise_reference": _count_gated_noise_reference,
    "dsp.stft": _count_stft,
    "reassignment.reassign": _count_reassign,
    "fileio.write_scene": _count_write_scene,
}
ERROR_HOOKS = {"embedding.embed"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.scene: str | None = None
        self._stack: list[int] = []

    def install(self) -> None:
        """Replace every reference to each named function with a traced wrapper."""
        targets = []
        for dotted in SPAN_NAMES + SCENE_SCOPES:
            layer, fn_name = dotted.split(".")
            module = importlib.import_module(f"embtrack.{layer}")
            original = getattr(module, fn_name, None)
            if not inspect.isfunction(original):
                raise RuntimeError(f"traced function embtrack.{dotted} no longer exists")
            targets.append((dotted, original))
        modules = [m for n, m in sys.modules.items() if n == "embtrack" or n.startswith("embtrack.")]
        for dotted, original in targets:
            if dotted in SCENE_SCOPES:
                wrapper = self._scope(original)
            else:
                wrapper = self._span(dotted, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _scope(self, fn):
        scene_id = importlib.import_module("embtrack.experiment")._scene_id

        @functools.wraps(fn)
        def wrapper(task, *args, **kwargs):
            outer, self.scene = self.scene, scene_id(task[1])
            try:
                return fn(task, *args, **kwargs)
            finally:
                self.scene = outer

        return wrapper

    def _span(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)
        on_error = name in ERROR_HOOKS
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.scene]
            stack.append(len(spans))
            spans.append(span)
            out = exc = None
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if hook is not None and (exc is None or on_error):
                    hook(counters, lambda: signature.bind(*args, **kwargs), out, exc)
            return out

        return wrapper

    def write(self, path: str | Path, **extra) -> None:
        doc = {"spans": self.spans, "counters": self.counters, **extra}
        Path(path).write_text(json.dumps(doc))


def span_times(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, self seconds, total seconds).

    Self time is a span's duration minus that of its direct children.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent, _scene in spans:
        if parent is not None:
            child[parent] += end - start
    totals: dict[str, tuple[int, float, float]] = {}
    for i, (name, start, end, _parent, _scene) in enumerate(spans):
        calls, self_s, total_s = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, self_s + end - start - child[i], total_s + end - start)
    return totals
