import math
from pathlib import Path

import numpy as np
import pytest

from embtrack import fileio, scene
from embtrack.dsp import SAMPLE_RATE
from embtrack.embedding import Embedding, embed
from embtrack.geometry import DoA, sample_vmf
from embtrack.scene import FoaSignal, SceneSpec, foa_gains, sample_voice_params, synthesize_voice

def cosine(a: Embedding, b: Embedding) -> float:
    """Cosine similarity of two unit-norm embeddings, in [-1, 1]."""
    if a.vector.shape != b.vector.shape:
        raise ValueError(f"dimension mismatch: {a.vector.shape} vs {b.vector.shape}")
    return float(np.clip(np.dot(a.vector, b.vector), -1.0, 1.0))


def encode_foa(mono: np.ndarray, doa: DoA) -> FoaSignal:
    """Direct-path FOA encoding of a mono source at a fixed direction."""
    mono = np.asarray(mono, dtype=np.float64)
    return FoaSignal(foa_gains(doa)[:, None] * mono[None, :])


def vmf_mean_angle_deg(kappa: float, n: int = 200_000, seed: int = 0) -> float:
    """Monte-Carlo mean angular deviation (degrees) of a vMF draw on S^2."""
    rng = np.random.default_rng(seed)
    mu = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
    samples = sample_vmf(rng, mu, kappa)
    return float(np.mean(np.degrees(np.arccos(np.clip(samples[:, 2], -1.0, 1.0)))))


def previous_vmf_from_uniforms(mu, u, v, kappa):
    """The previous sample_vmf's arithmetic after its draws: np.clip, the
    list-literal np.where, np.cross (which its row-wise cross product matched
    bit for bit) and np.linalg.norm on (n, 3) arrays."""
    w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
    w = np.clip(w, -1.0, 1.0)
    phi = v * 2.0 * np.pi
    ref = np.where(np.abs(mu[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    t1 = np.cross(mu, ref)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(mu, t1)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - w**2))
    out = (
        w[:, None] * mu
        + (sin_theta * np.cos(phi))[:, None] * t1
        + (sin_theta * np.sin(phi))[:, None] * t2
    )
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out


def previous_sample_vmf(rng, mean_directions, kappa):
    """The previous sample_vmf: u drawn, then the tangent-angle uniforms."""
    mu = np.atleast_2d(mean_directions)
    if math.isinf(kappa):
        return mu.copy() if mean_directions.ndim > 1 else mu[0].copy()
    u = rng.random(mu.shape[0])
    out = previous_vmf_from_uniforms(mu, u, rng.random(mu.shape[0]), kappa)
    return out if mean_directions.ndim > 1 else out[0]


def slow_noise(rng: np.random.Generator, n: int, sample_rate: float, rate_hz: float) -> np.ndarray:
    """Band-limited unit-variance-ish noise via linear interpolation of
    control points, as one whole-array np.interp. scene._slow_noise_block
    must match it bit for bit, and the reference voices in test_scene draw
    their drift and envelope noise from it."""
    n_ctrl = max(2, int(math.ceil(n / sample_rate * rate_hz)) + 2)
    ctrl = rng.standard_normal(n_ctrl)
    t = np.linspace(0.0, n_ctrl - 1.0, n)
    return np.interp(t, np.arange(n_ctrl), ctrl)


DIFFUSE_SCALES = np.array([1.0, 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])


def whole_array_mix(wet: list[FoaSignal], snr, noise_seed) -> np.ndarray:
    """The mixture with all four noise channels drawn, scaled and added as
    whole (4, n) arrays: the reference for the per-channel mix."""
    mixture = np.zeros_like(wet[0].channels)
    for w in wet:
        mixture += w.channels
    if noise_seed is None:
        return mixture
    n = mixture.shape[1]
    noise = DIFFUSE_SCALES[:, None] * np.random.default_rng(noise_seed).standard_normal((4, n))
    speech_power = float(np.mean(mixture[0] ** 2))
    noise_power = float(np.mean(noise[0] ** 2))
    if noise_power > 0 and speech_power > 0:
        noise *= np.sqrt(speech_power / (10.0 ** (snr / 10.0)) / noise_power)
        mixture = mixture + noise
    return mixture


def previous_write_scene(scene_dir: Path, spec: SceneSpec) -> None:
    """The scene writer before scenes were streamed: every wet signal and the
    noisy mixture built and held at once (the whole-array mix), then each WAV
    written from a whole float32 copy of its samples (scipy's writer). The
    reference the streamed dataset must match byte for byte."""
    from scipy.io import wavfile

    rng = np.random.default_rng(spec.seed)
    speakers, gains_db = scene._place_speakers(rng, spec)
    sr = SAMPLE_RATE
    n = int(round(spec.duration * sr))
    wet = []
    for gt, gain_db in zip(speakers, gains_db):
        channels = np.zeros((4, n))
        gain = 10.0 ** (gain_db / 20.0)
        for onset, offset, doa in gt.segments:
            seg_seed = int(rng.integers(0, 2**63 - 1))
            a, b = int(round(onset * sr)), int(round(offset * sr))
            mono = synthesize_voice(gt.voice, (b - a) / sr, seg_seed)
            scene._apply_fades(mono)
            for row, foa_gain in zip(channels, foa_gains(doa)):
                row[a : a + len(mono)] += foa_gain * mono * gain
        wet.append(FoaSignal(channels))
    noise_seed = None
    if spec.snr is not None and math.isfinite(spec.snr):
        noise_seed = int(rng.integers(0, 2**63 - 1))
    mixture = whole_array_mix(wet, spec.snr, noise_seed)
    scene_dir.mkdir(parents=True)
    wavfile.write(scene_dir / "mixture.wav", sr, mixture.astype(np.float32).T)
    for j, w in enumerate(wet):
        wavfile.write(scene_dir / f"speaker{j:02d}.wav", sr, w.channels.astype(np.float32).T)
    fileio.write_ground_truth(scene_dir / "ground_truth.json", speakers, spec)


@pytest.fixture(scope="session")
def voice_panel():
    """20 voices x 5 utterances of 3 s, with embeddings (shared across tests)."""
    rng = np.random.default_rng(20_2024)
    voices = [sample_voice_params(rng) for _ in range(20)]
    embeddings = [
        [
            embed(synthesize_voice(v, 3.0, seed=1000 * i + u))
            for u in range(5)
        ]
        for i, v in enumerate(voices)
    ]
    return voices, embeddings


@pytest.fixture(scope="session")
def panel_similarities(voice_panel):
    """(same-pair cosines, cross-pair cosines) over the whole panel."""
    _, embeddings = voice_panel
    flat = [(i, e) for i, row in enumerate(embeddings) for e in row]
    same, cross = [], []
    for a in range(len(flat)):
        for b in range(a + 1, len(flat)):
            value = cosine(flat[a][1], flat[b][1])
            (same if flat[a][0] == flat[b][0] else cross).append(value)
    return np.array(same), np.array(cross)
