import math

import numpy as np
import pytest

from embtrack.embedding import Embedding, embed
from embtrack.geometry import DoA, sample_vmf
from embtrack.scene import FoaSignal, foa_gains, sample_voice_params, synthesize_voice

PANEL_SR = 16000


def cosine(a: Embedding, b: Embedding) -> float:
    """Cosine similarity of two unit-norm embeddings, in [-1, 1]."""
    if a.vector.shape != b.vector.shape:
        raise ValueError(f"dimension mismatch: {a.vector.shape} vs {b.vector.shape}")
    return float(np.clip(np.dot(a.vector, b.vector), -1.0, 1.0))


def encode_foa(mono: np.ndarray, doa: DoA, sample_rate: int) -> FoaSignal:
    """Direct-path FOA encoding of a mono source at a fixed direction."""
    mono = np.asarray(mono, dtype=np.float64)
    return FoaSignal(foa_gains(doa)[:, None] * mono[None, :], sample_rate)


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


@pytest.fixture(scope="session")
def voice_panel():
    """20 voices x 5 utterances of 3 s, with embeddings (shared across tests)."""
    rng = np.random.default_rng(20_2024)
    voices = [sample_voice_params(rng) for _ in range(20)]
    embeddings = [
        [
            embed(synthesize_voice(v, 3.0, PANEL_SR, seed=1000 * i + u), PANEL_SR)
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
