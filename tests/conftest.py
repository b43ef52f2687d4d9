import numpy as np
import pytest

from embtrack.embedding import Embedding, embed
from embtrack.geometry import DoA, sample_vmf
from embtrack.scene import FoaSignal, foa_gains, sample_voice_params, synthesize_voice

PANEL_SR = 16000


def cosine(a: Embedding, b: Embedding) -> float:
    """Cosine similarity of two unit-norm embeddings, in [-1, 1]."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
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
