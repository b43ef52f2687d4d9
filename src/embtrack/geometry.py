"""Directions of arrival on the unit sphere: conversions, distances, sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DoA:
    """Direction of arrival, azimuth in [-180, 180) deg, elevation in [-90, 90] deg."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not (-180.0 <= self.azimuth < 180.0):
            object.__setattr__(self, "azimuth", wrap_azimuth(self.azimuth))
        if not (-90.0 <= self.elevation <= 90.0):
            raise ValueError(f"elevation {self.elevation} outside [-90, 90]")

    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector (x, y, z) = (cos el cos az, cos el sin az, sin el)."""
        az = math.radians(self.azimuth)
        el = math.radians(self.elevation)
        return np.array(
            [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
        )


def wrap_azimuth(az_deg: float) -> float:
    """Wrap an azimuth in degrees into [-180, 180)."""
    return (az_deg + 180.0) % 360.0 - 180.0


def doa_from_unit_vector(v: np.ndarray) -> DoA:
    """Inverse of DoA.unit_vector; v need not be exactly unit length."""
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        raise ValueError("zero vector has no direction")
    el = math.degrees(math.asin(max(-1.0, min(1.0, z / norm))))
    az = math.degrees(math.atan2(y, x))
    return DoA(wrap_azimuth(az), el)


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Great-circle angle between two unit vectors in degrees, in [0, 180]."""
    return math.degrees(math.acos(max(-1.0, min(1.0, float(u @ v)))))


def angular_distance(a: DoA, b: DoA) -> float:
    """Great-circle angle between two DoAs in degrees, in [0, 180]."""
    return angle_between(a.unit_vector(), b.unit_vector())


def spherical_mean(vectors: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Normalized (weighted) mean of unit vectors; rows are vectors."""
    if weights is None:
        m = vectors.mean(axis=0)
    else:
        m = (weights[:, None] * vectors).sum(axis=0)
    norm = np.linalg.norm(m)
    if norm < 1e-12:
        # Degenerate antipodal configuration: fall back to the first vector.
        return vectors[0] / np.linalg.norm(vectors[0])
    return m / norm


def uniform_sphere(rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """n uniform random unit vectors, shape (n, 3)."""
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_vmf(
    rng: np.random.Generator, mean_directions: np.ndarray, kappa: float
) -> np.ndarray:
    """Draw one von Mises-Fisher sample on S^2 around each row of mean_directions.

    Uses the exact inversion for the cosine w of the polar angle,
    p(w) ~ exp(kappa * w) on [-1, 1], then a uniform tangent rotation.
    kappa = inf returns the means unchanged.
    """
    mu = np.atleast_2d(mean_directions)
    n = mu.shape[0]
    if math.isinf(kappa):
        return mu.copy() if mean_directions.ndim > 1 else mu[0].copy()
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    u = rng.random(n)
    w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
    w = np.clip(w, -1.0, 1.0)
    phi = rng.random(n) * 2.0 * np.pi
    # Orthonormal tangent basis per mean direction.
    ref = np.where(np.abs(mu[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    t1 = _cross(mu, ref)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = _cross(mu, t1)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - w**2))
    out = (
        w[:, None] * mu
        + (sin_theta * np.cos(phi))[:, None] * t1
        + (sin_theta * np.sin(phi))[:, None] * t2
    )
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out if mean_directions.ndim > 1 else out[0]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (n, 3) arrays: np.cross's products and
    differences in its order, without its per-call overhead."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=1)
