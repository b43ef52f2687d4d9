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
        if not math.isfinite(self.azimuth):
            raise ValueError(f"azimuth {self.azimuth} is not finite")
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

    Draws n uniforms u, then n uniforms for the tangent angle, and maps them
    with vmf_from_uniforms. kappa = inf returns the means unchanged.
    """
    mu = np.atleast_2d(mean_directions)
    n = mu.shape[0]
    if math.isinf(kappa):
        return mu.copy() if mean_directions.ndim > 1 else mu[0].copy()
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    u = rng.random(n)
    out = vmf_from_uniforms(mu, u, rng.random(n), kappa)
    return out if mean_directions.ndim > 1 else out[0]


def vmf_from_uniforms(mu: np.ndarray, u: np.ndarray, v: np.ndarray, kappa: float) -> np.ndarray:
    """The vMF sample around each row of mu (n, 3) that the uniforms u and v
    in [0, 1) give, shape (n, 3).

    Uses the exact inversion of u for the cosine w of the polar angle,
    p(w) ~ exp(kappa * w) on [-1, 1], then rotates by the tangent angle
    2 pi v in the basis t1 = mu x ref, t2 = mu x t1, where ref is the z axis,
    or the x axis for a mean within 25.8 deg of a pole. Each row's values
    depend only on its own inputs. The work is done per coordinate, one
    array each, since numpy's per-call overhead dominates at tracker sizes.
    """
    w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
    w = np.minimum(np.maximum(w, -1.0), 1.0)
    phi = v * 2.0 * np.pi
    mx, my, mz = mu[:, 0], mu[:, 1], mu[:, 2]
    rx = (np.abs(mz) >= 0.9).astype(float)
    rz = 1.0 - rx
    # t1 = mu x (rx, 0, rz), then normalized; t2 = mu x t1.
    t1x, t1y, t1z = _normalized(my * rz - mz * 0.0, mz * rx - mx * rz, mx * 0.0 - my * rx)
    t2x, t2y, t2z = my * t1z - mz * t1y, mz * t1x - mx * t1z, mx * t1y - my * t1x
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - w * w))
    c, s = sin_theta * np.cos(phi), sin_theta * np.sin(phi)
    out = np.empty((len(w), 3))
    out[:, 0], out[:, 1], out[:, 2] = _normalized(
        w * mx + c * t1x + s * t2x, w * my + c * t1y + s * t2y, w * mz + c * t1z + s * t2z
    )
    return out


def _normalized(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """Coordinates divided by their Euclidean norm, summed as np.linalg.norm
    sums a row, ((x^2 + y^2) + z^2)."""
    norm = np.sqrt(x * x + y * y + z * z)
    return x / norm, y / norm, z / norm
