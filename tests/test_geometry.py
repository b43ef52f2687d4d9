import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrack.geometry import (
    DoA,
    angular_distance,
    doa_from_unit_vector,
    sample_vmf,
    spherical_mean,
    uniform_sphere,
    vmf_from_uniforms,
    wrap_azimuth,
)

from conftest import previous_sample_vmf, previous_vmf_from_uniforms, vmf_mean_angle_deg

azimuths = st.floats(min_value=-180.0, max_value=179.999, allow_nan=False)
elevations = st.floats(min_value=-89.0, max_value=89.0, allow_nan=False)


def test_unit_vector_known_directions():
    assert np.allclose(DoA(0, 0).unit_vector(), [1, 0, 0])
    assert np.allclose(DoA(90, 0).unit_vector(), [0, 1, 0])
    assert np.allclose(DoA(0, 90).unit_vector(), [0, 0, 1])
    assert np.allclose(DoA(-90, 0).unit_vector(), [0, -1, 0])


@given(azimuths, elevations)
@settings(max_examples=200)
def test_unit_vector_round_trip(az, el):
    doa = DoA(az, el)
    back = doa_from_unit_vector(doa.unit_vector())
    assert back.azimuth == pytest.approx(doa.azimuth, abs=1e-9)
    assert back.elevation == pytest.approx(doa.elevation, abs=1e-9)


def test_poles_have_unit_vectors():
    assert np.allclose(DoA(0, 90).unit_vector(), DoA(120, 90).unit_vector())


@given(azimuths, elevations, azimuths, elevations)
@settings(max_examples=200)
def test_angular_distance_range_and_symmetry(az1, el1, az2, el2):
    a, b = DoA(az1, el1), DoA(az2, el2)
    d = angular_distance(a, b)
    assert 0.0 <= d <= 180.0
    assert d == pytest.approx(angular_distance(b, a))
    assert angular_distance(a, a) == pytest.approx(0.0, abs=1e-4)


def test_angular_distance_quarter_turn():
    assert angular_distance(DoA(0, 0), DoA(90, 0)) == pytest.approx(90.0)
    assert angular_distance(DoA(0, 0), DoA(0, 90)) == pytest.approx(90.0)
    assert angular_distance(DoA(0, 0), DoA(-180, 0)) == pytest.approx(180.0)


def test_wrap_azimuth():
    assert wrap_azimuth(180.0) == -180.0
    assert wrap_azimuth(-181.0) == 179.0
    assert wrap_azimuth(361.0) == pytest.approx(1.0)


def test_azimuth_wraps_on_construction():
    assert DoA(270.0, 0.0).azimuth == pytest.approx(-90.0)


def test_elevation_out_of_range_rejected():
    with pytest.raises(ValueError):
        DoA(0.0, 91.0)


@pytest.mark.parametrize("azimuth", [math.nan, math.inf, -math.inf])
def test_non_finite_azimuth_rejected(azimuth):
    # A NaN azimuth would lie at 0 degrees from every direction
    # (angle_between clamps the NaN cosine to 1).
    with pytest.raises(ValueError, match="not finite"):
        DoA(azimuth, 0.0)


def test_spherical_mean_of_cluster_points_inward():
    rng = np.random.default_rng(0)
    mu = np.array([0.0, 0.0, 1.0])
    samples = sample_vmf(rng, np.tile(mu, (500, 1)), 200.0)
    mean = spherical_mean(samples)
    assert float(mean @ mu) > 0.999


def test_spherical_mean_weighted():
    vecs = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    m = spherical_mean(vecs, np.array([1.0, 0.0]))
    assert np.allclose(m, [1, 0, 0])


def test_uniform_sphere_covers_hemispheres():
    rng = np.random.default_rng(1)
    pts = uniform_sphere(rng, 4000)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    for axis in range(3):
        assert abs(float(np.mean(pts[:, axis]))) < 0.05


def test_vmf_concentration_shrinks_spread():
    loose = vmf_mean_angle_deg(10.0, n=20000, seed=3)
    tight = vmf_mean_angle_deg(1000.0, n=20000, seed=3)
    assert tight < loose
    assert tight == pytest.approx(math.degrees(math.sqrt(math.pi / 2000.0)), rel=0.05)


def test_vmf_infinite_kappa_is_identity():
    rng = np.random.default_rng(0)
    mu = uniform_sphere(rng, 8)
    out = sample_vmf(rng, mu, math.inf)
    assert np.allclose(out, mu)


def test_vmf_deterministic_per_seed():
    mu = np.array([0.0, 1.0, 0.0])
    a = sample_vmf(np.random.default_rng(7), mu, 50.0)
    b = sample_vmf(np.random.default_rng(7), mu, 50.0)
    assert np.array_equal(a, b)


def assert_same_bits(a, b):
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def unit_rows(rng, n):
    """Random unit rows with the poles, rows at and near |z| = 0.9 (where the
    tangent reference switches axis) and signed zeros mixed in."""
    mu = rng.standard_normal((n, 3))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    special = [
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
        [-0.0, 0.0, 1.0],
        [math.sqrt(1 - 0.81), 0.0, 0.9],
        [0.0, -math.sqrt(1 - 0.81), -0.9],
        [math.sqrt(1 - 0.8999**2), 0.0, 0.8999],
        [1.0, 0.0, 0.0],
        [0.0, -1.0, -0.0],
    ]
    k = min(n, len(special))
    mu[rng.permutation(n)[:k]] = special[:k]
    return mu


@pytest.mark.parametrize("n", [1, 96, 1000])
def test_tangent_cross_products_match_np_cross_bitwise(n):
    # Per-coordinate cross products, norms and clipping: the same bits as the
    # (n, 3) formula with np.cross and np.linalg.norm.
    rng = np.random.default_rng(n)
    mu = unit_rows(rng, n)
    u, v = rng.random(n), rng.random(n)
    for kappa in (1.0, 124.0, 8000.0):
        assert_same_bits(vmf_from_uniforms(mu, u, v, kappa), previous_vmf_from_uniforms(mu, u, v, kappa))


def test_sample_vmf_equals_previous_implementation_bitwise():
    rng = np.random.default_rng(2024)
    for trial in range(500):
        n = int(rng.choice([1, 2, 7, 96, 300]))
        mu = unit_rows(rng, n)
        kappa = float(rng.choice([0.5, 124.0, 500.0, 8000.0, 1e6, math.inf]))
        seed = int(rng.integers(1 << 31))
        for means in (mu, mu[0]):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_same_bits(sample_vmf(a, means, kappa), previous_sample_vmf(b, means, kappa))
            assert a.random() == b.random()  # the same number of draws
