import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrack.geometry import (
    DoA,
    _cross,
    angular_distance,
    doa_from_unit_vector,
    sample_vmf,
    spherical_mean,
    uniform_sphere,
    wrap_azimuth,
)

from conftest import vmf_mean_angle_deg

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


@pytest.mark.parametrize("n", [1, 96, 1000])
def test_tangent_cross_products_match_np_cross_bitwise(n):
    rng = np.random.default_rng(n)
    mu = rng.standard_normal((n, 3))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    ref = np.where(np.abs(mu[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    t1 = np.cross(mu, ref)
    assert np.array_equal(_cross(mu, ref), t1)
    assert np.array_equal(_cross(mu, t1), np.cross(mu, t1))
