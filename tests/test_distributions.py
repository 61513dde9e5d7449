import numpy as np
import pytest

from helmfmm.distributions import (
    KINDS,
    Distribution,
    generate_distribution,
    random_charges,
)


def test_all_kinds_produce_requested_shape():
    for kind in KINDS:
        pts = generate_distribution(Distribution(kind, 1234, seed=3))
        assert pts.shape == (1234, 3)
        assert np.all(np.isfinite(pts))


def test_generation_is_deterministic_in_seed():
    for kind in KINDS:
        a = generate_distribution(Distribution(kind, 500, seed=7))
        b = generate_distribution(Distribution(kind, 500, seed=7))
        c = generate_distribution(Distribution(kind, 500, seed=8))
        assert np.array_equal(a, b)
        if kind != "sphere":  # the Fibonacci lattice ignores the seed
            assert not np.array_equal(a, c)


def test_uniform_cube_statistics():
    pts = generate_distribution(Distribution("uniform-cube", 10000, seed=0))
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)
    assert np.allclose(pts.mean(axis=0), 0.5, atol=0.01)


def test_sphere_points_on_unit_sphere():
    pts = generate_distribution(Distribution("sphere", 2000, seed=0))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_refined_cube_points_on_faces():
    pts = generate_distribution(Distribution("refined-cube", 3000, seed=1))
    on_face = np.any((pts == 0.0) | (pts == 1.0), axis=1)
    assert np.all(on_face)
    # mass concentrates toward the face borders: the central band of the
    # in-face coordinates holds well under its uniform share
    interior = pts[(pts[:, 0] > 0) & (pts[:, 0] < 1)]
    central = np.abs(interior[:, 0] - 0.5) < 0.25
    assert central.mean() < 0.35


def test_ellipse_axis_ratio_and_poles():
    pts = generate_distribution(Distribution("ellipse", 5000, seed=2))
    on_surface = pts[:, 0] ** 2 + (pts[:, 1] / 0.25) ** 2 + (pts[:, 2] / 0.25) ** 2
    assert np.allclose(on_surface, 1.0, atol=1e-12)
    # polar concentration: over half the samples sit in the outer caps
    caps = np.abs(pts[:, 0]) > 0.75
    assert caps.mean() > 0.5


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Distribution("torus", 100)
    with pytest.raises(ValueError):
        Distribution("sphere", 0)


@pytest.mark.parametrize(
    "kind,n,seed",
    [
        ("sphere", 10.5, 0),  # used to give 11 points
        ("uniform-cube", 10.5, 0),  # used to fail inside numpy
        ("sphere", True, 0),  # used to give 1 point
        ("sphere", 10, 1.5),
        ("sphere", 10, True),
    ],
)
def test_non_integer_size_and_seed_rejected(kind, n, seed):
    with pytest.raises(ValueError, match="must be an integer"):
        Distribution(kind, n, seed)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        Distribution("sphere", 10, -1)


def test_numpy_integers_accepted():
    pts = generate_distribution(Distribution("uniform-cube", np.int64(10), np.int64(3)))
    assert np.array_equal(pts, generate_distribution(Distribution("uniform-cube", 10, 3)))


def test_random_charges_in_unit_square():
    q = random_charges(5000, seed=0)
    assert q.shape == (5000,)
    assert np.all((q.real >= 0) & (q.real <= 1))
    assert np.all((q.imag >= 0) & (q.imag <= 1))
    assert np.array_equal(q, random_charges(5000, seed=0))
