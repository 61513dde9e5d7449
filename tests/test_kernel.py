import numpy as np
import pytest

from helmfmm.kernel import MAX_BLOCK_ENTRIES, HelmholtzKernel, direct_sum, relative_errors
from helmfmm.traversal import FmmConfig, run_fmm


def test_laplace_limit_value():
    ker = HelmholtzKernel(kappa=0.0)
    # at unit distance the kernel is 1 / (4 pi)
    assert ker(np.zeros(3), np.array([1.0, 0.0, 0.0])) == pytest.approx(
        1.0 / (4.0 * np.pi)
    )


def test_oscillatory_value():
    ker = HelmholtzKernel(kappa=2.0)
    val = ker.of_distance(np.pi)
    # exp(2 i pi) = 1, so the value is real
    assert val == pytest.approx(1.0 / (4.0 * np.pi * np.pi))


def test_kernel_modulus_decays_like_inverse_distance():
    ker = HelmholtzKernel(kappa=5.0)
    r = np.array([0.5, 1.0, 2.0, 7.0])
    assert np.allclose(np.abs(ker.of_distance(r)), 1.0 / (4.0 * np.pi * r))


def test_singular_pairs_contribute_zero():
    ker = HelmholtzKernel(kappa=1.0, singularity_tol=1e-9)
    vals = ker.of_distance(np.array([0.0, 1e-12, 1.0]))
    assert vals[0] == 0.0
    assert vals[1] == 0.0
    assert vals[2] != 0.0


def test_kernel_rejects_bad_kappa():
    with pytest.raises(ValueError):
        HelmholtzKernel(kappa=-1.0)
    with pytest.raises(ValueError):
        HelmholtzKernel(kappa=np.nan)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_kernel_rejects_bad_singularity_tol(tol):
    # with tol <= 0 a coincident pair would give inf + nan j
    with pytest.raises(ValueError, match="singularity_tol"):
        HelmholtzKernel(kappa=0.0, singularity_tol=tol)


def test_call_keeps_pairs_closer_than_1e_154():
    ker = HelmholtzKernel(kappa=0.0, singularity_tol=1e-212)
    val = ker(np.array([1e-200, 0.0, 0.0]), np.zeros(3))
    assert val == pytest.approx(7.957747154594767e198, rel=1e-14, abs=0)


def test_call_matches_of_distance_at_ordinary_distances():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(200, 3))
    y = rng.uniform(size=(200, 3))
    ker = HelmholtzKernel(kappa=2.0)
    ref = ker.of_distance(np.linalg.norm(x - y, axis=-1))
    assert np.abs(ker(x, y) - ref).max() <= 1e-15 * np.abs(ref).max()
    for i in range(5):
        assert abs(ker(x[i], y[i]) - ref[i]) <= 1e-15 * abs(ref[i])


def test_matrix_matches_pairwise_calls():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(7, 3))
    y = rng.uniform(size=(5, 3)) + 2.0
    ker = HelmholtzKernel(kappa=3.0)
    mat = ker.matrix(x, y)
    for i in range(7):
        for j in range(5):
            assert mat[i, j] == pytest.approx(ker(x[i], y[j]))


def test_matrix_is_real_inverse_distance_at_kappa_zero():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(9, 3))
    y = np.vstack([rng.uniform(size=(6, 3)), x[3], x[3]])
    mat = HelmholtzKernel(kappa=0.0, singularity_tol=1e-12).matrix(x, y)
    assert mat.dtype == np.float64
    r = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
    coincident = r == 0.0
    assert coincident.sum() == 2
    assert np.all(mat[coincident] == 0.0)
    assert np.allclose(mat[~coincident], 1.0 / (4.0 * np.pi * r[~coincident]), rtol=1e-15, atol=0)


def test_matrix_matches_of_distance_at_positive_kappa():
    rng = np.random.default_rng(3)
    # targets on the signed axes around a source at the origin: the distance
    # is exact however it is summed, so only the kernel formula is compared
    r = np.concatenate([rng.uniform(0.01, 4.0, size=40), [0.0]])
    axes = np.vstack([np.eye(3), -np.eye(3)])[rng.integers(0, 6, size=r.size)]
    ker = HelmholtzKernel(kappa=7.5, singularity_tol=1e-12)
    mat = ker.matrix(r[:, None] * axes, np.zeros((1, 3)))[:, 0]
    ref = ker.of_distance(r)
    assert mat.dtype == np.complex128
    assert mat[-1] == 0.0
    assert np.all(np.abs(mat - ref) <= 1e-15 * np.abs(ref))


@pytest.mark.parametrize("kappa", [0.0, 4.0])
@pytest.mark.parametrize("n_t, n_s", [(300, 300), (3, 40000)])
def test_direct_sum_caps_kernel_blocks(monkeypatch, kappa, n_t, n_s):
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(n_t, 3))
    y = rng.uniform(size=(n_s, 3))
    q = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
    ker = HelmholtzKernel(kappa=kappa)
    expected = np.array([ker.of_distance(np.linalg.norm(y - xi, axis=1)) @ q for xi in x])
    sizes = []
    matrix = HelmholtzKernel.matrix

    def recording(self, targets, sources):
        sizes.append(targets.shape[0] * sources.shape[0])
        return matrix(self, targets, sources)

    monkeypatch.setattr(HelmholtzKernel, "matrix", recording)
    got = direct_sum(ker, x, y, q)
    assert len(sizes) > 1 and max(sizes) <= MAX_BLOCK_ENTRIES
    assert sum(sizes) == n_t * n_s
    assert relative_errors(expected, got).rel_linf < 1e-13


def test_direct_sum_matches_dense_product():
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(40, 3))
    y = rng.uniform(size=(60, 3))
    q = rng.normal(size=60) + 1j * rng.normal(size=60)
    ker = HelmholtzKernel(kappa=2.5)
    expected = ker.matrix(x, y) @ q
    # a small block size forces the blocked path
    got = direct_sum(ker, x, y, q, block=7)
    assert np.allclose(got, expected, rtol=1e-14, atol=0)


def test_direct_sum_excludes_self_interaction():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    q = np.array([1.0 + 0j, 0.0 + 0j])
    ker = HelmholtzKernel(kappa=0.0, singularity_tol=1e-9)
    pot = direct_sum(ker, pts, pts, q)
    assert pot[0] == 0.0
    assert pot[1] == pytest.approx(1.0 / (4.0 * np.pi))


@pytest.mark.parametrize("kappa", [0.0, 5.0])
def test_pair_closer_than_1e_154_interacts(kappa):
    """Squared distances below the smallest normal double underflow; the
    kernel rescales the coordinates instead of losing the pair."""
    r = 1e-200
    pts = np.array([[r, 0.0, 0.0], [0.0, 0.0, 0.0]])
    q = np.ones(2, dtype=complex)
    exact = np.exp(1j * kappa * r) / (4.0 * np.pi * r)
    oracle = direct_sum(HelmholtzKernel(kappa=kappa, singularity_tol=1e-212), pts, pts, q)
    assert np.allclose(oracle, exact, rtol=1e-14, atol=0)
    fmm = run_fmm(pts, pts, q, FmmConfig(kappa=kappa))
    assert np.allclose(fmm, exact, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kappa", [0.0, 5.0])
def test_rescaled_matrix_is_bitwise_the_plain_one(kappa):
    """A power-of-two scale is exact, so on points whose distances square
    without underflow the rescaled block equals the unscaled one."""
    rng = np.random.default_rng(8)
    t = rng.uniform(-3.0, 7.0, size=(40, 3))
    s = rng.uniform(-3.0, 7.0, size=(50, 3))
    plain = HelmholtzKernel(kappa=kappa).matrix(t, s)
    rescaled = HelmholtzKernel(kappa=kappa, singularity_tol=1e-200).matrix(t, s)
    assert rescaled.tobytes() == plain.tobytes()


def test_relative_errors_norms():
    ref = np.array([3.0, 4.0])
    approx = np.array([3.0, 4.5])
    rep = relative_errors(ref, approx)
    assert rep.rel_linf == pytest.approx(0.5 / 4.0)
    assert rep.rel_l1 == pytest.approx(0.5 / 7.0)
    assert rep.rel_l2 == pytest.approx(0.5 / 5.0)


def test_relative_errors_zero_reference_raises():
    with pytest.raises(ValueError):
        relative_errors(np.zeros(3), np.ones(3))
