import numpy as np
import pytest

from helmfmm import kernel
from helmfmm.kernel import (
    MAX_BLOCK_ENTRIES,
    MIN_SQUARABLE,
    HelmholtzKernel,
    direct_sum,
    relative_errors,
)
from helmfmm.traversal import FmmConfig, plan_fmm, run_fmm


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


@pytest.mark.parametrize("kr_max", [2.0, 20.0, 1.5e3])
def test_matrix_matches_of_distance_at_positive_kappa(kr_max):
    rng = np.random.default_rng(3)
    # targets on the signed axes around a source at the origin: the distance
    # is exact however it is summed, so only the kernel formula is compared
    kappa = 7.5
    r = np.concatenate([rng.uniform(0.0, kr_max, size=1000) / kappa, [0.0]])
    axes = np.vstack([np.eye(3), -np.eye(3)])[rng.integers(0, 6, size=r.size)]
    ker = HelmholtzKernel(kappa=kappa, singularity_tol=1e-12)
    mat = ker.matrix(r[:, None] * axes, np.zeros((1, 3)))[:, 0]
    ref = ker.of_distance(r)
    assert mat.dtype == np.complex128
    assert mat[-1] == 0.0
    assert np.all(np.abs(mat - ref) <= 1e-15 * np.abs(ref))


def test_matrix_matches_of_distance_at_quadrant_edges_and_tangent_poles():
    """kappa*r at 0, tiny, k*pi/4 and k*pi/2 with their neighbours, around
    2^19 pi/2, at the poles (2k+1)*pi of tan(x/2) and the points
    (2k+1)*pi/2 where tan(x/2) = +-1, with their neighbours, and far out."""
    quarters = np.arange(1, 17) * (np.pi / 4)
    halves = np.array([1, 2, 3, 4, 1 << 10, 1 << 18, (1 << 19) - 1]) * (np.pi / 2)
    poles = np.array([1, 3, 5, 7, 1001, (1 << 20) + 1, (1 << 40) + 1]) * np.pi
    units = np.array([1, 3, 5, 7, 1001, (1 << 20) + 1, (1 << 40) + 1]) * (np.pi / 2)
    edges = np.concatenate([quarters, halves, poles, units])
    bound = 2.0**19 * np.pi / 2
    x = np.concatenate(
        [
            [0.0, 1e-300, 1e-200, 1e-20, 2.0**-30, 1e-8],
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges, np.inf),
            [np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf), 2.0 * bound],
            [1e7, 1e12, 1e15, 1e18],
        ]
    )
    # kappa = 1, so kappa*r = r; one 1x1 block each
    ker = HelmholtzKernel(kappa=1.0, singularity_tol=1e-300)
    for xi in x:
        got = ker.matrix(np.array([[0.0, 0.0, xi]]), np.zeros((1, 3)))[0, 0]
        ref = ker.of_distance(xi)
        assert abs(got - ref) <= 1e-15 * abs(ref), xi


@pytest.mark.parametrize("kappa", [5.0, 700.0])
@pytest.mark.parametrize("tol", [1e-12, MIN_SQUARABLE / 2.0])
def test_one_block_in_every_regime_has_the_bits_of_its_pairs(kappa, tol):
    """kappa*r from 0 through 1e-300 and ordinary values to 1e12 in one
    block, with the default tolerance and with one that takes the reference
    path: every entry matches of_distance, and is bitwise its pair's 1x1
    block, so the way direct_sum cuts a near field into blocks never moves
    its bits."""
    rng = np.random.default_rng(5)
    kr = np.concatenate([[0.0, 1e-300], rng.uniform(0.0, 50.0, size=40), [1e3, 1e7, 1e12]])
    r = kr / kappa
    ker = HelmholtzKernel(kappa=kappa, singularity_tol=tol)
    targets = r[:, None] * np.array([[0.0, 1.0, 0.0]])
    mat = ker.matrix(targets, np.zeros((1, 3)))[:, 0]
    ref = ker.of_distance(r)
    assert np.all(np.abs(mat - ref) <= 1e-15 * np.abs(ref))
    ones = np.array([ker.matrix(t[None], np.zeros((1, 3)))[0, 0] for t in targets])
    assert ones.tobytes() == mat.tobytes()


@pytest.mark.parametrize("kappa", [0.0, 5.0])
def test_matrix_keeps_an_inverse_distance_near_the_largest_double(kappa):
    """A pair 5e-310 apart, with a tolerance below it, has 1/(4*pi*r) above
    half the largest double: no step of e^{i*kappa*r} may double it."""
    ker = HelmholtzKernel(kappa=kappa, singularity_tol=1e-320)
    got = ker.matrix(np.array([[5e-310, 0.0, 0.0]]), np.zeros((1, 3)))[0, 0]
    ref = ker.of_distance(5e-310)
    assert abs(ref) > np.finfo(float).max / 2
    assert abs(got - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("kappa", [0.0, 5.0, 700.0])
def test_matrix_is_bitwise_reciprocal(kappa):
    """r is symmetric in its two points, so swapping targets and sources
    transposes the block bit for bit (the benchmark's reciprocity gap
    relies on it); so is hypot, on the reference path (tolerance 1e-200)."""
    rng = np.random.default_rng(9)
    x = rng.uniform(-1.0, 1.0, size=(30, 3))
    y = np.vstack([rng.uniform(-1.0, 1.0, size=(45, 3)), x[:3]])
    for tol in (1e-12, 1e-200):
        ker = HelmholtzKernel(kappa=kappa, singularity_tol=tol)
        assert ker.matrix(x, y).tobytes() == ker.matrix(y, x).T.copy().tobytes(), tol


@pytest.mark.parametrize("kappa", [0.0, 5.0])
def test_a_block_spanning_1e_301_to_1e11_keeps_every_pair(kappa):
    """With a tolerance of 1e-305, pairs 2e-301 apart, at ordinary
    distances and 2e11 apart share one block: every entry matches
    of_distance and is bitwise its own 1x1 block, so neither the close
    pair nor the far one is lost to the other's scale."""
    rng = np.random.default_rng(14)
    r = np.concatenate([[2e-301, 3e-301], rng.uniform(0.01, 10.0, size=20), [2e11, 5e11]])
    ker = HelmholtzKernel(kappa=kappa, singularity_tol=1e-305)
    targets = r[:, None] * np.array([[0.0, 0.0, 1.0]])
    mat = ker.matrix(targets, np.zeros((1, 3)))[:, 0]
    ref = ker.of_distance(r)
    assert np.all(np.abs(mat - ref) <= 1e-15 * np.abs(ref))
    ones = np.array([ker.matrix(t[None], np.zeros((1, 3)))[0, 0] for t in targets])
    assert ones.tobytes() == mat.tobytes()


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


def test_direct_sum_matches_dense_product(monkeypatch):
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(40, 3))
    y = rng.uniform(size=(60, 3))
    q = rng.normal(size=60) + 1j * rng.normal(size=60)
    ker = HelmholtzKernel(kappa=2.5)
    expected = ker.matrix(x, y) @ q
    # a small block size forces the blocked path: blocks of 7 targets
    monkeypatch.setattr(kernel, "MAX_BLOCK_ENTRIES", 7 * 60)
    got = direct_sum(ker, x, y, q)
    assert np.allclose(got, expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "t_cols, s_cols, q_shape, name",
    [
        (4, 3, (5,), "targets"),
        (3, 2, (5,), "sources"),
        (3, 3, (5, 2), "charges"),
        (3, 3, (6,), "charges"),
    ],
    ids=["targets-4-columns", "sources-2-columns", "charges-2d", "charges-too-long"],
)
def test_direct_sum_rejects_malformed_input(t_cols, s_cols, q_shape, name):
    # unchecked, (m, 4) targets would sum over their first three columns
    # without a word, and (n, 2) sources or charges fail deep inside numpy
    targets, sources = np.ones((4, t_cols)), np.zeros((5, s_cols))
    with pytest.raises(ValueError, match=f"{name} must have shape"):
        direct_sum(HelmholtzKernel(kappa=2.0), targets, sources, np.ones(q_shape, dtype=complex))


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
    kernel takes the reference path instead of losing the pair."""
    r = 1e-200
    pts = np.array([[r, 0.0, 0.0], [0.0, 0.0, 0.0]])
    q = np.ones(2, dtype=complex)
    exact = np.exp(1j * kappa * r) / (4.0 * np.pi * r)
    oracle = direct_sum(HelmholtzKernel(kappa=kappa, singularity_tol=1e-212), pts, pts, q)
    assert np.allclose(oracle, exact, rtol=1e-14, atol=0)
    fmm = run_fmm(pts, pts, q, FmmConfig(kappa=kappa))
    assert np.allclose(fmm, exact, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kr", [0.0, 5.0])
def test_pair_farther_than_1e154_interacts(kr):
    """Squared distances above the largest double overflow; with a
    tolerance box-relative to a root box that far across, the kernel
    takes the reference path instead of losing the pair."""
    r = 2.0**520
    kappa = kr / r
    pts = np.array([[r, 0.0, 0.0], [0.0, 0.0, 0.0]])
    q = np.ones(2, dtype=complex)
    exact = np.exp(1j * kr) / (4.0 * np.pi * r)
    assert exact != 0
    oracle = direct_sum(HelmholtzKernel(kappa=kappa, singularity_tol=1e-12 * r), pts, pts, q)
    assert np.allclose(oracle, exact, rtol=1e-14, atol=0)
    fmm = run_fmm(pts, pts, q, FmmConfig(kappa=kappa))
    assert np.allclose(fmm, exact, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kappa_d", [0.0, 16.0])
@pytest.mark.parametrize("e", [520, 600])
def test_fmm_on_a_cloud_scaled_beyond_1e154(e, kappa_d):
    """A power-of-two scale 2**e of the points, with kappa scaled by
    2**-e, scales the potentials by 2**-e: the solve's box-relative
    tolerance sends every kernel block through the reference path."""
    rng = np.random.default_rng(12)
    pts = rng.uniform(size=(800, 3))
    q = rng.normal(size=800) + 1j * rng.normal(size=800)
    scale = 2.0**e
    ref = run_fmm(pts, pts, q, FmmConfig(order=4, ncrit=16, kappa=kappa_d))
    got = run_fmm(pts * scale, pts * scale, q, FmmConfig(order=4, ncrit=16, kappa=kappa_d / scale))
    assert np.abs(got - ref / scale).max() <= 1e-14 * np.abs(ref / scale).max()


@pytest.mark.parametrize("kappa", [0.0, 5.0])
def test_reference_matrix_is_the_kernel_call_on_every_pair(kappa):
    """A tolerance of 1e-200 is below MIN_SQUARABLE, so the block is
    bitwise __call__ on every pair (real at kappa = 0), and it matches the
    block of the fast formula on the same points."""
    rng = np.random.default_rng(8)
    t = rng.uniform(-3.0, 7.0, size=(40, 3))
    s = rng.uniform(-3.0, 7.0, size=(50, 3))
    fast = HelmholtzKernel(kappa=kappa).matrix(t, s)
    ker = HelmholtzKernel(kappa=kappa, singularity_tol=1e-200)
    block = ker.matrix(t, s)
    call = ker(t[:, None], s[None])
    if kappa == 0:
        assert block.dtype == np.float64 and block.flags.c_contiguous
        call = np.ascontiguousarray(call.real)
    assert block.tobytes() == call.tobytes()
    assert np.abs(block - fast).max() <= 1e-15 * np.abs(fast).max()


@pytest.mark.parametrize("shape", ["cube", "sphere", "plane-over-ellipsoid"])
def test_solves_never_take_the_reference_path(monkeypatch, shape):
    """The solver's tolerance is box-relative to a root box of ordinary
    size, so no near-field block goes through __call__: taken by mistake it
    would cost several times the P2P time without changing a result.  The
    trigger reads the tolerance only, so a few hundred points suffice."""
    rng = np.random.default_rng(17)
    if shape == "cube":
        sources, kappa = rng.uniform(size=(400, 3)), 0.0
        targets = sources
    elif shape == "sphere":
        g = rng.normal(size=(400, 3))
        sources, kappa = g / np.linalg.norm(g, axis=1, keepdims=True), 16.0
        targets = sources
    else:
        # an ellipsoid x^2 + 16 y^2 + 16 z^2 = 1, targets on a plane through it
        c, phi = rng.uniform(-1.0, 1.0, size=400), rng.uniform(0.0, 2.0 * np.pi, size=400)
        w = 0.25 * np.sqrt(1.0 - c * c)
        sources, kappa = np.column_stack([c, w * np.cos(phi), w * np.sin(phi)]), 8.0
        x, y = np.meshgrid(np.linspace(-1.0, 1.0, 20), np.linspace(-0.25, 0.25, 10))
        targets = np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])
    q = rng.normal(size=400) + 1j * rng.normal(size=400)
    plan = plan_fmm(targets, sources, FmmConfig(order=4, ncrit=16, kappa=kappa))
    calls = []
    call = HelmholtzKernel.__call__
    monkeypatch.setattr(HelmholtzKernel, "__call__", lambda k, a, b: calls.append(1) or call(k, a, b))
    plan.apply(q)
    assert plan.counts["p2p_pairs"] > 0
    assert calls == []
    HelmholtzKernel(kappa=kappa, singularity_tol=1e-200).matrix(targets[:50], sources)
    assert calls


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
