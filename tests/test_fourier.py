import itertools

import numpy as np
import pytest

from helmfmm import fourier
from helmfmm.fourier import (
    FourierWorkspace,
    SymbolCache,
    canonicalize_translation,
    dense_m2l_matrix,
    frequency_permutation,
    hyperoctahedral_group,
    m2l_hadamard,
    permute_symbol,
    precompute_symbol,
)
from helmfmm.kernel import HelmholtzKernel


def _strict_mac_translations():
    """All same-level translations admissible under the one-cell separation."""
    out = []
    for t in itertools.product(range(-3, 4), repeat=3):
        if max(abs(c) for c in t) >= 2:
            out.append(t)
    return out


def test_group_has_48_orthogonal_elements():
    group = hyperoctahedral_group()
    assert len(group) == 48
    seen = {m.tobytes() for m in group}
    assert len(seen) == 48
    for m in group:
        assert np.array_equal(m @ m.T, np.eye(3, dtype=np.int64))


def test_canonicalize_examples():
    canon, rid = canonicalize_translation((-2, 1, 0))
    assert canon == (2, 1, 0)
    assert np.array_equal(hyperoctahedral_group()[rid] @ canon, [-2, 1, 0])
    canon, _ = canonicalize_translation((0, -3, 2))
    assert canon == (3, 2, 0)


def test_canonicalize_is_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = rng.integers(-4, 5, size=3)
        if not np.any(t):
            continue
        canon, _ = canonicalize_translation(t)
        again, rid = canonicalize_translation(canon)
        assert again == canon
        assert np.array_equal(hyperoctahedral_group()[rid] @ np.array(canon), canon)


def test_canonicalize_matches_first_matching_group_element():
    group = hyperoctahedral_group()
    for t in itertools.product(range(-4, 5), repeat=3):
        if not any(t):
            continue
        canon = np.sort(np.abs(t))[::-1]
        rid = next(k for k, rot in enumerate(group) if np.array_equal(rot @ canon, t))
        assert canonicalize_translation(t) == (tuple(int(v) for v in canon), rid)
        assert canonicalize_translation(np.array(t)) == canonicalize_translation(t)


def test_canonicalize_rejects_zero():
    with pytest.raises(ValueError):
        canonicalize_translation((0, 0, 0))


def test_strict_mac_orbit_count():
    translations = _strict_mac_translations()
    assert len(translations) == 316
    classes = {canonicalize_translation(t)[0] for t in translations}
    assert len(classes) == 16


def test_frequency_permutation_is_bijection():
    for rid in (0, 7, 13, 41):
        idx = frequency_permutation(4, rid)
        assert np.array_equal(np.sort(idx), np.arange(7**3))


def test_m2f_f2l_round_trip():
    rng = np.random.default_rng(1)
    ws = FourierWorkspace(order=4)
    v = rng.normal(size=ws.nodal_size) + 1j * rng.normal(size=ws.nodal_size)
    back = ws.f2l(ws.m2f(v))
    assert np.allclose(back, v, atol=1e-13)


def test_m2f_parseval():
    # the padded transform is unitary, and zero-padding preserves the norm
    rng = np.random.default_rng(2)
    ws = FourierWorkspace(order=5)
    v = rng.normal(size=ws.nodal_size) + 1j * rng.normal(size=ws.nodal_size)
    assert np.linalg.norm(ws.m2f(v)) == pytest.approx(np.linalg.norm(v))


def test_m2f_f2l_adjoint_identity():
    rng = np.random.default_rng(3)
    ws = FourierWorkspace(order=3)
    u = rng.normal(size=ws.nodal_size) + 1j * rng.normal(size=ws.nodal_size)
    w = rng.normal(size=ws.fourier_size) + 1j * rng.normal(size=ws.fourier_size)
    lhs = np.vdot(w, ws.m2f(u))
    rhs = np.vdot(ws.f2l(w), u)
    assert lhs == pytest.approx(rhs)


def test_zero_expansion_transforms_to_zero():
    ws = FourierWorkspace(order=3)
    assert np.all(ws.m2f(np.zeros(ws.nodal_size)) == 0)
    assert np.all(ws.f2l(np.zeros(ws.fourier_size)) == 0)


def _fft_m2l_matrix(kernel, tvec, beta, order):
    """Assemble the full FFT-path operator column by column."""
    ws = FourierWorkspace(order)
    diagonal = precompute_symbol(kernel, tvec, beta, order)
    cols = []
    for j in range(order**3):
        e = np.zeros(order**3, dtype=complex)
        e[j] = 1.0
        acc = np.zeros(ws.fourier_size, dtype=complex)
        m2l_hadamard(acc, ws.m2f(e), diagonal)
        cols.append(ws.f2l(acc))
    return np.column_stack(cols)


@pytest.mark.parametrize("kappa,order", [(0.0, 2), (0.0, 4), (3.0, 4), (10.0, 5)])
def test_fft_path_matches_dense_operator(kappa, order):
    kernel = HelmholtzKernel(kappa=kappa, singularity_tol=1e-14)
    beta = 0.25
    for tvec in [(2, 0, 0), (3, 1, 0), (2, 2, 2), (-3, 2, -1)]:
        dense = dense_m2l_matrix(kernel, tvec, beta, order)
        fft_mat = _fft_m2l_matrix(kernel, tvec, beta, order)
        rel = np.abs(fft_mat - dense).max() / np.abs(dense).max()
        assert rel < 1e-12


def test_symbol_of_delta_expansion_reproduces_dense_column():
    kernel = HelmholtzKernel(kappa=0.0, singularity_tol=1e-14)
    order = 2
    dense = dense_m2l_matrix(kernel, (2, 0, 0), 1.0, order)
    fft_mat = _fft_m2l_matrix(kernel, (2, 0, 0), 1.0, order)
    assert np.allclose(fft_mat[:, 3], dense[:, 3], atol=1e-13)


def test_symbol_reciprocity():
    # G depends on |x-y| only, so the operators of t and -t are transposes
    kernel = HelmholtzKernel(kappa=4.0, singularity_tol=1e-14)
    a = dense_m2l_matrix(kernel, (2, 1, 0), 0.5, 3)
    b = dense_m2l_matrix(kernel, (-2, -1, 0), 0.5, 3)
    assert np.allclose(a, b.T, atol=1e-14)


def test_permute_symbol_identity_and_inverse():
    kernel = HelmholtzKernel(kappa=2.0, singularity_tol=1e-14)
    order = 3
    tvec = np.array([2, 1, 0])
    diagonal = precompute_symbol(kernel, tvec, 0.5, order)
    group = hyperoctahedral_group()
    ident = [rid for rid, m in enumerate(group) if np.array_equal(m, np.eye(3))][0]
    same = permute_symbol(diagonal, ident, order)
    assert np.allclose(same, diagonal)
    for rid in (5, 17, 30):
        rinv = [
            j for j, m in enumerate(group) if np.array_equal(m, group[rid].T)
        ][0]
        back = permute_symbol(permute_symbol(diagonal, rid, order), rinv, order)
        assert np.array_equal(group[rinv] @ group[rid] @ tvec, tvec)
        assert np.allclose(back, diagonal, atol=0)


def test_permute_symbol_matches_direct_precomputation():
    kernel = HelmholtzKernel(kappa=6.0, singularity_tol=1e-14)
    order = 4
    tvec = np.array([2, 1, 0])
    base = precompute_symbol(kernel, tvec, 0.25, order)
    rng = np.random.default_rng(4)
    for rid in rng.integers(0, 48, size=12):
        rotated = permute_symbol(base, int(rid), order)
        direct = precompute_symbol(kernel, hyperoctahedral_group()[rid] @ tvec, 0.25, order)
        rel = np.abs(rotated - direct).max() / np.abs(direct).max()
        assert rel < 1e-13


def test_precompute_rejects_singular_stencil():
    kernel = HelmholtzKernel(kappa=0.0, singularity_tol=1e-14)
    with pytest.raises(ValueError):
        precompute_symbol(kernel, (1, 0, 0), 1.0, 3)


def test_symbol_cache_shares_canonical_work():
    kernel = HelmholtzKernel(kappa=1.0, singularity_tol=1e-14)
    cache = SymbolCache(kernel, order=3)
    entries = [cache.get(0, t, 0.5) for t in [(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, 0, -2)]]
    assert entries == [0, 1, 2, 3]
    assert cache.n_canonical == 1
    assert cache.n_translations == 4
    # a repeated query returns its entry and adds none
    again = cache.get(0, (-2, 0, 0), 0.5)
    assert again == 1
    assert cache.n_translations == 4
    direct = precompute_symbol(kernel, (-2, 0, 0), 0.5, 3)
    assert np.allclose(cache.diagonals[again], direct, atol=1e-13)
    # every entry starts untagged, and a tag writes its entry only
    cache.tag_direction(again, 5)
    assert cache.directions == [0, 5, 0, 0]


def test_symbol_cache_all_strict_orbits():
    kernel = HelmholtzKernel(kappa=0.0, singularity_tol=1e-14)
    cache = SymbolCache(kernel, order=2)
    for t in _strict_mac_translations():
        cache.get(2, t, 0.25)
    assert cache.n_canonical == 16
    assert cache.n_translations == 316
