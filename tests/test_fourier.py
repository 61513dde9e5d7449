import itertools

import numpy as np
import pytest

from helmfmm import fourier
from helmfmm.fourier import (
    FourierWorkspace,
    SymbolCache,
    canonicalize_translations,
    dense_m2l_matrix,
    frequency_permutation,
    hyperoctahedral_group,
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


def _first_matching_group_element(t: np.ndarray) -> tuple:
    """The canonical rule from its definition, for each row of a (k, 3)
    array: canon is |t| sorted non-increasing, and rid the first k with
    hyperoctahedral_group()[k] @ canon == t, over all 48 matrices at once."""
    canon = np.sort(np.abs(t), axis=1)[:, ::-1]
    images = np.einsum("gab,nb->nga", np.array(hyperoctahedral_group()), canon)
    matches = (images == t[:, None, :]).all(axis=-1)
    assert matches.any(axis=1).all()
    return canon, matches.argmax(axis=1)


def test_canonicalize_examples():
    canon, rid = canonicalize_translations([(-2, 1, 0)])
    assert canon[0].tolist() == [2, 1, 0]
    assert np.array_equal(hyperoctahedral_group()[rid[0]] @ canon[0], [-2, 1, 0])
    canon, _ = canonicalize_translations([(0, -3, 2)])
    assert canon[0].tolist() == [3, 2, 0]


def test_canonicalize_is_idempotent():
    rng = np.random.default_rng(0)
    t = rng.integers(-4, 5, size=(50, 3))
    t = t[t.any(axis=1)]
    canon, _ = canonicalize_translations(t)
    again, rid = canonicalize_translations(canon)
    assert np.array_equal(again, canon)
    for r, c in zip(rid, canon):
        assert np.array_equal(hyperoctahedral_group()[r] @ c, c)


def test_canonicalize_matches_first_matching_group_element():
    """Every translation in [-10, 10]^3 gets the canonical vector and
    rotation id of the rule's definition, ties of |t| and zeros included,
    from an integer array or a list of tuples alike."""
    t = np.array(list(itertools.product(range(-10, 11), repeat=3)))
    t = t[t.any(axis=1)]
    canon, rids = canonicalize_translations(t)
    assert canon.shape == t.shape and rids.shape == (len(t),)
    ref_canon, ref_rids = _first_matching_group_element(t)
    assert np.array_equal(canon, ref_canon)
    assert np.array_equal(rids, ref_rids)
    from_tuples = canonicalize_translations(list(map(tuple, t.tolist())))
    assert np.array_equal(from_tuples[0], canon) and np.array_equal(from_tuples[1], rids)


def test_stacked_canonical_form_rejects_zero_rows():
    for zero in ([[0, 0, 0]], [[1, 0, 0], [0, 0, 0]]):
        with pytest.raises(ValueError, match="zero translation"):
            canonicalize_translations(np.array(zero))


def test_translations_must_be_integer_stacks():
    """A float translation is rejected, not truncated to its integer part,
    and one translation is a one-row stack."""
    kernel = HelmholtzKernel(kappa=1.0, singularity_tol=1e-14)
    cache = SymbolCache(kernel, order=3, root_side=0.5)
    for bad in ([[2.5, 0, 0]], np.array([[2.0, 0, 0]]), [2, 0, 0], np.zeros((2, 2), int)):
        with pytest.raises(ValueError, match=r"\(k, 3\) integer"):
            canonicalize_translations(bad)
        with pytest.raises(ValueError, match=r"\(k, 3\) integer"):
            cache.get(0, bad)
    assert cache.n_translations == 0
    assert cache.get(0, np.array([[2, 0, 0]], dtype=np.int32)).tolist() == [0]


def _old_precompute_symbol(kernel, tvec, beta, order):
    """precompute_symbol as it was before its offset grid was cached: a
    meshgrid of the offsets on every call."""
    pad = 2 * order - 1
    off = np.arange(pad)
    off = np.where(off < order, off, off - pad) * (1.0 / (order - 1))
    zx, zy, zz = np.meshgrid(tvec[0] + off, tvec[1] + off, tvec[2] + off, indexing="ij")
    r = beta * np.sqrt(zx**2 + zy**2 + zz**2)
    return np.fft.fftn(kernel.of_distance(r)).ravel()


@pytest.mark.parametrize("kappa", [0.0, 7.5])
def test_precompute_symbol_keeps_the_old_formula_bits(kappa):
    kernel = HelmholtzKernel(kappa=kappa, singularity_tol=1e-14)
    for order in (2, 3, 5):
        for tvec, beta in [((2, 0, 0), 0.25), ((3, -1, 2), 0.125), ((-4, 4, 4), 1.0 / 3)]:
            new = precompute_symbol(kernel, tvec, beta, order)
            assert np.array_equal(new, _old_precompute_symbol(kernel, tvec, beta, order))


def test_strict_mac_orbit_count():
    translations = _strict_mac_translations()
    assert len(translations) == 316
    classes = set(map(tuple, canonicalize_translations(translations)[0].tolist()))
    assert len(classes) == 16


def test_frequency_permutation_is_bijection():
    for rid in (0, 7, 13, 41):
        idx = frequency_permutation(4, rid)
        assert np.array_equal(np.sort(idx), np.arange(7**3))


def test_m2f_f2l_round_trip():
    rng = np.random.default_rng(1)
    ws = FourierWorkspace(order=4)
    v = rng.normal(size=(1, ws.nodal_size)) + 1j * rng.normal(size=(1, ws.nodal_size))
    back = ws.f2l(ws.m2f(v))
    assert np.allclose(back, v, atol=1e-13)


def test_m2f_parseval():
    # the padded transform is unitary, and zero-padding preserves the norm
    rng = np.random.default_rng(2)
    ws = FourierWorkspace(order=5)
    v = rng.normal(size=(1, ws.nodal_size)) + 1j * rng.normal(size=(1, ws.nodal_size))
    assert np.linalg.norm(ws.m2f(v)) == pytest.approx(np.linalg.norm(v))


def test_m2f_f2l_adjoint_identity():
    rng = np.random.default_rng(3)
    ws = FourierWorkspace(order=3)
    u = rng.normal(size=ws.nodal_size) + 1j * rng.normal(size=ws.nodal_size)
    w = rng.normal(size=ws.fourier_size) + 1j * rng.normal(size=ws.fourier_size)
    lhs = np.vdot(w, ws.m2f(u[None]))
    rhs = np.vdot(ws.f2l(w[None]), u)
    assert lhs == pytest.approx(rhs)


def _m2f_per_row(ws, v):
    """The per-expansion M2F: zero-pad the cube, then np.fft.fftn."""
    ordr, pad = ws.order, ws.padded
    buf = np.zeros((pad, pad, pad), dtype=complex)
    buf[:ordr, :ordr, :ordr] = v.reshape(ordr, ordr, ordr)
    return (np.fft.fftn(buf) / ws._norm).ravel()


def _f2l_per_row(ws, w):
    """The per-expansion F2L: np.fft.ifftn, then crop the cube."""
    ordr, pad = ws.order, ws.padded
    out = np.fft.ifftn(w.reshape(pad, pad, pad)) * ws._norm
    return np.ascontiguousarray(out[:ordr, :ordr, :ordr]).reshape(-1)


def _random_stack(rng, rows, size):
    return rng.normal(size=(rows, size)) + 1j * rng.normal(size=(rows, size))


@pytest.mark.parametrize("rows", [0, 1, 44, 45])
@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_stacked_transforms_equal_the_per_row_fftn_bitwise(order, rows):
    rng = np.random.default_rng(order * 100 + rows)
    ws = FourierWorkspace(order)
    v = _random_stack(rng, rows, ws.nodal_size)
    w = _random_stack(rng, rows, ws.fourier_size)
    hat, back = ws.m2f(v), ws.f2l(w)
    assert hat.shape == (rows, ws.fourier_size) and back.shape == (rows, ws.nodal_size)
    for i in range(rows):
        assert np.array_equal(hat[i], _m2f_per_row(ws, v[i]))
        assert np.array_equal(back[i], _f2l_per_row(ws, w[i]))


def test_stacked_adjoint_identity():
    rng = np.random.default_rng(5)
    ws = FourierWorkspace(order=4)
    u = _random_stack(rng, 7, ws.nodal_size)
    w = _random_stack(rng, 7, ws.fourier_size)
    lhs = np.einsum("ij,ij->i", w.conj(), ws.m2f(u))
    rhs = np.einsum("ij,ij->i", ws.f2l(w).conj(), u)
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "method, shape",
    [
        ("m2f", (3, 2 * 27)),
        ("m2f", (125,)),
        ("m2f", (2, 3, 27)),
        ("f2l", (3, 27)),
        ("f2l", (2 * 125,)),
        ("f2l", (2, 3, 125)),
    ],
)
def test_transforms_reject_a_wrong_trailing_length(method, shape):
    # (k, 2 L^3) would otherwise reshape silently into 2k expansions
    ws = FourierWorkspace(order=3)
    with pytest.raises(ValueError, match="must have shape"):
        getattr(ws, method)(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("method", ["m2f", "f2l"])
def test_transforms_take_stacks_only(method):
    # one expansion is a one-row stack: a 1-D array is rejected, not transformed
    ws = FourierWorkspace(order=3)
    size = {"m2f": ws.nodal_size, "f2l": ws.fourier_size}[method]
    with pytest.raises(ValueError, match=rf"\(k, {size}\)"):
        getattr(ws, method)(np.zeros(size, dtype=complex))


def test_zero_expansion_transforms_to_zero():
    ws = FourierWorkspace(order=3)
    assert np.all(ws.m2f(np.zeros((1, ws.nodal_size))) == 0)
    assert np.all(ws.f2l(np.zeros((1, ws.fourier_size))) == 0)


def _fft_m2l_matrix(kernel, tvec, beta, order):
    """Assemble the full FFT-path operator from one stack of all basis
    vectors: row j of the result is column j."""
    ws = FourierWorkspace(order)
    diagonal = precompute_symbol(kernel, tvec, beta, order)
    return ws.f2l(diagonal * ws.m2f(np.eye(order**3, dtype=complex))).T


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
    cache = SymbolCache(kernel, order=3, root_side=0.5)
    entries = [cache.get(0, [t])[0] for t in [(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, 0, -2)]]
    assert entries == [0, 1, 2, 3]
    assert cache.n_canonical == 1
    assert cache.n_translations == 4
    # a repeated query returns its entry and adds none
    again = cache.get(0, [(-2, 0, 0)])[0]
    assert again == 1
    assert cache.n_translations == 4
    direct = precompute_symbol(kernel, (-2, 0, 0), 0.5, 3)
    assert np.allclose(cache.diagonal(again), direct, atol=1e-13)
    # every entry starts untagged, and a tag writes its entry only
    cache.tag_direction([again], [5])
    assert cache.directions == [0, 5, 0, 0]
    # entries and directions pair up one for one, or nothing is written
    with pytest.raises(ValueError, match="zip"):
        cache.tag_direction([0, 1], [7])
    assert cache.directions == [0, 5, 0, 0]


def test_failing_get_leaves_the_table_as_it_was():
    """A get whose later precomputation raises keeps none of the call's
    canonical diagonals, not even those computed before the failure."""
    cache = SymbolCache(HelmholtzKernel(kappa=1.0, singularity_tol=1e-14), 3, 1.0)
    with pytest.raises(ValueError, match="singularity"):
        cache.get(0, [(2, 0, 0), (1, 0, 0)])
    assert cache.n_canonical == cache.n_translations == 0
    assert cache.entries == {} and cache.directions == []
    # the next get numbers its canonical diagonal and its entry from 0
    assert cache.get(0, [(0, 2, 0)]).tolist() == [0]
    assert cache.bases == [0] and cache.n_canonical == 1


def test_the_table_stores_canonical_diagonals_only():
    """Each entry holds the index of its canonical diagonal and a rotation
    id; diagonal(entry) permutes the stored one, which a canonical
    translation (rotation 0) returns as it is."""
    kernel = HelmholtzKernel(kappa=3.0, singularity_tol=1e-14)
    cache = SymbolCache(kernel, 3, root_side=1.0)
    entries = cache.get(1, [(2, 0, 0), (0, -2, 0), (3, 1, 0), (-1, 0, 3)]).tolist()
    assert cache.n_canonical == 2 and cache.n_translations == 4
    assert cache.bases == [0, 0, 1, 1]
    assert [cache.rotations[e] == 0 for e in entries] == [True, False, True, False]
    assert cache.diagonal(entries[0]) is cache.canonicals[0]
    for entry, tvec in zip(entries, [(2, 0, 0), (0, -2, 0), (3, 1, 0), (-1, 0, 3)]):
        direct = precompute_symbol(kernel, tvec, 0.5, 3)
        assert np.abs(cache.diagonal(entry) - direct).max() < 1e-13 * np.abs(direct).max()


def test_each_level_takes_its_own_side():
    """The table derives each level's side, root_side / 2**level: one
    translation pair asked for at three levels gets three canonical
    diagonals, each bitwise the direct one at its level's side."""
    kernel = HelmholtzKernel(kappa=3.0, singularity_tol=1e-14)
    cache = SymbolCache(kernel, 3, root_side=1.0)
    tvecs = np.array([(2, 0, 0), (-2, 0, 0)])
    canon, rids = canonicalize_translations(tvecs)
    for level in range(3):
        entries = cache.get(level, tvecs)
        for entry, c, rid in zip(entries.tolist(), canon, rids.tolist()):
            direct = permute_symbol(precompute_symbol(kernel, c, 2.0**-level, 3), rid, 3)
            assert cache.diagonal(entry).tobytes() == direct.tobytes()
    assert cache.n_canonical == 3 and cache.n_translations == 6


def test_stacked_get_matches_row_by_row_calls():
    """One stacked get with repeated and already-cached rows returns the
    entries, numbering and diagonals of a get per row."""
    kernel = HelmholtzKernel(kappa=3.0, singularity_tol=1e-14)
    rng = np.random.default_rng(5)
    stack = np.concatenate([rng.integers(-4, 5, size=(60, 3)), [(2, 0, 0), (0, -2, 0)]])
    stack = stack[np.abs(stack).max(axis=1) >= 2]
    stack = np.concatenate([stack, stack[::3]])  # repeated rows
    stacked, rowwise = (SymbolCache(kernel, order=3, root_side=1.0) for _ in range(2))
    for cache in (stacked, rowwise):  # already cached before the stack
        cache.get(1, [(2, 0, 0)])
        cache.get(1, [(0, 0, 3)])
    entries = stacked.get(1, stack)
    assert entries.shape == (len(stack),)
    assert entries.tolist() == [rowwise.get(1, tvec[None])[0] for tvec in stack]
    assert stacked.entries == rowwise.entries
    assert stacked.n_canonical == rowwise.n_canonical < stacked.n_translations
    assert stacked.n_translations == rowwise.n_translations
    for entry in range(stacked.n_translations):
        assert np.array_equal(stacked.diagonal(entry), rowwise.diagonal(entry))
    # each diagonal is its canonical one, permuted
    for canon, rid, entry in zip(*_first_matching_group_element(stack), entries.tolist()):
        base = precompute_symbol(kernel, canon, 0.5, 3)
        assert np.array_equal(stacked.diagonal(entry), permute_symbol(base, rid, 3))
    # a stack of tags writes each of its entries
    stacked.tag_direction(entries[:3], np.array([7, 8, 9]))
    assert [stacked.directions[e] for e in entries[:3].tolist()] == [7, 8, 9]


def test_symbol_cache_all_strict_orbits():
    kernel = HelmholtzKernel(kappa=0.0, singularity_tol=1e-14)
    cache = SymbolCache(kernel, order=2, root_side=1.0)
    for t in _strict_mac_translations():
        cache.get(2, [t])
    assert cache.n_canonical == 16
    assert cache.n_translations == 316
