import numpy as np
import pytest

from helmfmm import interpolation as interp


def _random_cube(rng):
    """(lower corner, side) of a random cube."""
    return rng.uniform(-1, 1, size=3), rng.uniform(0.5, 2.0)


def _basis(lower, side, order, positions):
    """(n, L^3) basis values at particles given in physical coordinates, on
    the cube lower + side * [0, 1]^3."""
    return interp.basis_matrix(order, (np.atleast_2d(positions) - lower) / side)


def _values(lower, side, order, positions):
    """(1, n, 3, L) per-axis 1D Lagrange values of the particles on that
    cube: the one-leaf stack p2m and l2p take."""
    unit = (np.atleast_2d(positions) - lower) / side
    return interp.eval_matrix_1d(order, unit.reshape(-1)).reshape(1, -1, 3, order)


def test_nodes_include_endpoints():
    for order in (2, 3, 6):
        n = interp.nodes_1d(order)
        assert n[0] == 0.0 and n[-1] == 1.0
        assert np.allclose(np.diff(n), 1.0 / (order - 1))
    with pytest.raises(ValueError):
        interp.nodes_1d(1)


def test_lagrange_cardinal_property():
    order = 5
    nodes = interp.nodes_1d(order)
    vals = interp.eval_matrix_1d(order, nodes)
    for k in range(order):
        expected = np.zeros(order)
        expected[k] = 1.0
        assert np.allclose(vals[:, k], expected, atol=1e-13)


def test_lagrange_partition_of_unity():
    order = 6
    x = np.linspace(-0.2, 1.2, 41)
    total = sum(interp.eval_matrix_1d(order, x)[:, k] for k in range(order))
    assert np.allclose(total, 1.0, atol=1e-10)


def _cardinal_reference(order, k, x):
    """S_k(x) as the product over j != k of (x - x_j) / (x_k - x_j), one
    point array at a time."""
    nodes = interp.nodes_1d(order)
    out = np.ones_like(x)
    for j in range(order):
        if j != k:
            out = out * (x - nodes[j]) / (nodes[k] - nodes[j])
    return out


@pytest.mark.parametrize("order", [2, 5, 8])
def test_eval_matrix_1d_is_bitwise_the_per_column_product(order):
    rng = np.random.default_rng(order)
    # inside [0, 1] and outside it on both sides
    x = np.concatenate([rng.uniform(size=50), rng.uniform(-1.0, 2.0, size=50)])
    vals = interp.eval_matrix_1d(order, x)
    for k in range(order):
        assert vals[:, k].tobytes() == _cardinal_reference(order, k, x).tobytes()


def test_polynomial_reproduction_1d():
    """Degree < L polynomials are interpolated exactly."""
    order = 5
    nodes = interp.nodes_1d(order)
    x = np.linspace(0, 1, 33)
    coeffs = np.array([0.3, -1.2, 0.7, 2.0, -0.5])
    p = np.polynomial.polynomial.polyval
    interpolated = interp.eval_matrix_1d(order, x) @ p(nodes, coeffs)
    assert np.allclose(interpolated, p(x, coeffs), atol=1e-12)


def test_grid_points_flat_c_order():
    order = 3
    g = interp.grid_points(order)
    assert g.shape == (27, 3)
    # flat index (i0*L + i1)*L + i2 addresses (x[i0], x[i1], x[i2])
    nodes = interp.nodes_1d(order)
    assert np.allclose(g[(2 * 3 + 1) * 3 + 0], [nodes[2], nodes[1], nodes[0]])


def test_basis_matrix_cardinal_on_grid():
    order = 4
    b = interp.basis_matrix(order, interp.grid_points(order))
    assert np.allclose(b, np.eye(order**3), atol=1e-12)


def test_p2m_node_coincident_particle():
    order = 3
    g = interp.grid_points(order)
    j = 14
    coeffs = interp.p2m(_values(np.zeros(3), 1.0, order, g[j : j + 1]), np.ones((1, 1, 1)))
    assert coeffs.shape == (1, order**3, 1)
    expected = np.zeros(order**3)
    expected[j] = 1.0
    assert np.allclose(coeffs[0, :, 0], expected, atol=1e-12)


def test_p2m_zero_charges():
    rng = np.random.default_rng(0)
    lower, side = _random_cube(rng)
    pos = lower + rng.uniform(size=(10, 3)) * side
    coeffs = interp.p2m(_values(lower, side, 4, pos), np.zeros((1, 10, 1), dtype=complex))
    assert np.all(coeffs == 0)


def test_l2p_node_coincident_particle_reads_coefficient():
    order = 3
    g = interp.grid_points(order)
    rng = np.random.default_rng(1)
    local = rng.normal(size=order**3) + 1j * rng.normal(size=order**3)
    vals = interp.l2p(_values(np.zeros(3), 1.0, order, g[5:6]), local[None, :, None])
    assert vals.shape == (1, 1, 1)
    assert vals[0, 0, 0] == pytest.approx(local[5])


def test_p2m_l2p_dense_oracle():
    """P2M and L2P of a stack of leaves, each on its own cube with several
    columns of weights or coefficients, equal the explicit basis-matrix
    products leaf by leaf; a padded particle of weight 0 adds nothing."""
    rng = np.random.default_rng(2)
    order, n, m = 4, 20, 3
    cubes = [_random_cube(rng) for _ in range(3)]
    pos = [lower + rng.uniform(size=(n, 3)) * side for lower, side in cubes]
    values = np.concatenate([_values(lower, side, order, p) for (lower, side), p in zip(cubes, pos)])
    q = rng.normal(size=(3, n, m)) + 1j * rng.normal(size=(3, n, m))
    q[2, 15:] = 0  # the last leaf holds 15 particles, padded to 20
    local = rng.normal(size=(3, order**3, m)) + 1j * rng.normal(size=(3, order**3, m))
    multipoles, potentials = interp.p2m(values, q), interp.l2p(values, local)
    assert multipoles.shape == (3, order**3, m) and potentials.shape == (3, n, m)
    for k, ((lower, side), p) in enumerate(zip(cubes, pos)):
        b = _basis(lower, side, order, p)
        assert np.allclose(multipoles[k], b.T @ q[k], atol=1e-13)
        assert np.allclose(potentials[k], b @ local[k], atol=1e-13)
    b = _basis(*cubes[2], order, pos[2][:15])
    assert np.allclose(multipoles[2], b.T @ q[2, :15], atol=1e-13)


def test_m2m_factor_columns_sum_to_one():
    # partition of unity makes every column sum 1: total charge is conserved
    for octant in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
        for a in interp.m2m_factors(5, octant):
            assert np.allclose(a.sum(axis=0), 1.0, atol=1e-12)


def test_m2m_conserves_total_charge():
    rng = np.random.default_rng(4)
    order = 4
    son = rng.normal(size=(order**3, 1)) + 1j * rng.normal(size=(order**3, 1))
    out = interp.kron_apply(interp.m2m_factors(order, (1, 0, 1)), son)
    assert out.sum() == pytest.approx(son.sum(), abs=1e-12)


def test_l2l_preserves_constants():
    # the transpose factors interpolate: an all-ones local stays all-ones
    order = 5
    ones = np.ones((order**3, 1))
    for octant in [(0, 0, 0), (0, 1, 1)]:
        out = interp.kron_apply(interp.l2l_factors(order, octant), ones)
        assert np.allclose(out, 1.0, atol=1e-12)


def test_m2m_chain_matches_direct_p2m():
    """M2M applied to a son's expansion equals interpolating on the father.

    The father basis restricted to a son cell has per-axis degree < L, so the
    son grid reproduces it exactly.
    """
    rng = np.random.default_rng(5)
    order = 4
    octant = (1, 0, 1)
    son = np.array(octant) * 0.5  # the son's lower corner, side 0.5
    pos = son + rng.uniform(size=(30, 3)) * 0.5
    q = rng.normal(size=30) + 1j * rng.normal(size=30)
    son_exp = interp.p2m(_values(son, 0.5, order, pos), q[None, :, None])[0]
    via_m2m = interp.kron_apply(interp.m2m_factors(order, octant), son_exp)[:, 0]
    direct = interp.p2m(_values(np.zeros(3), 1.0, order, pos), q[None, :, None])[0, :, 0]
    assert np.allclose(via_m2m, direct, atol=1e-12)


def test_l2l_chain_matches_direct_l2p():
    rng = np.random.default_rng(6)
    order = 4
    octant = (0, 1, 0)
    son = np.array(octant) * 0.5  # the son's lower corner, side 0.5
    pos = son + rng.uniform(size=(30, 3)) * 0.5
    local = rng.normal(size=order**3) + 1j * rng.normal(size=order**3)
    son_local = interp.kron_apply(
        interp.l2l_factors(order, octant), local[:, None]
    )[:, 0]
    via_l2l = interp.l2p(_values(son, 0.5, order, pos), son_local[None, :, None])[0, :, 0]
    direct = interp.l2p(_values(np.zeros(3), 1.0, order, pos), local[None, :, None])[0, :, 0]
    assert np.allclose(via_l2l, direct, atol=1e-12)


def test_kron_apply_matches_dense_kronecker():
    rng = np.random.default_rng(7)
    order = 4
    factors = tuple(rng.normal(size=(order, order)) for _ in range(3))
    dense = np.kron(np.kron(factors[0], factors[1]), factors[2])
    x = rng.normal(size=(order**3, 3)) + 1j * rng.normal(size=(order**3, 3))
    assert np.allclose(interp.kron_apply(factors, x), dense @ x, atol=1e-12)


def test_identity_factors_are_identity():
    order = 3
    eye = (np.eye(order),) * 3
    x = np.arange(order**3, dtype=float)[:, None]
    assert np.allclose(interp.kron_apply(eye, x), x)


def test_strategies_agree():
    rng = np.random.default_rng(8)
    for order in (3, 4, 5, 6):
        factors = interp.m2m_factors(order, (1, 1, 0))
        x = rng.normal(size=(order**3, 5)) + 1j * rng.normal(size=(order**3, 5))
        outs = [interp.apply_strategy(s, factors, x) for s in interp.STRATEGIES]
        for other in outs[1:]:
            rel = np.abs(other - outs[0]).max() / np.abs(outs[0]).max()
            assert rel < 1e-13
    with pytest.raises(ValueError):
        interp.apply_strategy("dense", factors, x)
