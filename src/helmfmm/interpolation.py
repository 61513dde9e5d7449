"""Equispaced interpolation grids and the P2M/M2M/L2L/L2P operators.

The 1D rule uses L nodes at l/(L-1), l = 0..L-1, on the reference interval
[0, 1]; 3D grids are tensor products flattened in C order, i.e. flat index
(i0*L + i1)*L + i2 addresses the node (x[i0], x[i1], x[i2]).

A particle's basis values are the tensor product of its three 1D rows
(eval_matrix_1d), so a solve evaluates the 1D rows of all its particles at
once.  p2m and l2p take them as an (n, 3, L) stack per leaf, never as
an (n, L^3) basis: the basis value X_i Y_j Z_k of the rows X, Y, Z
factors into one real matrix product over the pairs X_i Y_j and one sum
over Z_k.

In the high-frequency regime the Lagrange basis is modulated by complex
exponentials tied to a unit direction; the modulation enters the operators
as diagonal factors around the real tensorized interpolation matrices.
p2m and l2p are the plain basis products of a stack of leaves: the caller
applies the factors to each leaf's whole block of directions, the particle
phases from plane_wave on one side and the waves on the cell grid on the
other.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "nodes_1d",
    "eval_matrix_1d",
    "grid_points",
    "basis_matrix",
    "plane_wave",
    "p2m",
    "l2p",
    "m2m_factors",
    "l2l_factors",
    "kron_apply",
    "apply_strategy",
]

STRATEGIES = ("t", "t+s", "t+s+r")

@lru_cache(maxsize=None)
def nodes_1d(order: int) -> np.ndarray:
    """The L equispaced nodes of [0, 1], endpoints included."""
    if order < 2:
        raise ValueError("interpolation order must be >= 2")
    return np.linspace(0.0, 1.0, order)


def eval_matrix_1d(order: int, x: np.ndarray) -> np.ndarray:
    """(len(x), L) matrix of S_k(x_j) values, S_k the 1D Lagrange cardinal
    polynomial k on the equispaced nodes.

    Column k is the product over j != k of (x - x_j) / (x_k - x_j), taken in
    increasing j; all columns advance one factor j at a time.
    """
    nodes = nodes_1d(order)
    x = np.asarray(x, dtype=float)
    out = np.ones((x.shape[0], order))
    for j in range(order):
        denom = nodes - nodes[j]
        denom[j] = 1.0
        keep = out[:, j].copy()
        out *= (x - nodes[j])[:, None]
        out /= denom
        out[:, j] = keep
    return out


@lru_cache(maxsize=None)
def grid_points(order: int) -> np.ndarray:
    """(L^3, 3) reference-grid coordinates in flat C order."""
    n = nodes_1d(order)
    g = np.stack(np.meshgrid(n, n, n, indexing="ij"), axis=-1)
    return g.reshape(-1, 3)


def basis_matrix(order: int, unit_points: np.ndarray) -> np.ndarray:
    """(n, L^3) tensor-product basis values at points in [0,1]^3 coords."""
    pts = np.atleast_2d(unit_points)
    v = eval_matrix_1d(order, pts.reshape(-1)).reshape(-1, 3, order)
    out = v[:, 0, :, None, None] * v[:, 1, None, :, None] * v[:, 2, None, None, :]
    return out.reshape(len(v), order**3)


def plane_wave(points: np.ndarray, kappa: float, direction: np.ndarray) -> np.ndarray:
    """exp(i*kappa*<x, u>) at each point: (n,) for one direction u of shape
    (3,), (n, m) for a (3, m) array of directions, one column each, and
    (b, n, m) for a stack of b point sets (b, n, 3) with their own (b, 3, m)
    directions."""
    return np.exp(1j * kappa * (np.atleast_2d(points) @ np.asarray(direction, dtype=float)))


def _pairs(values: np.ndarray) -> np.ndarray:
    """(b, n, L^2) products X_i Y_j, flat index i*L + j, of (b, n, 3, L)
    per-axis values."""
    b, n, _, order = values.shape
    return (values[:, :, 0, :, None] * values[:, :, 1, None, :]).reshape(b, n, order * order)


def p2m(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Nodal multipole coefficients of a stack of b leaves, (b, L^3, m):
    entry [l, (i*L + j)*L + k, c] is the sum over the leaf's particles p of
    X_pi Y_pj Z_pk weights[l, p, c], from their (b, n, 3, L) 1D Lagrange
    values (X, Y, Z) and (b, n, m) complex weights (a padded particle
    weighs 0).  One real batched product of (X (x) Y)^T with the real and
    imaginary parts of Z (x) weights, side by side."""
    b, n, _, order = values.shape
    zw = values[:, :, 2, :, None] * np.asarray(weights, dtype=complex)[:, :, None, :]
    out = np.matmul(_pairs(values).transpose(0, 2, 1), zw.reshape(b, n, -1).view(float))
    return out.view(complex).reshape(b, order**3, -1)


def l2p(values: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Potentials at a stack of b leaves' particles, (b, n, m): entry
    [l, p, c] is the sum over the grid of X_pi Y_pj Z_pk local[l, (i*L +
    j)*L + k, c], from their (b, n, 3, L) 1D Lagrange values and (b, L^3, m)
    complex nodal local coefficients, m expansions a leaf.  One real
    batched product of X (x) Y with the real and imaginary parts of the
    coefficients, side by side, then the sum over Z."""
    b, n, _, order = values.shape
    coefficients = np.ascontiguousarray(local, dtype=complex).reshape(b, order * order, -1)
    t = np.matmul(_pairs(values), coefficients.view(float)).view(complex)
    return (values[:, :, 2, :, None] * t.reshape(b, n, order, -1)).sum(axis=2)


@lru_cache(maxsize=None)
def m2m_factors(order: int, octant: tuple) -> tuple:
    """Per-axis L x L factors A[l, r] = S_l((octant_p + x_r) / 2).

    The M2M matrix for this son octant is their Kronecker product; column
    sums are 1 by partition of unity, so total charge is conserved.
    """
    x = nodes_1d(order)
    return tuple(eval_matrix_1d(order, (o + x) / 2.0).T.copy() for o in octant)


@lru_cache(maxsize=None)
def l2l_factors(order: int, octant: tuple) -> tuple:
    """Transposed factors: L2L is the transpose of M2M."""
    return tuple(a.T.copy() for a in m2m_factors(order, octant))


def kron_apply(factors, x: np.ndarray) -> np.ndarray:
    """Apply the Kronecker product of three L x L factors to stacked vectors.

    ``x`` has shape (L^3, m); each column is transformed with d successive
    mode products of cost L^(d+1), instead of the L^(2d) dense apply.
    """
    f0, f1, f2 = factors
    order = f0.shape[0]
    m = x.shape[1]
    t = x.reshape(order, order, order, m)
    t = np.tensordot(f0, t, axes=(1, 0))
    t = np.tensordot(f1, t, axes=(1, 1)).transpose(1, 0, 2, 3)
    t = np.tensordot(f2, t, axes=(1, 2)).transpose(1, 2, 0, 3)
    return np.ascontiguousarray(t.reshape(order**3, m))


def apply_strategy(strategy: str, factors, x: np.ndarray) -> np.ndarray:
    """Tensorized apply with the chosen stacking policy.

    t      : one column at a time;
    t+s    : all columns stacked into one multi-column product;
    t+s+r  : stacked with real/imaginary parts deinterleaved so the real
             factor matrices multiply a real array.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("expected stacked columns of shape (L^3, m)")
    if strategy == "t+s+r":
        # each column's real and imaginary parts side by side
        x = np.stack([x.real, x.imag], axis=2).reshape(len(x), 2 * x.shape[1])
    cols = [x[:, j : j + 1] for j in range(x.shape[1])] if strategy == "t" else [x]
    y = np.hstack([kron_apply(factors, c) for c in cols]) if cols else x.copy()
    return y[:, 0::2] + 1j * y[:, 1::2] if strategy == "t+s+r" else y
