"""Circulant embedding of M2L on the difference grid, in the Fourier domain.

The nodal grid has L points per axis with spacing h = 1/(L-1); the difference
grid has P = 2L-1 points per axis at offsets -(L-1)..(L-1) stored in
FFT (wrap-around) order.  The periodized kernel matrix over the difference
grid is circulant, so the M2L operator factors as

    G(Xi_t, Xi_s) = chi^T . F* . D . F . chi

with chi the zero-padding, F the unitary d-dimensional DFT and D the
diagonal of Fourier coefficients of the periodized kernel (the DFT of the
first circulant column).  Hyperoctahedral symmetry acts on D as a pure
permutation of its entries, which is what the symbol cache exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

import numpy as np

from .kernel import HelmholtzKernel

__all__ = [
    "FourierWorkspace",
    "M2LSymbol",
    "SymbolCache",
    "hyperoctahedral_group",
    "canonicalize_translation",
    "frequency_permutation",
    "precompute_symbol",
    "permute_symbol",
    "m2l_hadamard",
    "dense_m2l_matrix",
]


@dataclass(frozen=True)
class FourierWorkspace:
    """Transform sizes and the unitary-DFT convention used throughout.

    numpy's FFT is reused for every expansion of a given order (the plan is
    implicit); forward and backward are normalized symmetrically by P^(d/2)
    so that they are mutually adjoint.
    """

    order: int

    @property
    def padded(self) -> int:
        return 2 * self.order - 1

    @property
    def nodal_size(self) -> int:
        return self.order**3

    @property
    def fourier_size(self) -> int:
        return self.padded**3

    @property
    def _norm(self) -> float:
        return float(self.padded) ** 1.5

    def m2f(self, nodal: np.ndarray) -> np.ndarray:
        """Zero-pad a nodal expansion and transform: F . chi . v."""
        ordr, pad = self.order, self.padded
        buf = np.zeros((pad, pad, pad), dtype=complex)
        buf[:ordr, :ordr, :ordr] = np.asarray(nodal).reshape(ordr, ordr, ordr)
        return (np.fft.fftn(buf) / self._norm).ravel()

    def f2l(self, fourier: np.ndarray) -> np.ndarray:
        """Adjoint path: chi^T . F* . w, returning a nodal expansion."""
        pad = self.padded
        buf = np.asarray(fourier).reshape(pad, pad, pad)
        out = np.fft.ifftn(buf) * self._norm
        ordr = self.order
        return np.ascontiguousarray(out[:ordr, :ordr, :ordr]).reshape(-1)


def m2l_hadamard(accumulator: np.ndarray, source: np.ndarray, diagonal: np.ndarray) -> None:
    """accumulator += diagonal (*) source, entrywise, in place."""
    if accumulator.shape != source.shape or source.shape != diagonal.shape:
        raise ValueError("Fourier-form length mismatch")
    accumulator += diagonal * source


# the signed permutations of the cube as (perm, signs), in the order of
# hyperoctahedral_group: element k maps v to (signs[a] * v[perm[a]])_a
_SIGNED_PERMUTATIONS = tuple(
    (perm, signs) for perm in permutations(range(3)) for signs in product((1, -1), repeat=3)
)


@lru_cache(maxsize=None)
def hyperoctahedral_group() -> tuple:
    """The 48 signed-permutation matrices of the cube, in a fixed order."""
    mats = []
    for perm, signs in _SIGNED_PERMUTATIONS:
        m = np.zeros((3, 3), dtype=np.int64)
        for a in range(3):
            m[a, perm[a]] = signs[a]
        m.setflags(write=False)
        mats.append(m)
    return tuple(mats)


def canonicalize_translation(tvec) -> tuple:
    """Canonical representative of a translation under cube symmetries.

    Returns (canonical, rotation_id) with components of the canonical vector
    non-negative and sorted non-increasing, and group[rotation_id] mapping
    the canonical vector onto ``tvec``: the first such element of
    hyperoctahedral_group(), found in Python integer arithmetic.
    """
    t = tuple(int(v) for v in tvec)
    if len(t) != 3:
        raise ValueError("translation must be an integer triple")
    if not any(t):
        raise ValueError("zero translation cannot be canonicalized")
    canon = tuple(sorted(map(abs, t), reverse=True))
    for rid, ((p0, p1, p2), (s0, s1, s2)) in enumerate(_SIGNED_PERMUTATIONS):
        if (s0 * canon[p0], s1 * canon[p1], s2 * canon[p2]) == t:
            return canon, rid
    raise AssertionError("unreachable: cube group is transitive on orbits")


@lru_cache(maxsize=None)
def frequency_permutation(order: int, rotation_id: int) -> np.ndarray:
    """Flat index map realizing the action of a rotation on the symbol.

    If t' = R t, the symbol of t' at flat frequency index j equals the symbol
    of t at the index of R^{-1} applied to the frequency multi-index of j
    (negation of an index is taken modulo P).
    """
    group = hyperoctahedral_group()
    if not 0 <= rotation_id < len(group):
        raise ValueError("unknown rotation id")
    rot = group[rotation_id]
    pad = 2 * order - 1
    freqs = np.stack(
        np.meshgrid(*([np.arange(pad)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    rinv = rot.T  # orthogonal integer matrix
    mapped = (freqs @ rinv.T) % pad
    flat = (mapped[:, 0] * pad + mapped[:, 1]) * pad + mapped[:, 2]
    flat.setflags(write=False)
    return flat


@dataclass(frozen=True)
class M2LSymbol:
    """Diagonal Fourier symbol of one M2L translation at one tree level."""

    level: int
    translation: tuple  # integer cell-unit translation (target - source)
    diagonal: np.ndarray  # (P^3,) complex
    direction: object = None  # best direction id, tagged by the blank pass


def _difference_offsets(order: int) -> np.ndarray:
    """Per-axis grid offsets in FFT wrap-around order: 0..L-1, -(L-1)..-1."""
    pad = 2 * order - 1
    off = np.arange(pad)
    return np.where(off < order, off, off - pad)


def precompute_symbol(
    kernel: HelmholtzKernel, level: int, tvec, beta: float, order: int
) -> M2LSymbol:
    """DFT of the first column of the periodized kernel on the difference grid.

    ``beta`` is the cell side at this level; the normalized kernel is
    z -> G(beta * (tvec + z)) with z on the difference grid of spacing
    1/(L-1).
    """
    tvec = tuple(int(v) for v in np.asarray(tvec, dtype=np.int64))
    h = 1.0 / (order - 1)
    off = _difference_offsets(order) * h
    zx, zy, zz = np.meshgrid(
        tvec[0] + off, tvec[1] + off, tvec[2] + off, indexing="ij"
    )
    r = beta * np.sqrt(zx**2 + zy**2 + zz**2)
    if np.min(r) < kernel.singularity_tol:
        raise ValueError("kernel singularity inside the M2L stencil: MAC violated")
    column = kernel.of_distance(r)
    diagonal = np.fft.fftn(column).ravel()
    return M2LSymbol(level=level, translation=tvec, diagonal=diagonal)


def permute_symbol(symbol: M2LSymbol, rotation_id: int, order: int) -> M2LSymbol:
    """Symbol of the rotated translation, by permuting diagonal entries only."""
    rot = hyperoctahedral_group()[rotation_id]
    idx = frequency_permutation(order, rotation_id)
    new_t = tuple(int(v) for v in rot @ np.asarray(symbol.translation, dtype=np.int64))
    return M2LSymbol(
        level=symbol.level,
        translation=new_t,
        diagonal=symbol.diagonal[idx],
        direction=symbol.direction,
    )


def dense_m2l_matrix(
    kernel: HelmholtzKernel, tvec, beta: float, order: int
) -> np.ndarray:
    """Independently assembled dense M2L matrix G(Xi_t, Xi_s) (test oracle)."""
    from .interpolation import grid_points

    g = grid_points(order)
    t = np.asarray(tvec, dtype=float)
    diff = (t + g[:, None, :] - g[None, :, :]) * beta
    return kernel.of_distance(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))


class SymbolCache:
    """Lazily populated per-level symbol store with symmetry reduction.

    One kernel evaluation + DFT happens per (level, canonical translation);
    every other translation in the same orbit is served by a permutation of
    that diagonal, materialized once per distinct translation.
    """

    def __init__(self, kernel: HelmholtzKernel, order: int):
        self.kernel = kernel
        self.order = order
        self._canonical: dict = {}  # (level, canon) -> M2LSymbol
        self._derived: dict = {}  # (level, tvec) -> M2LSymbol

    @property
    def n_canonical(self) -> int:
        return len(self._canonical)

    @property
    def n_translations(self) -> int:
        return len(self._derived)

    def get(self, level: int, tvec, beta: float) -> M2LSymbol:
        tvec = tuple(int(v) for v in np.asarray(tvec, dtype=np.int64))
        key = (level, tvec)
        sym = self._derived.get(key)
        if sym is not None:
            return sym
        canon, rid = canonicalize_translation(tvec)
        ckey = (level, canon)
        base = self._canonical.get(ckey)
        if base is None:
            base = precompute_symbol(self.kernel, level, canon, beta, self.order)
            self._canonical[ckey] = base
        sym = permute_symbol(base, rid, self.order) if canon != tvec else base
        self._derived[key] = sym
        return sym

    def tag_direction(self, level: int, tvec, direction) -> None:
        tvec = tuple(int(v) for v in np.asarray(tvec, dtype=np.int64))
        sym = self._derived[(level, tvec)]
        self._derived[(level, tvec)] = M2LSymbol(
            level=sym.level,
            translation=sym.translation,
            diagonal=sym.diagonal,
            direction=direction,
        )
