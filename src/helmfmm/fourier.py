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

from .kernel import MAX_BLOCK_ENTRIES, HelmholtzKernel

__all__ = [
    "FourierWorkspace",
    "SymbolCache",
    "hyperoctahedral_group",
    "canonicalize_translations",
    "frequency_permutation",
    "precompute_symbol",
    "permute_symbol",
    "m2l_hadamard",
    "dense_m2l_matrix",
]


@dataclass(frozen=True)
class FourierWorkspace:
    """Transform sizes and the unitary-DFT convention used throughout.

    M2F and F2L take a (k, size) stack of expansions, one per row, and
    nothing else (one expansion is a one-row stack), and transform it
    one axis at a time, last axis first.  M2F is numpy's padded fftn
    (s = (P, P, P)), which zero-pads each axis as it transforms it, so the
    lines that are all zero are never transformed; F2L crops each axis to
    L right after its inverse transform (ifftn with s would crop before
    it).  Every entry is then the same floating-point expression as the
    per-expansion fftn / ifftn of the zero-padded cube.  Forward and
    backward are normalized symmetrically by P^(d/2) so that they are
    mutually adjoint.
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

    @staticmethod
    def _checked(values, size: int, what: str) -> np.ndarray:
        """values as a (k, size) stack of expansions."""
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[1] != size:
            raise ValueError(f"{what} must have shape (k, {size}), not {values.shape}")
        return values

    def m2f(self, nodal: np.ndarray) -> np.ndarray:
        """Zero-pad and transform, F . chi . v, each nodal expansion of a
        (k, L^3) stack: (k, P^3)."""
        nodal = self._checked(nodal, self.nodal_size, "nodal expansions")
        cubes = nodal.reshape(-1, self.order, self.order, self.order)
        out = np.fft.fftn(cubes, s=(self.padded,) * 3, axes=(1, 2, 3))
        out /= self._norm
        return out.reshape(len(nodal), self.fourier_size)

    def f2l(self, fourier: np.ndarray) -> np.ndarray:
        """Adjoint path, chi^T . F* . w, of each Fourier expansion of a
        (k, P^3) stack: (k, L^3)."""
        fourier = self._checked(fourier, self.fourier_size, "Fourier expansions")
        ordr, pad = self.order, self.padded
        out = fourier.reshape(-1, pad, pad, pad)
        for axis in (3, 2, 1):
            out = np.fft.ifft(out, axis=axis)[(slice(None),) * axis + (slice(ordr),)]
        return (out * self._norm).reshape(len(fourier), self.nodal_size)


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


# _SIGNED_PERMUTATIONS as arrays: element k maps v to _SIGNS[k] * v[_PERMS[k]]
_PERMS = np.array([perm for perm, _ in _SIGNED_PERMUTATIONS], dtype=np.int64)
_SIGNS = np.array([signs for _, signs in _SIGNED_PERMUTATIONS], dtype=np.int64)


def _translations(tvecs) -> np.ndarray:
    """tvecs as a (k, 3) int64 array; a float one is rejected, not truncated."""
    tvecs = np.asarray(tvecs)
    if tvecs.ndim != 2 or tvecs.shape[1] != 3 or not np.issubdtype(tvecs.dtype, np.integer):
        raise ValueError(f"translations must be (k, 3) integers, not {tvecs.dtype} {tvecs.shape}")
    return tvecs.astype(np.int64, copy=False)


def canonicalize_translations(tvecs: np.ndarray) -> tuple:
    """Canonical representatives of the rows of a (k, 3) integer array of
    nonzero translations under the cube symmetries: ((k, 3) canonical
    vectors, (k,) rotation ids).  The canonical vector of t is |t| sorted
    non-increasing; its rotation id is the first k such that
    hyperoctahedral_group()[k] maps the canonical vector onto t.  All 48
    images are compared at once, in slices whose (rows, 48, 3) images stay
    within MAX_BLOCK_ENTRIES."""
    tvecs = _translations(tvecs)
    if not tvecs.any(axis=1).all():
        raise ValueError("zero translation cannot be canonicalized")
    canon = -np.sort(-np.abs(tvecs), axis=1)
    rids = np.empty(len(tvecs), dtype=np.int64)
    step = max(1, MAX_BLOCK_ENTRIES // _PERMS.size)
    for lo in range(0, len(tvecs), step):
        at = slice(lo, lo + step)
        images = _SIGNS * canon[at][:, _PERMS]
        rids[at] = (images == tvecs[at, None, :]).all(axis=-1).argmax(axis=1)
    return canon, rids


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


@lru_cache(maxsize=None)
def _difference_offsets(order: int) -> tuple:
    """The difference grid's offsets z = k / (L-1), k in FFT wrap-around
    order 0..L-1, -(L-1)..-1, as three read-only arrays of shapes (P, 1, 1),
    (1, P, 1) and (1, 1, P) that broadcast to the (P, P, P) grid."""
    pad = 2 * order - 1
    off = np.arange(pad)
    off = np.where(off < order, off, off - pad) * (1.0 / (order - 1))
    off.setflags(write=False)
    return off[:, None, None], off[None, :, None], off[None, None, :]


def precompute_symbol(kernel: HelmholtzKernel, tvec, beta: float, order: int) -> np.ndarray:
    """The (P^3,) diagonal of one M2L translation: the DFT of the first
    column of the periodized kernel on the difference grid.

    ``beta`` is the cell side at this level; the normalized kernel is
    z -> G(beta * (tvec + z)) with z on the difference grid of spacing
    1/(L-1).
    """
    tvec = tuple(int(v) for v in tvec)
    ox, oy, oz = _difference_offsets(order)
    zx, zy, zz = tvec[0] + ox, tvec[1] + oy, tvec[2] + oz
    r = beta * np.sqrt(zx**2 + zy**2 + zz**2)
    if np.min(r) < kernel.singularity_tol:
        raise ValueError("kernel singularity inside the M2L stencil: MAC violated")
    return np.fft.fftn(kernel.of_distance(r)).ravel()


def permute_symbol(diagonal: np.ndarray, rotation_id: int, order: int) -> np.ndarray:
    """Diagonal of the translation hyperoctahedral_group()[rotation_id] @ t,
    from the diagonal of t by permuting its entries only."""
    return diagonal[frequency_permutation(order, rotation_id)]


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
    """The M2L table of one solve, populated lazily, with symmetry reduction.

    The cells of level l have side root_side / 2**l, the float
    ClusterTree.side_at gives.  One kernel evaluation + DFT happens per
    (level, canonical translation), and the table stores these canonical
    diagonals only, canonicals[c].  Entry i is the i-th distinct (level,
    translation) asked for: it stores the index bases[i] of its canonical
    diagonal, the rotation id rotations[i] that maps its canonical
    translation onto it, and its direction index directions[i], 0 unless
    tag_direction sets it.  diagonal(i) permutes the canonical diagonal
    into entry i's own, so a caller holds it only while it uses it.
    """

    def __init__(self, kernel: HelmholtzKernel, order: int, root_side: float):
        self.kernel = kernel
        self.order = order
        self.root_side = root_side
        self.canonicals: list = []
        self.bases: list = []
        self.rotations: list = []
        self.directions: list = []
        self._canonical: dict = {}  # (level, canon) -> index into canonicals
        self.entries: dict = {}  # (level, tvec) -> entry index

    @property
    def n_canonical(self) -> int:
        return len(self.canonicals)

    @property
    def n_translations(self) -> int:
        return len(self.bases)

    def diagonal(self, entry: int) -> np.ndarray:
        """The (P^3,) diagonal symbol of an entry, a permutation of its
        canonical diagonal (rotation 0, the identity, is the stored array)."""
        base, rid = self.canonicals[self.bases[entry]], self.rotations[entry]
        return permute_symbol(base, rid, self.order) if rid else base

    def get(self, level: int, tvecs) -> np.ndarray:
        """The (k,) entries of (level, t) for the rows t of a (k, 3) integer
        stack, each added on its first request and numbered in the order of
        its first row.  A stack's new rows are canonicalized together, and
        each new (level, canonical translation) is precomputed once, at the
        level's side root_side / 2**level.  The table changes only after
        every precomputation of the call has succeeded, so a failing one
        adds neither a canonical diagonal nor an entry."""
        keys = list(map(tuple, _translations(tvecs).tolist()))
        fresh = {}  # each new key, in order of its first row -> its entry
        for key in keys:
            if (level, key) not in self.entries and key not in fresh:
                fresh[key] = len(self.bases) + len(fresh)
        if fresh:
            canon, rids = canonicalize_translations(np.array(list(fresh), dtype=np.int64))
            canon = list(map(tuple, canon.tolist()))
            new = {}  # each new canonical translation -> its diagonal
            for key in canon:
                if (level, key) not in self._canonical and key not in new:
                    new[key] = precompute_symbol(
                        self.kernel, key, self.root_side / (1 << level), self.order
                    )
            for key, diagonal in new.items():
                self._canonical[level, key] = len(self.canonicals)
                self.canonicals.append(diagonal)
            self.bases.extend(self._canonical[level, key] for key in canon)
            self.rotations.extend(rids.tolist())
            self.directions.extend([0] * len(fresh))
            self.entries.update(((level, key), entry) for key, entry in fresh.items())
        return np.array([self.entries[level, key] for key in keys], dtype=np.int64)

    def tag_direction(self, entries, directions) -> None:
        """Set the direction index of each of an array of entries, from an
        array of the same length."""
        entries, directions = np.asarray(entries).tolist(), np.asarray(directions).tolist()
        # paired whole first: a length mismatch raises before any entry is written
        for entry, direction in list(zip(entries, directions, strict=True)):
            self.directions[entry] = direction
