"""How the FFT diagonalization and the cube symmetries cut M2L cost.

Part 1 checks that applying the M2L operator through the zero-pad / DFT /
Hadamard / inverse-DFT pipeline, with its diagonal made by an FFT,
reproduces the explicitly assembled dense kernel matrix to machine
precision, and that M2F and F2L, which apply the padded DFT as products
with its per-axis factors, match numpy's padded fftn and cropped ifftn.

Part 2 enumerates all same-level translations admissible under the strict
separation criterion and shows that the 48 signed permutations of the cube
fold their 316 kernel evaluations + transforms down to 16: the symbol
cache, the solver's M2L table, gives each translation an entry whose
diagonal is a pure permutation of a stored one, and matches the diagonal
computed directly.
"""

import itertools

import numpy as np

from helmfmm.fourier import (
    FourierWorkspace,
    SymbolCache,
    canonicalize_translations,
    dense_m2l_matrix,
    precompute_symbol,
)
from helmfmm.kernel import HelmholtzKernel

ORDER = 4
KAPPA = 12.0
BETA = 0.25

kernel = HelmholtzKernel(kappa=KAPPA, singularity_tol=1e-14)
workspace = FourierWorkspace(ORDER)

print("FFT pipeline vs dense operator")
for tvec in [(2, 0, 0), (3, 1, 0), (-2, 2, -2)]:
    diagonal = precompute_symbol(kernel, tvec, BETA, ORDER)
    dense = dense_m2l_matrix(kernel, tvec, BETA, ORDER)
    # one stack of all basis vectors: row j of the result is column j
    fourier = workspace.m2f(np.eye(ORDER**3, dtype=complex))
    fft_operator = workspace.f2l(diagonal * fourier).T
    deviation = np.abs(fft_operator - dense).max() / np.abs(dense).max()
    print(f"  translation {tvec}: relative deviation {deviation:.2e}")

# M2F and F2L against numpy's padded fftn and cropped ifftn, on the basis
# vectors of each side: the largest deviation of the two transform matrices
pad = workspace.padded
nodal, spectral = np.eye(ORDER**3, dtype=complex), np.eye(pad**3, dtype=complex)
fftn = np.fft.fftn(nodal.reshape(-1, ORDER, ORDER, ORDER), s=(pad,) * 3, axes=(1, 2, 3))
ifftn = np.fft.ifftn(spectral.reshape(-1, pad, pad, pad), axes=(1, 2, 3))
ifftn = ifftn[:, :ORDER, :ORDER, :ORDER]
m2f_gap = np.abs(workspace.m2f(nodal) - fftn.reshape(len(nodal), -1) / pad**1.5).max()
f2l_gap = np.abs(workspace.f2l(spectral) - ifftn.reshape(len(spectral), -1) * pad**1.5).max()
print(f"  M2F / F2L vs padded fftn / cropped ifftn: largest deviation {max(m2f_gap, f2l_gap):.2e}")

print("\nSymmetry reduction over the strict-MAC interaction set")
translations = [
    t
    for t in itertools.product(range(-3, 4), repeat=3)
    if max(abs(c) for c in t) >= 2
]
classes = {}
for t, canon in zip(translations, canonicalize_translations(translations)[0].tolist()):
    classes.setdefault(tuple(canon), []).append(t)
print(f"  {len(translations)} admissible translations")
print(f"  {len(classes)} canonical classes:")
for canon, members in sorted(classes.items()):
    print(f"    {canon}: orbit size {len(members)}")

cache = SymbolCache(kernel, ORDER, BETA)  # level 0 has the root side
entries = cache.get(0, np.array(translations))  # one stacked request
print(f"  cache stores {cache.n_canonical} precomputed diagonals "
      f"serving {cache.n_translations} translations")
worst = 0.0
for t, entry in zip(translations, entries):
    direct = precompute_symbol(kernel, t, BETA, ORDER)
    worst = max(worst, np.abs(cache.diagonal(entry) - direct).max() / np.abs(direct).max())
print(f"  table diagonals vs direct computation: worst relative deviation {worst:.2e}")
