"""How the FFT diagonalization and the cube symmetries cut M2L cost.

Part 1 checks that applying the M2L operator through the zero-pad / FFT /
Hadamard / inverse-FFT pipeline reproduces the explicitly assembled dense
kernel matrix to machine precision.

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
    canonicalize_translation,
    dense_m2l_matrix,
    m2l_hadamard,
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
    columns = []
    for j in range(ORDER**3):
        basis = np.zeros(ORDER**3, dtype=complex)
        basis[j] = 1.0
        accumulator = np.zeros(workspace.fourier_size, dtype=complex)
        m2l_hadamard(accumulator, workspace.m2f(basis), diagonal)
        columns.append(workspace.f2l(accumulator))
    fft_operator = np.column_stack(columns)
    deviation = np.abs(fft_operator - dense).max() / np.abs(dense).max()
    print(f"  translation {tvec}: relative deviation {deviation:.2e}")

print("\nSymmetry reduction over the strict-MAC interaction set")
translations = [
    t
    for t in itertools.product(range(-3, 4), repeat=3)
    if max(abs(c) for c in t) >= 2
]
classes = {}
for t in translations:
    classes.setdefault(canonicalize_translation(t)[0], []).append(t)
print(f"  {len(translations)} admissible translations")
print(f"  {len(classes)} canonical classes:")
for canon, members in sorted(classes.items()):
    print(f"    {canon}: orbit size {len(members)}")

cache = SymbolCache(kernel, ORDER)
entries = [cache.get(0, t, BETA) for t in translations]
print(f"  cache stores {cache.n_canonical} precomputed diagonals "
      f"serving {cache.n_translations} translations")
worst = 0.0
for t, entry in zip(translations, entries):
    direct = precompute_symbol(kernel, t, BETA, ORDER)
    worst = max(worst, np.abs(cache.diagonals[entry] - direct).max() / np.abs(direct).max())
print(f"  table diagonals vs direct computation: worst relative deviation {worst:.2e}")
