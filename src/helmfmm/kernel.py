"""Helmholtz kernel, direct summation oracle and error norms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HelmholtzKernel",
    "ErrorReport",
    "MAX_BLOCK_ENTRIES",
    "direct_sum",
    "relative_errors",
]

# Default distance below which an interaction is suppressed to zero.  The FMM
# driver and the harness's direct-sum oracle rescale it by the root box side,
# so the policy is box-relative.
DEFAULT_SINGULARITY_TOL = 1e-12

# entries of one kernel block in direct_sum.  HelmholtzKernel.matrix holds up
# to five block-sized float64 arrays (r, d, 1/(4*pi*r) and the complex result
# as two), 1.25 MiB at this bound.  The
# blank pass takes a level's candidate cell pairs in slices of as many
# pairs, so that their temporaries (about 50 bytes a pair) stay under 2 MB
# however many pairs a level holds; a level's son pairs are still held whole
MAX_BLOCK_ENTRIES = 1 << 15

# targets of one kernel block in direct_sum, at most
MAX_BLOCK_TARGETS = 512

# sqrt of the smallest normal and of the largest double: a distance between
# them squares without underflow or overflow.  HelmholtzKernel.matrix
# rescales only for a tolerance below the first, or for one whose root box
# (a box-relative tolerance DEFAULT_SINGULARITY_TOL * side names its side)
# holds pairs as far apart as the second: they lie less than 2 * side apart
MIN_SQUARABLE = math.sqrt(np.finfo(float).tiny)
MAX_SQUARABLE = math.sqrt(np.finfo(float).max)

@dataclass(frozen=True)
class HelmholtzKernel:
    """G(x, y) = exp(i*kappa*|x-y|) / (4*pi*|x-y|), with kappa >= 0.

    Coincident (or numerically coincident) points contribute zero instead of
    raising: the near-singular factor is replaced by 0 and the computation
    continues.
    """

    kappa: float
    singularity_tol: float = DEFAULT_SINGULARITY_TOL

    def __post_init__(self):
        if not np.isfinite(self.kappa) or self.kappa < 0:
            raise ValueError("kappa must be finite and >= 0")
        if not (np.isfinite(self.singularity_tol) and self.singularity_tol > 0):
            raise ValueError("singularity_tol must be finite and > 0")

    def of_distance(self, r) -> np.ndarray:
        """Evaluate the kernel on an array of distances."""
        r = np.asarray(r, dtype=float)
        safe = r >= self.singularity_tol
        rs = np.where(safe, r, 1.0)
        vals = np.exp(1j * self.kappa * rs) / (4.0 * np.pi * rs)
        return np.where(safe, vals, 0.0)

    def __call__(self, x, y) -> complex | np.ndarray:
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        # nested hypot: no square of a component underflows or overflows
        r = np.hypot(np.hypot(d[..., 0], d[..., 1]), d[..., 2])
        out = self.of_distance(r)
        return complex(out) if out.ndim == 0 else out

    def matrix(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Dense kernel matrix G(targets[i], sources[j]).

        At kappa = 0 the matrix is real (float64), 1 / (4*pi*r); otherwise it
        is complex, e^{i*kappa*r} / (4*pi*r) with e^{ix} = (1 + it) / (1 - it)
        from t = tan(x/2): one np.tan over the block and seven elementwise
        steps, for every kappa*r.  It agrees with of_distance to about 7e-16
        relative.  Suppressed pairs are exactly 0 (r = 0 gives t = 0), and r
        is symmetric in its two points, so matrix(x, y) is bitwise
        matrix(y, x).T.

        Below MIN_SQUARABLE a distance squares to an underflow, and beyond
        MAX_SQUARABLE to an overflow, so with a singularity_tol below the
        first or one box-relative to a root box that reaches the second,
        the coordinates are scaled by a power of two (exact) that brings
        their span near 1, and the scale is folded back into the constants;
        otherwise the scale is 1.0.
        """
        scale = 1.0
        side = self.singularity_tol / DEFAULT_SINGULARITY_TOL
        if self.singularity_tol < MIN_SQUARABLE or 2.0 * side >= MAX_SQUARABLE:
            scale = _unit_scale(targets, sources)
            targets, sources = targets * scale, sources * scale
        # r and one scratch array d serve every step (the temporaries are
        # counted at MAX_BLOCK_ENTRIES)
        r = np.subtract(targets[:, 0, None], sources[None, :, 0])
        r *= r
        d = np.empty_like(r)
        for k in (1, 2):
            np.subtract(targets[:, k, None], sources[None, :, k], out=d)
            d *= d
            r += d
        np.sqrt(r, out=r)
        inv = np.zeros_like(r)
        np.divide(scale / (4.0 * np.pi), r, out=inv, where=r >= self.singularity_tol * scale)
        if self.kappa == 0:
            return inv
        # cos x = (1 - t^2) / (1 + t^2) and sin x = 2t / (1 + t^2).  numpy's
        # AVX-512 dispatch (SVML) vectorizes the float64 np.tan, but not
        # np.cos or np.sin; without that dispatch np.tan is libm's, as
        # correct and only slower.  Halving kappa*r is exact, and the bits
        # of np.tan do not depend on an entry's place in the block.  Every
        # value scaled by inv stays within |inv|, so an inv near the largest
        # double does not overflow
        r *= 0.5 * self.kappa / scale
        t = np.tan(r, out=r)
        np.multiply(t, t, out=d)
        d += 1.0
        np.divide(inv, d, out=d)  # h = inv / (1 + t^2)
        np.subtract(inv, d, out=inv)
        out = np.empty(r.shape, dtype=complex)
        np.subtract(d, inv, out=out.real)  # h - (inv - h)
        t += t
        np.multiply(t, d, out=out.imag)  # 2t * h
        return out


def _unit_scale(targets: np.ndarray, sources: np.ndarray) -> float:
    """The power of two that brings the span of the coordinates into
    [0.5, 1), capped at 2**1020 and so that no scaled coordinate overflows;
    1.0 for a block of coincident points."""
    pts = np.vstack([targets, sources])
    if len(pts) == 0:
        return 1.0
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float((hi - lo).max())
    if not 0 < span < np.inf:
        return 1.0
    top = float(np.maximum(np.abs(lo), np.abs(hi)).max())
    return math.ldexp(1.0, min(-math.frexp(span)[1], 1020 - max(math.frexp(top)[1], 0)))


def direct_sum(
    kernel: HelmholtzKernel,
    targets: np.ndarray,
    sources: np.ndarray,
    charges: np.ndarray,
) -> np.ndarray:
    """O(N*M) direct evaluation of the potentials: the FMM near field and
    the reference oracle.

    The product is built from kernel blocks of at most MAX_BLOCK_TARGETS
    targets and MAX_BLOCK_ENTRIES entries.  A real block (kappa = 0)
    multiplies the complex charges viewed as an (n, 2) float64 array.  Targets must have
    shape (m, 3), sources (n, 3) and charges (n,); their values are not
    scanned, since the near field calls this once per target cell.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    charges = np.ascontiguousarray(charges, dtype=complex)
    if targets.ndim != 2 or targets.shape[1] != 3:
        raise ValueError(f"targets must have shape (m, 3), not {targets.shape}")
    if sources.ndim != 2 or sources.shape[1] != 3:
        raise ValueError(f"sources must have shape (n, 3), not {sources.shape}")
    if charges.shape != sources.shape[:1]:
        raise ValueError(f"charges must have shape ({sources.shape[0]},), not {charges.shape}")
    n_t, n_s = targets.shape[0], sources.shape[0]
    cols = max(1, min(n_s, MAX_BLOCK_ENTRIES))
    rows = max(1, min(MAX_BLOCK_TARGETS, MAX_BLOCK_ENTRIES // cols))
    out = np.zeros(n_t, dtype=complex)
    for c0 in range(0, n_s, cols):
        src = sources[c0 : c0 + cols]
        q = charges[c0 : c0 + cols]
        q_real = q.view(np.float64).reshape(-1, 2)
        for r0 in range(0, n_t, rows):
            mat = kernel.matrix(targets[r0 : r0 + rows], src)
            if mat.dtype.kind == "f":
                out[r0 : r0 + rows] += (mat @ q_real).view(complex)[:, 0]
            else:
                out[r0 : r0 + rows] += mat @ q
    return out


@dataclass(frozen=True)
class ErrorReport:
    rel_linf: float
    rel_l1: float
    rel_l2: float


def relative_errors(reference: np.ndarray, approx: np.ndarray) -> ErrorReport:
    """Relative max, l1 and l2 norms of ``approx - reference``."""
    ref = np.asarray(reference)
    app = np.asarray(approx)
    if ref.shape != app.shape:
        raise ValueError("shape mismatch")
    if not np.any(ref):
        raise ValueError("reference vector is identically zero")
    diff = app - ref
    return ErrorReport(
        rel_linf=float(np.max(np.abs(diff)) / np.max(np.abs(ref))),
        rel_l1=float(np.sum(np.abs(diff)) / np.sum(np.abs(ref))),
        rel_l2=float(np.linalg.norm(diff) / np.linalg.norm(ref)),
    )
