"""Dense-matrix helpers for the constraint checks.

An SVD pseudoinverse with a documented rank cut, the spectral norm, the
range-inclusion residual through the orthogonal projector and the smallest
eigenvalue of the symmetric part.  All functions accept stacked inputs
(..., r, c).  :func:`~fbslq.riccati.check_constraints` holds the
tolerances that turn the residual and the eigenvalue into its range and PSD
verdicts.

The shape alone picks the path: 1 x 1 stacks skip LAPACK (pinv [x] = [1/x],
[0] at x == 0; specnorm |x|; min_eig x), which matches the SVD and eigvalsh
path bit for bit for |x| in 1e-100..1e100 and within 2 ulp elsewhere.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "default_rel_tol",
    "specnorm",
    "pinv",
    "range_residual",
    "min_eig",
]

def default_rel_tol(shape) -> float:
    """Singular-value cut: 1e-12 scaled by the larger matrix dimension."""
    return 1e-12 * max(int(shape[-2]), int(shape[-1]))


def specnorm(m: np.ndarray) -> np.ndarray:
    """Spectral norm (largest singular value); stacked inputs supported."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] == (1, 1):
        return np.abs(m[..., 0, 0])
    if m.size == 0:
        return np.zeros(m.shape[:-2])
    s = np.linalg.svd(m, compute_uv=False)
    return s[..., 0]


def pinv(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below :func:`default_rel_tol` times the largest are
    treated as zero.  A 1x1 matrix [x] maps to [1/x] for any nonzero x and
    to [0] for x == 0; the gain update passes theta0 through on that rule.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("pinv requires finite entries")
    if m.shape[-2:] == (1, 1):
        return np.divide(1.0, m, out=np.zeros_like(m), where=m != 0.0)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    cut = default_rel_tol(m.shape) * np.max(s, axis=-1, keepdims=True, initial=0.0)
    inv = np.where(s > cut, np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return np.swapaxes(vt, -1, -2) @ (inv[..., None] * np.swapaxes(u, -1, -2))


def range_residual(mbig: np.ndarray, msmall: np.ndarray) -> np.ndarray:
    """|(I - M M^+) msmall| in spectral norm; stacked inputs supported."""
    mbig = np.asarray(mbig, dtype=float)
    msmall = np.asarray(msmall, dtype=float)
    proj = mbig @ pinv(mbig)
    return specnorm(msmall - proj @ msmall)


def min_eig(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetric part; stacked inputs supported."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] == (1, 1):
        return m[..., 0, 0].copy()
    sym = 0.5 * (m + np.swapaxes(m, -1, -2))
    return np.linalg.eigvalsh(sym)[..., 0]
