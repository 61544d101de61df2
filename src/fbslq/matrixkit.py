"""Dense-matrix helpers for the constraint checks.

Everything here is a thin, explicitly-thresholded layer over LAPACK via
numpy: an SVD pseudoinverse with a documented rank cut, a range-inclusion
test through the orthogonal projector, and a symmetrized eigenvalue PSD
test.  All functions accept stacked inputs (..., r, c).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "default_rel_tol",
    "specnorm",
    "pinv",
    "penrose_residuals",
    "range_contains",
    "range_residual",
    "is_psd",
    "min_eig",
]


def default_rel_tol(shape) -> float:
    """Singular-value cut: 1e-12 scaled by the larger matrix dimension."""
    return 1e-12 * max(int(shape[-2]), int(shape[-1]))


def specnorm(m: np.ndarray) -> np.ndarray:
    """Spectral norm (largest singular value); stacked inputs supported."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return np.zeros(m.shape[:-2])
    s = np.linalg.svd(m, compute_uv=False)
    return s[..., 0]


def pinv(m: np.ndarray, rel_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rel_tol * sigma_max`` are treated as zero; the
    default tolerance is :func:`default_rel_tol`.  A 1x1 matrix [x] maps to
    [1/x] for any nonzero x and to [0] for x == 0; the one-dimensional
    solver's gain update passes theta0 through on the same rule.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("pinv requires finite entries")
    if rel_tol is None:
        rel_tol = default_rel_tol(m.shape)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    cut = rel_tol * np.max(s, axis=-1, keepdims=True, initial=0.0)
    inv = np.where(s > cut, np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return np.swapaxes(vt, -1, -2) @ (inv[..., None] * np.swapaxes(u, -1, -2))


def penrose_residuals(m: np.ndarray, mp: np.ndarray) -> tuple[float, float, float, float]:
    """Spectral-norm residuals of the four defining identities of m-dagger."""
    r1 = specnorm(m @ mp @ m - m)
    r2 = specnorm(mp @ m @ mp - mp)
    mmp = m @ mp
    mpm = mp @ m
    r3 = specnorm(mmp - np.swapaxes(mmp, -1, -2))
    r4 = specnorm(mpm - np.swapaxes(mpm, -1, -2))
    return float(np.max(r1)), float(np.max(r2)), float(np.max(r3)), float(np.max(r4))


def range_contains(mbig: np.ndarray, msmall: np.ndarray, tol: float = 1e-8) -> bool:
    """True iff every column of msmall lies in the column space of mbig.

    Tested through the orthogonal projector: |(I - M M^+) msmall| is compared
    against ``tol * (1 + |msmall|)`` in spectral norm.
    """
    mbig = np.atleast_2d(np.asarray(mbig, dtype=float))
    msmall = np.atleast_2d(np.asarray(msmall, dtype=float))
    if mbig.shape[-2] != msmall.shape[-2]:
        raise ValueError("row counts must match")
    resid = range_residual(mbig, msmall)
    bound = tol * (1.0 + specnorm(msmall))
    return bool(np.all(resid <= bound))


def range_residual(mbig: np.ndarray, msmall: np.ndarray, mbig_pinv: np.ndarray | None = None) -> np.ndarray:
    """|(I - M M^+) msmall| in spectral norm; stacked inputs supported.

    ``mbig_pinv`` is :func:`pinv` of ``mbig`` when the caller holds it
    already; by default it is computed here.
    """
    mbig = np.asarray(mbig, dtype=float)
    msmall = np.asarray(msmall, dtype=float)
    proj = mbig @ (pinv(mbig) if mbig_pinv is None else mbig_pinv)
    return specnorm(msmall - proj @ msmall)


def is_psd(m: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff the smallest eigenvalue of (M + M^T)/2 is >= -tol.

    Symmetrizes first: accumulated integration error can break exact
    symmetry of fields that are symmetric in exact arithmetic.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[-2] != m.shape[-1]:
        raise ValueError("is_psd requires square matrices")
    return bool(np.all(min_eig(m) >= -tol))


def min_eig(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetric part; stacked inputs supported."""
    m = np.asarray(m, dtype=float)
    sym = 0.5 * (m + np.swapaxes(m, -1, -2))
    return np.linalg.eigvalsh(sym)[..., 0]
