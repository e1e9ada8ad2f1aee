"""Dense complex linear algebra kernel.

Conventions used everywhere else in the package:

* the SVD of a matrix ``m`` is written ``m = x @ diag(sigma) @ y`` where both
  ``x`` and ``y`` are unitary, i.e. ``y`` is the *full right factor* with the
  adjoint already folded in;
* ``pinv`` is the Moore-Penrose inverse with the relative rank cutoff
  ``DEFAULT_RANK_RTOL``, which ``bipartite`` also applies to Schmidt spectra;
* ``transposition_unitary`` returns the unitary ``k`` with
  ``m.T == k @ m @ k.conj()`` for square ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

#: Singular values below ``DEFAULT_RANK_RTOL * sigma_max`` count as zero.
DEFAULT_RANK_RTOL = 1e-12
#: Largest entry of ``h - h'`` for which ``h`` counts as Hermitian.
HERM_ATOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a 2-D complex array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInputError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    return a


def rect_diag(values, rows: int, cols: int) -> np.ndarray:
    """``rows x cols`` matrix carrying ``values`` on its main diagonal."""
    out = np.zeros((rows, cols), dtype=complex)
    k = min(len(values), rows, cols)
    idx = np.arange(k)
    out[idx, idx] = np.asarray(values)[:k]
    return out


def opnorm(m) -> float:
    """Operator norm (largest singular value)."""
    return float(np.linalg.norm(np.asarray(m), 2))


def unitarity_defect(u) -> float:
    """Operator-norm distance of ``u.conj().T @ u`` from the identity."""
    u = np.asarray(u)
    return opnorm(u.conj().T @ u - np.eye(u.shape[1]))


@dataclass(frozen=True)
class SvdTriple:
    """Singular value decomposition ``x @ diag(sigma) @ y``.

    ``x`` (rows x rows) and ``y`` (cols x cols) are unitary and ``sigma`` is
    non-increasing and non-negative, so the three pieces multiply back
    together without any further conjugation.
    """

    x: np.ndarray
    sigma: np.ndarray
    y: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.x @ rect_diag(self.sigma, self.x.shape[0], self.y.shape[0]) @ self.y


def svd(m) -> SvdTriple:
    """Full SVD of ``m`` with non-increasing singular values."""
    a = as_matrix(m)
    x, s, y = np.linalg.svd(a, full_matrices=True)
    return SvdTriple(x=x, sigma=s, y=y)


def pinv(m, rank_rtol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Moore-Penrose inverse of ``m``.

    Singular values at or above ``rank_rtol`` times the largest one are
    inverted, smaller ones are treated as exact zeros.
    """
    if rank_rtol <= 0:
        raise InvalidInputError("rank_rtol must be positive")
    t = svd(m)
    smax = t.sigma[0] if t.sigma.size else 0.0
    cutoff = rank_rtol * smax
    inv = np.where(t.sigma > cutoff, 1.0 / np.where(t.sigma > cutoff, t.sigma, 1.0), 0.0)
    rows, cols = t.x.shape[0], t.y.shape[0]
    return t.y.conj().T @ rect_diag(inv, cols, rows) @ t.x.conj().T


def transposition_unitary(m) -> np.ndarray:
    """Unitary ``k`` satisfying ``m.T == k @ m @ k.conj()``.

    The identity holds for any valid SVD triple of ``m``, degenerate or
    rank-deficient spectra included, because only ``x.conj().T @ x == I``
    and ``y @ y.conj().T == I`` enter the cancellation.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError("transposition unitary requires a square matrix")
    t = svd(a)
    return t.y.T @ t.x.conj().T


def hermitian_eigs(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (non-increasing) and unitary eigenbasis of Hermitian ``h``.

    Returns ``(e, u)`` with ``h == u @ diag(e) @ u.conj().T``.
    """
    a = as_matrix(h)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError("hermitian_eigs requires a square matrix")
    if np.max(np.abs(a - a.conj().T)) > HERM_ATOL:
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    e, u = np.linalg.eigh((a + a.conj().T) / 2.0)
    return e[::-1].copy(), u[:, ::-1].copy()


def psd_sqrt(h) -> np.ndarray:
    """Principal (positive semidefinite) square root of Hermitian PSD ``h``.

    Tiny negative eigenvalues from roundoff are clamped to zero.
    """
    e, u = hermitian_eigs(h)
    root = np.sqrt(np.clip(e, 0.0, None))
    return u @ np.diag(root.astype(complex)) @ u.conj().T
