"""Dense complex linear algebra kernel.

Conventions used everywhere else in the package:

* the SVD of a matrix ``m`` is one record, :class:`SchmidtForm`:
  ``m = left_basis @ diag(coeffs) @ right_basis`` where both bases are
  unitary, i.e. ``right_basis`` is the *full right factor* with the adjoint
  already folded in; its arrays are :func:`frozen`, so they stay read-only;
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


def _hermitian_norms(h: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of Hermitian matrices: each one's largest |eigenvalue|."""
    e = np.linalg.eigvalsh(h)
    return np.maximum(-e[..., 0], e[..., -1])


def opnorm(m):
    """Operator norm of a matrix (a float) or of each in a stack (an array): the
    square root of the top eigenvalue of the smaller Gram matrix ``m m'`` or ``m'm``."""
    m = np.asarray(m)
    adj = np.conj(np.swapaxes(m, -1, -2))
    norms = np.sqrt(_hermitian_norms(m @ adj if m.shape[-2] <= m.shape[-1] else adj @ m))
    return float(norms) if norms.ndim == 0 else norms


def unitarity_defect(u):
    """Operator-norm distance of ``u'u`` from the identity, for one matrix or a stack."""
    u = np.asarray(u)
    defects = _hermitian_norms(np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(u.shape[-1]))
    return float(defects) if defects.ndim == 0 else defects


def frozen(a: np.ndarray) -> np.ndarray:
    """Read-only copy of ``a`` backed by immutable bytes: neither it nor its
    ``.base`` can be made writeable again."""
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


def refrozen(cls, *fields):
    """``cls(*fields)`` with every array field :func:`frozen`; copies and pickles of a
    record of frozen arrays rebuild through it, so none of them comes back writeable."""
    return cls(*(frozen(f) if isinstance(f, np.ndarray) else f for f in fields))


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt (singular value) decomposition ``left_basis @ diag(coeffs) @ right_basis``.

    ``left_basis`` (rows x rows) and ``right_basis`` (cols x cols) are
    unitary, the latter the full right SVD factor with the adjoint folded in,
    and ``coeffs`` are non-increasing and non-negative, so the three pieces
    multiply back together without any further conjugation.  For the
    amplitude matrix of a state ``coeffs`` are its Schmidt coefficients, with
    unit sum of squares.
    """

    left_basis: np.ndarray
    coeffs: np.ndarray
    right_basis: np.ndarray

    def __reduce__(self):
        return refrozen, (type(self), self.left_basis, self.coeffs, self.right_basis)

    def reconstruct(self) -> np.ndarray:
        rows, cols = self.left_basis.shape[0], self.right_basis.shape[0]
        return self.left_basis @ rect_diag(self.coeffs, rows, cols) @ self.right_basis


def svd(m) -> SchmidtForm:
    """Full SVD of ``m`` with non-increasing singular values, as a frozen form."""
    return SchmidtForm(*map(frozen, np.linalg.svd(as_matrix(m), full_matrices=True)))


def pinv(m, rank_rtol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Moore-Penrose inverse of ``m``.

    Singular values strictly above ``rank_rtol`` times the largest one are
    inverted; those at or below it are treated as exact zeros.
    """
    if rank_rtol <= 0:
        raise InvalidInputError("rank_rtol must be positive")
    t = svd(m)
    cutoff = rank_rtol * t.coeffs[0]
    keep = t.coeffs > cutoff
    inv = np.where(keep, 1.0 / np.where(keep, t.coeffs, 1.0), 0.0)
    rows, cols = t.left_basis.shape[0], t.right_basis.shape[0]
    return t.right_basis.conj().T @ rect_diag(inv, cols, rows) @ t.left_basis.conj().T


def transposition_unitary(m) -> np.ndarray:
    """Unitary ``k`` satisfying ``m.T == k @ m @ k.conj()``.

    It is ``y.T @ x'`` for the bases ``x``, ``y`` of any valid SVD of ``m``,
    degenerate or rank-deficient spectra included, because only
    ``x' x == I`` and ``y y' == I`` enter the cancellation.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError("transposition unitary requires a square matrix")
    t = svd(a)
    return t.right_basis.T @ t.left_basis.conj().T


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
