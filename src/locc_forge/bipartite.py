"""Bipartite pure states stored as amplitude matrices.

A state on a ``dA x dB`` system is the matrix ``amp`` whose entry ``(i, j)``
multiplies the product basis vector ``|i>|j>``.  Local operators then act by
matrix multiplication: applying ``C_A`` on the first party and ``C_B`` on the
second maps ``amp`` to ``C_A @ amp @ C_B.T``, and the squared Frobenius norm
of the result is the probability weight of that measurement branch.

``_spectral_rank`` is the one test of "this Schmidt coordinate is zero" that
``schmidt_rank``, ``p_max``, ``rank_ok`` and both synthesis stages read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .majorize import SUM_TOL
from .numkit import DEFAULT_RANK_RTOL, as_matrix, rect_diag, svd

#: Acceptable deviation of a state's squared norm from 1.
NORM_ATOL = 1e-8


@dataclass(frozen=True)
class BipartiteState:
    """Normalized amplitude matrix of a bipartite pure state."""

    amp: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.amp)
        norm_sq = float(np.vdot(a, a).real)
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise InvalidInputError(
                f"state is not normalized: ||amp||_F^2 = {norm_sq!r}"
            )
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "amp", a)

    @property
    def dims(self) -> tuple[int, int]:
        return self.amp.shape

    @property
    def digest(self) -> str:
        """SHA-256 over the exact amplitude bytes (shape included)."""
        h = hashlib.sha256()
        h.update(repr(self.amp.shape).encode())
        h.update(np.ascontiguousarray(self.amp).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt decomposition ``amp = left_basis @ diag(coeffs) @ right_basis``.

    ``coeffs`` are the Schmidt coefficients, non-increasing with unit sum of
    squares; ``right_basis`` is the full right SVD factor (adjoint folded in).
    """

    left_basis: np.ndarray
    coeffs: np.ndarray
    right_basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        da, db = self.left_basis.shape[0], self.right_basis.shape[0]
        return self.left_basis @ rect_diag(self.coeffs, da, db) @ self.right_basis


def from_schmidt(coeffs, da: int, db: int) -> BipartiteState:
    """State with squared Schmidt coefficients ``coeffs`` on a ``da x db`` system.

    The amplitude matrix is the rectangular diagonal of ``sqrt(coeffs)``, so
    the Schmidt bases are the computational ones.
    """
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size == 0 or c.size > min(da, db):
        raise InvalidInputError(f"need 1..min(da, db) coefficients, got {c.size}")
    if np.min(c) < -1e-12:
        raise InvalidInputError("squared Schmidt coefficients must be non-negative")
    if abs(float(np.sum(c)) - 1.0) > SUM_TOL:
        raise InvalidInputError("squared Schmidt coefficients must sum to 1")
    amp = rect_diag(np.sqrt(np.clip(c, 0.0, None)), da, db)
    return BipartiteState(amp)


def schmidt(state: BipartiteState) -> SchmidtForm:
    """Schmidt decomposition of a state (SVD of its amplitude matrix)."""
    t = svd(state.amp)
    return SchmidtForm(left_basis=t.x, coeffs=t.sigma, right_basis=t.y)


def schmidt_rank(state: BipartiteState) -> int:
    """Number of Schmidt coefficients above ``DEFAULT_RANK_RTOL`` times the largest one."""
    return _spectral_rank(squared_spectrum(state))


def squared_spectrum(state: BipartiteState) -> np.ndarray:
    """Squared Schmidt coefficients, non-increasing (the entanglement spectrum)."""
    s = np.linalg.svd(state.amp, compute_uv=False)
    return s * s


def _spectral_rank(x: np.ndarray) -> int:
    """Rank of a squared spectrum: square roots above ``DEFAULT_RANK_RTOL`` times the largest."""
    s = np.sqrt(x)
    return int(np.count_nonzero(s > DEFAULT_RANK_RTOL * s.max()))


def apply_local(state: BipartiteState, c_a, c_b) -> tuple[np.ndarray, float]:
    """Apply the product operator ``c_a (x) c_b`` to a state.

    Returns the unnormalized output amplitude matrix ``c_a @ amp @ c_b.T``
    together with its squared Frobenius norm, which is the probability of the
    branch when ``c_a``/``c_b`` come from a measurement.
    """
    ca = as_matrix(c_a)
    cb = as_matrix(c_b)
    da, db = state.dims
    if ca.shape[1] != da or cb.shape[1] != db:
        raise InvalidInputError(
            f"operator shapes {ca.shape} x {cb.shape} do not act on a {da} x {db} state"
        )
    out = ca @ state.amp @ cb.T
    weight = float(np.vdot(out, out).real)
    return out, weight


def fidelity(s: BipartiteState, t: BipartiteState) -> float:
    """Squared overlap of two states on the same system."""
    if s.dims != t.dims:
        raise InvalidInputError(f"dimension mismatch: {s.dims} vs {t.dims}")
    return float(abs(np.vdot(s.amp, t.amp)) ** 2)
