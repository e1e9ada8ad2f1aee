"""Bipartite pure states stored as amplitude matrices.

A state on a ``dA x dB`` system is the matrix ``amp`` whose entry ``(i, j)``
multiplies the product basis vector ``|i>|j>``.  Local operators then act by
matrix multiplication: applying ``C_A`` on the first party and ``C_B`` on the
second maps ``amp`` to ``C_A @ amp @ C_B.T``, and the squared Frobenius norm
of the result is the probability weight of that measurement branch.

Each state's Schmidt form (``numkit.SchmidtForm``) is computed once and
cached on it; ``amp`` and the form's arrays are ``numkit.frozen``, so no
write reaches them and the form never goes stale.
``_spectral_rank`` is the one test of "this Schmidt coordinate is zero" that
``schmidt_rank``, ``p_max``, ``rank_ok`` and both synthesis stages read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .majorize import SUM_TOL
from .numkit import DEFAULT_RANK_RTOL, SchmidtForm, as_matrix, frozen, rect_diag, svd

#: Acceptable deviation of a state's squared norm from 1.
NORM_ATOL = 1e-8


@dataclass(frozen=True)
class BipartiteState:
    """Normalized amplitude matrix of a bipartite pure state; ``amp`` is frozen (read-only)."""

    amp: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.amp)
        norm_sq = float(np.vdot(a, a).real)
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise InvalidInputError(
                f"state is not normalized: ||amp||_F^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "amp", frozen(a))

    def __reduce__(self):  # copies and pickles rebuild from amp: checked, frozen, no cached form
        return type(self), (self.amp,)

    @property
    def dims(self) -> tuple[int, int]:
        return self.amp.shape

    @property
    def digest(self) -> str:
        """SHA-256 over the exact amplitude bytes (shape included)."""
        # Imported here: only digests need it, and its import (OpenSSL
        # bindings, about 4 ms) would otherwise delay every process start.
        import hashlib

        h = hashlib.sha256()
        h.update(repr(self.amp.shape).encode())
        h.update(np.ascontiguousarray(self.amp).tobytes())
        return h.hexdigest()

    @cached_property
    def _schmidt_form(self) -> SchmidtForm:
        return svd(self.amp)


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
    """Schmidt decomposition of a state, computed once and cached on it (read-only arrays)."""
    return state._schmidt_form


def schmidt_rank(state: BipartiteState) -> int:
    """Number of Schmidt coefficients above ``DEFAULT_RANK_RTOL`` times the largest one."""
    return _spectral_rank(squared_spectrum(state))


def squared_spectrum(state: BipartiteState) -> np.ndarray:
    """Squared Schmidt coefficients of the cached :func:`schmidt` form, non-increasing."""
    return schmidt(state).coeffs ** 2


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
