"""Feasibility analysis and explicit protocol synthesis.

Given source and target states ``|A>>`` and ``|B>>``, this module decides
whether one-way LOCC can carry the first into the second with a requested
success probability, computes the maximal achievable probability, and builds
the explicit operators of a two-stage protocol:

* stage 1 performs a *deterministic* transformation onto an intermediate
  state ``|Q>>`` via a complete measurement on Alice's side, each outcome
  corrected by a unitary on Bob's side (the one-way form every LOCC protocol
  on a pure state reduces to);
* stage 2, present only for probabilistic transformations, is a single
  filtering contraction on Alice plus one Bob unitary that succeeds with
  exactly the requested probability.

The intermediate spectrum comes from a closed-form witness of weak
supermajorization; stage 1 mixes at most ``rank(A)`` permutations of the
intermediate spectrum that average to the source spectrum (Uhlmann mixing,
one outcome per permutation), with no bistochastic matrix or Birkhoff
step.  Both stages and ``verify`` read the Schmidt form cached on each state,
and every rank cutoff, ``p_max``'s zero test included, is ``bipartite``'s one.

Stage 1 of every protocol is one value, its ``outcomes``: read-only stacks
of the K weights ``q`` and operators ``M``, ``U`` and, if synthesized, the
Schmidt frame they were built from (O(d^2) numbers, ``_StageOneFrame``), in
which ``verify`` checks stage 1; any other protocol is checked densely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import majorize
from .bipartite import NORM_ATOL, BipartiteState, _spectral_rank, schmidt, squared_spectrum
from .errors import InfeasibleError, InvalidInputError
from .numkit import (SchmidtForm, as_matrix, frozen, hermitian_eigs, opnorm, rect_diag, refrozen,
                     transposition_unitary)

#: Slack allowed when a requested probability sits right at the maximum.
FEAS_ATOL = 1e-9


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def _tail_sums(x: np.ndarray) -> np.ndarray:
    """tails[k] = x[k] + x[k+1] + ... for a decreasingly sorted x."""
    return np.cumsum(x[::-1])[::-1]


def _pmax_from_spectra(a, b) -> float:
    """Largest p with spectrum(A) weakly supermajorized by p * spectrum(B).

    For non-increasing a, b of one length: the least tail-sum ratio E_k(a) / E_k(b)
    over the first rank(B) tails, clamped to [0, 1]; 0 exactly when rank(A) < rank(B).
    """
    rank_b = _spectral_rank(b)
    if _spectral_rank(a) < rank_b:
        return 0.0
    p = (_tail_sums(a)[:rank_b] / _tail_sums(b)[:rank_b]).min()
    # Ratios pinned to 1 by rounding crumbs mean a deterministic pair.
    return 1.0 if p > 1.0 - 1e-12 else p


def max_probability(a_state: BipartiteState, b_state: BipartiteState) -> float:
    """Maximal LOCC success probability for the transformation A -> B."""
    if a_state.dims != b_state.dims:
        raise InvalidInputError(f"dimension mismatch: {a_state.dims} vs {b_state.dims}")
    return _pmax_from_spectra(squared_spectrum(a_state), squared_spectrum(b_state))


@dataclass(frozen=True)
class FeasibilityReport:
    """All majorization and rank verdicts for a transformation A -> B."""

    p_requested: float | str
    p_max: float
    deterministic_ok: bool
    rank_ok: bool
    super_maj_ok_at_p: bool
    pure_necessary_ok_at_p: bool
    schmidt_sq_a: np.ndarray
    schmidt_sq_b: np.ndarray

    def as_dict(self) -> dict:
        return {
            "p_requested": self.p_requested,
            "p_max": self.p_max,
            "deterministic_ok": self.deterministic_ok,
            "rank_ok": self.rank_ok,
            "super_maj_ok_at_p": self.super_maj_ok_at_p,
            "pure_necessary_ok_at_p": self.pure_necessary_ok_at_p,
            "schmidt_sq_A": list(map(float, self.schmidt_sq_a)),
            "schmidt_sq_B": list(map(float, self.schmidt_sq_b)),
        }


def _resolve_p(p, p_max: float) -> float:
    if isinstance(p, str):
        if p != "max":
            raise InvalidInputError(f"p must be a float in [0, 1] or 'max', got {p!r}")
        return p_max
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise InvalidInputError(f"p must lie in [0, 1], got {p}")
    return p


def _request(p, p_max: float) -> float:
    """Requested probability ``p`` (a float or ``"max"``) resolved and clamped to ``p_max``;
    raises :class:`InfeasibleError` (carrying ``p_max``) above ``p_max + FEAS_ATOL``."""
    p = _resolve_p(p, p_max)
    if p > p_max + FEAS_ATOL:
        raise InfeasibleError(f"requested probability {p} exceeds the maximum {p_max}", p_max=p_max)
    return min(p, p_max)


def feasibility(a_state: BipartiteState, b_state: BipartiteState, p="max") -> FeasibilityReport:
    """Full feasibility report for A -> B at probability ``p`` (or ``"max"``).

    Infeasibility is reported, never raised.
    """
    p_max = max_probability(a_state, b_state)
    p_num = _resolve_p(p, p_max)
    a = squared_spectrum(a_state)
    b = squared_spectrum(b_state)
    return FeasibilityReport(
        p_requested=p if isinstance(p, str) else float(p),
        p_max=p_max,
        deterministic_ok=bool(p_max == 1.0),
        rank_ok=bool(p_max > 0.0),
        super_maj_ok_at_p=bool(p_num <= p_max + FEAS_ATOL),
        pure_necessary_ok_at_p=majorize.compare(p_num * b, a, "sub"),
        schmidt_sq_a=a,
        schmidt_sq_b=b,
    )


# ---------------------------------------------------------------------------
# protocol building blocks
# ---------------------------------------------------------------------------

def _intermediate(b: np.ndarray, p: float) -> np.ndarray:
    """``(p*b1 + (1-p), p*b2, ..., p*bd)`` for a non-increasing spectrum ``b``."""
    v = p * b
    v[0] += 1.0 - p
    return v


def intermediate_vector(a, b, p) -> np.ndarray:
    """Spectrum of the intermediate state splitting a probabilistic protocol.

    For squared Schmidt vectors ``a`` (source) and ``b`` (target), returns
    ``v = (p*b1 + (1-p), p*b2, ..., p*bd)``, with ``p`` (a float or ``"max"``)
    resolved, refused and clamped to ``p_max`` as in :func:`synthesize`.  This
    v sums to one, dominates ``p*b`` componentwise, is non-increasing, and
    majorizes ``a``, so A -> V is reachable deterministically and V -> B by a
    single filtering contraction of success weight p.
    """
    av, bv = majorize._sorted_pair(a, b)
    if abs(av.sum() - 1.0) > NORM_ATOL or abs(bv.sum() - 1.0) > NORM_ATOL:
        raise InvalidInputError("squared Schmidt vectors must sum to 1")
    return _intermediate(bv, _request(p, _pmax_from_spectra(av, bv)))


def uhlmann_decompose(c, d) -> list[tuple[float, np.ndarray]]:
    """Mixing of unitary conjugates of ``d`` that averages to ``c``.

    For Hermitian operators with eigenvalues(c) majorized by eigenvalues(d),
    returns weights and unitaries with ``sum w * W @ d @ W.conj().T == c``
    and at most r terms, r being the effective spectral support size of c.

    Each ``W`` has the form ``U_c @ P @ U_d.conj().T`` with eigenbases of c
    and d around one of the permutations ``P`` that average the spectrum of
    d to that of c; the permutation orientation is the one that makes the
    reconstruction identity hold (verified by the reconstruction tests).
    """
    cm = as_matrix(c)
    dm = as_matrix(d)
    if cm.shape != dm.shape or cm.shape[0] != cm.shape[1]:
        raise InvalidInputError("uhlmann_decompose needs two square matrices of equal size")
    e_c, u_c = hermitian_eigs(cm)
    e_d, u_d = hermitian_eigs(dm)
    if not majorize.compare(e_c, e_d, "maj"):
        raise InfeasibleError("eigenvalues(c) are not majorized by eigenvalues(d)")
    weights, perms, _ = _mixing_terms(np.clip(e_c, 0.0, None), np.clip(e_d, 0.0, None), cm.shape[0])
    return [(float(w), u_c @ u_d[:, pi].conj().T) for w, pi in zip(weights, perms)]


def _mixing_terms(a: np.ndarray, q: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Permutation terms routing spectrum ``q`` onto spectrum ``a`` (``a < q``),
    both non-increasing and of one length, as both callers pass them.

    Works on the block of the spectral rank of ``a``, so there are at most
    that many terms.  Returns the weights, the permutations as rows, each
    acting on sorted indices, ``(P q)[i] == q[pi[i]]``, and extended by the
    identity to length ``n``, and the mixture ``sum w P q`` the terms extract
    on the block (``a`` up to roundoff), zero beyond it.
    """
    block = max(1, _spectral_rank(a))
    weights, perms = majorize._permutation_terms(a[:block], q[:block])
    mixture = np.zeros(a.size)
    mixture[:block] = weights @ q[perms]
    tail = np.broadcast_to(np.arange(block, n), (len(weights), n - block))
    return weights, np.hstack((perms, tail)), mixture


@dataclass(frozen=True)
class StageOneOutcome:
    """One measurement branch: Alice contraction M, Bob correction U, weight q."""

    q: float
    M: np.ndarray
    U: np.ndarray


@dataclass(frozen=True)
class StageTwo:
    """Filtering step: contraction N and unitary V succeed with weight p;
    N_fail completes the instrument (N'N + N_fail'N_fail = I)."""

    p: float
    N: np.ndarray
    V: np.ndarray
    N_fail: np.ndarray


class _StageOneFrame(NamedTuple):
    """Stage 1 in the Schmidt forms ``a`` of A and ``q`` of Q (Q shares B's bases),
    from which every ``M``/``U`` follows.

    With ``r = a.coeffs.size``, outcome ``k`` has permutation ``perms[k]``:
    ``M_k`` sends A's ``i``-th left Schmidt vector, ``i < r``, to
    ``scale[k, i]`` times Q's ``perms[k, i]``-th, and
    ``U_k* = y_q' P_k y_a``.  ``scale[k, i] = sqrt(w_k) sigma_Q[pi_k(i)] / sqrt(s_i)``,
    ``w_k`` the outcome's weight ``q`` (0 where the mixture ``s`` is 0), are all
    the nonzero entries of ``M_k`` in the frame.
    """

    a: SchmidtForm
    q: SchmidtForm
    perms: np.ndarray
    scale: np.ndarray

    def __reduce__(self):  # copies and pickles stay frozen; the forms rebuild themselves
        return refrozen, (type(self), *self)


class _StageOne(tuple):
    """Stage 1: K ``StageOneOutcome`` views of the rows of the read-only stacks ``q``
    (K,), ``M`` (K, dA, dA) and ``U`` (K, dB, dB), and the Schmidt ``frame`` (None
    unless synthesized).  No view's flag can be set back, but the arrays behind
    them (``.base``) are only flag-locked.  Slices are plain tuples, with no frame."""

    def __new__(cls, q: np.ndarray, m: np.ndarray, u: np.ndarray, frame=None):
        q, m, u = (np.require(a, requirements="O") for a in (q, m, u))  # copies a view
        q.flags.writeable = m.flags.writeable = u.flags.writeable = False
        self = super().__new__(cls, map(StageOneOutcome, q.tolist(), m, u))
        self.q, self.M, self.U, self.frame = q[:], m[:], u[:], frame
        return self

    def __reduce__(self):  # copy, deepcopy and pickle rebuild (copy) the stacks and keep the frame
        return type(self), (self.q, self.M, self.U, self.frame)


@dataclass(frozen=True)
class LoccProtocol:
    """Explicit operators of a one-way protocol, well formed by construction.

    Building one (``synthesize``, a protocol file, by hand or with
    ``dataclasses.replace``) raises :class:`InvalidInputError` unless ``dims``
    holds two sizes ``(dA, dB)``, every ``M``, ``M0``, ``N`` and ``N_fail`` is
    a ``(dA, dA)`` array, every ``U`` and ``V`` a ``(dB, dB)`` one, and every
    ``q`` and the stage-2 ``p`` lie in ``[0, 1]`` (NaN fails).  Entries are
    not scanned: a NaN one makes ``verify`` fail.  ``p_total`` is not stored:
    it is what stage 2 delivers, ``stage2.p``, or 1 without a stage 2.

    ``outcomes`` given as a sequence of ``StageOneOutcome`` are then stacked
    once into stage 1's one value (``.q``, ``.M``, ``.U``, copies, ``.frame``
    None); only ``synthesize`` gives a frame, in which ``verify`` checks stage
    1, and ``dataclasses.replace(p, outcomes=tuple(p.outcomes))`` drops it.
    """

    outcomes: tuple[StageOneOutcome, ...]
    M0: np.ndarray
    stage2: StageTwo | None
    dims: tuple[int, int]
    source_digest: str | None = None
    target_digest: str | None = None

    def __post_init__(self):
        try:
            da, db = self.dims
        except (TypeError, ValueError):
            raise InvalidInputError(f"dims must hold two sizes, got {self.dims!r}") from None
        s2 = self.stage2
        alice = [out.M for out in self.outcomes] + [self.M0]
        bob = [out.U for out in self.outcomes]
        weights = [out.q for out in self.outcomes]
        if s2 is not None:
            alice += [s2.N, s2.N_fail]
            bob.append(s2.V)
            weights.append(s2.p)
        if not ({getattr(m, "shape", None) for m in alice} <= {(da, da)}
                and {getattr(u, "shape", None) for u in bob} <= {(db, db)}):
            raise InvalidInputError(
                f"M, M0, N and N_fail must be {(da, da)} arrays and U and V {(db, db)} arrays"
            )
        if not all(0.0 <= w <= 1.0 for w in weights):  # NaN fails both comparisons
            raise InvalidInputError("every q and the stage-2 p must lie in [0, 1]")
        if not isinstance(self.outcomes, _StageOne):  # stacked once; zero outcomes to (0, d, d)
            k = len(self.outcomes)
            stacks = (np.array(weights[:k], dtype=float), np.array(alice[:k] or np.zeros((0, da, da))),
                      np.array(bob[:k] or np.zeros((0, db, db))))
            object.__setattr__(self, "outcomes", _StageOne(*stacks))

    @property
    def p_total(self) -> float:
        """Overall success probability: the stage-2 ``p``, or 1 without a stage 2."""
        return 1.0 if self.stage2 is None else self.stage2.p


def _stage_one(fa: SchmidtForm, fq: SchmidtForm) -> tuple[_StageOne, np.ndarray]:
    """Stage 1, its stacks with their (frozen) frame, and ``M0`` from the Schmidt forms of A and Q.

    In the Schmidt bases ``M = sqrt(w) Sigma_Q P S^(-1/2)`` and ``U*`` is a
    permutation, so both are column gathers, made for all K outcomes at once
    as the ``K x d x d`` stacks themselves.  ``s = sum_k w_k P_k q`` is the
    mixture the terms actually extract (``a`` up to roundoff), so ``sum M'M``
    is exactly the projector onto the coordinates with ``s > 0``; ``M0``
    projects onto every other left Schmidt vector of A, those beyond the rank cutoff included.
    """
    r = fa.coeffs.size
    weights, perms, s = _mixing_terms(fa.coeffs**2, fq.coeffs**2, fa.right_basis.shape[0])
    keep = s > 0.0
    inv_s = np.where(keep, 1.0 / np.sqrt(np.where(keep, s, 1.0)), 0.0)
    scale = np.sqrt(weights)[:, None] * fq.coeffs[perms[:, :r]] * inv_s
    frame = _StageOneFrame(fa, fq, frozen(perms), frozen(scale))
    m = fq.left_basis.T[perms[:, :r]]  # m[k, i] is column perms[k, i] of X_Q
    m *= scale[:, :, None]
    m = m.swapaxes(1, 2) @ fa.left_basis[:, :r].conj().T
    u = (fq.right_basis[perms].conj().swapaxes(1, 2) @ fa.right_basis).conj()
    null = np.ones(fa.left_basis.shape[0], dtype=bool)
    null[:r] = ~keep
    x_null = fa.left_basis[:, null]
    return _StageOne(weights, m, u, frame), x_null @ x_null.conj().T


def _stage_two(
    fq: SchmidtForm, fb: SchmidtForm, p: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(N, V, N_fail)`` taking Q to B; N is diagonal in the left Schmidt bases,
    so ``N_fail = X_Q diag(sqrt(1 - p sigma_B**2 / sigma_Q**2)) X_Q'``."""
    r = fq.coeffs.size
    keep = np.arange(r) < _spectral_rank(fq.coeffs**2)
    ratio = np.where(keep, fb.coeffs / np.where(keep, fq.coeffs, 1.0), 0.0)
    n = (fb.left_basis[:, :r] * (np.sqrt(p) * ratio)) @ fq.left_basis[:, :r].conj().T
    fail = np.ones(fq.left_basis.shape[0])
    fail[:r] = np.sqrt(np.clip(1.0 - p * ratio**2, 0.0, None))
    n_fail = (fq.left_basis * fail) @ fq.left_basis.conj().T
    v = (fq.right_basis.conj().T @ fb.right_basis).T
    return n, v, n_fail


def deterministic_stage(
    a_state: BipartiteState, q_state: BipartiteState
) -> tuple[list[StageOneOutcome], np.ndarray]:
    """Complete measurement carrying ``|A>>`` onto ``|Q>>`` with certainty.

    Requires spectrum(A) majorized by spectrum(Q).  Every outcome satisfies
    ``(M (x) U) |A>> = sqrt(q) |Q>>`` and the contractions resolve the
    projector onto the range of A; ``M0`` completes the measurement on the
    orthogonal complement, where the source state has no amplitude.
    """
    if a_state.dims != q_state.dims:
        raise InvalidInputError(f"dimension mismatch: {a_state.dims} vs {q_state.dims}")
    fa = schmidt(a_state)
    fq = schmidt(q_state)
    if not majorize.compare(fa.coeffs**2, fq.coeffs**2, "maj"):
        raise InfeasibleError("spectrum(A) is not majorized by spectrum(Q)")
    outcomes, m0 = _stage_one(fa, fq)
    return list(outcomes), m0


def final_contraction(
    q_state: BipartiteState, b_state: BipartiteState, p: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single filtering step mapping ``|Q>>`` to ``|B>>`` with weight ``p``.

    Returns ``(N, V, N_fail)`` with ``N @ amp_Q @ V.T == sqrt(p) * amp_B``,
    ``||N|| <= 1`` and ``N_fail`` the principal square root of ``I - N'N``.
    Requires the componentwise bound spectrum(Q) >= p * spectrum(B) on the
    sorted spectra, which caps every singular value of N at one.
    """
    if q_state.dims != b_state.dims:
        raise InvalidInputError(f"dimension mismatch: {q_state.dims} vs {b_state.dims}")
    p = _resolve_p(float(p), 1.0)
    fq = schmidt(q_state)
    fb = schmidt(b_state)
    if np.min(fq.coeffs**2 - p * fb.coeffs**2) < -FEAS_ATOL:
        raise InfeasibleError("spectrum(Q) does not dominate p * spectrum(B) componentwise")
    return _stage_two(fq, fb, p)


def synthesize(a_state: BipartiteState, b_state: BipartiteState, p="max") -> LoccProtocol:
    """Build the full protocol transforming ``|A>>`` into ``|B>>`` at probability p.

    ``p`` may be a float or ``"max"``.  The intermediate state reuses the
    Schmidt bases of the target, which makes the stage-2 Bob correction the
    identity.  At ``p == 1`` the transformation is deterministic and stage 2
    is omitted.  Raises :class:`InfeasibleError` (carrying ``p_max``) when
    the request is out of reach.
    """
    p_num = _request(p, max_probability(a_state, b_state))
    fb = schmidt(b_state)
    fq = fb if p_num == 1.0 else SchmidtForm(
        fb.left_basis, frozen(np.sqrt(_intermediate(fb.coeffs**2, p_num))), fb.right_basis)
    outcomes, m0 = _stage_one(schmidt(a_state), fq)
    return LoccProtocol(
        outcomes=outcomes,
        M0=m0,
        stage2=None if p_num == 1.0 else StageTwo(float(p_num), *_stage_two(fq, fb, p_num)),
        dims=a_state.dims,
        source_digest=a_state.digest,
        target_digest=b_state.digest,
    )


# ---------------------------------------------------------------------------
# single-operator reductions and diagnostics
# ---------------------------------------------------------------------------

def reduce_bob(m, psi: BipartiteState) -> tuple[np.ndarray, np.ndarray]:
    """Trade a Bob-side contraction for an Alice-side one plus a Bob unitary (Lo-Popescu).

    For a state ``psi`` of any shape and a contraction ``m`` on Bob's system,
    returns ``(N, U)`` with ``amp @ m.T == N @ amp @ U.T``, ``U`` unitary and
    ``||N|| <= ||m||``, from the transposition unitaries of a square amplitude
    matrix (its Schmidt form is known) and of ``m @ amp.T``.  That matrix is
    ``S = X' amp = diag(coeffs) right_basis`` for Alice's ``r`` first left
    Schmidt vectors ``X`` (``amp = X S``), padded with zero rows to ``dB x dB``,
    and ``N = X N_S[:r, :r] X'``.  No singular value is divided by.
    """
    db = psi.dims[1]
    mm = as_matrix(m)
    if mm.shape != (db, db):
        raise InvalidInputError(f"operator shape {mm.shape} does not act on dim {db}")
    if opnorm(mm) > 1.0 + 1e-10:
        raise InvalidInputError("operator is not a contraction (||m|| > 1)")
    fp = schmidt(psi)
    r, x, k_s = fp.coeffs.size, fp.left_basis[:, :db], fp.right_basis.T  # k_s: S's, from its SVD
    k_mpt = transposition_unitary(mm @ (rect_diag(fp.coeffs, db, db) @ fp.right_basis).T)
    n_s = (k_mpt @ mm @ k_s)[:r, :r]
    return x @ n_s @ x.conj().T, k_mpt.conj().T @ k_s.conj().T


def substochastic_matrix(m, source: BipartiteState, target: BipartiteState, p: float) -> np.ndarray:
    """Outcome-flow matrix of an Alice contraction in the Schmidt bases.

    For ``m`` realizing a single-shot transformation source -> target with
    success weight ``p`` (i.e. ``m @ amp_source @ u.T == sqrt(p) * amp_target``
    for some unitary u), returns the real matrix ``S`` with
    ``S[k, l] = |Mt[l, k]|**2`` where ``Mt`` conjugates ``m`` by the left
    Schmidt bases of target and source.  S has row and column sums at most 1
    and routes the source spectrum onto p times the target spectrum:
    ``S.T @ spectrum(source) == p * spectrum(target)``.

    Raises :class:`InvalidInputError` when the inputs clearly do not form
    such a protocol (flow balance off by more than 1e-6).
    """
    if source.dims != target.dims:
        raise InvalidInputError(f"dimension mismatch: {source.dims} vs {target.dims}")
    s, balance = _flow_balance(m, source, target, p)
    if not balance <= 1e-6:  # NaN fails
        raise InvalidInputError(
            "operators do not realize a single-shot protocol at this probability"
        )
    return s


def _flow_balance(m, source: BipartiteState, target: BipartiteState, p: float):
    """Outcome-flow matrix ``S`` of ``m`` (see :func:`substochastic_matrix`) and
    ``max |S.T a - p b|`` for the source and target spectra padded to dim A."""
    mm = as_matrix(m)
    da = source.dims[0]
    if mm.shape != (da, da):
        raise InvalidInputError(f"operator shape {mm.shape} does not act on dim {da}")
    fa = schmidt(source)
    fb = schmidt(target)
    s = (np.abs(fb.left_basis.conj().T @ mm @ fa.left_basis) ** 2).T
    a_pad = np.zeros(da)
    b_pad = np.zeros(da)
    a_pad[: fa.coeffs.size] = fa.coeffs**2
    b_pad[: fb.coeffs.size] = fb.coeffs**2
    return s, float(np.max(np.abs(s.T @ a_pad - float(p) * b_pad)))
