"""Protocol verification and seeded Monte Carlo execution.

``verify`` recomputes every defining identity of a protocol and reports
the residuals; a NaN residual fails it.  ``LoccProtocol`` checks the
operator shapes and weights when it is built, so nothing here checks them
again.  ``verify`` takes every operator norm from the Hermitian
eigenvalues of a Gram matrix (or of a defect that is Hermitian already,
``numkit.opnorm``), never from an SVD, and decomposes no intermediate
state.  Stage 1 is one value, ``protocol.outcomes``: with a Schmidt frame (a
protocol from ``synthesize``) it is checked there in O(d^3 + K d), each
residual an upper bound on the dense one (see ``_frame_stage_one``);
without one, on its dense stacks, all K outcomes at once.  ``M0`` and
stage 2 are checked densely either way.

``run_once``/``estimate`` execute the protocol as a sampled measurement with
classical communication.  Outcome probabilities are always recomputed from
the operators acting on the state (never taken from the nominal stage-1
weights), so simulation independently cross-checks the synthesis formulas.

``run_once`` with ``trial_rng`` is the scalar reference: one trial, one
generator.  ``estimate`` returns what a loop of ``run_once`` over trials
``0..trials-1`` would give, bit for bit, but computes each branch's weights
and states once (``_branch``, the one branch routine, which ``run_once``
reads too) and draws the uniforms of many trials at once.  The trial
streams are consecutive counter blocks of numpy's Philox under key
``seed``: ``trial_rng(seed, i)`` starts at block ``i + 1``, four draws per
block, so a trial may draw at most four uniforms, and ``estimate`` draws a
chunk of trials as one stream in one call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bipartite import BipartiteState, fidelity, schmidt
from .errors import InvalidInputError
from .numkit import _hermitian_norms, opnorm, unitarity_defect
from .synth import LoccProtocol

#: Default residual tolerance of ``verify`` and of ``locc-forge verify``.
VERIFY_TOL = 1e-9
#: A stage-2 failure branch at or below this weight is not normalized into a state.
_MIN_FAIL_WEIGHT = 1e-30


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of all protocol identities.

    completeness_residual        operator-norm defect of sum M'M + M0'M0 = I,
                                 or |sum q - 1| if larger (stage 1 is
                                 deterministic, so no weight is left to M0)
    per_outcome_residuals        per branch: || M A U.T - sqrt(q) Q ||
    stage2_residual              max of the stage-2 map defect
                                 || N Q V.T - sqrt(p) B || and the
                                 instrument completion defect
                                 || N'N + N_fail'N_fail - I || (0 if absent)
    unitarity_residuals          || U'U - I || for every Bob unitary (and V)
    norm_bounds                  contraction excesses max(0, ||.|| - 1)
    substochastic_balance_residual
                                 stage-2 flow-balance defect of the
                                 outcome-flow matrix, or ||N||^2 - 1 (which
                                 bounds its row/column-sum excess) if larger
    """

    completeness_residual: float
    per_outcome_residuals: tuple[float, ...]
    stage2_residual: float
    unitarity_residuals: tuple[float, ...]
    norm_bounds: tuple[float, ...]
    substochastic_balance_residual: float
    tol: float
    passed: bool

    @property
    def max_residual(self) -> float:
        """Largest residual; NaN if any residual is NaN (Python's ``max`` would drop it)."""
        values = (self.completeness_residual, self.stage2_residual,
                  self.substochastic_balance_residual, *self.per_outcome_residuals,
                  *self.unitarity_residuals, *self.norm_bounds)
        return math.nan if any(map(math.isnan, values)) else max(values)

    def as_dict(self) -> dict:
        return {
            "completeness_residual": self.completeness_residual,
            "per_outcome_residuals": list(self.per_outcome_residuals),
            "stage2_residual": self.stage2_residual,
            "unitarity_residuals": list(self.unitarity_residuals),
            "norm_bounds": list(self.norm_bounds),
            "substochastic_balance_residual": self.substochastic_balance_residual,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "passed": self.passed,
        }


def _check_dims(protocol: LoccProtocol, *states: BipartiteState) -> None:
    if any(s.dims != tuple(protocol.dims) for s in states):
        raise InvalidInputError("state dimensions do not match the protocol")


def _dense_stage_one(protocol: LoccProtocol, a_state: BipartiteState, b_state: BipartiteState):
    """Stage 1 checked on the dense stacks, all outcomes at once: the per-outcome residuals,
    the ``U_k`` unitarity defects, ``||M_k||``, the Gram terms ``M_k'M_k`` and the intermediate
    state (B without a stage 2), each of these two followed by a bound on its error (0 here)."""
    s1 = protocol.outcomes
    m, u, root_q = s1.M, s1.U, np.sqrt(s1.q)[:, None, None]
    branches = m @ a_state.amp @ np.swapaxes(u, 1, 2)
    target = b_state.amp if protocol.stage2 is None else (root_q * branches).sum(axis=0)
    gram = np.conj(np.swapaxes(m, 1, 2)) @ m
    return (opnorm(branches - root_q * target), unitarity_defect(u), np.sqrt(_hermitian_norms(gram)),
            gram, 0.0, target, 0.0)


def _frame_stage_one(protocol: LoccProtocol, a_state: BipartiteState, b_state: BipartiteState):
    """Stage 1 checked in the Schmidt frame: O(d^3) once, then O(d) per outcome.

    With ``M_k = X_Q E_k X_A'``, ``U_k^T = Y_A' P_k' Y_Q`` and ``A = X_A S_A Y_A``,
    each identity is a diagonal one in the frame plus terms that vanish with
    the basis defects ``e = ||X'X - I||`` and the reconstruction residual
    ``rho = ||A - X_A S_A Y_A||`` (and ``rho_B`` for B, the target of a
    deterministic protocol), all measured here on the given states in the
    Frobenius norm, which bounds the operator norm.  Every reported residual
    is the frame term plus those terms, an upper bound on the residual of
    the dense operators.  Returns the seven values ``_dense_stage_one`` lists, in
    its order: the Gram terms are the one ``X_A diag(sum_k E_k'E_k) X_A'``, with the
    bound ``(1 + e_XA) e_XQ max(g)``, and the intermediate state is the frame's.
    """
    f = protocol.outcomes.frame
    a, q, scale = f.a, f.q, f.scale
    r = a.coeffs.size
    g = np.einsum("ki,ki->i", scale, scale)  # diagonal of sum_k E_k'E_k
    x_a, x_q, perms = a.left_basis[:, :r], q.left_basis[:, :r], f.perms[:, :r]
    e_xa, e_xq, e_ya, e_yq = (math.sqrt(_norm_sq(x.conj().T @ x - np.eye(len(x))))
                              for x in (a.left_basis, q.left_basis, a.right_basis, q.right_basis))
    rho_a = math.sqrt(_norm_sq((x_a * a.coeffs) @ a.right_basis[:r] - a_state.amp))

    # Up to those terms, branch k is X_Q diag(c) Y_Q with c[perms[k, i]] = coeffs[k, i].
    root_q = np.sqrt(protocol.outcomes.q)
    coeffs = scale * a.coeffs
    e_norms = scale.max(axis=1)  # ||E_k||
    gain = math.sqrt((1.0 + e_xq) * (1.0 + e_yq))  # bounds ||X_Q|| ||Y_Q||
    # ||M_k A U_k^T - X_Q diag(c) Y_Q|| <= gain * e_norms[k] * delta
    delta = (a.coeffs[0] * (e_xa + e_ya + e_xa * e_ya)
             + math.sqrt((1.0 + e_xa) * (1.0 + e_ya)) * rho_a)
    branch_err = gain * delta * e_norms
    if protocol.stage2 is None:
        target, target_slack = b_state.amp, 0.0
        rho_b = math.sqrt(_norm_sq((x_q * q.coeffs) @ q.right_basis[:r] - b_state.amp))
        frame_res = np.abs(coeffs - root_q[:, None] * q.coeffs[perms]).max(axis=1)
        per_outcome = gain * frame_res + branch_err + root_q * rho_b
    else:
        mixture = np.bincount(perms.ravel(), (root_q[:, None] * coeffs).ravel(), r)
        target = (x_q * mixture) @ q.right_basis[:r]
        target_slack = float(root_q @ branch_err)
        frame_res = np.abs(coeffs - root_q[:, None] * mixture[perms]).max(axis=1)
        per_outcome = gain * frame_res + branch_err + root_q * target_slack
    return (per_outcome, np.full(len(root_q), e_ya + (1.0 + e_ya) * e_yq),
            math.sqrt((1.0 + e_xq) * (1.0 + e_xa)) * e_norms, ((x_a * g) @ x_a.conj().T)[None],
            (1.0 + e_xa) * e_xq * float(g.max()), target, target_slack)


def verify(
    protocol: LoccProtocol,
    a_state: BipartiteState,
    b_state: BipartiteState,
    tol: float = VERIFY_TOL,
) -> VerificationReport:
    """Check every identity a valid protocol must satisfy.

    The intermediate state of a probabilistic protocol is reconstructed as
    the weighted average of the stage-1 branch outputs, so a corrupted
    operator shows up either in the branch residuals, in completeness, or in
    the stage-2 map residual.  ``LoccProtocol`` checks shapes and weights;
    every maximum here propagates NaN, so a NaN entry fails the protocol.

    Every operator norm is the largest |eigenvalue| of a Hermitian matrix:
    ``||X||`` is the square root of the top eigenvalue of the smaller Gram
    matrix ``X X'`` or ``X'X``, and the completeness and unitarity defects
    are Hermitian already.  The stage-2 flow balance decomposes no ``T``:
    ``S.T a`` is the squared row norms of ``X_B' N T / ||T||``, and
    ``||N||^2 - 1`` bounds the row and column sums of ``S`` (``inf`` if
    ``T = 0``), so it is at least the balance of the decomposed ``T``.

    Stage 1 is the protocol's one value ``outcomes``.  With a ``frame`` (a
    synthesized protocol) it is checked there (``_frame_stage_one``): each
    stage-1 residual is an upper bound on the dense one, the intermediate
    state comes from the frame and the stage-2 map residual adds the bound
    on its error.  That path trusts that the stacks ``M``/``U`` which
    ``run_once`` and ``estimate`` apply are the frame's: ``synthesize``
    builds them from it as read-only views whose flag cannot be set back,
    and only a write through their flag-locked ``.base`` gets round that.
    Without a frame, stage 1 is checked on the stacks, with no copy: each
    branch ``M_k A U_k.T`` once, and a stage-2 protocol's intermediate state
    as their ``sqrt(q)``-weighted sum.  Either path returns its Gram terms
    (the ``M_k'M_k``, or the frame's one) with a bound on their error, and
    ``||M0||`` and completeness come once, here, from ``M0'M0`` plus those
    terms; stage 2 is checked densely either way.
    """
    _check_dims(protocol, a_state, b_state)
    s2 = protocol.stage2
    stage_one = _dense_stage_one if protocol.outcomes.frame is None else _frame_stage_one
    per_outcome, u_defects, m_norms, grams, gram_err, target, target_slack = stage_one(
        protocol, a_state, b_state
    )
    m0_gram = protocol.M0.conj().T @ protocol.M0
    acc = np.array(m0_gram, dtype=complex)
    for g in grams:  # in outcome order
        acc += g
    acc -= np.eye(len(acc))
    m0_norm_sq, completeness = _hermitian_norms(np.array((m0_gram, acc))).tolist()
    completeness = np.maximum(completeness + gram_err, abs(protocol.outcomes.q.sum() - 1.0))

    unitarity = u_defects.tolist()
    norms = [*m_norms.tolist(), math.sqrt(m0_norm_sq)]

    stage2_residual = balance = 0.0
    if s2 is not None:
        v_defect = unitarity_defect(s2.V)
        n_norm = opnorm(s2.N)
        unitarity.append(v_defect)
        norms.append(n_norm)
        map_defect = (opnorm(s2.N @ target @ s2.V.T - math.sqrt(s2.p) * b_state.amp)
                      + n_norm * math.sqrt(1.0 + v_defect) * target_slack)
        completion = s2.N.conj().T @ s2.N + s2.N_fail.conj().T @ s2.N_fail - np.eye(len(s2.N))
        stage2_residual = np.maximum(map_defect, _hermitian_norms(completion))
        norm_t = float(np.linalg.norm(target))
        balance = float("inf")
        if norm_t > 0:
            fb = schmidt(b_state)
            flow = (np.abs(fb.left_basis.conj().T @ s2.N @ (target / norm_t)) ** 2).sum(axis=1)
            flow[: fb.coeffs.size] -= s2.p * fb.coeffs**2
            balance = np.maximum(np.abs(flow).max(), n_norm**2 - 1.0)

    report = VerificationReport(
        completeness_residual=float(completeness),
        per_outcome_residuals=tuple(per_outcome.tolist()),
        stage2_residual=float(stage2_residual),
        unitarity_residuals=tuple(unitarity),
        norm_bounds=tuple(np.maximum(np.array(norms) - 1.0, 0.0).tolist()),
        substochastic_balance_residual=float(balance),
        tol=float(tol),
        passed=False,
    )
    return replace(report, passed=bool(report.max_residual <= tol))


@dataclass(frozen=True)
class RunTrace:
    """Record of one sampled protocol execution.

    ``outcome_index`` is the stage-1 branch (-1 for the completion operator
    M0, whose weight vanishes on the source state); ``classical_message`` is
    the index Alice sends; ``bob_correction`` is the index of the unitary Bob
    applied, or None when none was.  ``run_weight`` is the probability of the
    realized trajectory.
    """

    outcome_index: int
    classical_message: int
    bob_correction: int | None
    stage2_success: bool | None
    final_state: BipartiteState | None
    run_weight: float


def branch_weights(protocol: LoccProtocol, state: BipartiteState) -> np.ndarray:
    """Exact probabilities of every stage-1 branch (M0 last) on ``state``."""
    _check_dims(protocol, state)
    ops = [out.M for out in protocol.outcomes] + [protocol.M0]
    return np.array([_norm_sq(op @ state.amp) for op in ops])


def _norm_sq(amp: np.ndarray) -> float:
    return float(np.vdot(amp, amp).real)


def _check_uint(value, name: str, bits: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < 1 << bits:
        raise InvalidInputError(f"{name} must be an integer in [0, 2**{bits}), got {value!r}")
    return int(value)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Generator of trial ``trial`` in ``[0, 2**64)``: a function of ``(seed, trial)`` alone.

    numpy's Philox under key ``seed``, advanced ``trial`` counter blocks: its
    first four draws are the words of block ``trial + 1`` and its fifth is the
    next trial's first, so a trial may draw at most four uniforms (``run_once``
    draws two).
    """
    philox = np.random.Philox(key=_check_uint(seed, "seed", 128))
    return np.random.Generator(philox.advance(_check_uint(trial, "trial", 64)))


def _trial_uniforms(seed: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second ``random()`` draws of ``trial_rng(seed, i)``, i in [start, stop),
    read as one stream of four draws per trial (see ``trial_rng``)."""
    words = trial_rng(seed, start).random((stop - start, 4))
    return words[:, 0], words[:, 1]


def _branch(protocol: LoccProtocol, state: BipartiteState, k: int):
    """Stage-1 outcome ``k`` on ``state`` as ``(w, w_succ, success, w_fail, fail)``.

    ``w`` is the branch weight; ``w_succ`` and ``w_fail`` are the stage-2
    success and failure weights, and ``success`` and ``fail`` the normalized
    states (None at ``w_succ`` 0 and at ``w_fail <= _MIN_FAIL_WEIGHT``).
    Without a stage 2, ``success`` is the intermediate state, at weight 1.
    """
    out = protocol.outcomes[k]
    branch = out.M @ state.amp @ out.U.T
    w = _norm_sq(branch)
    inter = branch / math.sqrt(w)
    s2 = protocol.stage2
    if s2 is None:
        return w, 1.0, BipartiteState(inter), 0.0, None
    success_amp, fail_amp = s2.N @ inter @ s2.V.T, s2.N_fail @ inter
    w_succ, w_fail = _norm_sq(success_amp), _norm_sq(fail_amp)
    success = BipartiteState(success_amp / math.sqrt(w_succ)) if w_succ > 0 else None
    fail = BipartiteState(fail_amp / math.sqrt(w_fail)) if w_fail > _MIN_FAIL_WEIGHT else None
    return w, w_succ, success, w_fail, fail


def run_once(protocol: LoccProtocol, state: BipartiteState, rng: np.random.Generator) -> RunTrace:
    """Sample one execution of a verified protocol on ``state``.  Like ``estimate``,
    it builds both stage-2 states of the selected outcome, so it raises where that does."""
    weights = branch_weights(protocol, state)
    total = float(weights.sum())
    pick = rng.random() * total
    idx = int(np.searchsorted(np.cumsum(weights), pick))
    idx = min(idx, len(weights) - 1)

    if idx == len(protocol.outcomes):
        # Completion branch: no amplitude survives, Bob does nothing.
        return RunTrace(outcome_index=-1, classical_message=-1, bob_correction=None,
                        stage2_success=None, final_state=None, run_weight=float(weights[idx]))

    w, w_succ, success_state, w_fail, fail_state = _branch(protocol, state, idx)
    success = None if protocol.stage2 is None else rng.random() < w_succ
    weight, final = (w_fail, fail_state) if success is False else (w_succ, success_state)
    return RunTrace(outcome_index=idx, classical_message=idx, bob_correction=idx,
                    stage2_success=success, final_state=final, run_weight=w * weight)


#: Trials per batch in ``estimate``; bounds its memory, never changes its result.
_CHUNK = 1 << 16


class EstimateResult(NamedTuple):
    p_hat: float
    mean_success_fidelity: float
    stderr: float


def estimate(
    protocol: LoccProtocol,
    a_state: BipartiteState,
    b_state: BipartiteState,
    trials: int,
    seed: int = 0,
) -> EstimateResult:
    """Monte Carlo estimate of the protocol's success statistics.

    Per-trial randomness is a pure function of ``(seed, trial index)``, so
    repeated calls (or any execution order over the trials) give bit-identical
    results.  ``mean_success_fidelity`` is NaN when no trial succeeded.

    The result equals, bit for bit, a loop of ``run_once(protocol, a_state,
    trial_rng(seed, i))`` over ``i < trials`` that counts the successes and
    adds their fidelities to ``b_state`` in trial order.  The branch weights
    are computed once from the operators, and each outcome some trial
    selects gets its stage-2 success weight and success fidelity computed
    once, from ``_branch`` as ``run_once`` reads it.  Trials run in
    chunks of ``_CHUNK``, each drawing all its uniforms at once (see the
    module docstring for the counter layout).
    """
    seed, trials = _check_uint(seed, "seed", 128), _check_uint(trials, "trials", 64)
    if trials < 1:
        raise InvalidInputError("trials must be at least 1")
    _check_dims(protocol, b_state)

    weights = branch_weights(protocol, a_state)
    total = float(weights.sum())
    cumulative = np.cumsum(weights)
    completion = len(weights) - 1
    # Per outcome, filled in when a trial first selects it.
    w_succ = np.zeros(len(weights))
    fid = np.zeros(len(weights))
    seen = np.zeros(len(weights), dtype=bool)
    seen[completion] = True

    successes = 0
    fid_sum = 0.0
    for start in range(0, trials, _CHUNK):
        u1, u2 = _trial_uniforms(seed, start, min(start + _CHUNK, trials))
        idx = np.minimum(np.searchsorted(cumulative, u1 * total), completion)
        hit = np.zeros(len(weights), dtype=bool)
        hit[idx] = True
        for k in np.flatnonzero(hit & ~seen).tolist():
            _, w_succ[k], success, _, _ = _branch(protocol, a_state, k)
            fid[k] = math.nan if success is None else fidelity(success, b_state)
            seen[k] = True
        # u2 < 1 always, so a branch without stage 2 (w_succ 1) always
        # succeeds, and the completion branch (w_succ 0) never does.
        succeeded = u2 < w_succ[idx]
        successes += int(np.count_nonzero(succeeded))
        for f in fid[idx[succeeded]].tolist():
            fid_sum += f

    p_hat = successes / trials
    mean_fid = fid_sum / successes if successes else float("nan")
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    return EstimateResult(p_hat=p_hat, mean_success_fidelity=mean_fid, stderr=stderr)
