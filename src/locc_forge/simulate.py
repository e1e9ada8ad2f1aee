"""Protocol verification and seeded Monte Carlo execution.

``verify`` recomputes every defining identity of a synthesized protocol and
reports the residuals.  It takes every operator norm from the Hermitian
eigenvalues of a Gram matrix (or of a defect that is Hermitian already)
rather than from an SVD, and works on the stage-1 outcomes stacked in chunks
of ``_VERIFY_CHUNK``, which bound its memory.

``run_once``/``estimate`` execute the protocol as a sampled measurement with
classical communication.  Outcome probabilities are always recomputed from
the operators acting on the state (never taken from the nominal stage-1
weights), so simulation independently cross-checks the synthesis formulas.

``run_once`` with ``trial_rng`` is the scalar reference: one trial, one
generator.  ``estimate`` returns what a loop of ``run_once`` over trials
``0..trials-1`` would give, bit for bit, but computes each branch's
quantities once from the operators and draws the uniforms of many trials at
once.  Trial ``i`` uses the first Philox4x64-10 block at counter
``(1, 0, i, 0)`` under key ``(seed mod 2**64, seed >> 64)``; its words 0
and 1, mapped as ``(x >> 11) * 2**-53``, are the two ``random()`` draws of
``trial_rng(seed, i)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bipartite import BipartiteState, fidelity
from .errors import InvalidInputError
from .synth import LoccProtocol, _flow_balance

#: Default residual tolerance of ``verify`` and of ``locc-forge verify``.
VERIFY_TOL = 1e-9
#: A stage-2 failure branch at or below this weight is not normalized into a state.
_MIN_FAIL_WEIGHT = 1e-30


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of all protocol identities.

    completeness_residual        operator-norm defect of sum M'M + M0'M0 = I
    per_outcome_residuals        per branch: || M A U.T - sqrt(q) Q ||
    stage2_residual              max of the stage-2 map defect
                                 || N Q V.T - sqrt(p) B || and the
                                 instrument completion defect
                                 || N'N + N_fail'N_fail - I || (0 if absent)
    unitarity_residuals          || U'U - I || for every Bob unitary (and V)
    norm_bounds                  contraction excesses max(0, ||.|| - 1)
    substochastic_balance_residual
                                 stage-2 flow-balance and row/column-sum
                                 excess of the outcome-flow matrix
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
        return max(
            self.completeness_residual,
            max(self.per_outcome_residuals, default=0.0),
            self.stage2_residual,
            max(self.unitarity_residuals, default=0.0),
            max(self.norm_bounds, default=0.0),
            self.substochastic_balance_residual,
        )

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


#: Outcomes per batch in ``verify``; bounds its memory, never changes its report.
_VERIFY_CHUNK = 32


def _hermitian_norms(h: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of Hermitian matrices: each one's largest |eigenvalue|."""
    e = np.linalg.eigvalsh(h)
    return np.maximum(-e[..., 0], e[..., -1])


def _opnorms(m: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of matrices, from the eigenvalues of the smaller Gram."""
    adj = np.conj(np.swapaxes(m, -1, -2))
    return np.sqrt(_hermitian_norms(m @ adj if m.shape[-2] <= m.shape[-1] else adj @ m))


def _outcome_chunks(outcomes, amp: np.ndarray):
    """``(start, M, U, sqrt(q), M amp U.T)`` stacked over successive chunks of outcomes."""
    for start in range(0, len(outcomes), _VERIFY_CHUNK):
        chunk = outcomes[start:start + _VERIFY_CHUNK]
        m = np.array([out.M for out in chunk])
        u = np.array([out.U for out in chunk])
        root_q = np.array([math.sqrt(out.q) for out in chunk])
        yield start, m, u, root_q, m @ amp @ np.swapaxes(u, 1, 2)


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
    the stage-2 map residual.

    Every operator norm is the largest |eigenvalue| of a Hermitian matrix:
    ``||X||`` is the square root of the top eigenvalue of the smaller Gram
    matrix ``X X'`` or ``X'X``, and the completeness and unitarity defects
    are Hermitian already.  Outcomes are stacked ``_VERIFY_CHUNK`` at a time,
    which bounds the memory; a stage-2 protocol sums its intermediate state
    in a first sweep and recomputes the branches in the second, so no list of
    K dense branches is kept.
    """
    da, db = protocol.dims
    if a_state.dims != (da, db) or b_state.dims != (da, db):
        raise InvalidInputError("state dimensions do not match the protocol")

    s2 = protocol.stage2
    weights = [out.q for out in protocol.outcomes] + ([] if s2 is None else [s2.p])
    if not all(0.0 <= w <= 1.0 for w in weights):  # NaN fails both comparisons
        raise InvalidInputError("stage-1 weights q and the stage-2 p must lie in [0, 1]")
    if s2 is None:
        target = b_state.amp
    else:
        target = np.zeros((da, db), dtype=complex)
        for _, _, _, root_q, branches in _outcome_chunks(protocol.outcomes, a_state.amp):
            for r, branch in zip(root_q, branches):  # in outcome order, whatever the chunks
                target += r * branch

    k = len(protocol.outcomes)
    per_outcome, u_defects, m_norms = np.empty(k), np.empty(k), np.empty(k)
    ident_a, ident_b = np.eye(da), np.eye(db)
    acc = np.array(protocol.M0.conj().T @ protocol.M0, dtype=complex)
    m0_norm = float(np.sqrt(_hermitian_norms(acc)))
    for start, m, u, root_q, branches in _outcome_chunks(protocol.outcomes, a_state.amp):
        gram = np.conj(np.swapaxes(m, 1, 2)) @ m
        for g in gram:  # in outcome order, whatever the chunks
            acc += g
        stop = start + len(m)
        m_norms[start:stop] = np.sqrt(_hermitian_norms(gram))
        u_defects[start:stop] = _hermitian_norms(np.conj(np.swapaxes(u, 1, 2)) @ u - ident_b)
        per_outcome[start:stop] = _opnorms(branches - root_q[:, None, None] * target)
    completeness = _hermitian_norms(acc - ident_a)

    unitarity = u_defects.tolist()
    norms = np.maximum(m_norms - 1.0, 0.0).tolist()
    norms.append(max(0.0, m0_norm - 1.0))

    if s2 is None:
        stage2_residual = 0.0
        balance = 0.0
    else:
        unitarity.append(float(_hermitian_norms(s2.V.conj().T @ s2.V - ident_b)))
        norms.append(max(0.0, float(_opnorms(s2.N)) - 1.0))
        map_defect = _opnorms(s2.N @ target @ s2.V.T - math.sqrt(s2.p) * b_state.amp)
        completion = _hermitian_norms(
            s2.N.conj().T @ s2.N + s2.N_fail.conj().T @ s2.N_fail - ident_a
        )
        stage2_residual = max(float(map_defect), float(completion))

        norm_t = float(np.linalg.norm(target))
        inter = BipartiteState(target / norm_t) if norm_t > 0 else None
        if inter is None:
            balance = float("inf")
        else:
            flow, balance = _flow_balance(s2.N, inter, b_state, s2.p)
            balance = max(
                balance,
                max(0.0, float(np.max(flow.sum(axis=0))) - 1.0),
                max(0.0, float(np.max(flow.sum(axis=1))) - 1.0),
            )

    report = VerificationReport(
        completeness_residual=float(completeness),
        per_outcome_residuals=tuple(per_outcome.tolist()),
        stage2_residual=float(stage2_residual),
        unitarity_residuals=tuple(unitarity),
        norm_bounds=tuple(norms),
        substochastic_balance_residual=float(balance),
        tol=float(tol),
        passed=False,
    )
    object.__setattr__(report, "passed", bool(report.max_residual <= tol))
    return report


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
    ops = [out.M for out in protocol.outcomes] + [protocol.M0]
    return np.array([_norm_sq(op @ state.amp) for op in ops])


def _norm_sq(amp: np.ndarray) -> float:
    return float(np.vdot(amp, amp).real)


def _check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 1 << 128:
        raise InvalidInputError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    return int(seed)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible generator for one trial.

    Streams are split with a counter-based generator jumped by the trial
    index, so the result depends only on ``(seed, trial)`` and never on
    execution order.
    """
    return np.random.Generator(np.random.Philox(key=_check_seed(seed)).jumped(trial))


# Philox4x64-10 multipliers and key increments (Salmon et al., SC'11), as
# numpy's Philox uses them.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_U64_MASK = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``m * x``.

    numpy has no 64x64->128 multiply, so the high word is assembled from
    the four 32-bit partial products; the low word is the wrapped product.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lo_lo, hi_lo, lo_hi = x_lo * m_lo, x_hi * m_lo, x_lo * m_hi
    carry = ((lo_lo >> _SHIFT32) + (hi_lo & _LO32) + (lo_hi & _LO32)) >> _SHIFT32
    hi = x_hi * m_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + carry
    return hi, x * np.uint64(m)


def _trial_uniforms(seed: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second ``random()`` draws of ``trial_rng(seed, i)``, i in [start, stop).

    ``Philox(key=seed).jumped(i)`` starts at counter ``(0, 0, i, 0)`` and its
    first draw increments the counter before enciphering, so trial ``i``'s
    draws are words 0 and 1 of the block at counter ``(1, 0, i, 0)``.
    """
    n = stop - start
    c0 = np.ones(n, dtype=np.uint64)
    c1 = np.zeros(n, dtype=np.uint64)
    c2 = np.arange(start, stop, dtype=np.uint64)
    c3 = np.zeros(n, dtype=np.uint64)
    k0, k1 = seed & _U64_MASK, seed >> 64
    for r in range(_PHILOX_ROUNDS):
        key0 = np.uint64((k0 + r * _PHILOX_W[0]) & _U64_MASK)
        key1 = np.uint64((k1 + r * _PHILOX_W[1]) & _U64_MASK)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
    scale = 1.0 / 9007199254740992.0
    return (c0 >> _SHIFT11) * scale, (c1 >> _SHIFT11) * scale


def run_once(protocol: LoccProtocol, state: BipartiteState, rng: np.random.Generator) -> RunTrace:
    """Sample one execution of a verified protocol on ``state``."""
    weights = branch_weights(protocol, state)
    total = float(weights.sum())
    pick = rng.random() * total
    idx = int(np.searchsorted(np.cumsum(weights), pick))
    idx = min(idx, len(weights) - 1)

    if idx == len(protocol.outcomes):
        # Completion branch: no amplitude survives, Bob does nothing.
        return RunTrace(
            outcome_index=-1,
            classical_message=-1,
            bob_correction=None,
            stage2_success=None,
            final_state=None,
            run_weight=float(weights[idx]),
        )

    out = protocol.outcomes[idx]
    branch = out.M @ state.amp @ out.U.T
    w = float(np.vdot(branch, branch).real)
    inter = branch / math.sqrt(w)

    if protocol.stage2 is None:
        return RunTrace(
            outcome_index=idx,
            classical_message=idx,
            bob_correction=idx,
            stage2_success=None,
            final_state=BipartiteState(inter),
            run_weight=w,
        )

    s2 = protocol.stage2
    success_amp = s2.N @ inter @ s2.V.T
    w_succ = float(np.vdot(success_amp, success_amp).real)
    if rng.random() < w_succ:
        final = BipartiteState(success_amp / math.sqrt(w_succ))
        return RunTrace(
            outcome_index=idx,
            classical_message=idx,
            bob_correction=idx,
            stage2_success=True,
            final_state=final,
            run_weight=w * w_succ,
        )
    fail_amp = s2.N_fail @ inter
    w_fail = float(np.vdot(fail_amp, fail_amp).real)
    final = BipartiteState(fail_amp / math.sqrt(w_fail)) if w_fail > _MIN_FAIL_WEIGHT else None
    return RunTrace(
        outcome_index=idx,
        classical_message=idx,
        bob_correction=idx,
        stage2_success=False,
        final_state=final,
        run_weight=w * w_fail,
    )


def _outcome_stats(
    protocol: LoccProtocol, state: BipartiteState, target: BipartiteState, k: int
) -> tuple[float, float]:
    """Stage-2 success weight and success fidelity of stage-1 outcome ``k``.

    Uses ``run_once``'s expressions and builds the states it builds on this
    branch, so the same validation runs.  A deterministic branch always
    succeeds (weight 1); a success state is built only if its weight is
    positive, since otherwise no trial can succeed.
    """
    out = protocol.outcomes[k]
    branch = out.M @ state.amp @ out.U.T
    w = _norm_sq(branch)
    inter = branch / math.sqrt(w)
    s2 = protocol.stage2
    if s2 is None:
        return 1.0, fidelity(BipartiteState(inter), target)
    success_amp = s2.N @ inter @ s2.V.T
    w_succ = _norm_sq(success_amp)
    fid = math.nan
    if w_succ > 0:
        fid = fidelity(BipartiteState(success_amp / math.sqrt(w_succ)), target)
    fail_amp = s2.N_fail @ inter
    w_fail = _norm_sq(fail_amp)
    if w_fail > _MIN_FAIL_WEIGHT:
        BipartiteState(fail_amp / math.sqrt(w_fail))
    return w_succ, fid


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
    selects gets its post-measurement state, stage-2 split and success
    fidelity computed once, with ``run_once``'s expressions.  Trials run in
    chunks of ``_CHUNK``, each drawing all its uniforms at once (see the
    module docstring for the counter layout).
    """
    seed = _check_seed(seed)
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
        raise InvalidInputError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise InvalidInputError("trials must be at least 1")
    trials = int(trials)

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
            w_succ[k], fid[k] = _outcome_stats(protocol, a_state, b_state, k)
            seen[k] = True
        succeeded = idx < completion
        if protocol.stage2 is not None:
            succeeded &= u2 < w_succ[idx]
        successes += int(np.count_nonzero(succeeded))
        for f in fid[idx[succeeded]].tolist():
            fid_sum += f

    p_hat = successes / trials
    mean_fid = fid_sum / successes if successes else float("nan")
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    return EstimateResult(p_hat=p_hat, mean_success_fidelity=mean_fid, stderr=stderr)
