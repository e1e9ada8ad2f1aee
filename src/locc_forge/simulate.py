"""Protocol verification and seeded Monte Carlo execution.

``verify`` recomputes every defining identity of a protocol and reports
the residuals; a NaN residual fails it.  ``LoccProtocol`` checks the
operator shapes and weights when it is built, so nothing here checks them
again.  A protocol whose ``outcomes`` carry a Schmidt frame (one from
``synthesize``, still holding the ``M0`` and stage 2 built with it) is
checked wholly in the frame in O(d^3 + K d), with no eigensolve, each
residual an upper bound on the dense one (``_frame_stage_one``,
``_frame_stage_two``).  Any other protocol is checked on its dense
operators, all K outcomes at once, every operator norm taken from the
Hermitian eigenvalues of a Gram matrix (or of a defect that is Hermitian
already, ``numkit.opnorm``), never from an SVD.  Neither path decomposes
the intermediate state.

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
    """Stage 1 and its completion ``M0`` checked on the dense operators, all outcomes at once:
    the per-outcome residuals, the ``U_k`` unitarity defects, the norms ``||M_k||`` then
    ``||M0||``, the completeness defect, and the intermediate state (B without a stage 2),
    which only ``_dense_stage_two`` reads.  ``||M0||`` and completeness come from one
    batched eigensolve of ``M0'M0`` and of ``M0'M0 + sum M_k'M_k - I``, summed in outcome order."""
    s1 = protocol.outcomes
    m, u, root_q = s1.M, s1.U, np.sqrt(s1.q)[:, None, None]
    branches = m @ a_state.amp @ np.swapaxes(u, 1, 2)
    target = b_state.amp if protocol.stage2 is None else (root_q * branches).sum(axis=0)
    grams = np.conj(np.swapaxes(m, 1, 2)) @ m
    m0_gram = protocol.M0.conj().T @ protocol.M0
    acc = np.array(m0_gram, dtype=complex)
    for g in grams:  # in outcome order
        acc += g
    acc -= np.eye(len(acc))
    m0_norm_sq, completeness = _hermitian_norms(np.array((m0_gram, acc))).tolist()
    norms = np.append(np.sqrt(_hermitian_norms(grams)), math.sqrt(m0_norm_sq))
    return opnorm(branches - root_q * target), unitarity_defect(u), norms, completeness, target


def _dense_stage_two(protocol: LoccProtocol, b_state: BipartiteState, target: np.ndarray):
    """Stage 2 checked on its dense operators against the intermediate state ``target``:
    the larger of the map and instrument-completion defects, ``V``'s unitarity defect,
    ``||N||`` and the flow balance.  The balance decomposes no ``T``: ``S.T a`` is the
    squared row norms of ``X_B' N T / ||T||``, and ``||N||^2 - 1`` bounds the row and
    column sums of ``S`` (``inf`` if ``T = 0``)."""
    s2 = protocol.stage2
    v_defect = unitarity_defect(s2.V)
    n_norm = opnorm(s2.N)
    map_defect = opnorm(s2.N @ target @ s2.V.T - math.sqrt(s2.p) * b_state.amp)
    completion = s2.N.conj().T @ s2.N + s2.N_fail.conj().T @ s2.N_fail - np.eye(len(s2.N))
    norm_t = float(np.linalg.norm(target))
    balance = float("inf")
    if norm_t > 0:
        fb = schmidt(b_state)
        flow = (np.abs(fb.left_basis.conj().T @ s2.N @ (target / norm_t)) ** 2).sum(axis=1)
        flow[: fb.coeffs.size] -= s2.p * fb.coeffs**2
        balance = np.maximum(np.abs(flow).max(), n_norm**2 - 1.0)
    return np.maximum(map_defect, _hermitian_norms(completion)), v_defect, n_norm, balance


def _basis_defect(x: np.ndarray) -> float:
    """``||X'X - I||`` in the Frobenius norm, which bounds the operator norm."""
    return math.sqrt(_norm_sq(x.conj().T @ x - np.eye(len(x))))


def _rebuild_defect(form, amp: np.ndarray) -> float:
    """``||amp - X S Y||`` in the Frobenius norm for the Schmidt form ``X S Y`` of a state."""
    r = form.coeffs.size
    return math.sqrt(_norm_sq((form.left_basis[:, :r] * form.coeffs) @ form.right_basis[:r] - amp))


def _frame_stage_one(protocol: LoccProtocol, a_state: BipartiteState, b_state: BipartiteState):
    """Stage 1 and ``M0`` checked in the Schmidt frame: O(d^3) once, then O(d) per outcome.

    With ``M_k = X_Q E_k X_A'``, ``U_k^T = Y_A' P_k' Y_Q``, ``M0 = X_N X_N'`` (``X_N``
    A's left Schmidt vectors that no ``M_k`` reads) and ``A = X_A S_A Y_A``,
    each identity is a diagonal one in the frame plus terms that vanish with
    the basis defects ``e = ||X'X - I||`` and the reconstruction residual
    ``rho = ||A - X_A S_A Y_A||`` (and ``rho_B`` for B, the target of a
    deterministic protocol), all measured here on the given states in the
    Frobenius norm, which bounds the operator norm.  Every reported residual
    is the frame term plus those terms, an upper bound on the residual of
    the dense operators.  Returns the five values ``_dense_stage_one`` lists, in
    its order; the intermediate state is the frame's diagonal ``mixture`` with a
    bound on its distance from the dense one and the defects of Q's bases (B's),
    which only ``_frame_stage_two`` reads.  Completeness is ``X_A diag(h) X_A' - I``,
    ``h`` the diagonal of ``sum_k E_k'E_k`` plus 1 on ``M0``'s coordinates, up to
    ``(1 + e_XA) e_XQ max(g)`` from the ``M_k`` and ``(1 + e_XA) e_XA`` from ``M0``.
    """
    f = protocol.outcomes.frame
    a, q, scale = f.a, f.q, f.scale
    r = a.coeffs.size
    # Diagonal of sum_k E_k'E_k: g_i = sum_k w_k q[perms[k, i]] / s_i, which is 1 up to
    # roundoff where the mixture s_i > 0 and exactly 0 where M0 projects.
    g = np.einsum("ki,ki->i", scale, scale)
    perms = f.perms[:, :r]
    e_xa, e_xq, e_ya, e_yq = map(_basis_defect, (a.left_basis, q.left_basis,
                                                 a.right_basis, q.right_basis))
    rho_a = _rebuild_defect(a, a_state.amp)

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
        rho_b = _rebuild_defect(q, b_state.amp)
        frame_res = np.abs(coeffs - root_q[:, None] * q.coeffs[perms]).max(axis=1)
        per_outcome = gain * frame_res + branch_err + root_q * rho_b
        intermediate = None
    else:
        mixture = np.bincount(perms.ravel(), (root_q[:, None] * coeffs).ravel(), r)
        target_slack = float(root_q @ branch_err)
        frame_res = np.abs(coeffs - root_q[:, None] * mixture[perms]).max(axis=1)
        per_outcome = gain * frame_res + branch_err + root_q * target_slack
        intermediate = (mixture, target_slack, e_xq, e_yq)
    null = np.ones(len(a.left_basis), dtype=bool)
    null[:r] = g == 0.0
    has_m0 = bool(null.any())
    h = null.astype(float)  # diagonal of M0'M0 + sum_k M_k'M_k in the frame
    h[:r] += g
    # ||M0'M0 - X_N X_N'|| <= (1 + e_XA) e_XA and ||M0|| <= 1 + e_XA
    completeness = (1.0 + e_xa) * (np.abs(h - 1.0).max() + e_xq * float(g.max())
                                   + e_xa * has_m0) + e_xa
    norms = np.append(math.sqrt((1.0 + e_xq) * (1.0 + e_xa)) * e_norms, (1.0 + e_xa) * has_m0)
    return (per_outcome, np.full(len(root_q), e_ya + (1.0 + e_ya) * e_yq), norms, completeness,
            intermediate)


def _frame_stage_two(protocol: LoccProtocol, b_state: BipartiteState, intermediate):
    """Stage 2 checked in the frame, with no eigensolve.

    With ``N = X_B diag(n) X_Q'``, ``N_fail = X_Q diag(fail) X_Q'``, ``V = (Y_Q'Y_B)^T``
    (Q shares B's bases, so ``e_XB = e_XQ`` and ``V`` is the identity up to
    ``e_YB``) and the frame's intermediate ``X_Q diag(mixture) Y_Q``, each
    identity is a diagonal one plus terms in those defects, ``rho_B = ||B - X_B S_B
    Y_B||`` on the given B and the bound ``slack`` on the distance of the dense
    intermediate state from the frame's.  Returns the four values
    ``_dense_stage_two`` lists, in its order, each an upper bound on the dense one;
    the flow balance is taken in the frame's B basis, which is ``schmidt(b_state)``
    on the state the protocol was built for (another B shows in ``rho_B``).
    """
    f = protocol.outcomes.frame
    mixture, slack, e_x, e_y = intermediate
    p, n, fail, b = protocol.stage2.p, f.n, f.fail, f.b
    r = b.coeffs.size
    rho_b = _rebuild_defect(b, b_state.amp)
    root_p, n_max, mix_max = math.sqrt(p), float(n.max()), float(mixture.max())
    gain = math.sqrt((1.0 + e_x) * (1.0 + e_y))  # bounds ||X_B|| ||Y_B||
    n_norm = (1.0 + e_x) * n_max
    v_norm = 1.0 + e_y  # ||V|| = ||Y_B'Y_B||, and ||V'V - I|| <= e_y (2 + e_y)
    # N T V^T - sqrt(p) B is X_B diag(amps - sqrt(p) sigma_B) Y_B up to basis, B and T terms.
    amps = n * mixture
    map_defect = (gain * (np.abs(amps - root_p * b.coeffs).max()
                          + v_norm * n_max * mix_max * (e_x + e_y))
                  + root_p * rho_b + n_norm * v_norm * slack)
    # N'N + N_fail'N_fail - I is X_B diag(n**2 + fail**2 - 1) X_B' up to basis terms.
    h = fail**2
    h[:r] += n**2
    completion = ((1.0 + e_x) * (np.abs(h - 1.0).max() + e_x * (n_max**2 + float(fail.max())**2))
                  + e_x)
    # Row i of X_B' N T has norm amps[i] (0 past r) up to eps, and ||T|| lies in [t_lo, t_hi].
    eps = (n_max * mix_max * (math.sqrt(1.0 + e_y) * e_x * (2.0 + e_x) + e_y)
           + math.sqrt(1.0 + e_x) * n_norm * slack)
    t = float(np.linalg.norm(mixture))
    t_lo = t * math.sqrt(max(0.0, 1.0 - e_x) * max(0.0, 1.0 - e_y)) - slack
    balance = float("inf")
    if t_lo > 0:
        rows, want = np.zeros(len(h)), np.zeros(len(h))
        rows[:r], want[:r] = amps, p * b.coeffs**2
        over = (rows + eps) ** 2 / t_lo**2 - want
        under = want - np.maximum(rows - eps, 0.0) ** 2 / (t * gain + slack) ** 2
        balance = np.maximum(np.maximum(over, under).max(), n_norm**2 - 1.0)
    return np.maximum(map_defect, completion), e_y * (2.0 + e_y), n_norm, balance


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

    The protocol's ``outcomes.frame`` decides the path, once.  With a frame (a
    synthesized protocol) every identity, ``M0`` and stage 2 included, is
    checked there (``_frame_stage_one``, ``_frame_stage_two``) with no
    eigensolve: each residual is an upper bound on the dense one.  That path
    trusts that the operators ``run_once`` and ``estimate`` apply are the
    frame's: ``synthesize`` freezes ``M0``, ``N``, ``V`` and ``N_fail`` with
    ``numkit.frozen`` and builds the stacks ``M``/``U`` as read-only views
    whose flag cannot be set back (only a write through their flag-locked
    ``.base`` gets round that), and ``LoccProtocol`` drops the frame when
    ``M0`` or stage 2 is replaced.  Without a frame every operator is checked
    densely (``_dense_stage_one``, ``_dense_stage_two``), with no copy of the
    stacks: each branch ``M_k A U_k.T`` once, a stage-2 protocol's
    intermediate state as their ``sqrt(q)``-weighted sum, and every operator
    norm the largest |eigenvalue| of a Hermitian matrix (``numkit.opnorm``),
    never an SVD.  On either path ``completeness_residual`` is at least
    ``|sum q - 1|``: stage 1 is deterministic, so no weight is left to ``M0``.
    """
    _check_dims(protocol, a_state, b_state)
    stage_one, stage_two = ((_dense_stage_one, _dense_stage_two) if protocol.outcomes.frame is None
                            else (_frame_stage_one, _frame_stage_two))
    per_outcome, u_defects, norms, completeness, inter = stage_one(protocol, a_state, b_state)
    completeness = np.maximum(completeness, abs(protocol.outcomes.q.sum() - 1.0))
    unitarity, norms = u_defects.tolist(), norms.tolist()
    stage2_residual = balance = 0.0
    if protocol.stage2 is not None:
        stage2_residual, v_defect, n_norm, balance = stage_two(protocol, b_state, inter)
        unitarity.append(v_defect)
        norms.append(n_norm)

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
