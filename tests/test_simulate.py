import dataclasses
import math

import numpy as np
import pytest

from locc_forge import simulate
from locc_forge.bipartite import fidelity, from_schmidt
from locc_forge.errors import InvalidInputError
from locc_forge.simulate import (
    EstimateResult,
    VerificationReport,
    branch_weights,
    estimate,
    run_once,
    trial_rng,
    verify,
)
from locc_forge.synth import StageOneOutcome, _flow_balance, max_probability, synthesize

from helpers import comparable_spectra, random_state, reproducer_pairs, state_with_spectrum

BELL = from_schmidt([0.5, 0.5], 2, 2)
SKEW = from_schmidt([0.8, 0.2], 2, 2)


def _perturbed(protocol, eps=1e-3):
    out = protocol.outcomes[0]
    m = out.M.copy()
    m[0, 0] += eps
    outcomes = (StageOneOutcome(q=out.q, M=m, U=out.U),) + protocol.outcomes[1:]
    return type(protocol)(
        outcomes=outcomes,
        M0=protocol.M0,
        stage2=protocol.stage2,
        dims=protocol.dims,
        p_total=protocol.p_total,
        source_digest=protocol.source_digest,
        target_digest=protocol.target_digest,
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fresh_protocols_pass():
    rng = np.random.default_rng(61)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        a = random_state(d, d, rng)
        b = random_state(d, d, rng)
        p = max_probability(a, b)
        if p <= 0.0:
            continue
        proto = synthesize(a, b, p / 2 if p < 1.0 else "max")
        report = verify(proto, a, b, tol=1e-9)
        assert report.passed, report.as_dict()
        assert report.max_residual <= 1e-9


def test_verify_detects_perturbation():
    proto = synthesize(BELL, SKEW, 1.0)
    report = verify(_perturbed(proto, 1e-3), BELL, SKEW, tol=1e-9)
    assert not report.passed
    assert report.completeness_residual >= 1e-4


def test_verify_identity_protocol_tiny_residuals():
    proto = synthesize(BELL, BELL)
    report = verify(proto, BELL, BELL, tol=1e-12)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_verify_dimension_mismatch():
    proto = synthesize(BELL, SKEW)
    with pytest.raises(InvalidInputError):
        verify(proto, from_schmidt([1.0], 3, 3), SKEW)


def test_verify_report_fields_finite():
    proto = synthesize(SKEW, BELL, 0.4)
    report = verify(proto, SKEW, BELL)
    d = report.as_dict()
    for key, value in d.items():
        if isinstance(value, float):
            assert np.isfinite(value), key


# ---------------------------------------------------------------------------
# verify against a per-outcome SVD reference
# ---------------------------------------------------------------------------

def _svd_norm(m):
    return float(np.linalg.norm(m, 2))


def _reference_verify(protocol, a_state, b_state, tol=1e-9):
    """Per-outcome reference: every operator norm from its own SVD."""
    da, db = protocol.dims
    ident_a = np.eye(da)
    acc = protocol.M0.conj().T @ protocol.M0
    for out in protocol.outcomes:
        acc = acc + out.M.conj().T @ out.M
    completeness = _svd_norm(acc - ident_a)

    branches = [out.M @ a_state.amp @ out.U.T for out in protocol.outcomes]
    if protocol.stage2 is None:
        target = b_state.amp
    else:
        target = sum(math.sqrt(out.q) * br for out, br in zip(protocol.outcomes, branches))
    per_outcome = tuple(
        _svd_norm(br - math.sqrt(out.q) * target) for out, br in zip(protocol.outcomes, branches)
    )
    unitarity = [_svd_norm(out.U.conj().T @ out.U - np.eye(db)) for out in protocol.outcomes]
    norms = [max(0.0, _svd_norm(out.M) - 1.0) for out in protocol.outcomes]
    norms.append(max(0.0, _svd_norm(protocol.M0) - 1.0))

    stage2_residual = balance = 0.0
    if protocol.stage2 is not None:
        s2 = protocol.stage2
        unitarity.append(_svd_norm(s2.V.conj().T @ s2.V - np.eye(db)))
        norms.append(max(0.0, _svd_norm(s2.N) - 1.0))
        map_defect = _svd_norm(s2.N @ target @ s2.V.T - math.sqrt(s2.p) * b_state.amp)
        completion = _svd_norm(s2.N.conj().T @ s2.N + s2.N_fail.conj().T @ s2.N_fail - ident_a)
        stage2_residual = max(map_defect, completion)
        norm_t = float(np.linalg.norm(target))
        if norm_t > 0:
            inter = type(a_state)(target / norm_t)
            flow, balance = _flow_balance(s2.N, inter, b_state, s2.p)
            balance = max(
                balance,
                max(0.0, float(np.max(flow.sum(axis=0))) - 1.0),
                max(0.0, float(np.max(flow.sum(axis=1))) - 1.0),
            )
        else:
            balance = float("inf")

    report = VerificationReport(
        completeness_residual=completeness,
        per_outcome_residuals=per_outcome,
        stage2_residual=stage2_residual,
        unitarity_residuals=tuple(unitarity),
        norm_bounds=tuple(norms),
        substochastic_balance_residual=balance,
        tol=tol,
        passed=False,
    )
    return dataclasses.replace(report, passed=bool(report.max_residual <= tol))


def _assert_matches_reference(protocol, a_state, b_state):
    report = verify(protocol, a_state, b_state)
    ref = _reference_verify(protocol, a_state, b_state)
    assert report.passed == ref.passed
    assert report.tol == ref.tol
    for field in dataclasses.fields(VerificationReport):
        got, want = getattr(report, field.name), getattr(ref, field.name)
        got, want = np.atleast_1d(got).astype(float), np.atleast_1d(want).astype(float)
        assert got.shape == want.shape, field.name
        assert np.all(np.abs(got - want) <= 1e-13 + 1e-12 * np.abs(want)), field.name
    return report


def _corrupted(protocol, how, factor=1.5):
    outcomes = list(protocol.outcomes)
    first = outcomes[0]
    if how == "M-scaled":
        outcomes[0] = dataclasses.replace(first, M=factor * first.M)
    elif how == "U-nudged":
        u = first.U.copy()
        u[0, 0] += 1e-6
        outcomes[0] = dataclasses.replace(first, U=u)
    else:
        outcomes[0] = dataclasses.replace(first, U=outcomes[1].U)
        outcomes[1] = dataclasses.replace(outcomes[1], U=first.U)
    return dataclasses.replace(protocol, outcomes=tuple(outcomes))


def _split_outcomes(protocol, copies):
    """The same protocol with every outcome (q, M, U) split into ``copies``
    outcomes (q/copies, M/sqrt(copies), U), which is still a valid protocol."""
    outcomes = tuple(
        StageOneOutcome(q=out.q / copies, M=out.M / math.sqrt(copies), U=out.U)
        for out in protocol.outcomes
        for _ in range(copies)
    )
    return dataclasses.replace(protocol, outcomes=outcomes)


def _spanning_chunks(protocol, chunks):
    """``protocol`` split evenly into more than ``chunks`` chunks of outcomes."""
    return _split_outcomes(protocol, chunks * simulate._VERIFY_CHUNK // len(protocol.outcomes) + 1)


def _verify_cases():
    rng = np.random.default_rng(64)
    cases = {}
    for name, (da, db) in {"square": (5, 5), "wide": (3, 5), "tall": (5, 3)}.items():
        a, b = comparable_spectra(min(da, db), rng)
        sa, sb = state_with_spectrum(a, da, db, rng), state_with_spectrum(b, da, db, rng)
        cases[f"{name}-deterministic"] = (synthesize(sa, sb, 1.0), sa, sb)
        sa, sb = random_state(da, db, rng), random_state(da, db, rng)
        cases[f"{name}-stage2"] = (synthesize(sa, sb, max_probability(sa, sb) / 2), sa, sb)
    a, b = (np.sort(rng.dirichlet(np.ones(14)))[::-1] for _ in range(2))
    sa, sb = state_with_spectrum(a, 14, 14, rng), state_with_spectrum(b, 14, 14, rng)
    cases["square-d14-stage2"] = (_spanning_chunks(synthesize(sa, sb, "max"), 2), sa, sb)
    sa = state_with_spectrum(np.array([0.6, 0.3, 0.1, 0.0]), 4, 4, rng)
    sb = state_with_spectrum(np.array([0.4, 0.3, 0.2, 0.1]), 4, 4, rng)
    cases["rank-deficient"] = (synthesize(sa, sb, "max"), sa, sb)
    for base in ("square-deterministic", "square-stage2"):
        proto, sa, sb = cases[base]
        for how in ("M-scaled", "U-nudged", "U-swapped"):
            cases[f"{base}-{how}"] = (_corrupted(proto, how), sa, sb)
    return cases


VERIFY_CASES = _verify_cases()


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_matches_svd_reference(name):
    proto, a, b = VERIFY_CASES[name]
    assert (proto.stage2 is None) == ("deterministic" in name)
    if name == "rank-deficient":
        assert np.linalg.norm(proto.M0, 2) > 0.5
    if name == "square-d14-stage2":
        assert len(proto.outcomes) > 2 * simulate._VERIFY_CHUNK
    report = _assert_matches_reference(proto, a, b)
    corrupted = name.endswith(("M-scaled", "U-nudged", "U-swapped"))
    assert report.passed is not corrupted


def test_verify_matches_svd_reference_on_contract_reproducer():
    # The seeded pairs of ROADMAP item 2: synthesize(A, B, "max") on
    # Dirichlet(0.1) spectra.  Every stage-1 instrument is complete and made
    # of contractions; a copy with one M scaled by 20 keeps the coverage of
    # large residuals and of operators that are not contractions.
    worst_residual = worst_excess = 0.0
    failures = 0
    for sa, sb in reproducer_pairs():
        proto = synthesize(sa, sb, "max")
        report = _assert_matches_reference(proto, sa, sb)
        assert report.completeness_residual <= 1e-12
        assert max(report.norm_bounds) <= 1e-12
        failures += not report.passed
        report = _assert_matches_reference(_corrupted(proto, "M-scaled", 20.0), sa, sb)
        worst_residual = max(worst_residual, report.max_residual)
        worst_excess = max(worst_excess, max(report.norm_bounds))
    assert worst_residual > 100.0
    assert worst_excess > 5.0
    # Ratchet on the synthesize => verify contract: 2 draws still fail, both
    # with a source Schmidt coefficient squared below 6e-14.
    assert failures <= 4


def test_verify_independent_of_chunk_size(monkeypatch):
    rng = np.random.default_rng(65)
    cases = []
    for d in (10, 14):
        b = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        a = np.sort(rng.dirichlet(np.ones(d)))[::-1] if d == 14 else 0.5 * b + 0.05
        sa, sb = state_with_spectrum(a, d, d, rng), state_with_spectrum(b, d, d, rng)
        cases.append((_spanning_chunks(synthesize(sa, sb, "max"), 1), sa, sb))
    assert [proto.stage2 is None for proto, _, _ in cases] == [True, False]
    for proto, x, y in cases:
        assert len(proto.outcomes) > simulate._VERIFY_CHUNK
        expected = repr(verify(proto, x, y))
        for chunk in (1, 5):
            monkeypatch.setattr(simulate, "_VERIFY_CHUNK", chunk)
            assert repr(verify(proto, x, y)) == expected
        monkeypatch.undo()


@pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan])
def test_verify_rejects_bad_weights(bad):
    proto = synthesize(SKEW, BELL, 0.4)
    first = dataclasses.replace(proto.outcomes[0], q=bad)
    with pytest.raises(InvalidInputError):
        verify(dataclasses.replace(proto, outcomes=(first,) + proto.outcomes[1:]), SKEW, BELL)
    stage2 = dataclasses.replace(proto.stage2, p=bad)
    with pytest.raises(InvalidInputError):
        verify(dataclasses.replace(proto, stage2=stage2), SKEW, BELL)


def test_verify_empty_protocol():
    proto = dataclasses.replace(synthesize(BELL, SKEW, 1.0), outcomes=())
    report = verify(proto, BELL, SKEW)
    assert repr(report) == repr(VerificationReport(1.0, (), 0.0, (), (0.0,), 0.0, 1e-9, False))
    assert repr(report) == repr(_reference_verify(proto, BELL, SKEW))


# ---------------------------------------------------------------------------
# run_once
# ---------------------------------------------------------------------------

def test_run_once_deterministic():
    proto = synthesize(BELL, SKEW, 1.0)
    trace = run_once(proto, BELL, trial_rng(1, 0))
    assert trace.stage2_success is None
    assert trace.outcome_index in (0, 1)
    assert trace.classical_message == trace.outcome_index
    assert abs(fidelity(trace.final_state, SKEW) - 1.0) <= 1e-9


def test_run_once_reproducible():
    proto = synthesize(SKEW, BELL, 0.4)
    t1 = run_once(proto, SKEW, trial_rng(42, 7))
    t2 = run_once(proto, SKEW, trial_rng(42, 7))
    assert t1.outcome_index == t2.outcome_index
    assert t1.stage2_success == t2.stage2_success
    if t1.final_state is not None:
        assert np.array_equal(t1.final_state.amp, t2.final_state.amp)


def test_run_once_success_branch_reaches_target():
    proto = synthesize(SKEW, BELL, 0.4)
    seen_success = False
    for i in range(50):
        trace = run_once(proto, SKEW, trial_rng(3, i))
        if trace.stage2_success:
            seen_success = True
            assert fidelity(trace.final_state, BELL) >= 1.0 - 1e-9
            assert abs(trace.run_weight - 0.4) <= 1e-9
    assert seen_success


def test_branch_weights_sum_to_one():
    rng = np.random.default_rng(62)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        a = random_state(d, d, rng)
        b = random_state(d, d, rng)
        p = max_probability(a, b)
        if p <= 0.0:
            continue
        proto = synthesize(a, b, p)
        w = branch_weights(proto, a)
        assert abs(w.sum() - 1.0) <= 1e-9
        assert w[-1] <= 1e-18  # completion branch is silent


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_deterministic():
    proto = synthesize(BELL, SKEW, 1.0)
    result = estimate(proto, BELL, SKEW, trials=1000, seed=5)
    assert result.p_hat == 1.0
    assert result.mean_success_fidelity >= 1.0 - 1e-9
    assert result.stderr == 0.0


def test_estimate_binomial_window():
    proto = synthesize(SKEW, BELL, 0.4)
    result = estimate(proto, SKEW, BELL, trials=10000, seed=42)
    assert 0.38 <= result.p_hat <= 0.42
    assert result.mean_success_fidelity >= 1.0 - 1e-9


def test_estimate_reproducible_and_order_independent():
    proto = synthesize(SKEW, BELL, 0.4)
    r1 = estimate(proto, SKEW, BELL, trials=400, seed=9)
    r2 = estimate(proto, SKEW, BELL, trials=400, seed=9)
    assert r1 == r2

    # Recompute the same statistic trial by trial in a shuffled order and
    # aggregate by index: per-trial streams depend only on (seed, index).
    order = np.random.default_rng(0).permutation(400)
    successes = np.zeros(400, dtype=bool)
    fids = np.zeros(400)
    for i in order:
        trace = run_once(proto, SKEW, trial_rng(9, int(i)))
        ok = trace.outcome_index >= 0 and (trace.stage2_success in (None, True))
        successes[i] = ok
        if ok:
            fids[i] = fidelity(trace.final_state, BELL)
    assert successes.mean() == r1.p_hat
    assert abs(fids.sum() / successes.sum() - r1.mean_success_fidelity) <= 1e-15


def test_estimate_rejects_zero_trials():
    proto = synthesize(BELL, SKEW)
    with pytest.raises(InvalidInputError):
        estimate(proto, BELL, SKEW, trials=0)


def test_estimate_rejects_bad_seed_and_trials():
    proto = synthesize(BELL, SKEW)
    for seed in (-1, 2**128, 1.5, True, "3", None):
        with pytest.raises(InvalidInputError):
            estimate(proto, BELL, SKEW, trials=10, seed=seed)
        with pytest.raises(InvalidInputError):
            trial_rng(seed, 0)
    for trials in (True, 2.5, "10", None):
        with pytest.raises(InvalidInputError):
            estimate(proto, BELL, SKEW, trials=trials)


def test_estimate_accepts_numpy_integers():
    proto = synthesize(SKEW, BELL, 0.4)
    assert estimate(proto, SKEW, BELL, trials=np.int64(50), seed=np.uint64(3)) == estimate(
        proto, SKEW, BELL, trials=50, seed=3
    )


# ---------------------------------------------------------------------------
# batched estimate against the scalar reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 + 1, 2**128 - 1])
def test_trial_uniforms_match_trial_rng(seed):
    starts = (0, 2**40, 2**64 - 100)
    sizes = (10_000, 100, 100)
    for start, size in zip(starts, sizes):
        u1, u2 = simulate._trial_uniforms(seed, start, start + size)
        first = np.empty(size)
        second = np.empty(size)
        for j in range(size):
            rng = trial_rng(seed, start + j)
            first[j] = rng.random()
            second[j] = rng.random()
        assert np.array_equal(u1, first)
        assert np.array_equal(u2, second)


def _reference_estimate(protocol, a_state, b_state, trials, seed):
    """Scalar reference: run_once per trial, fidelities summed in trial order."""
    successes = 0
    fid_sum = 0.0
    for i in range(trials):
        trace = run_once(protocol, a_state, trial_rng(seed, i))
        succeeded = (
            trace.outcome_index >= 0
            and (trace.stage2_success is None or trace.stage2_success)
        )
        if succeeded:
            successes += 1
            fid_sum += fidelity(trace.final_state, b_state)
    p_hat = successes / trials
    mean_fid = fid_sum / successes if successes else float("nan")
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    return EstimateResult(p_hat=p_hat, mean_success_fidelity=mean_fid, stderr=stderr)


def _reference_cases():
    rng = np.random.default_rng(63)
    cases = {
        "deterministic": (BELL, SKEW, 1.0),
        "probabilistic": (SKEW, BELL, 0.4),
    }
    a = random_state(4, 4, rng)
    b = random_state(4, 4, rng)
    cases["probabilistic-d4"] = (a, b, max_probability(a, b) / 2)
    a = state_with_spectrum(np.array([0.5, 0.3, 0.2]), 3, 5, rng)
    b = state_with_spectrum(np.array([0.7, 0.2, 0.1]), 3, 5, rng)
    cases["rectangular"] = (a, b, "max")
    a = state_with_spectrum(np.array([0.7, 0.3, 0.0]), 3, 3, rng)
    b = state_with_spectrum(np.array([0.5, 0.5, 0.0]), 3, 3, rng)
    cases["rank-deficient"] = (a, b, "max")
    return cases


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_estimate_matches_run_once_loop(name, monkeypatch):
    a, b, p = REFERENCE_CASES[name]
    proto = synthesize(a, b, p)
    if name == "rank-deficient":
        assert np.linalg.norm(proto.M0) > 0.5
        assert proto.stage2 is not None
    # With a 500-trial chunk, 501 trials (one chunk plus one) and 3000
    # trials cross chunk boundaries without a 2**16 + 1 trial scalar loop.
    monkeypatch.setattr(simulate, "_CHUNK", 500)
    runs = [(t, s) for s in (0, 2**64 + 1) for t in (1, 7, 501)] + [(3000, 11)]
    for trials, seed in runs:
        expected = _reference_estimate(proto, a, b, trials, seed)
        assert repr(estimate(proto, a, b, trials, seed)) == repr(expected), (trials, seed)


def test_estimate_independent_of_chunk_size(monkeypatch):
    proto = synthesize(SKEW, BELL, 0.4)
    full = estimate(proto, SKEW, BELL, trials=1000, seed=8)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    assert estimate(proto, SKEW, BELL, trials=1000, seed=8) == full
