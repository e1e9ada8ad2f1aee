import math

import numpy as np
import pytest

from locc_forge import simulate
from locc_forge.bipartite import fidelity, from_schmidt
from locc_forge.errors import InvalidInputError
from locc_forge.simulate import (
    EstimateResult,
    branch_weights,
    estimate,
    run_once,
    trial_rng,
    verify,
)
from locc_forge.synth import StageOneOutcome, max_probability, synthesize

from helpers import random_state, state_with_spectrum

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
