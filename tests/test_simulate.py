import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from locc_forge import simulate
from locc_forge.bipartite import fidelity, from_schmidt, schmidt
from locc_forge.cli import protocol_from_dict, protocol_to_dict
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
from locc_forge.synth import LoccProtocol, StageOneOutcome, _flow_balance, max_probability, synthesize

from helpers import (
    comparable_spectra,
    fold_into_m0,
    random_state,
    reproducer_pairs,
    state_with_spectrum,
    sweep_pairs,
    with_outcome0,
    with_stage2,
)

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


def test_other_dimensions_rejected_by_every_entry_point():
    proto = synthesize(SKEW, BELL, 0.4)
    other = from_schmidt([0.5, 0.3, 0.2], 3, 3)
    calls = (
        lambda: branch_weights(proto, other),
        lambda: run_once(proto, other, trial_rng(0, 0)),
        lambda: estimate(proto, other, BELL, trials=10),
        lambda: estimate(proto, SKEW, other, trials=10),
    )
    for call in calls:
        with pytest.raises(InvalidInputError, match="state dimensions"):
            call()


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


def _frame(protocol):
    return protocol.outcomes.frame


def _dense(protocol):
    """The same operators without the Schmidt frame, so ``verify`` checks them densely."""
    return dataclasses.replace(protocol, outcomes=tuple(protocol.outcomes))


def _assert_frame_bounds_dense(framed, checked):
    """The frame and dense reports agree on ``passed``, and every frame residual
    bounds the dense one up to roundoff."""
    assert framed.passed == checked.passed
    for field in dataclasses.fields(VerificationReport):
        if field.name in ("tol", "passed"):
            continue
        got = np.atleast_1d(getattr(framed, field.name)).astype(float)
        want = np.atleast_1d(getattr(checked, field.name)).astype(float)
        assert got.shape == want.shape, field.name
        assert np.all(got >= want - 1e-14), field.name


def _assert_matches_reference(protocol, a_state, b_state):
    """``verify`` agrees with the SVD reference, on the dense path too for a framed
    protocol, whose frame report must also bound the dense one.

    The flow balance is the one bound: ``verify`` replaces the row and column
    sums of the flow matrix with ``||N||^2 - 1``, so its balance lies between
    the reference's and the larger of that and ``||N||^2 - 1``."""
    ref = _reference_verify(protocol, a_state, b_state)
    balance_cap = ref.substochastic_balance_residual
    if protocol.stage2 is not None:
        balance_cap = max(balance_cap, _svd_norm(protocol.stage2.N) ** 2 - 1.0)
    protocols = [protocol] if _frame(protocol) is None else [_dense(protocol), protocol]
    reports = [verify(proto, a_state, b_state) for proto in protocols]
    for report in reports:
        assert report.passed == ref.passed
        assert report.tol == ref.tol
        for field in dataclasses.fields(VerificationReport):
            got, want = getattr(report, field.name), getattr(ref, field.name)
            got, want = np.atleast_1d(got).astype(float), np.atleast_1d(want).astype(float)
            assert got.shape == want.shape, field.name
            if field.name == "substochastic_balance_residual":
                assert want - 1e-13 <= got <= balance_cap + 1e-13
                continue
            assert np.all(np.abs(got - want) <= 1e-13 + 1e-12 * np.abs(want)), field.name
    if len(reports) == 2:
        _assert_frame_bounds_dense(reports[1], reports[0])
    return reports[-1]


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


def _split_past(protocol, count):
    """``protocol`` with its outcomes split evenly into more than ``count``."""
    return _split_outcomes(protocol, count // len(protocol.outcomes) + 1)


def _unbalanced(protocol, b_state, excess):
    """``protocol`` with its stage-2 ``N`` stretched along B's first left Schmidt
    vector, ``N -> (1 + eps P) N``, so that the flow into that coordinate
    exceeds ``p sigma_B0^2`` by ``excess``, and ``N_fail`` rebuilt to keep the
    instrument complete.  The map residual grows by ``eps sqrt(p) sigma_B0``."""
    s2 = protocol.stage2
    fb = schmidt(b_state)
    eps = excess / (2.0 * s2.p * fb.coeffs[0] ** 2)
    x0 = fb.left_basis[:, :1]
    n = s2.N + eps * x0 @ (x0.conj().T @ s2.N)
    e, v = np.linalg.eigh(np.eye(len(n)) - n.conj().T @ n)
    n_fail = (v * np.sqrt(np.clip(e, 0.0, None))) @ v.conj().T
    return dataclasses.replace(protocol, stage2=dataclasses.replace(s2, N=n, N_fail=n_fail))


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
    cases["square-d14-stage2"] = (_split_past(synthesize(sa, sb, "max"), 64), sa, sb)
    # Large-K dense protocols of both kinds: a deterministic d=10 and a
    # stage-2 d=14, each split past 32 outcomes.
    rng_k = np.random.default_rng(65)
    for d in (10, 14):
        b = np.sort(rng_k.dirichlet(np.ones(d)))[::-1]
        a = np.sort(rng_k.dirichlet(np.ones(d)))[::-1] if d == 14 else 0.5 * b + 0.05
        sa, sb = state_with_spectrum(a, d, d, rng_k), state_with_spectrum(b, d, d, rng_k)
        kind = "stage2" if d == 14 else "deterministic"
        cases[f"large-k-d{d}-{kind}"] = (_split_past(synthesize(sa, sb, "max"), 32), sa, sb)
    sa = state_with_spectrum(np.array([0.6, 0.3, 0.1, 0.0]), 4, 4, rng)
    sb = state_with_spectrum(np.array([0.4, 0.3, 0.2, 0.1]), 4, 4, rng)
    cases["rank-deficient"] = (synthesize(sa, sb, "max"), sa, sb)
    # A U swap needs two outcomes with distinct U, which a p_max/2 protocol
    # need not have, so the stage-2 swap takes a seeded "max" one asserted to.
    a, b = (np.sort(rng_k.dirichlet(np.ones(5)))[::-1] for _ in range(2))
    sa, sb = state_with_spectrum(a, 5, 5, rng_k), state_with_spectrum(b, 5, 5, rng_k)
    swap_bases = {"square-deterministic": cases["square-deterministic"],
                  "square-stage2": (synthesize(sa, sb, "max"), sa, sb)}
    for base, (proto, sa, sb) in swap_bases.items():
        assert len(proto.outcomes) >= 2 and not np.allclose(*proto.outcomes.U[:2]), base
        cases[f"{base}-U-swapped"] = (_corrupted(proto, "U-swapped"), sa, sb)
        proto, sa, sb = cases[base]
        for how in ("M-scaled", "U-nudged"):
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
        assert len(proto.outcomes) > 64
    if name.startswith("large-k"):
        assert len(proto.outcomes) > 32
    report = _assert_matches_reference(proto, a, b)
    corrupted = name.endswith(("M-scaled", "U-nudged", "U-swapped"))
    assert report.passed is not corrupted
    if proto.stage2 is not None and proto.stage2.p > 0.0 and not corrupted:
        # An N that breaks the flow balance is rejected on either path.
        unbalanced = _unbalanced(proto, b, 1e-6)
        ref = _reference_verify(unbalanced, a, b)
        assert ref.substochastic_balance_residual > 1e-7
        for checked in (unbalanced, _dense(unbalanced)):
            report = verify(checked, a, b)
            assert not report.passed
            assert report.substochastic_balance_residual >= ref.substochastic_balance_residual - 1e-13


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
    # Ratchet on the synthesize => verify contract: 2 draws still fail (88
    # and 327), both with a source Schmidt coefficient squared below 6e-14.
    assert failures <= 2


def test_contract_on_the_wide_sweep():
    # ROADMAP item 3's Tier-1 sweep: synthesize at "max" and at p_max/2 on
    # 300 seeded pairs at d = 9..24 (none with p_max = 0 is requested), then
    # verify.  Ratchet on the synthesize => verify contract, per request kind.
    failures = {"max": 0, "half": 0}
    for sa, sb in sweep_pairs():
        p_max = max_probability(sa, sb)
        if p_max == 0.0:
            continue
        for kind, p in (("max", "max"), ("half", p_max / 2)):
            failures[kind] += not verify(synthesize(sa, sb, p), sa, sb).passed
    assert failures["max"] <= 34
    assert failures["half"] <= 73


def test_verify_rejects_a_stage_two_that_breaks_only_the_balance():
    # At p = 0.99 on B = (0.99, 0.01) the flow excess is 1.98 times the map
    # residual, so an excess of 1.5e-9 leaves every other residual below 1e-9.
    sa, sb = from_schmidt([0.5, 0.5], 2, 2), from_schmidt([0.99, 0.01], 2, 2)
    proto = _unbalanced(synthesize(sa, sb, 0.99), sb, 1.5e-9)
    assert _frame(proto) is not None
    for checked in (proto, _dense(proto)):
        report = verify(checked, sa, sb)
        assert not report.passed
        assert report.substochastic_balance_residual > 1.4e-9
        others = dataclasses.replace(report, substochastic_balance_residual=0.0)
        assert others.max_residual < 0.8e-9
        assert _reference_verify(checked, sa, sb).substochastic_balance_residual > 1.4e-9


@pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan])
def test_verify_rejects_bad_weights(bad):
    proto = synthesize(SKEW, BELL, 0.4)
    first = dataclasses.replace(proto.outcomes[0], q=bad)
    with pytest.raises(InvalidInputError):
        verify(dataclasses.replace(proto, outcomes=(first,) + proto.outcomes[1:]), SKEW, BELL)
    stage2 = dataclasses.replace(proto.stage2, p=bad)
    with pytest.raises(InvalidInputError):
        verify(dataclasses.replace(proto, stage2=stage2), SKEW, BELL)


def _with_nan(protocol, name):
    """``protocol`` with a NaN in the first entry of its operator ``name``
    (outcome 0's for ``M`` and ``U``, the stage-2 one for ``N``, ``V``, ``N_fail``)."""
    def nan(m):
        m = np.array(m)
        m[0, 0] = math.nan
        return m

    if name in ("M", "U"):
        return with_outcome0(protocol, **{name: nan(getattr(protocol.outcomes[0], name))})
    if name == "M0":
        return dataclasses.replace(protocol, M0=nan(protocol.M0))
    return with_stage2(protocol, **{name: nan(getattr(protocol.stage2, name))})


@pytest.mark.parametrize(
    "path, name",
    [("dense", "M"), ("dense", "U"), ("dense", "M0"),
     ("frame", "M0"), ("frame", "N"), ("frame", "V"), ("frame", "N_fail")],
)
def test_verify_fails_a_nan_operator(path, name):
    # Every maximum verify takes propagates NaN, so a NaN entry anywhere
    # fails the protocol with a NaN max_residual.
    proto = synthesize(SKEW, BELL, 0.4)
    if path == "dense":
        proto = _dense(proto)
    bad = _with_nan(proto, name)
    assert (_frame(bad) is not None) == (path == "frame")
    report = verify(bad, SKEW, BELL)
    assert report.passed is False
    assert math.isnan(report.max_residual)


def test_verify_empty_protocol():
    proto = dataclasses.replace(synthesize(BELL, SKEW, 1.0), outcomes=())
    report = verify(proto, BELL, SKEW)
    assert repr(report) == repr(VerificationReport(1.0, (), 0.0, (), (0.0,), 0.0, 1e-9, False))
    assert repr(report) == repr(_reference_verify(proto, BELL, SKEW))


def test_verify_fails_source_weight_left_to_m0():
    # Stage 1 is deterministic, so its weights sum to 1 and M0 takes none of
    # the source: a complete stage 1 whose weights fall short of 1 (no
    # outcome at all, or one folded into M0) fails on completeness.
    rng = np.random.default_rng(83)
    sa, sb = random_state(3, 3, rng), random_state(3, 3, rng)
    empty = LoccProtocol(outcomes=(), M0=np.eye(3), stage2=None, dims=(3, 3))
    report = verify(empty, sa, sb)
    assert not report.passed and report.completeness_residual == 1.0
    for _ in range(40):
        d = int(rng.integers(2, 7))
        a, b = comparable_spectra(d, rng)
        sa, sb = state_with_spectrum(a, d, d, rng), state_with_spectrum(b, d, d, rng)
        proto = synthesize(sa, sb, "max")
        assert proto.stage2 is None and verify(proto, sa, sb).passed
        k = int(np.argmax(proto.outcomes.q))
        report = verify(fold_into_m0(proto, k), sa, sb)
        assert not report.passed
        assert report.completeness_residual >= proto.outcomes.q[k] - 1e-12


# ---------------------------------------------------------------------------
# verify in the Schmidt frame against the dense operators
# ---------------------------------------------------------------------------

def _verify_framed(proto, a, b):
    """``verify`` of a framed protocol, checked to bound its dense copy's report."""
    assert _frame(proto) is not None
    dense = _dense(proto)
    assert _frame(dense) is None
    framed = verify(proto, a, b)
    _assert_frame_bounds_dense(framed, verify(dense, a, b))
    return framed


def _frame_cases(seed, count):
    """Seeded square, wide, tall and rank-deficient pairs at d = 1..8."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = int(rng.integers(1, 9))
        da, db = [(d, d), (d, d + 2), (d + 2, d), (d, d)][i % 4]
        rank = int(rng.integers(1, d + 1)) if i % 4 == 3 else None
        yield random_state(da, db, rng, rank=rank), random_state(da, db, rng)


@pytest.mark.parametrize("request_p", ["max", "half"])
def test_frame_verify_bounds_dense_on_seeded_pairs(request_p):
    for sa, sb in _frame_cases(66, 200):
        p_max = max_probability(sa, sb)
        proto = synthesize(sa, sb, "max" if request_p == "max" else p_max / 2)
        _verify_framed(proto, sa, sb)


def test_frame_verify_rejects_other_states_and_a_corrupted_m0():
    # The frame is checked against the states verify is given, and M0
    # stays dense, so neither a mismatched state nor a replaced M0 passes.
    rng = np.random.default_rng(67)
    sa, sb = random_state(4, 4, rng), random_state(4, 4, rng)
    for p in (max_probability(sa, sb) / 2, "max"):
        proto = synthesize(sa, sb, p)
        other = random_state(4, 4, rng)
        for a, b in ((other, sb), (sa, other)):
            assert not verify(proto, a, b).passed
            assert not verify(_dense(proto), a, b).passed
        bad_m0 = dataclasses.replace(proto, M0=proto.M0 + 1e-3 * np.eye(4))
        assert _frame(bad_m0) is _frame(proto)
        assert not verify(bad_m0, sa, sb).passed
    deterministic = synthesize(BELL, SKEW, 1.0)
    swapped = type(SKEW)(SKEW.amp[:, ::-1])
    assert not verify(deterministic, BELL, swapped).passed
    assert not verify(_dense(deterministic), BELL, swapped).passed
    with_null = dataclasses.replace(deterministic, M0=np.diag([0.0, 1e-3]))
    assert not _verify_framed(with_null, BELL, SKEW).passed


def test_frame_outcomes_are_read_only():
    proto = synthesize(BELL, SKEW, 1.0)
    outcomes = proto.outcomes
    assert len(outcomes) == 2
    for op in [a for out in outcomes for a in (out.M, out.U)] + [outcomes.q, outcomes.M, outcomes.U]:
        with pytest.raises(ValueError):
            op[0] = 1.0
        with pytest.raises(ValueError):
            op.flags.writeable = True
    for f in (outcomes.frame, synthesize(SKEW, BELL, 0.4).outcomes.frame):
        for value in (f.perms, f.scale, f.q.coeffs):
            for a in (value, value.base):
                with pytest.raises(ValueError):
                    a.flags.writeable = True
    rest = outcomes[1:]
    assert type(rest) is tuple and rest[0] is outcomes[1]
    replaced = dataclasses.replace(proto, outcomes=outcomes[:1] + rest)
    assert _frame(replaced) is None
    assert _frame(dataclasses.replace(proto, source_digest="other")) is _frame(proto)


def test_stage_one_is_one_value_on_every_protocol():
    # A synthesized protocol, the same read back from its file and one built
    # by hand from copies of its operators all hold stage 1 as read-only
    # stacks whose rows are the outcomes' arrays; only the first has a frame.
    rng = np.random.default_rng(73)
    sa, sb = random_state(3, 5, rng), random_state(3, 5, rng)
    synthesized = synthesize(sa, sb, max_probability(sa, sb) / 2)
    loaded = protocol_from_dict(json.loads(json.dumps(protocol_to_dict(synthesized))))
    arrays = [(np.array(out.M), np.array(out.U)) for out in synthesized.outcomes]
    by_hand = LoccProtocol(
        outcomes=[StageOneOutcome(out.q, m, u) for out, (m, u) in zip(synthesized.outcomes, arrays)],
        M0=synthesized.M0, stage2=synthesized.stage2, dims=(3, 5),
    )
    report = verify(by_hand, sa, sb).as_dict()
    for m, u in arrays:  # the caller's arrays, written after construction
        m[...] = 0.0
        u[...] = 0.0
    want = synthesized.outcomes
    for proto in (synthesized, loaded, by_hand):
        s1 = proto.outcomes
        k = len(s1)
        assert (s1.q.shape, s1.M.shape, s1.U.shape) == ((k,), (k, 3, 3), (k, 5, 5))
        assert (s1.frame is None) == (proto is not synthesized)
        for stack in (s1.q, s1.M, s1.U):
            with pytest.raises(ValueError):
                stack.flags.writeable = True
        for i, out in enumerate(s1):
            assert np.float64(out.q).tobytes() == s1.q[i].tobytes()
            assert out.M.tobytes() == s1.M[i].tobytes() and np.shares_memory(out.M, s1.M)
            assert out.U.tobytes() == s1.U[i].tobytes() and np.shares_memory(out.U, s1.U)
        for got, ref in ((s1.q, want.q), (s1.M, want.M), (s1.U, want.U)):
            assert got.tobytes() == ref.tobytes()
    assert verify(by_hand, sa, sb).as_dict() == report


@pytest.mark.parametrize("framed", [True, False])
def test_copy_and_pickle_keep_stage_one(framed):
    # A state rebuilds from amp (checked, frozen, its form taken afresh) and a
    # frame and its forms through numkit.frozen, so no copy is writeable or stale.
    proto = synthesize(SKEW, BELL, 0.4)
    proto = proto if framed else _dense(proto)
    report = verify(proto, SKEW, BELL).as_dict()
    for copier in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        again, source, target = copier(proto), copier(SKEW), copier(BELL)
        assert (_frame(again) is not None) == framed
        assert verify(again, source, target).as_dict() == report
        s1 = again.outcomes
        arrays, forms = [source.amp, target.amp, s1.q, s1.M, s1.U], [schmidt(source)]
        if framed:
            arrays += [s1.frame.perms, s1.frame.scale]
            forms += [s1.frame.a, s1.frame.q]
        for form in forms:
            arrays += [form.left_basis, form.coeffs, form.right_basis]
        for array in arrays:
            with pytest.raises(ValueError):
                array.flags.writeable = True


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


def test_run_once_failure_and_completion_traces():
    # Stage-2 failure: the trace holds N_fail applied to the normalized
    # branch, normalized, with weight w * w_fail, bit for bit.
    rng = np.random.default_rng(68)
    a, b = random_state(4, 4, rng), random_state(4, 4, rng)
    cases = [(SKEW, BELL, 0.4), (a, b, max_probability(a, b) / 2)]
    for source, target, p in cases:
        proto = synthesize(source, target, p)
        s2 = proto.stage2
        failures = 0
        for i in range(40):
            trace = run_once(proto, source, trial_rng(12, i))
            if trace.stage2_success is not False:
                continue
            failures += 1
            k = trace.outcome_index
            assert trace.classical_message == trace.bob_correction == k >= 0
            out = proto.outcomes[k]
            branch = out.M @ source.amp @ out.U.T
            w = float(np.vdot(branch, branch).real)
            fail_amp = s2.N_fail @ (branch / math.sqrt(w))
            w_fail = float(np.vdot(fail_amp, fail_amp).real)
            assert np.array_equal(trace.final_state.amp, fail_amp / math.sqrt(w_fail))
            assert trace.run_weight == w * w_fail
        assert failures >= 5

    # Completion branch: M0 of a rank-deficient protocol has weight on a
    # full-rank state; the trace carries no message, correction or state.
    sa = state_with_spectrum(np.array([0.7, 0.3, 0.0]), 3, 3, rng)
    sb = state_with_spectrum(np.array([0.5, 0.5, 0.0]), 3, 3, rng)
    proto = synthesize(sa, sb, "max")
    state = random_state(3, 3, rng)
    m0_weight = branch_weights(proto, state)[-1]
    assert m0_weight > 0.05
    traces = [run_once(proto, state, trial_rng(13, i)) for i in range(60)]
    completions = [t for t in traces if t.outcome_index == -1]
    assert completions
    for trace in completions:
        assert trace.classical_message == -1
        assert trace.bob_correction is None
        assert trace.stage2_success is None
        assert trace.final_state is None
        assert trace.run_weight == m0_weight


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
    for trials in (True, 2.5, "10", None, 2**64):
        with pytest.raises(InvalidInputError):
            estimate(proto, BELL, SKEW, trials=trials)
    for trial in (-1, 2**64, True, False, 1.0, "3", None):
        with pytest.raises(InvalidInputError):
            trial_rng(3, trial)


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


@pytest.mark.parametrize("seed", [0, 2**64 + 1, 2**128 - 1])
def test_trial_rng_starts_at_block_after_trial(seed):
    # Trial i's first four draws are the words of Philox block i + 1, which
    # a Philox at counter i enciphers first.
    for i in (0, 5, 2**64 - 2):
        words = np.random.Philox(key=seed, counter=i).random_raw(4)
        expected = (words >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(trial_rng(seed, i).random(4), expected)
        assert np.array_equal(trial_rng(seed, np.uint64(i)).random(4), expected)


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
