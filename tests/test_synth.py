import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

from locc_forge import bipartite, cli, majorize, numkit, simulate, synth
from locc_forge.bipartite import (
    BipartiteState,
    from_schmidt,
    schmidt,
    schmidt_rank,
    squared_spectrum,
)
from locc_forge.errors import InfeasibleError, InvalidInputError
from locc_forge.numkit import opnorm, unitarity_defect
from locc_forge.simulate import verify
from locc_forge.synth import (
    deterministic_stage,
    feasibility,
    final_contraction,
    intermediate_vector,
    max_probability,
    reduce_bob,
    substochastic_matrix,
    synthesize,
    uhlmann_decompose,
)

from helpers import (
    comparable_spectra,
    random_contraction,
    random_spectrum,
    random_state,
    random_unitary,
    reproducer_pairs,
    state_with_spectrum,
    with_outcome0,
    with_stage2,
)

BELL = from_schmidt([0.5, 0.5], 2, 2)
SKEW = from_schmidt([0.8, 0.2], 2, 2)


def pmax_bisection_oracle(a_spec, b_spec, iters=80):
    """Independent oracle: bisect the weak-supermajorization predicate.

    Spectral crumbs below 1e-12 are zeroed on both sides (the same input
    conditioning the closed form applies); the predicate itself is evaluated
    strictly, so the bisection brackets the exact flip point.
    """
    a = np.where(np.asarray(a_spec) > 1e-12, a_spec, 0.0)
    b = np.where(np.asarray(b_spec) > 1e-12, b_spec, 0.0)

    def holds(p):
        return majorize.compare(a, p * b, "super", tol=0.0)

    if holds(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def end_to_end_residual(protocol, a_state, b_state):
    """Worst branch distance from sqrt(q * p) times the target amplitude."""
    p = protocol.stage2.p if protocol.stage2 is not None else 1.0
    worst = 0.0
    for out in protocol.outcomes:
        branch = out.M @ a_state.amp @ out.U.T
        if protocol.stage2 is not None:
            branch = protocol.stage2.N @ branch @ protocol.stage2.V.T
        worst = max(worst, opnorm(branch - np.sqrt(out.q * p) * b_state.amp))
    return worst


# ---------------------------------------------------------------------------
# max_probability / feasibility
# ---------------------------------------------------------------------------

def test_pmax_canonical():
    assert abs(max_probability(SKEW, BELL) - 0.4) <= 1e-12


def test_pmax_equal_states():
    assert max_probability(BELL, BELL) == 1.0


def test_pmax_rank_gap_is_zero():
    assert max_probability(from_schmidt([1.0], 2, 2), BELL) == 0.0


def test_pmax_matches_bisection_oracle():
    rng = np.random.default_rng(41)
    for _ in range(60):
        da, db = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        ra = rng.integers(1, min(da, db) + 1) if rng.random() < 0.4 else None
        rb = rng.integers(1, min(da, db) + 1) if rng.random() < 0.4 else None
        a = random_state(da, db, rng, rank=ra)
        b = random_state(da, db, rng, rank=rb)
        closed = max_probability(a, b)
        oracle = pmax_bisection_oracle(squared_spectrum(a), squared_spectrum(b))
        assert abs(closed - oracle) <= 1e-9


def test_pmax_is_sharp():
    # supermajorization holds at the returned p and fails just above it
    rng = np.random.default_rng(40)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        a = random_state(d, d, rng)
        b = random_state(d, d, rng)
        p = max_probability(a, b)
        sa, sb = squared_spectrum(a), squared_spectrum(b)
        assert majorize.compare(sa, p * sb, "super")
        if p < 1.0:
            assert not majorize.compare(sa, (p + 1e-6) * sb, "super")


def test_feasibility_deterministic_pair():
    rep = feasibility(BELL, SKEW)
    assert rep.deterministic_ok
    assert abs(rep.p_max - 1.0) <= 1e-10
    assert rep.rank_ok
    assert rep.super_maj_ok_at_p


def test_feasibility_probabilistic_pair():
    rep = feasibility(SKEW, BELL, p=0.4)
    assert not rep.deterministic_ok
    assert rep.super_maj_ok_at_p
    assert rep.pure_necessary_ok_at_p
    assert abs(rep.p_max - 0.4) <= 1e-12


def test_feasibility_rank_gap():
    rep = feasibility(from_schmidt([1.0], 2, 2), BELL)
    assert not rep.rank_ok
    assert rep.p_max == 0.0


def test_feasibility_super_monotone_in_p():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = random_state(4, 4, rng)
        b = random_state(4, 4, rng)
        flags = [feasibility(a, b, p).super_maj_ok_at_p for p in np.linspace(0.0, 1.0, 21)]
        # once infeasible, stays infeasible
        assert all(x or not y for x, y in zip(flags, flags[1:]))


def test_feasibility_invariants():
    rng = np.random.default_rng(43)
    for _ in range(60):
        da, db = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        ra = rng.integers(1, min(da, db) + 1) if rng.random() < 0.3 else None
        a = random_state(da, db, rng, rank=ra)
        b = random_state(da, db, rng)
        rep = feasibility(a, b)
        if rep.deterministic_ok:
            assert abs(rep.p_max - 1.0) <= 1e-10
        if rep.p_max > 0.0:
            assert rep.rank_ok


def test_feasibility_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        feasibility(BELL, from_schmidt([1.0], 3, 3))


def test_feasibility_bad_p():
    with pytest.raises(InvalidInputError):
        feasibility(BELL, SKEW, p=1.5)
    with pytest.raises(InvalidInputError):
        feasibility(BELL, SKEW, p="half")


# ---------------------------------------------------------------------------
# intermediate_vector
# ---------------------------------------------------------------------------

def test_intermediate_vector_canonical():
    v = intermediate_vector([0.8, 0.2], [0.5, 0.5], 0.4)
    assert np.allclose(v, [0.8, 0.2], atol=1e-12)


def test_intermediate_vector_deterministic_degenerates():
    b = np.array([0.6, 0.3, 0.1])
    v = intermediate_vector([0.4, 0.35, 0.25], b, 1.0)
    assert np.allclose(v, b, atol=1e-12)


def test_intermediate_vector_three_level():
    v = intermediate_vector([0.55, 0.25, 0.2], [0.5, 0.3, 0.2], 0.9)
    assert np.allclose(v, [0.55, 0.27, 0.18], atol=1e-12)


def test_intermediate_vector_postconditions():
    rng = np.random.default_rng(44)
    for _ in range(60):
        d = int(rng.integers(2, 8))
        a = random_spectrum(d, rng)
        b = random_spectrum(d, rng)
        p_max = max(
            0.0,
            min(
                (np.cumsum(a[::-1])[::-1][k] / np.cumsum(b[::-1])[::-1][k])
                for k in range(d)
            ),
        )
        p = rng.uniform(0.0, min(p_max, 1.0))
        v = intermediate_vector(a, b, p)
        assert abs(v.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(v) <= 1e-14)
        assert np.all(v - p * b >= -1e-14)
        assert majorize.compare(a, v, "maj")


def test_intermediate_vector_rejects_excess_p():
    with pytest.raises(InfeasibleError):
        intermediate_vector([0.8, 0.2], [0.5, 0.5], 0.5)


@pytest.mark.parametrize("bad", [-0.5, math.nan, 1.5, "half"])
def test_intermediate_vector_checks_its_request_as_synthesize_does(bad):
    a, b = [0.5, 0.3, 0.2], [0.6, 0.3, 0.1]
    with pytest.raises(InvalidInputError):
        intermediate_vector(a, b, bad)
    with pytest.raises(InvalidInputError):
        synthesize(from_schmidt(a, 3, 3), from_schmidt(b, 3, 3), bad)


def test_intermediate_vector_resolves_max_and_clamps_to_p_max():
    # A request up to FEAS_ATOL above p_max is accepted and clamped, as in
    # synthesize, so the vector still majorizes a and stage 1 can be built.
    rng = np.random.default_rng(3)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        a, b = random_spectrum(d, rng), random_spectrum(d, rng)
        p_max = synth._pmax_from_spectra(a, b)
        v = intermediate_vector(a, b, p_max)
        assert np.array_equal(intermediate_vector(a, b, "max"), v)
        if p_max + synth.FEAS_ATOL / 2 > 1.0:
            continue
        assert np.array_equal(intermediate_vector(a, b, p_max + synth.FEAS_ATOL / 2), v)
        deterministic_stage(from_schmidt(a, d, d), from_schmidt(v, d, d))


# ---------------------------------------------------------------------------
# uhlmann_decompose
# ---------------------------------------------------------------------------

def test_uhlmann_equal_operators():
    c = np.diag([0.7, 0.3])
    terms = uhlmann_decompose(c, c)
    assert len(terms) == 1
    w, u = terms[0]
    assert abs(w - 1.0) <= 1e-12
    assert np.linalg.norm(u @ c @ u.conj().T - c) <= 1e-12


def test_uhlmann_two_level_frozen():
    c = np.diag([0.5, 0.5])
    d = np.diag([0.8, 0.2])
    terms = uhlmann_decompose(c, d)
    assert len(terms) == 2
    assert np.allclose(sorted(w for w, _ in terms), [0.5, 0.5], atol=1e-12)
    rec = sum(w * u @ d @ u.conj().T for w, u in terms)
    assert opnorm(rec - c) <= 1e-12


def test_uhlmann_random_reconstruction():
    rng = np.random.default_rng(45)
    for _ in range(20):
        d = 5
        a, b = comparable_spectra(d, rng)
        uc, ud = random_unitary(d, rng), random_unitary(d, rng)
        cm = uc @ np.diag(a) @ uc.conj().T
        dm = ud @ np.diag(b) @ ud.conj().T
        terms = uhlmann_decompose(cm, dm)
        assert len(terms) <= (d - 1) ** 2 + 1
        rec = sum(w * u @ dm @ u.conj().T for w, u in terms)
        assert opnorm(rec - cm) <= 1e-9
        for _, u in terms:
            assert unitarity_defect(u) <= 1e-10


def test_uhlmann_rejects_incomparable():
    with pytest.raises(InfeasibleError):
        uhlmann_decompose(np.diag([0.9, 0.1]), np.diag([0.6, 0.4]))


# ---------------------------------------------------------------------------
# deterministic_stage
# ---------------------------------------------------------------------------

def test_deterministic_stage_self_is_trivial():
    rng = np.random.default_rng(46)
    a = random_state(3, 3, rng)
    outcomes, m0 = deterministic_stage(a, a)
    assert len(outcomes) == 1
    out = outcomes[0]
    assert abs(out.q - 1.0) <= 1e-12
    branch = out.M @ a.amp @ out.U.T
    assert opnorm(branch - a.amp) <= 1e-12
    assert opnorm(m0 @ a.amp) <= 1e-12


def test_deterministic_stage_bell_to_skew():
    outcomes, m0 = deterministic_stage(BELL, SKEW)
    assert len(outcomes) == 2
    assert np.allclose(sorted(o.q for o in outcomes), [0.5, 0.5], atol=1e-12)
    for out in outcomes:
        branch = out.M @ BELL.amp @ out.U.T
        assert opnorm(branch - np.sqrt(out.q) * SKEW.amp) <= 1e-9
    total = m0.conj().T @ m0 + sum(o.M.conj().T @ o.M for o in outcomes)
    assert opnorm(total - np.eye(2)) <= 1e-9


def test_deterministic_stage_random_completeness():
    rng = np.random.default_rng(47)
    for _ in range(20):
        a_spec, q_spec = comparable_spectra(4, rng)
        a = state_with_spectrum(a_spec, 4, 4, rng)
        q = state_with_spectrum(q_spec, 4, 4, rng)
        outcomes, m0 = deterministic_stage(a, q)
        total = m0.conj().T @ m0 + sum(o.M.conj().T @ o.M for o in outcomes)
        assert opnorm(total - np.eye(4)) <= 1e-9
        for out in outcomes:
            assert opnorm(out.M) <= 1.0 + 1e-10
            assert unitarity_defect(out.U) <= 1e-10
            branch = out.M @ a.amp @ out.U.T
            assert opnorm(branch - np.sqrt(out.q) * q.amp) <= 1e-9


def test_deterministic_stage_rejects_incomparable():
    with pytest.raises(InfeasibleError):
        deterministic_stage(SKEW, BELL)


# ---------------------------------------------------------------------------
# final_contraction
# ---------------------------------------------------------------------------

def test_final_contraction_identity_case():
    n, v, n_fail = final_contraction(SKEW, SKEW, 1.0)
    assert opnorm(n @ SKEW.amp @ v.T - SKEW.amp) <= 1e-12
    assert opnorm(n.conj().T @ n + n_fail.conj().T @ n_fail - np.eye(2)) <= 1e-12


def test_final_contraction_canonical():
    # success amplitudes sqrt(0.4 * 0.5 / 0.8) = 0.5 and sqrt(0.4 * 0.5 / 0.2) = 1
    n, v, n_fail = final_contraction(SKEW, BELL, 0.4)
    x_q = schmidt(SKEW).left_basis
    x_b = schmidt(BELL).left_basis
    in_schmidt = x_b.conj().T @ n @ x_q
    assert np.allclose(in_schmidt, np.diag([0.5, 1.0]), atol=1e-12)
    assert np.allclose(np.linalg.svd(n, compute_uv=False), [1.0, 0.5], atol=1e-12)
    out = n @ SKEW.amp @ v.T
    assert opnorm(out - np.sqrt(0.4) * BELL.amp) <= 1e-12
    assert abs(np.vdot(out, out).real - 0.4) <= 1e-12


def test_final_contraction_saturates_at_pmax():
    rng = np.random.default_rng(48)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        v_spec = random_spectrum(d, rng)
        b_spec = random_spectrum(d, rng)
        p = float(np.min(v_spec / b_spec))
        q = state_with_spectrum(v_spec, d, d, rng)
        b = state_with_spectrum(b_spec, d, d, rng)
        n, _, _ = final_contraction(q, b, p)
        assert abs(opnorm(n) - 1.0) <= 1e-9


def test_final_contraction_rejects_violated_bound():
    with pytest.raises(InfeasibleError):
        final_contraction(BELL, SKEW, 0.9)


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def test_synthesize_deterministic_bell_to_skew():
    proto = synthesize(BELL, SKEW, 1.0)
    assert proto.stage2 is None
    assert len(proto.outcomes) == 2
    assert abs(sum(o.q for o in proto.outcomes) - 1.0) <= 1e-10
    assert end_to_end_residual(proto, BELL, SKEW) <= 1e-9


def test_synthesize_probabilistic_canonical():
    proto = synthesize(SKEW, BELL, 0.4)
    assert proto.stage2 is not None
    assert len(proto.outcomes) == 1  # intermediate spectrum equals the source one
    x_b = schmidt(BELL).left_basis
    in_schmidt = x_b.conj().T @ proto.stage2.N @ x_b
    assert np.allclose(in_schmidt, np.diag([0.5, 1.0]), atol=1e-12)
    assert end_to_end_residual(proto, SKEW, BELL) <= 1e-9


def test_synthesize_identity():
    rng = np.random.default_rng(49)
    a = random_state(3, 3, rng)
    proto = synthesize(a, a)
    assert proto.stage2 is None
    assert len(proto.outcomes) == 1
    assert end_to_end_residual(proto, a, a) <= 1e-9


def test_synthesize_rejects_excess_p():
    with pytest.raises(InfeasibleError) as exc:
        synthesize(SKEW, BELL, 0.5)
    assert abs(exc.value.p_max - 0.4) <= 1e-12


def test_synthesize_total_probability_and_fidelity():
    rng = np.random.default_rng(50)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        a = random_state(d, d, rng)
        b = random_state(d, d, rng)
        p_max = max_probability(a, b)
        if p_max <= 0.0:
            continue
        for p in (p_max, p_max / 2):
            proto = synthesize(a, b, p)
            assert abs(sum(o.q for o in proto.outcomes) * p - p) <= 1e-9
            assert end_to_end_residual(proto, a, b) <= 1e-9


def test_synthesize_matches_feasibility():
    rng = np.random.default_rng(51)
    agree = 0
    for _ in range(200):
        da, db = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        ra = rng.integers(1, min(da, db) + 1) if rng.random() < 0.3 else None
        a = random_state(da, db, rng, rank=ra)
        b = random_state(da, db, rng)
        p = float(rng.uniform(0.0, 1.0))
        feasible = feasibility(a, b, p).super_maj_ok_at_p
        try:
            synthesize(a, b, p)
            built = True
        except InfeasibleError:
            built = False
        assert built == feasible
        agree += 1
    assert agree == 200


def test_synthesize_m0_branch_is_silent():
    rng = np.random.default_rng(52)
    a = random_state(4, 4, rng, rank=2)
    b = random_state(4, 4, rng, rank=2)
    p = max_probability(a, b)
    proto = synthesize(a, b, min(p, 0.5) if p > 0 else "max")
    weight = float(np.linalg.norm(proto.M0 @ a.amp) ** 2)
    assert weight <= 1e-18


def test_synthesize_outcome_count_bound():
    # Stage 1 mixes at most rank(A) permutations; no pruning pass runs
    # during synthesis.
    rng = np.random.default_rng(53)
    for i in range(90):
        d = int(rng.integers(2, 11))
        if i % 3 == 0:
            a_spec, b_spec = comparable_spectra(d, rng)
        elif i % 3 == 1:  # tied spectra, the target with zeros
            a_w = rng.integers(1, 3, d).astype(float)
            b_w = rng.integers(0, 3, d).astype(float)
            b_w[0] += 1.0
            a_spec = np.sort(a_w / a_w.sum())[::-1]
            b_spec = np.sort(b_w / b_w.sum())[::-1]
        else:  # rank-deficient source
            r = int(rng.integers(1, d))
            a_spec, b_spec = (
                np.concatenate([x, np.zeros(d - r)]) for x in comparable_spectra(r, rng)
            )
        a = state_with_spectrum(a_spec, d, d, rng)
        b = state_with_spectrum(b_spec, d, d, rng)
        proto = synthesize(a, b, "max")
        rank = schmidt_rank(a)
        assert len(proto.outcomes) <= (rank - 1) ** 2 + 1
        assert len(proto.outcomes) <= rank


def seeded_pairs(seed, count):
    """Square, rectangular and rank-deficient pairs; every third majorization-ordered."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        da, db = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        r = min(da, db)
        if i % 3 == 0:
            a_spec, b_spec = comparable_spectra(r, rng)
            yield tuple(state_with_spectrum(x, da, db, rng) for x in (a_spec, b_spec))
            continue
        ra = int(rng.integers(1, r + 1)) if rng.random() < 0.4 else None
        rb = int(rng.integers(1, r + 1)) if rng.random() < 0.4 else None
        yield random_state(da, db, rng, rank=ra), random_state(da, db, rng, rank=rb)


def test_synthesize_max_is_feasibility_pmax():
    for a, b in seeded_pairs(58, 150):
        assert synthesize(a, b, "max").p_total == feasibility(a, b).p_max


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of every ``numkit.svd`` call, under whichever module name it was imported."""
    calls, original = [], numkit.svd

    def counted_svd(m):
        calls.append(np.shape(m))
        return original(m)

    for mod in (numkit, bipartite, majorize, synth, simulate, cli):
        if vars(mod).get("svd") is original:
            monkeypatch.setattr(mod, "svd", counted_svd)
    return calls


def test_one_schmidt_decomposition_per_state(svd_calls):
    calls = svd_calls
    rng = np.random.default_rng(71)
    s = random_state(3, 5, rng)
    form = schmidt(s)
    assert schmidt(s) is form
    for value in (form.left_basis, form.coeffs, form.right_basis):
        assert not value.flags.writeable
    with pytest.raises(ValueError):
        form.coeffs[0] = 0.0
    assert squared_spectrum(s).tobytes() == (form.coeffs**2).tobytes()
    assert len(calls) == 1

    # A and B only, for stage 2 too: verify takes the flow balance from the
    # intermediate amplitudes, not from their decomposition.
    a_spec, b_spec = comparable_spectra(5, rng)
    pairs = [
        ((random_state(4, 6, rng), random_state(4, 6, rng)), False),
        ((state_with_spectrum(a_spec, 5, 5, rng), state_with_spectrum(b_spec, 5, 5, rng)), True),
    ]
    for (a, b), deterministic in pairs:
        calls.clear()
        report = feasibility(a, b)
        proto = synthesize(a, b, "max")
        assert verify(proto, a, b).passed
        assert (proto.stage2 is None) == deterministic
        assert proto.p_total == report.p_max
        assert len(calls) <= 2


def test_feasibility_rank_ok_matches_schmidt_rank():
    for a, b in seeded_pairs(60, 300):
        assert feasibility(a, b).rank_ok == (schmidt_rank(a) >= schmidt_rank(b))


def test_pmax_zero_iff_rank_gap():
    # p_max and rank_ok read one rank rule, so p_max is 0 exactly when
    # rank(A) < rank(B) (Vidal 1999), tiny Schmidt coefficients included.
    for a, b in itertools.chain(seeded_pairs(61, 300), reproducer_pairs()):
        report = feasibility(a, b)
        assert (report.p_max == 0.0) == (not report.rank_ok)


@pytest.mark.parametrize(
    "a_spec, b_spec, p_max",
    [
        # B has rank 3 through a coefficient of 1e-13, A has rank 2.
        ([0.5, 0.5, 0.0], [0.5, 0.5 - 1e-13, 1e-13], 0.0),
        # Both have rank 3; the last tail ratio 1.9e-16 / 2.4e-11 is the minimum.
        ([0.6, 0.4 - 1.9e-16, 1.9e-16], [0.7, 0.3 - 2.4e-11, 2.4e-11], 1.9e-16 / 2.4e-11),
    ],
    ids=["rank-gap", "tiny-tails"],
)
def test_pmax_on_tiny_schmidt_tails(a_spec, b_spec, p_max):
    a, b = from_schmidt(a_spec, 3, 3), from_schmidt(b_spec, 3, 3)
    report = feasibility(a, b)
    assert report.rank_ok == (p_max > 0.0)
    assert report.deterministic_ok is False
    assert report.p_max == pytest.approx(p_max, rel=1e-12, abs=0.0)
    proto = synthesize(a, b, "max")
    assert proto.p_total == report.p_max
    assert verify(proto, a, b).passed
    # At p = 0.5, far above p_max, the verdict and synthesize agree: both
    # refuse, although the tails differ by less than compare's SUM_TOL.
    assert feasibility(a, b, 0.5).super_maj_ok_at_p is False
    with pytest.raises(InfeasibleError):
        synthesize(a, b, 0.5)


def test_deterministic_ok_iff_one_stage():
    # deterministic_ok is p_max == 1, so it never contradicts p_max, and a
    # "max" protocol has a stage 2 exactly when it is False.
    for a, b in itertools.chain(seeded_pairs(62, 300), reproducer_pairs(100)):
        report = feasibility(a, b)
        assert report.deterministic_ok == (report.p_max == 1.0)
        assert report.deterministic_ok == (synthesize(a, b, "max").stage2 is None)


def _rectangular_protocol():
    rng = np.random.default_rng(71)
    a, b = comparable_spectra(3, rng)
    sa, sb = state_with_spectrum(a, 3, 5, rng), state_with_spectrum(b, 3, 5, rng)
    proto = synthesize(sa, sb, 0.5 * max_probability(sa, sb))
    assert proto.dims == (3, 5) and proto.stage2 is not None
    return proto


# Each breaks one rule of a (3, 5) protocol: an operator of the other
# party's size, a weight outside [0, 1] or NaN, dims of three sizes, or
# swapped dims that the framed stage-1 stacks do not fit.
_MALFORMED = {
    "M": lambda p: with_outcome0(p, M=np.eye(5)),
    "U": lambda p: with_outcome0(p, U=np.eye(3)),
    "M0": lambda p: dataclasses.replace(p, M0=np.eye(5)),
    "N": lambda p: with_stage2(p, N=np.eye(5)),
    "V": lambda p: with_stage2(p, V=np.eye(3)),
    "N_fail": lambda p: with_stage2(p, N_fail=np.eye(5)),
    "dims": lambda p: dataclasses.replace(p, dims=(3, 5, 1)),
    "dims=(5, 3)": lambda p: dataclasses.replace(p, dims=(5, 3)),
    **{f"q={w}": lambda p, w=w: with_outcome0(p, q=w) for w in (-0.1, 1.5, math.nan)},
    **{f"p={w}": lambda p, w=w: with_stage2(p, p=w) for w in (-0.1, 1.5, math.nan)},
}


def test_p_total_is_what_stage_two_delivers():
    proto = _rectangular_protocol()
    assert proto.p_total == proto.stage2.p
    assert with_stage2(proto, p=0.1).p_total == 0.1
    assert dataclasses.replace(proto, stage2=None).p_total == 1.0
    with pytest.raises(TypeError):
        dataclasses.replace(proto, p_total=0.9)


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_protocol_rejects_malformed_operators_and_weights(case):
    # LoccProtocol checks its shapes and weights when it is built, so a
    # mis-shaped operator raises InvalidInputError here instead of a bare
    # numpy ValueError inside verify or estimate.
    proto = _rectangular_protocol()
    with pytest.raises(InvalidInputError):
        _MALFORMED[case](proto)


def test_synthesize_operators_in_schmidt_frame():
    # Stage-1 M is a scaled permutation and U* a permutation between the
    # Schmidt bases, M0 the projector off the range of A, and stage-2
    # N is diagonal between the left Schmidt bases of Q (= those of B) and B.
    def pattern(t):
        return np.abs(t) > 1e-9 * max(1.0, float(np.max(np.abs(t))))

    for a, b in seeded_pairs(59, 150):
        p = max_probability(a, b)
        proto = synthesize(a, b, p / 2 if 0.0 < p < 1.0 else "max")
        fa, fb = schmidt(a), schmidt(b)
        for out in proto.outcomes:
            nonzero = pattern(fb.left_basis.conj().T @ out.M @ fa.left_basis)
            assert nonzero.sum(axis=0).max() <= 1 and nonzero.sum(axis=1).max() <= 1
            perm = fb.right_basis @ out.U.conj() @ fa.right_basis.conj().T
            ones = np.round(perm.real)
            assert np.max(np.abs(perm - ones)) <= 1e-10
            assert np.isin(ones, (0.0, 1.0)).all()
            assert (ones.sum(axis=0) == 1).all() and (ones.sum(axis=1) == 1).all()
        m0 = proto.M0
        assert np.max(np.abs(m0 - m0.conj().T)) <= 1e-14
        assert opnorm(m0 @ m0 - m0) <= 1e-12
        assert opnorm(m0 @ a.amp) <= 1e-12
        if proto.stage2 is not None:
            n_frame = fb.left_basis.conj().T @ proto.stage2.N @ fb.left_basis
            assert np.max(np.abs(n_frame - np.diag(np.diagonal(n_frame)))) <= 1e-12


def test_stage_one_stack_equals_per_outcome_loop():
    # Every M/U, a view of one stack, is bit for bit what the per-outcome
    # loop over the protocol's own frame gives.
    rng = np.random.default_rng(69)
    large = [(random_state(d, d + k, rng), random_state(d, d + k, rng))
             for d in (16, 24, 40) for k in (0, 3)]
    for a, b in itertools.chain(seeded_pairs(69, 100), reproducer_pairs(40), large):
        p = max_probability(a, b)
        proto = synthesize(a, b, p / 2 if 0.0 < p < 1.0 else "max")
        f = proto.outcomes.frame
        r = f.a.coeffs.size
        weights, _, s = synth._mixing_terms(f.a.coeffs**2, f.q.coeffs**2, f.a.right_basis.shape[0])
        inv_s = np.where(s > 0.0, 1.0 / np.sqrt(np.where(s > 0.0, s, 1.0)), 0.0)
        x_a_adj, y_q_adj = f.a.left_basis[:, :r].conj().T, f.q.right_basis.conj().T
        assert len(proto.outcomes) == len(weights) == len(f.scale)
        for out, w, pi, scale in zip(proto.outcomes, weights, f.perms, f.scale):
            assert np.array_equal(scale, np.sqrt(w) * f.q.coeffs[pi[:r]] * inv_s)
            m = (f.q.left_basis[:, pi[:r]] * scale) @ x_a_adj
            assert out.q == float(w)
            assert np.array_equal(out.M, m)
            assert np.array_equal(out.U, (y_q_adj[:, pi] @ f.a.right_basis).conj())


def test_synthesize_stage2_satisfies_pure_necessity():
    # the spectrum of the intermediate state weakly majorizes p times the
    # target spectrum, as any single-contraction protocol requires
    rng = np.random.default_rng(54)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        a = random_state(d, d, rng)
        b = random_state(d, d, rng)
        p = max_probability(a, b)
        if p <= 0.0 or p >= 1.0:
            continue
        proto = synthesize(a, b, p / 2)
        inter = sum(
            np.sqrt(o.q) * (o.M @ a.amp @ o.U.T) for o in proto.outcomes
        )
        spec_q = np.linalg.svd(inter, compute_uv=False) ** 2
        assert majorize.compare((p / 2) * squared_spectrum(b), spec_q, "sub")


# ---------------------------------------------------------------------------
# reduce_bob
# ---------------------------------------------------------------------------

def test_reduce_bob_identity_operator():
    n, u = reduce_bob(np.eye(2), BELL)
    assert opnorm(BELL.amp @ np.eye(2).T - n @ BELL.amp @ u.T) <= 1e-12


def test_reduce_bob_bell_phase_contraction():
    m = np.diag([1.0, 1.0j])
    n, u = reduce_bob(m, BELL)
    assert opnorm(BELL.amp @ m.T - n @ BELL.amp @ u.T) <= 1e-10
    assert unitarity_defect(u) <= 1e-10
    assert opnorm(n) <= 1.0 + 1e-9


def test_reduce_bob_random():
    rng = np.random.default_rng(55)
    for _ in range(40):
        d = 4
        psi = random_state(d, d, rng)
        m = random_contraction(d, rng)
        n, u = reduce_bob(m, psi)
        assert opnorm(psi.amp @ m.T - n @ psi.amp @ u.T) <= 1e-9
        assert opnorm(n) <= 1.0 + 1e-9
        assert unitarity_defect(u) <= 1e-10


def test_reduce_bob_real_diagonal_degenerate():
    rng = np.random.default_rng(56)
    psi = from_schmidt([0.4, 0.3, 0.3], 3, 3)
    m = np.real(random_contraction(3, rng))
    m = m / max(1.0, np.linalg.norm(m, 2))
    n, u = reduce_bob(m, psi)
    assert opnorm(psi.amp @ m.T - n @ psi.amp @ u.T) <= 1e-12


def test_reduce_bob_takes_one_svd_and_no_values_only_one(monkeypatch):
    # The contraction check takes ||m|| from a Gram matrix's eigenvalues, so
    # the one SVD left is the transposition unitary of m @ amp.T.
    calls, original = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return original(*args, **kwargs)

    # np.linalg.norm(m, 2) looks svd up in its own module, not in np.linalg.
    for mod in [m for name, m in sys.modules.items() if name.startswith("numpy.linalg")]:
        if vars(mod).get("svd") is original:
            monkeypatch.setattr(mod, "svd", counted)
    psi = random_state(4, 4, np.random.default_rng(74))
    schmidt(psi)
    calls.clear()
    reduce_bob(0.5 * np.eye(4), psi)
    assert calls == [True]


def test_reduce_bob_reads_the_cached_form(svd_calls):
    psi = random_state(4, 4, np.random.default_rng(73))
    schmidt(psi)
    svd_calls.clear()
    m = 0.5 * np.eye(4)
    n, u = reduce_bob(m, psi)
    assert len(svd_calls) == 1  # of m @ amp.T; amp's own form is cached
    assert opnorm(psi.amp @ m.T - n @ psi.amp @ u.T) <= 1e-12


def test_reduce_bob_any_shape():
    # Lo-Popescu holds for every shape: dA < dB pads Alice with zero rows and
    # dA > dB restricts her to her Schmidt support, both reducing to the square case.
    rng = np.random.default_rng(75)
    for da, db in itertools.product(range(1, 8), repeat=2):
        for rank in (None, int(rng.integers(1, min(da, db) + 1))):
            psi = random_state(da, db, rng, rank)
            m = random_contraction(db, rng)
            n, u = reduce_bob(m, psi)
            assert (n.shape, u.shape) == ((da, da), (db, db))
            assert opnorm(psi.amp @ m.T - n @ psi.amp @ u.T) <= 1e-12
            assert unitarity_defect(u) <= 1e-10
            assert opnorm(n) <= opnorm(m) + 1e-12


def test_reduce_bob_rejects_expansion():
    with pytest.raises(InvalidInputError):
        reduce_bob(2.0 * np.eye(2), BELL)


# ---------------------------------------------------------------------------
# substochastic_matrix
# ---------------------------------------------------------------------------

def test_substochastic_identity_protocol():
    s = substochastic_matrix(np.eye(2), BELL, BELL, 1.0)
    assert np.allclose(s, np.eye(2), atol=1e-12)


def test_substochastic_rejects_nan_probability():
    with pytest.raises(InvalidInputError):
        substochastic_matrix(np.eye(2), BELL, BELL, float("nan"))


def test_substochastic_canonical():
    proto = synthesize(SKEW, BELL, 0.4)
    s = substochastic_matrix(proto.stage2.N, SKEW, BELL, 0.4)
    assert np.allclose(s, np.diag([0.25, 1.0]), atol=1e-12)
    a_spec = squared_spectrum(SKEW)
    b_spec = squared_spectrum(BELL)
    balance = s.T @ a_spec - 0.4 * b_spec
    assert np.allclose(s.T @ a_spec, [0.2, 0.2], atol=1e-12)
    assert np.max(np.abs(balance)) <= 1e-12


def test_substochastic_random_protocols():
    rng = np.random.default_rng(57)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        a = random_state(d, d, rng)
        b = random_state(d, d, rng)
        p = max_probability(a, b)
        if p <= 0.0:
            continue
        p = p / 2 if p < 1.0 else 1.0
        proto = synthesize(a, b, p)
        if proto.stage2 is None:
            continue
        inter_amp = sum(np.sqrt(o.q) * (o.M @ a.amp @ o.U.T) for o in proto.outcomes)
        inter = BipartiteState(inter_amp / np.linalg.norm(inter_amp))
        s = substochastic_matrix(proto.stage2.N, inter, b, p)
        assert np.max(s.sum(axis=0)) <= 1.0 + 1e-10
        assert np.max(s.sum(axis=1)) <= 1.0 + 1e-10
        a_pad = np.zeros(d)
        b_pad = np.zeros(d)
        a_pad[:] = squared_spectrum(inter)
        b_pad[:] = squared_spectrum(b)
        assert np.max(np.abs(s.T @ a_pad - p * b_pad)) <= 1e-9


def test_substochastic_rejects_inconsistent_probability():
    with pytest.raises(InvalidInputError):
        substochastic_matrix(np.eye(2), SKEW, BELL, 0.9)
