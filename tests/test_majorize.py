import itertools
import sys

import numpy as np
import pytest

from locc_forge import majorize
from locc_forge.errors import InfeasibleError, InvalidInputError, NumericalDegeneracyError
from locc_forge.majorize import (
    BirkhoffDecomposition,
    _permutation_terms,
    birkhoff,
    bistochastic_link,
    caratheodory_prune,
    compare,
)

from locc_forge.synth import synthesize

from helpers import comparable_spectra, random_bistochastic, reproducer_pairs


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_uniform_is_majorized_by_everything():
    assert compare([0.5, 0.5], [0.8, 0.2], "maj")


def test_majorization_reflexive():
    x = [0.4, 0.3, 0.3]
    assert compare(x, x, "maj")


def test_super_scaled_threshold():
    # a = (0.8, 0.2) tail-dominates p*(0.5, 0.5) exactly up to p = 0.4: the
    # k = 2 tail gives 0.2 >= 0.5 p.
    a = np.array([0.8, 0.2])
    b = np.array([0.5, 0.5])
    assert compare(a, 0.4 * b, "super")
    assert not compare(a, 0.41 * b, "super")


def test_super_fails_for_rank_gap():
    # A pure (1, 0) spectrum cannot tail-dominate any scaled full-rank one.
    assert not compare([1.0, 0.0], [0.05, 0.05], "super")
    assert compare([1.0, 0.0], [0.0, 0.0], "super")


def test_sub_relation():
    assert compare([0.4, 0.1], [0.8, 0.2], "sub")
    assert not compare([0.9, 0.2], [0.8, 0.2], "sub")


def test_zero_padding():
    assert compare([0.5, 0.5], [1.0], "maj")
    assert compare([1.0], [1.0, 0.0], "maj")


def test_maj_implies_sub_and_super():
    rng = np.random.default_rng(21)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        a, b = comparable_spectra(d, rng)
        assert compare(a, b, "maj")
        assert compare(a, b, "sub")
        assert compare(a, b, "super")


def test_negative_entries_rejected():
    with pytest.raises(InvalidInputError):
        compare([-0.2, 1.2], [0.5, 0.5], "maj")


def test_unknown_relation_rejected():
    with pytest.raises(InvalidInputError):
        compare([1.0], [1.0], "weird")


# ---------------------------------------------------------------------------
# bistochastic_link
# ---------------------------------------------------------------------------

def test_link_equal_vectors_is_identity():
    d = bistochastic_link([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
    assert np.allclose(d, np.eye(3), atol=1e-14)


def test_link_single_t_transform():
    d = bistochastic_link([0.5, 0.5], [1.0, 0.0])
    assert np.allclose(d, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_link_three_dim_postconditions():
    a = np.array([0.5, 0.3, 0.2])
    q = np.array([0.6, 0.3, 0.1])
    d = bistochastic_link(a, q)
    assert np.allclose(d @ q, a, atol=1e-10)
    assert np.allclose(d.sum(axis=0), 1.0, atol=1e-10)
    assert np.allclose(d.sum(axis=1), 1.0, atol=1e-10)
    assert np.min(d) >= -1e-12


def test_link_requires_majorization():
    with pytest.raises(InfeasibleError):
        bistochastic_link([0.9, 0.1], [0.6, 0.4])


def test_link_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        a, q = comparable_spectra(d, rng)
        mat = bistochastic_link(a, q)
        assert np.allclose(mat @ q, a, atol=1e-10)
        assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-10)
        assert np.min(mat) >= -1e-12


# ---------------------------------------------------------------------------
# birkhoff
# ---------------------------------------------------------------------------

def test_birkhoff_identity():
    dec = birkhoff(np.eye(3))
    assert len(dec.terms) == 1
    w, perm = dec.terms[0]
    assert abs(w - 1.0) <= 1e-12
    assert perm == (0, 1, 2)


def test_birkhoff_two_by_two():
    dec = birkhoff(np.array([[0.5, 0.5], [0.5, 0.5]]))
    got = {perm: w for w, perm in dec.terms}
    assert set(got) == {(0, 1), (1, 0)}
    assert abs(got[(0, 1)] - 0.5) <= 1e-12
    assert abs(got[(1, 0)] - 0.5) <= 1e-12


def test_birkhoff_random_reconstruction():
    rng = np.random.default_rng(24)
    for _ in range(30):
        mat = random_bistochastic(4, rng, terms=6)
        dec = birkhoff(mat, tol=1e-12)
        assert np.abs(dec.reconstruct() - mat).max() <= 1e-9
        assert abs(dec.weights.sum() - 1.0) <= 1e-12
        assert np.all(dec.weights > 1e-12)


def test_birkhoff_degeneracy_error_when_tol_too_coarse():
    # With tol above every entry no perfect matching exists on the support.
    with pytest.raises(NumericalDegeneracyError):
        birkhoff(np.array([[0.5, 0.5], [0.5, 0.5]]), tol=0.6)


def test_birkhoff_rejects_non_bistochastic():
    with pytest.raises(InvalidInputError):
        birkhoff(np.array([[0.9, 0.0], [0.0, 0.9]]))


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[0.5, np.nan], [0.5, 0.5]]),
        np.array([[np.inf, 0.5], [0.5, 0.5]]),
        np.array([[-np.inf, 0.5], [0.5, 0.5]]),
        np.array([[complex(0.5, np.nan), 0.5], [0.5, 0.5]]),
        np.zeros((0, 0)),
    ],
    ids=["nan", "inf", "-inf", "nan-imag", "0x0"],
)
def test_birkhoff_rejects_non_finite_and_empty(matrix):
    with pytest.raises(InvalidInputError):
        birkhoff(matrix)


def test_birkhoff_deep_augmenting_path():
    # Row d-1 can only take column 0 by shifting every other row one column
    # right: a single augmenting path through all d rows.
    d = 1500
    mat = 0.5 * (np.eye(d) + np.roll(np.eye(d), 1, axis=1))
    dec = birkhoff(mat)
    assert len(dec.terms) == 2
    assert all(w == 0.5 for w, _ in dec.terms)
    assert np.abs(dec.reconstruct() - mat).max() <= 1e-12


def _reference_matching(mask):
    """Recursive augmenting-path matching on a boolean mask, searched from scratch."""
    d = mask.shape[0]
    col_owner = [-1] * d

    def augment(row, seen):
        for col in range(d):
            if mask[row, col] and not seen[col]:
                seen[col] = True
                if col_owner[col] < 0 or augment(col_owner[col], seen):
                    col_owner[col] = row
                    return True
        return False

    for row in range(d):
        if not augment(row, [False] * d):
            return None
    perm = [-1] * d
    for col, row in enumerate(col_owner):
        perm[row] = col
    return perm


def _reference_terms(m, tol):
    """Greedy extraction rebuilding the ``remaining > tol`` mask every round."""
    d = m.shape[0]
    remaining = np.clip(m, 0.0, None)
    collected = {}
    total = 0.0
    for _ in range(d * d + 1):
        if 1.0 - total <= d * tol or np.max(remaining) <= tol:
            break
        perm = _reference_matching(remaining > tol)
        w = float(np.min(remaining[np.arange(d), perm]))
        key = tuple(perm)
        collected[key] = collected.get(key, 0.0) + w
        remaining[np.arange(d), perm] -= w
        np.clip(remaining, 0.0, None, out=remaining)
        total += w
    return tuple((w / total, perm) for perm, w in collected.items())


def _link_spectrum(kind, d, rng):
    """Sorted spectra ``(a, q)`` with ``a < q``; ``kind`` picks the family of q."""
    if kind == "dense":
        q = rng.dirichlet(np.ones(d))
    elif kind == "sparse":
        q = rng.dirichlet(0.1 * np.ones(d))
    elif kind == "tied":
        q = rng.integers(1, 4, d).astype(float)
    else:  # rank-dropping: zeros below a random rank
        r = int(rng.integers(1, d + 1))
        q = np.concatenate([rng.dirichlet(np.ones(r)), np.zeros(d - r)])
    q = np.sort(q / q.sum())[::-1]
    if kind == "tied":
        a = 0.5 * (q + q[rng.permutation(d)])
    else:
        a = sum(w * q[rng.permutation(d)] for w in rng.dirichlet(np.ones(3)))
    return np.sort(a)[::-1], q


@pytest.mark.parametrize("kind", ["dense", "sparse", "tied", "rank-drop"])
def test_birkhoff_terms_equal_from_scratch_reference(kind):
    rng = np.random.default_rng({"dense": 31, "sparse": 32, "tied": 33, "rank-drop": 34}[kind])
    for d in (2, 3, 4, 5, 6, 8, 11, 16, 23, 32, 48):
        a, q = _link_spectrum(kind, d, rng)
        link = bistochastic_link(a, q)
        assert birkhoff(link, tol=1e-12).terms == _reference_terms(link, 1e-12)


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_birkhoff_terms_equal_reference_on_random_bistochastic(tol):
    rng = np.random.default_rng(35)
    for d in (2, 3, 5, 8, 13, 21):
        mat = random_bistochastic(d, rng)
        assert birkhoff(mat, tol=tol).terms == _reference_terms(mat, tol)


# ---------------------------------------------------------------------------
# _permutation_terms
# ---------------------------------------------------------------------------

def test_permutation_terms_at_most_n():
    # Rado + Caratheodory: a < q is a mix of at most n permutations of q.
    rng = np.random.default_rng(22)
    for kind in ("dense", "sparse", "tied", "rank-drop"):
        for d in range(1, 49):
            a, q = _link_spectrum(kind, d, rng)
            weights, perms = _permutation_terms(a, q)
            assert len(weights) == len(perms) <= d, (kind, d)
            assert np.all(weights > 0.0)
            assert abs(weights.sum() - 1.0) <= 1e-12
            assert all(sorted(perm.tolist()) == list(range(d)) for perm in perms)
            assert np.abs(weights @ q[perms] - a).max() <= 1e-12, (kind, d)


def _merge_halves(w_l, p_l, w_r, p_r, order, k, t):
    """Terms of a pair split by ``_split`` from the terms of its two halves.

    The halves' terms are merged by cumulative weight, the permutations are
    mapped back through ``order``, and for ``t > 1`` the vertex ``q`` (the
    identity) joins with weight ``1 - 1/t``.
    """
    n = len(order)
    cuts_l, cuts_r = np.cumsum(w_l)[:-1], np.cumsum(w_r)[:-1]
    edges = np.concatenate(([0.0], np.sort(np.concatenate((cuts_l, cuts_r))), [1.0]))
    live = np.diff(edges) > 0.0
    starts = edges[:-1][live]
    perms = np.empty((starts.size, n), dtype=np.intp)
    perms[:, order] = np.hstack((
        p_l[np.searchsorted(cuts_l, starts, "right")],
        k + p_r[np.searchsorted(cuts_r, starts, "right")],
    ))
    weights = np.diff(edges)[live] / t
    if t > 1.0:
        return np.append(1.0 - 1.0 / t, weights), np.vstack((np.arange(n), perms))
    return weights, perms


def _reference_split(a, q):
    """``majorize._split`` written out separately, each head sum a fresh
    ``np.cumsum``: the reference for the bit-for-bit test."""
    n = len(a)
    head_q = np.cumsum(q)
    gap = np.cumsum(a) - head_q
    slack = abs(gap[-1]) + n * np.finfo(float).eps * head_q[-1]
    k = int(np.argmax(gap[:-1])) + 1
    if gap[k - 1] >= -slack:
        return a, np.arange(n), k, 1.0
    step = a - q
    t = (q[0] - q[-1]) / step[-1]
    while True:
        x = q + t * step
        order = np.argsort(-x, kind="stable")
        k = int(np.argmax(np.cumsum(x[order])[:-1] - head_q[:-1])) + 1
        t_next = (head_q[k - 1] - q[order[:k]].sum()) / step[order[:k]].sum()
        if not 1.0 < t_next < t:
            break
        t = t_next
    return x[order], order, k, t


def _reference_permutation_terms(a, q):
    """``majorize._permutation_terms`` on ``_reference_split``: the same stack
    of pending pairs and the same sweep over the breakpoints."""
    n = len(a)
    pending = [(a, q, np.arange(n), 0, 0.0, 1.0)]
    breaks, moves = [], []
    while pending:
        a, q, roots, off, g0, span = pending.pop()
        if len(a) == 1:
            continue
        x, order, k, t = _reference_split(a, q)
        b = g0 + span * (1.0 - 1.0 / t)
        roots = roots[order]
        breaks.append(b)
        moves.append((roots, np.arange(off, off + len(a))))
        span /= t
        pending += [
            (x[k:], q[k:], roots[k:], off + k, b, span),
            (x[:k], q[:k], roots[:k], off, b, span),
        ]
    sweep = np.argsort(breaks, kind="stable")
    gaps = np.diff(np.concatenate(([0.0], np.sort(breaks), [1.0])))
    perms = np.empty((len(breaks) + 1, n), dtype=np.intp)
    perms[0] = perm = np.arange(n)
    for row, i in enumerate(sweep, 1):
        roots, target = moves[i]
        perm[roots] = target
        perms[row] = perm
    live = gaps > 0.0
    return gaps[live], perms[live]


def _recursive_terms(a, q):
    """Reference: the same splits, recursed, with the halves' terms merged
    by cumulative weight at every split."""
    if len(a) == 1:
        return np.ones(1), np.zeros((1, 1), dtype=np.intp)
    x, order, k, t = _reference_split(a, q)
    left, right = _recursive_terms(x[:k], q[:k]), _recursive_terms(x[k:], q[k:])
    return _merge_halves(*left, *right, order, k, t)


def _tied_chain(d, rng):
    """Tied spectra whose splits are mostly chains of ``t == 1`` splits:
    ``q`` takes integer weights, and ``a`` averages consecutive pairs of
    ``q``, so every prefix of even length is tight."""
    q = np.sort(rng.integers(1, 4, d).astype(float))[::-1]
    q /= q.sum()
    a = q.copy()
    for start in range(0, d, 2):
        a[start:start + 2] = a[start:start + 2].mean()
    return np.sort(a)[::-1], q


def _assert_terms_match(got, ref, label):
    # The same permutations, with weights within 1e-15; a permutation found
    # by one side only must carry no more than 1e-15.
    (weights, perms), (ref_weights, ref_perms) = got, ref
    assert np.all(weights > 0.0), label
    found = {tuple(p): w for w, p in zip(weights.tolist(), perms.tolist())}
    expected = {tuple(p): w for w, p in zip(ref_weights.tolist(), ref_perms.tolist())}
    assert len(found) == len(weights) and len(expected) == len(ref_weights), label
    for perm in found.keys() | expected.keys():
        assert abs(found.get(perm, 0.0) - expected.get(perm, 0.0)) <= 1e-15, (label, perm)


def test_permutation_terms_match_merged_reference():
    rng = np.random.default_rng(23)
    for kind in ("dense", "sparse", "tied", "rank-drop"):
        for d in range(1, 33):
            a, q = _link_spectrum(kind, d, rng)
            _assert_terms_match(_permutation_terms(a, q), _recursive_terms(a, q), (kind, d))


def test_permutation_terms_match_merged_reference_on_tied_chains():
    rng = np.random.default_rng(24)
    for d in range(2, 33):
        a, q = _tied_chain(d, rng)
        terms = _permutation_terms(a, q)
        _assert_terms_match(terms, _recursive_terms(a, q), d)
        assert np.abs(terms[0] @ q[terms[1]] - a).max() <= 1e-15, d


def test_permutation_terms_equal_fresh_sum_reference_bit_for_bit(monkeypatch):
    # The decomposition equals, bit for bit, a separate transcription of the
    # same splits and sweep, so a rewrite of either moves no bit of any
    # stage-1 operator.  Same families and seeds as the merged-reference
    # tests, and every pair that synthesize(A, B, "max") decomposes on the
    # reproducer.
    rng, chains = np.random.default_rng(23), np.random.default_rng(24)
    cases = [_link_spectrum(kind, d, rng)
             for kind in ("dense", "sparse", "tied", "rank-drop") for d in range(1, 33)]
    cases += [_tied_chain(d, chains) for d in range(2, 33)]
    original = majorize._permutation_terms
    monkeypatch.setattr(majorize, "_permutation_terms",
                        lambda a, q: cases.append((a, q)) or original(a, q))
    for sa, sb in reproducer_pairs():
        synthesize(sa, sb, "max")
    monkeypatch.undo()
    assert len(cases) > 500
    for i, (a, q) in enumerate(cases):
        weights, perms = _permutation_terms(a, q)
        ref_weights, ref_perms = _reference_permutation_terms(a, q)
        assert np.array_equal(weights, ref_weights), i
        assert np.array_equal(perms, ref_perms), i


def test_permutation_terms_equal_vectors_one_term():
    for q in ([1.0], [0.5, 0.3, 0.2], [0.4, 0.2, 0.2, 0.2, 0.0]):
        weights, perms = _permutation_terms(np.array(q), np.array(q))
        assert weights.tolist() == [1.0]
        assert perms.tolist() == [list(range(len(q)))]


def test_permutation_terms_need_no_recursion():
    # Splitting the uniform vector off e_1 takes n - 1 nested splits; they
    # run from an explicit stack, so a recursion limit far below n is enough.
    n = 300
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        link = bistochastic_link(np.full(n, 1.0 / n), np.eye(n)[0])
    finally:
        sys.setrecursionlimit(limit)
    assert np.abs(link[:, 0] - 1.0 / n).max() <= 1e-12
    assert np.abs(link.sum(axis=0) - 1.0).max() <= 1e-12
    assert np.abs(link.sum(axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# caratheodory_prune
# ---------------------------------------------------------------------------

def test_prune_noop_under_bound():
    dec = birkhoff(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert caratheodory_prune(dec, 2) is dec


def test_prune_single_term_noop():
    dec = BirkhoffDecomposition(terms=((1.0, (0, 1, 2)),), d=3)
    assert caratheodory_prune(dec, 3) is dec


def test_prune_fourteen_terms_4x4():
    # 14 of the 24 permutations exceed the bound (d-1)**2 + 1 = 10, so the
    # pruning loop runs on a partial support.
    rng = np.random.default_rng(25)
    weights = rng.dirichlet(np.ones(14))
    perms = []
    seen = set()
    while len(perms) < 14:
        p = tuple(int(i) for i in rng.permutation(4))
        if p not in seen:
            seen.add(p)
            perms.append(p)
    dec = BirkhoffDecomposition(terms=tuple(zip(map(float, weights), perms)), d=4)
    target = dec.reconstruct()
    pruned = caratheodory_prune(dec, 4)
    assert len(pruned.terms) <= 10 < len(dec.terms)
    assert np.abs(pruned.reconstruct() - target).max() <= 1e-9
    assert abs(pruned.weights.sum() - 1.0) <= 1e-12
    assert np.all(pruned.weights >= 0.0)


@pytest.mark.parametrize("d", [3, 4])
def test_prune_every_permutation(d):
    # All d! permutations exceed the bound (d-1)**2 + 1, so the pruning loop runs.
    rng = np.random.default_rng(27 + d)
    perms = list(itertools.permutations(range(d)))
    weights = map(float, rng.dirichlet(np.ones(len(perms))))
    dec = BirkhoffDecomposition(terms=tuple(zip(weights, perms)), d=d)
    pruned = caratheodory_prune(dec, d)
    assert len(pruned.terms) <= (d - 1) ** 2 + 1 < len(perms)
    assert np.all(pruned.weights > 0.0)
    assert abs(pruned.weights.sum() - 1.0) <= 1e-12
    assert np.abs(pruned.reconstruct() - dec.reconstruct()).max() <= 1e-12


def test_link_decompose_prune_pipeline():
    rng = np.random.default_rng(26)
    for _ in range(60):
        d = int(rng.integers(2, 9))
        a, q = comparable_spectra(d, rng)
        dec = caratheodory_prune(birkhoff(bistochastic_link(a, q), tol=1e-12), d)
        assert len(dec.terms) <= (d - 1) ** 2 + 1
        rebuilt = dec.reconstruct() @ q
        assert np.abs(rebuilt - a).max() <= 1e-9
