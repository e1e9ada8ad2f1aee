"""Majorization predicates and the constructive Birkhoff machinery.

Vectors here are entanglement spectra: non-negative weights, compared after
zero-padding to a common length and sorting (``_sorted_pair``). The
constructive half writes ``a < q`` as a mix of at most ``d`` permutations of
``q``, which is all synthesis needs: the pair is split in halves down to
single entries, each split taking its own head sums, and one sweep over the
splits' breakpoints on the weight axis reads off the permutations and their
weights. The bistochastic matrix of that mix, greedy Birkhoff extraction
over perfect matchings and pruning to the Caratheodory bound
``(d-1)**2 + 1`` remain as matrix-level reference tools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InvalidInputError, NumericalDegeneracyError

#: Absolute tolerance on partial sums in majorization comparisons.
SUM_TOL = 1e-10
#: How far below zero a "non-negative" spectrum entry may sit.
NEG_TOL = 1e-10
_EPS = np.finfo(float).eps

_RELATIONS = ("maj", "sub", "super")


def _clean_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).ravel()
    if v.size == 0:
        raise InvalidInputError("empty spectrum vector")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("spectrum vector contains non-finite entries")
    if np.min(v) < -NEG_TOL:
        raise InvalidInputError(f"negative spectrum entry {np.min(v)} beyond tolerance")
    return np.clip(v, 0.0, None)


def _sorted_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Both spectra cleaned, right-padded with zeros to one length and sorted non-increasing."""
    xv, yv = _clean_vector(x), _clean_vector(y)
    d = max(len(xv), len(yv))
    return tuple(np.sort(np.concatenate([v, np.zeros(d - len(v))]))[::-1] for v in (xv, yv))


def compare(x, y, relation: str, tol: float = SUM_TOL) -> bool:
    """Majorization predicate on two non-negative vectors.

    relation:
        ``"maj"``    x < y: head sums of the decreasing sorts obey
                     sum_{i<=k} x <= sum_{i<=k} y for every k, and the totals
                     agree within ``tol``.
        ``"sub"``    x <_w y: head-sum inequalities only.
        ``"super"``  x <^w y: tail sums of the decreasing sorts obey
                     sum_{i>=k} x >= sum_{i>=k} y for every k (equivalently
                     head sums of the increasing sorts dominate).

    Vectors of unequal length are right-padded with zeros first.
    """
    if relation not in _RELATIONS:
        raise InvalidInputError(f"unknown relation {relation!r}, expected one of {_RELATIONS}")
    xs, ys = _sorted_pair(x, y)
    hx = np.cumsum(xs)
    hy = np.cumsum(ys)
    if relation == "sub":
        return bool(np.all(hx <= hy + tol))
    if relation == "maj":
        return bool(np.all(hx <= hy + tol) and abs(hx[-1] - hy[-1]) <= tol)
    # super: tails of x dominate tails of y
    tx = hx[-1] - np.concatenate(([0.0], hx[:-1]))
    ty = hy[-1] - np.concatenate(([0.0], hy[:-1]))
    return bool(np.all(tx >= ty - tol))


def _permutation_terms(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights ``w`` and permutations ``perms`` (rows) with ``w @ q[perms] == a``.

    ``a`` and ``q`` are sorted non-increasing with ``a < q``, so ``a`` lies in
    the permutahedron of ``q`` (Rado) and at most ``n`` terms are needed.
    Each pair is split in two (``_split``), down to single entries; the
    splits run from an explicit stack of pending pairs, left half first, so
    no call nests deeper than this one, whatever ``n``.

    The terms are read off the split tree on one weight axis ``[0, 1)``.
    The root owns all of it; a node owning ``[g0, g0 + span)`` splits at
    ``b = g0 + span (1 - 1/t)``.  Before ``b`` its coordinates take its own
    vertex (the identity on its slice of ``q``), and from ``b`` on its two
    halves take over, each owning ``[b, b + span/t)``, which ends where the
    node's interval ends.  One sweep over the sorted breakpoints, a parent
    before its child on a tie, moves only the switching node's coordinates,
    and the gaps between consecutive distinct breakpoints, closed at 1, are
    the weights; a gap that rounding leaves at or below 0 is dropped.
    """
    n = len(a)
    pending = [(a, q, np.arange(n), 0, 0.0, 1.0)]  # pair, root coords, offset, g0, span
    breaks: list[float] = []  # in the order split, so a parent precedes its children
    moves: list[tuple[np.ndarray, np.ndarray]] = []  # root coords and the q indices they take
    while pending:
        a, q, roots, off, g0, span = pending.pop()
        if len(a) == 1:
            continue
        x, order, k, t = _split(a, q)
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


def _split(a: np.ndarray, q: np.ndarray) -> tuple:
    """Split of a pair ``a < q`` (``n >= 2``) into two halves at ``k``.

    A tight interior prefix splits the pair as it is (``t = 1``).  Otherwise
    the ray from the vertex ``q`` through ``a`` leaves the permutahedron at
    ``x = q + t (a - q)``, on the first face where a top-``k`` sum of ``x``
    reaches ``sum(q[:k])``; Newton (Dinkelbach) steps on those sums find
    ``t``, so ``a = x / t + (1 - 1/t) q``.  The head sums are the pair's own
    ``cumsum``s.  Returns ``x`` sorted by ``order`` (``a`` itself when ``t = 1``),
    ``order``, ``k`` and ``t``.
    """
    n = len(a)
    head_q, head_x = q.cumsum(), a.cumsum()
    gap = head_x - head_q
    # A prefix within the totals' mismatch (plus roundoff) of tight counts as
    # tight; otherwise a[-1] > q[-1], so the walk below has step[-1] > 0.
    slack = abs(gap[-1]) + n * _EPS * head_q[-1]
    k = int(gap[:-1].argmax()) + 1
    if gap[k - 1] >= -slack:
        return a, np.arange(n), k, 1.0
    step = a - q
    t = (q[0] - q[-1]) / step[-1]  # where the last entry of x reaches q[0]
    while True:
        x = q + t * step
        order = (-x).argsort(kind="stable")
        x = x[order]
        head_x = x.cumsum()
        k = int((head_x[:-1] - head_q[:-1]).argmax()) + 1
        t_next = (head_q[k - 1] - q[order[:k]].sum()) / step[order[:k]].sum()
        if not 1.0 < t_next < t:
            break
        t = t_next
    return x, order, k, t


def bistochastic_link(a, q) -> np.ndarray:
    """Bistochastic matrix ``D`` with ``D @ sort_desc(q) == sort_desc(a)``.

    Requires ``a < q`` (checked with :func:`compare`); raises
    :class:`InfeasibleError` otherwise.  ``D`` is the convex combination of
    at most ``d`` permutation matrices found by :func:`_permutation_terms`.
    """
    av, qv = _sorted_pair(a, q)
    if not compare(av, qv, "maj"):
        raise InfeasibleError("vectors are not majorization-comparable (need a < q)")
    terms = zip(*_permutation_terms(av, qv))
    return BirkhoffDecomposition(tuple(terms), len(av)).reconstruct()


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Convex combination of permutation matrices.

    Each term is ``(weight, perm)`` where ``perm[i]`` is the column holding
    the single 1 of row ``i``, so the reconstructed matrix is
    ``sum(w * permutation_matrix(perm))`` and acts on vectors as
    ``(P x)[i] == x[perm[i]]``.
    """

    terms: tuple[tuple[float, tuple[int, ...]], ...]
    d: int

    @staticmethod
    def permutation_matrix(perm) -> np.ndarray:
        p = np.zeros((len(perm), len(perm)))
        p[np.arange(len(perm)), list(perm)] = 1.0
        return p

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.terms])

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.d, self.d))
        for w, perm in self.terms:
            out[np.arange(self.d), list(perm)] += w
        return out


def _perfect_matching(rows: list[int]) -> list[int] | None:
    """Perfect matching on the bipartite graph with row supports ``rows``.

    ``rows[i]`` is a bitset whose bit ``c`` is set iff row ``i`` may take
    column ``c``.  Kuhn's augmenting-path search: rows are matched in order
    0..d-1, and the depth-first search from each one tries a row's unseen
    columns in ascending order (the lowest set bit of ``rows[row] & ~seen``).
    The search path lives on an explicit stack, so paths as long as ``d``
    need no recursion.  Returns ``perm`` with ``perm[i]`` the column matched
    to row ``i``, or None if no perfect matching exists.
    """
    d = len(rows)
    col_owner = [-1] * d
    for root in range(d):
        seen = 0
        row = root
        path: list[tuple[int, int]] = []  # (row, column) edges from the root
        while True:
            free = rows[row] & ~seen
            if not free:
                # Dead end: back up to the previous row and try its next column.
                if not path:
                    return None
                row = path.pop()[0]
                continue
            bit = free & -free
            seen |= bit
            col = bit.bit_length() - 1
            path.append((row, col))
            owner = col_owner[col]
            if owner < 0:
                # Augment: every row on the path takes the column it picked.
                for r, c in path:
                    col_owner[c] = r
                break
            row = owner
    perm = [-1] * d
    for col, row in enumerate(col_owner):
        perm[row] = col
    return perm


def birkhoff(d_matrix, tol: float = 1e-12) -> BirkhoffDecomposition:
    """Greedy Birkhoff-von Neumann decomposition of a bistochastic matrix.

    Repeatedly finds a perfect matching on the entries above ``tol``,
    subtracts the minimal matched entry times that permutation (zeroing at
    least one entry per round) and stops once the remaining mass per row is
    negligible.  Weights are renormalized to sum to one exactly.

    The support is kept as one bitset per row; a round updates only the
    ``d`` matched entries and clears the bits of those that fell to ``tol``
    or below, so the bits always equal ``remaining > tol``.  Each round's
    matching is searched from scratch, never warm-started from the previous
    round, so the permutations, their order and their weights are exactly
    those of a search on a freshly built ``remaining > tol`` mask.

    Raises :class:`InvalidInputError` for an empty, non-square, complex,
    non-finite, negative or non-bistochastic input, and
    :class:`NumericalDegeneracyError` when no perfect matching exists on the
    positive support, which signals that ``tol`` is too small for the
    input's noise level.
    """
    m = np.asarray(d_matrix)
    if m.size == 0:
        raise InvalidInputError("bistochastic matrix is empty")
    if np.iscomplexobj(m):
        if not np.all(np.abs(m.imag) <= 1e-10):
            raise InvalidInputError("bistochastic matrix must be real")
        m = m.real
    m = m.astype(float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError("bistochastic matrix must be square")
    d = m.shape[0]
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("bistochastic matrix has non-finite entries")
    if np.min(m) < -max(tol, NEG_TOL):
        raise InvalidInputError("bistochastic matrix has negative entries")
    sums = np.concatenate([m.sum(axis=0), m.sum(axis=1)])
    if np.max(np.abs(sums - 1.0)) > 1e-7:
        raise InvalidInputError("row/column sums differ from 1 beyond tolerance")

    remaining = np.clip(m, 0.0, None)
    # Row supports as bitsets: bit c of rows[i] is set iff remaining[i, c] > tol.
    packed = np.packbits(remaining > tol, axis=1, bitorder="little")
    rows = [int.from_bytes(r.tobytes(), "little") for r in packed]
    ar = np.arange(d)
    collected: dict[tuple[int, ...], float] = {}
    total = 0.0
    for _ in range(d * d + 1):
        # Every bitset is 0 exactly when no entry of ``remaining`` exceeds tol.
        if 1.0 - total <= d * tol or not any(rows):
            break
        perm = _perfect_matching(rows)
        if perm is None:
            raise NumericalDegeneracyError(
                "no perfect matching on the positive support; tol is too small"
            )
        vals = remaining[ar, perm]
        w = float(np.min(vals))
        key = tuple(perm)
        collected[key] = collected.get(key, 0.0) + w
        vals = np.clip(vals - w, 0.0, None)
        remaining[ar, perm] = vals
        for i in np.flatnonzero(vals <= tol).tolist():
            rows[i] &= ~(1 << perm[i])
        total += w
    else:
        raise NumericalDegeneracyError("Birkhoff extraction failed to terminate")

    if not collected:
        raise NumericalDegeneracyError("no permutation mass extracted")
    terms = tuple((w / total, perm) for perm, w in collected.items())
    return BirkhoffDecomposition(terms=terms, d=d)


def caratheodory_prune(dec: BirkhoffDecomposition, d: int) -> BirkhoffDecomposition:
    """Reduce a Birkhoff decomposition to at most ``(d-1)**2 + 1`` terms.

    While the term count exceeds the bound, finds an affine dependence among
    the flattened permutation matrices (via the null space of the stacked
    vectors plus a row of ones) and shifts weight along it until one term
    drops out.  The reconstructed matrix is unchanged.
    """
    bound = (d - 1) ** 2 + 1
    if len(dec.terms) <= bound:
        return dec

    weights = [w for w, _ in dec.terms]
    perms = [perm for _, perm in dec.terms]
    while len(weights) > bound:
        m = len(weights)
        stack = np.empty((dec.d * dec.d + 1, m))
        for i, perm in enumerate(perms):
            stack[:-1, i] = BirkhoffDecomposition.permutation_matrix(perm).ravel()
        stack[-1, :] = 1.0
        _, _, vh = np.linalg.svd(stack)
        x = vh[-1]
        if np.linalg.norm(stack @ x) > 1e-8:
            raise NumericalDegeneracyError("no affine dependence found while pruning")
        if np.max(x) <= 0:
            x = -x
        eligible = x > 1e-12
        ratios = np.where(eligible, np.array(weights) / np.where(eligible, x, 1.0), np.inf)
        drop = int(np.argmin(ratios))
        theta = ratios[drop]
        new_weights = np.array(weights) - theta * x
        new_weights[drop] = 0.0
        np.clip(new_weights, 0.0, None, out=new_weights)
        keep = new_weights > 1e-15
        weights = list(new_weights[keep])
        perms = [p for p, k in zip(perms, keep) if k]

    total = float(sum(weights))
    terms = tuple((w / total, perm) for w, perm in zip(weights, perms))
    return BirkhoffDecomposition(terms=terms, d=dec.d)
