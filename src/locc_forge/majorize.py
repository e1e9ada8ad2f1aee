"""Majorization predicates and the constructive Birkhoff machinery.

Vectors here are entanglement spectra: non-negative weights, compared after
sorting and zero-padding to a common length. The constructive half turns a
majorization relation ``a < q`` into an explicit bistochastic matrix (chain
of T-transforms), splits that matrix into permutations (greedy Birkhoff
extraction over perfect matchings) and prunes the convex combination down to
the Caratheodory bound ``(d-1)**2 + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InvalidInputError, NumericalDegeneracyError

#: Absolute tolerance on partial sums in majorization comparisons.
SUM_TOL = 1e-10
#: How far below zero a "non-negative" spectrum entry may sit.
NEG_TOL = 1e-10

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


def _pad_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    d = max(len(x), len(y))
    return (
        np.concatenate([x, np.zeros(d - len(x))]),
        np.concatenate([y, np.zeros(d - len(y))]),
    )


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
    xv, yv = _pad_pair(_clean_vector(x), _clean_vector(y))
    xs = np.sort(xv)[::-1]
    ys = np.sort(yv)[::-1]
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


def _t_transform_chain(a_sorted: np.ndarray, q_sorted: np.ndarray) -> tuple[np.ndarray, int]:
    """Chain of T-transforms carrying ``q_sorted`` onto ``a_sorted``.

    Both inputs are sorted non-increasing and satisfy ``a < q``.  Returns the
    accumulated bistochastic matrix and the number of transforms used, which
    never exceeds ``d - 1``: every transform makes at least one further
    coordinate match exactly.
    """
    d = len(a_sorted)
    thr = 1e-13
    c = q_sorted.astype(float).copy()
    chain = np.eye(d)
    steps = 0
    for _ in range(d + 1):
        diff = c - a_sorted
        deficits = np.flatnonzero(diff < -thr)
        if deficits.size == 0:
            break
        j = int(deficits[0])
        surpluses = np.flatnonzero(diff[:j] > thr)
        if surpluses.size == 0:
            # Residual deficit with no surplus left: the input satisfied the
            # majorization precondition only up to comparison tolerance.
            if -diff[j] <= SUM_TOL:
                break
            raise NumericalDegeneracyError("T-transform chain lost the majorization invariant")
        k = int(surpluses[-1])
        delta = min(diff[k], -diff[j])
        t = min(delta / (c[k] - c[j]), 1.0)
        step = np.eye(d)
        step[k, k] = step[j, j] = 1.0 - t
        step[k, j] = step[j, k] = t
        c = step @ c
        chain = step @ chain
        steps += 1
    if np.max(np.abs(c - a_sorted)) > d * SUM_TOL:
        raise NumericalDegeneracyError("T-transform chain failed to converge")
    return chain, steps


def bistochastic_link(a, q) -> np.ndarray:
    """Bistochastic matrix ``D`` with ``D @ sort_desc(q) == sort_desc(a)``.

    Requires ``a < q`` (checked with :func:`compare`); raises
    :class:`InfeasibleError` otherwise.
    """
    av = _clean_vector(a)
    qv = _clean_vector(q)
    if not compare(av, qv, "maj"):
        raise InfeasibleError("vectors are not majorization-comparable (need a < q)")
    av, qv = _pad_pair(av, qv)
    chain, _ = _t_transform_chain(np.sort(av)[::-1], np.sort(qv)[::-1])
    return chain


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
