"""Shared random generators (all explicitly seeded) and protocol edits for the test suite."""

import dataclasses

import numpy as np

from locc_forge import BipartiteState
from locc_forge.majorize import BirkhoffDecomposition
from locc_forge.numkit import rect_diag


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_complex(rows, cols, rng):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_state(da, db, rng, rank=None):
    """Haar-ish random pure state, optionally with restricted Schmidt rank."""
    if rank is None:
        amp = random_complex(da, db, rng)
    else:
        amp = random_complex(da, rank, rng) @ random_complex(rank, db, rng)
    return BipartiteState(amp / np.linalg.norm(amp))


def random_spectrum(d, rng):
    """Random point of the probability simplex, sorted non-increasing."""
    w = rng.dirichlet(np.ones(d))
    return np.sort(w)[::-1]


def random_bistochastic(d, rng, terms=None):
    """Convex mix of random permutation matrices."""
    terms = terms or max(2, d + 2)
    weights = rng.dirichlet(np.ones(terms))
    out = np.zeros((d, d))
    for w in weights:
        out += w * BirkhoffDecomposition.permutation_matrix(rng.permutation(d))
    return out


def comparable_spectra(d, rng):
    """Pair (a, b) with a majorized by b, both sorted non-increasing."""
    b = random_spectrum(d, rng)
    a = np.sort(random_bistochastic(d, rng) @ b)[::-1]
    return a, b


def state_with_spectrum(spec, da, db, rng):
    """Random-basis state whose squared Schmidt coefficients are ``spec``."""
    amp = (
        random_unitary(da, rng)
        @ rect_diag(np.sqrt(spec), da, db)
        @ random_unitary(db, rng)
    )
    return BipartiteState(amp)


def random_contraction(d, rng, norm=None):
    g = random_complex(d, d, rng)
    target = norm if norm is not None else rng.uniform(0.3, 1.0)
    return g * (target / np.linalg.norm(g, 2))


def with_outcome0(protocol, **changes):
    """``protocol`` with ``changes`` made to its first stage-1 outcome."""
    first = dataclasses.replace(protocol.outcomes[0], **changes)
    return dataclasses.replace(protocol, outcomes=(first,) + tuple(protocol.outcomes[1:]))


def with_stage2(protocol, **changes):
    """``protocol`` with ``changes`` made to its stage 2."""
    return dataclasses.replace(protocol, stage2=dataclasses.replace(protocol.stage2, **changes))


def fold_into_m0(protocol, k):
    """``protocol`` with stage-1 outcome ``k`` dropped and folded into the
    completion operator, ``M0 <- sqrt(M0'M0 + M_k'M_k)``: still complete."""
    m_k = protocol.outcomes[k].M
    e, v = np.linalg.eigh(protocol.M0.conj().T @ protocol.M0 + m_k.conj().T @ m_k)
    m0 = (v * np.sqrt(np.clip(e, 0.0, None))) @ v.conj().T
    rest = tuple(protocol.outcomes[:k]) + tuple(protocol.outcomes[k + 1:])
    return dataclasses.replace(protocol, outcomes=rest, M0=m0)


def reproducer_pairs(count=400):
    """Seed-5 square pairs at d = 2..8 with Dirichlet(0.1) spectra, whose
    smallest Schmidt coefficients reach far below roundoff."""
    rng = np.random.default_rng(5)
    for _ in range(count):
        d = int(rng.integers(2, 9))
        a = np.sort(rng.dirichlet(0.1 * np.ones(d)))[::-1]
        b = np.sort(rng.dirichlet(0.1 * np.ones(d)))[::-1]
        yield state_with_spectrum(a, d, d, rng), state_with_spectrum(b, d, d, rng)


def sweep_pairs(count=300):
    """Seed-2027 pairs at d = 9..24 with Dirichlet(0.05) or (0.1) spectra, on
    square, wide and tall shapes; every fourth pair is deterministic (its
    source spectrum a bistochastic mix of the target's)."""
    rng = np.random.default_rng(2027)
    for i in range(count):
        d = int(rng.integers(9, 25))
        alpha = (0.05, 0.1)[i % 2]
        da, db = [(d, d), (d, d + 2), (d + 2, d)][i % 3]
        b = np.sort(rng.dirichlet(alpha * np.ones(d)))[::-1]
        if i % 4 == 3:
            a = np.sort(random_bistochastic(d, rng) @ b)[::-1]
        else:
            a = np.sort(rng.dirichlet(alpha * np.ones(d)))[::-1]
        yield state_with_spectrum(a, da, db, rng), state_with_spectrum(b, da, db, rng)
