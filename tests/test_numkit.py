import numpy as np
import pytest

from locc_forge.errors import InvalidInputError
from locc_forge.numkit import (
    hermitian_eigs,
    opnorm,
    pinv,
    psd_sqrt,
    rect_diag,
    svd,
    transposition_unitary,
    unitarity_defect,
)

from helpers import random_complex, random_unitary


def test_svd_identity():
    t = svd(np.eye(2))
    assert np.allclose(t.coeffs, [1.0, 1.0])
    assert np.allclose(t.reconstruct(), np.eye(2), atol=1e-14)


def test_svd_diagonal_values():
    t = svd(np.diag([2.0, 1.0]))
    assert np.allclose(t.coeffs, [2.0, 1.0])


def test_svd_random_reconstruction():
    rng = np.random.default_rng(11)
    g = random_complex(3, 3, rng)
    t = svd(g)
    assert np.linalg.norm(t.reconstruct() - g) <= 1e-12 * np.linalg.norm(g)


def test_svd_reconstruction_sweep():
    # 500 random matrices up to 8x8, square and rectangular, full and
    # deficient rank: relative reconstruction residual stays below 1e-10.
    rng = np.random.default_rng(201)
    for i in range(500):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        if i % 3 == 0:
            r = int(rng.integers(1, min(rows, cols) + 1))
            g = random_complex(rows, r, rng) @ random_complex(r, cols, rng)
        else:
            g = random_complex(rows, cols, rng)
        t = svd(g)
        assert np.all(np.diff(t.coeffs) <= 1e-14)
        assert opnorm(t.reconstruct() - g) <= 1e-10 * max(t.coeffs[0], 1e-300)
        assert unitarity_defect(t.left_basis) <= 1e-12
        assert unitarity_defect(t.right_basis) <= 1e-12


def test_svd_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pinv_diagonal_with_zero():
    assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_zero_matrix():
    assert np.allclose(pinv(np.zeros((3, 2))), np.zeros((2, 3)), atol=1e-15)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(12)
    m = random_complex(3, 2, rng) @ random_complex(2, 3, rng)  # rank 2, 3x3
    mp = pinv(m)
    assert np.linalg.norm(m @ mp @ m - m) <= 1e-10
    assert np.linalg.norm(mp @ m @ mp - mp) <= 1e-10
    assert np.linalg.norm((m @ mp) - (m @ mp).conj().T) <= 1e-10
    assert np.linalg.norm((mp @ m) - (mp @ m).conj().T) <= 1e-10


def test_pinv_projector_and_idempotence():
    rng = np.random.default_rng(13)
    for _ in range(50):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        m = random_complex(rows, cols, rng)
        mp = pinv(m)
        assert np.linalg.norm(pinv(mp) - m) <= 1e-10 * max(1.0, opnorm(m))
        for proj in (m @ mp, mp @ m):
            assert opnorm(proj - proj.conj().T) <= 1e-10
            assert opnorm(proj @ proj - proj) <= 1e-10


def test_pinv_rejects_bad_rtol():
    with pytest.raises(InvalidInputError):
        pinv(np.eye(2), rank_rtol=0.0)


def test_transposition_real_diagonal():
    m = np.diag([2.0, 1.0])
    k = transposition_unitary(m)
    assert np.allclose(k @ m @ k.conj(), m.T, atol=1e-12)


def test_transposition_offdiagonal_hand_case():
    # m = |0><1|: the swap matrix transposes it by congruence, and whatever
    # valid unitary the SVD route picks must do the same.
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(swap @ m @ swap.conj(), m.T)
    k = transposition_unitary(m)
    assert np.linalg.norm(k @ m @ k.conj() - m.T) <= 1e-12
    assert unitarity_defect(k) <= 1e-12


def test_transposition_random():
    rng = np.random.default_rng(14)
    m = random_complex(4, 4, rng)
    k = transposition_unitary(m)
    assert opnorm(k @ m @ k.conj() - m.T) <= 1e-10
    assert unitarity_defect(k) <= 1e-12


def test_transposition_degenerate_and_deficient():
    rng = np.random.default_rng(15)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        kind = rng.integers(0, 3)
        if kind == 0:
            m = random_complex(d, d, rng)
        elif kind == 1:
            r = int(rng.integers(1, d))
            m = random_complex(d, r, rng) @ random_complex(r, d, rng)
        else:
            s = np.repeat(rng.uniform(0.5, 2.0), d)
            m = random_unitary(d, rng) @ np.diag(s) @ random_unitary(d, rng)
        k = transposition_unitary(m)
        assert opnorm(k @ m @ k.conj() - m.T) <= 1e-10
        assert unitarity_defect(k) <= 1e-12


def test_transposition_rejects_rectangular():
    with pytest.raises(InvalidInputError):
        transposition_unitary(np.ones((2, 3)))


def test_hermitian_eigs_identity():
    e, u = hermitian_eigs(np.eye(2))
    assert np.allclose(e, [1.0, 1.0])
    assert unitarity_defect(u) <= 1e-14


def test_hermitian_eigs_sorts_decreasing():
    e, _ = hermitian_eigs(np.diag([0.2, 0.8]))
    assert np.allclose(e, [0.8, 0.2])


def test_hermitian_eigs_reconstruction():
    rng = np.random.default_rng(16)
    g = random_complex(5, 5, rng)
    h = g + g.conj().T
    e, u = hermitian_eigs(h)
    assert np.linalg.norm(u @ np.diag(e) @ u.conj().T - h) <= 1e-12 * opnorm(h)


def test_hermitian_eigs_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt():
    rng = np.random.default_rng(17)
    g = random_complex(4, 4, rng)
    h = g @ g.conj().T
    r = psd_sqrt(h)
    assert np.linalg.norm(r @ r - h) <= 1e-10 * opnorm(h)
    assert np.linalg.norm(r - r.conj().T) <= 1e-12


def test_rect_diag_shapes():
    m = rect_diag([1.0, 2.0], 3, 2)
    assert m.shape == (3, 2)
    assert m[0, 0] == 1.0 and m[1, 1] == 2.0 and m[2, 0] == 0.0
