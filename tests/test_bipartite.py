import numpy as np
import pytest

from locc_forge.bipartite import (
    BipartiteState,
    apply_local,
    fidelity,
    from_schmidt,
    schmidt,
    schmidt_rank,
    squared_spectrum,
)
from locc_forge.errors import InvalidInputError

from helpers import random_complex, random_state, random_unitary


def test_from_schmidt_bell():
    s = from_schmidt([0.5, 0.5], 2, 2)
    assert np.allclose(s.amp, np.diag([np.sqrt(0.5)] * 2))


def test_from_schmidt_product():
    s = from_schmidt([1.0], 2, 2)
    assert np.allclose(s.amp, [[1.0, 0.0], [0.0, 0.0]])


def test_from_schmidt_roundtrip():
    s = from_schmidt([0.8, 0.2], 2, 2)
    assert np.allclose(s.amp, np.diag([np.sqrt(0.8), np.sqrt(0.2)]))
    f = schmidt(s)
    assert np.allclose(f.coeffs**2, [0.8, 0.2], atol=1e-12)
    assert np.allclose(f.reconstruct(), s.amp, atol=1e-12)


def test_from_schmidt_rejects_unnormalized():
    with pytest.raises(InvalidInputError):
        from_schmidt([0.8, 0.3], 2, 2)


def test_from_schmidt_rejects_too_many_coeffs():
    with pytest.raises(InvalidInputError):
        from_schmidt([0.5, 0.3, 0.2], 2, 4)


def test_state_rejects_unnormalized():
    with pytest.raises(InvalidInputError):
        BipartiteState(np.eye(2))


def test_state_amp_is_frozen():
    s = from_schmidt([1.0], 2, 2)
    with pytest.raises(ValueError):
        s.amp[0, 0] = 0.0
    f = schmidt(s)
    # Neither the arrays nor the arrays they are views of can be made writeable.
    for value in (s.amp, s.amp.base, f.left_basis, f.coeffs, f.right_basis):
        for a in (value, value.base):
            if isinstance(a, np.ndarray):
                with pytest.raises(ValueError):
                    a.flags.writeable = True


def test_schmidt_product_state():
    f = schmidt(from_schmidt([1.0], 2, 2))
    assert np.allclose(f.coeffs, [1.0, 0.0], atol=1e-12)


def test_schmidt_bell():
    f = schmidt(from_schmidt([0.5, 0.5], 2, 2))
    assert np.allclose(f.coeffs, [np.sqrt(0.5)] * 2, atol=1e-12)


def test_schmidt_random_normalization():
    rng = np.random.default_rng(31)
    s = random_state(3, 4, rng)
    f = schmidt(s)
    assert abs(np.sum(f.coeffs**2) - 1.0) <= 1e-10
    assert np.all(np.diff(f.coeffs) <= 1e-14)
    assert np.linalg.norm(f.reconstruct() - s.amp) <= 1e-10


def test_apply_local_identity():
    rng = np.random.default_rng(32)
    s = random_state(2, 3, rng)
    out, w = apply_local(s, np.eye(2), np.eye(3))
    assert np.allclose(out, s.amp)
    assert abs(w - 1.0) <= 1e-12


def test_apply_local_sigma_x_on_bell():
    bell = from_schmidt([0.5, 0.5], 2, 2)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    out, w = apply_local(bell, sx, np.eye(2))
    expected = np.array([[0.0, np.sqrt(0.5)], [np.sqrt(0.5), 0.0]])
    assert np.allclose(out, expected)
    assert abs(w - 1.0) <= 1e-12


def test_apply_local_matches_kronecker_oracle():
    # Flattened output must equal (C_A (x) C_B) acting on the flattened state.
    rng = np.random.default_rng(33)
    for _ in range(40):
        da, db = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        oa, ob = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        s = random_state(da, db, rng)
        ca = random_complex(oa, da, rng)
        cb = random_complex(ob, db, rng)
        out, w = apply_local(s, ca, cb)
        oracle = np.kron(ca, cb) @ s.amp.reshape(-1)
        assert np.allclose(out.reshape(-1), oracle, atol=1e-12)
        assert abs(w - np.vdot(oracle, oracle).real) <= 1e-12


def test_apply_local_composes():
    rng = np.random.default_rng(34)
    s = random_state(3, 3, rng)
    c1, d1 = random_complex(3, 3, rng), random_complex(3, 3, rng)
    c2, d2 = random_complex(3, 3, rng), random_complex(3, 3, rng)
    first, _ = apply_local(s, c1, d1)
    norm = np.linalg.norm(first)
    mid = BipartiteState(first / norm)
    second, _ = apply_local(mid, c2, d2)
    combined, _ = apply_local(s, c2 @ c1, d2 @ d1)
    assert np.allclose(second * norm, combined, atol=1e-10)


def test_apply_local_dimension_mismatch():
    s = from_schmidt([1.0], 2, 2)
    with pytest.raises(InvalidInputError):
        apply_local(s, np.eye(3), np.eye(2))


def test_schmidt_coeffs_invariant_under_local_unitaries():
    rng = np.random.default_rng(35)
    for _ in range(25):
        da, db = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        s = random_state(da, db, rng)
        ua, ub = random_unitary(da, rng), random_unitary(db, rng)
        out, w = apply_local(s, ua, ub)
        rotated = BipartiteState(out)
        assert abs(w - 1.0) <= 1e-10
        assert np.allclose(
            schmidt(s).coeffs, schmidt(rotated).coeffs, atol=1e-10
        )


def test_fidelity_self():
    rng = np.random.default_rng(36)
    s = random_state(3, 3, rng)
    assert abs(fidelity(s, s) - 1.0) <= 1e-12


def test_fidelity_orthogonal_products():
    s = BipartiteState(np.array([[1.0, 0.0], [0.0, 0.0]]))
    t = BipartiteState(np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert fidelity(s, t) == 0.0


def test_fidelity_bell_vs_skew():
    # overlap = sqrt(0.5*0.8) + sqrt(0.5*0.2), squared: 0.5 + 0.4 = 0.9
    bell = from_schmidt([0.5, 0.5], 2, 2)
    skew = from_schmidt([0.8, 0.2], 2, 2)
    assert abs(fidelity(bell, skew) - 0.9) <= 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        fidelity(from_schmidt([1.0], 2, 2), from_schmidt([1.0], 2, 3))


def test_schmidt_rank():
    rng = np.random.default_rng(37)
    assert schmidt_rank(from_schmidt([1.0], 3, 3)) == 1
    assert schmidt_rank(from_schmidt([0.5, 0.5], 3, 3)) == 2
    assert schmidt_rank(random_state(4, 4, rng, rank=2)) == 2


def test_squared_spectrum_sorted():
    rng = np.random.default_rng(38)
    spec = squared_spectrum(random_state(4, 5, rng))
    assert len(spec) == 4
    assert abs(spec.sum() - 1.0) <= 1e-10
    assert np.all(np.diff(spec) <= 1e-14)


def test_digest_distinguishes_states():
    a = from_schmidt([0.5, 0.5], 2, 2)
    b = from_schmidt([0.8, 0.2], 2, 2)
    assert a.digest != b.digest
    assert a.digest == from_schmidt([0.5, 0.5], 2, 2).digest
