"""The in-house SVD kernel, checked against numpy's LAPACK-backed routines.

The Jacobi SVD shares no code with LAPACK, so LAPACK serves here as an
independent oracle, even though the library itself calls it for eig and
for rank counting.
"""

import numpy as np
import pytest

from deft._jacobi import ConvergenceError, _complete_basis, _round_robin_rounds, jacobi_svd
from deft.matcore import make_rng


def test_round_robin_covers_all_pairs_once():
    for n in (2, 3, 6, 9):
        seen = set()
        for ia, ja in _round_robin_rounds(n):
            # disjoint within a round
            cols = list(ia) + list(ja)
            assert len(cols) == len(set(cols))
            for a, b in zip(ia, ja):
                assert a < b
                seen.add((a, b))
        assert seen == {(i, j) for i in range(n) for j in range(i + 1, n)}


def test_reconstruction_and_orthogonality():
    rng = make_rng(0)
    for shape in ((8, 8), (12, 5), (5, 12), (30, 7), (1, 4), (6, 1)):
        a = rng.normal(size=shape)
        u, s, v = jacobi_svd(a)
        k = min(shape)
        assert u.shape == (shape[0], k) and v.shape == (shape[1], k)
        assert np.abs(u @ np.diag(s) @ v.T - a).max() < 1e-12 * max(1.0, np.abs(a).max())
        assert np.abs(u.T @ u - np.eye(k)).max() < 1e-12
        assert np.abs(v.T @ v - np.eye(k)).max() < 1e-12
        assert (np.diff(s) <= 1e-15).all()


def test_singular_values_match_lapack():
    rng = make_rng(1)
    for _ in range(20):
        m = int(rng.integers(2, 20))
        n = int(rng.integers(2, 20))
        a = rng.normal(size=(m, n))
        s = jacobi_svd(a)[1]
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.abs(s - ref).max() < 1e-11 * max(1.0, ref[0])


def test_rank_deficient_input():
    rng = make_rng(3)
    base = rng.normal(size=(10, 3))
    a = base @ rng.normal(size=(3, 8))
    u, s, v = jacobi_svd(a)
    assert (s[3:] < 1e-12 * s[0]).all()
    assert np.abs(u.T @ u - np.eye(8)).max() < 1e-10  # completed columns stay orthonormal
    assert np.abs(u @ np.diag(s) @ v.T - a).max() < 1e-11


def test_zero_matrix():
    u, s, v = jacobi_svd(np.zeros((5, 3)))
    assert np.array_equal(s, np.zeros(3))
    assert np.abs(u.T @ u - np.eye(3)).max() < 1e-15


def test_sign_convention_is_deterministic():
    a = make_rng(4).normal(size=(7, 4))
    u1, s1, v1 = jacobi_svd(a)
    u2, s2, v2 = jacobi_svd(a.copy())
    assert np.array_equal(u1, u2) and np.array_equal(s1, s2) and np.array_equal(v1, v2)
    peaks = u1[np.argmax(np.abs(u1), axis=0), np.arange(u1.shape[1])]
    assert (peaks >= 0).all()


def test_extreme_scale_columns():
    # norm ratios around 1e150 stress the rotation formulas, at the middle and
    # at both ends of the float range (whole-matrix scales 1e300 and 1e-300)
    b = make_rng(5).normal(size=(3, 3))
    for scale in (1.0, 1e150, 1e-150):
        a = np.diag([scale * 1e150, scale, scale * 1e-150]) @ b
        u, s, v = jacobi_svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.abs(s - ref).max() < 1e-11 * ref[0], scale
        assert np.isfinite(u).all() and np.isfinite(v).all()


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
@pytest.mark.parametrize("shape", [(9, 6), (6, 9)])
def test_whole_matrix_scale(scale, shape):
    # the sums of squares would underflow or overflow without the rescaling
    b = make_rng(6).normal(size=shape)
    u, s, v = jacobi_svd(scale * b)
    ref = np.linalg.svd(scale * b, compute_uv=False)
    assert np.abs(s - ref).max() <= 1e-13 * ref[0]
    # scaling by a power of two is exact, so the factors come out bit for bit the same
    exp = int(np.round(np.log2(scale)))
    u2, s2, v2 = jacobi_svd(np.ldexp(b, exp))
    u1, s1, v1 = jacobi_svd(b)
    assert np.array_equal(u2, u1) and np.array_equal(v2, v1)
    assert np.array_equal(s2, np.ldexp(s1, exp))


@pytest.mark.parametrize("shape,zero_cols", [((33, 33), [0]), ((12, 12), [2, 5, 9]),
                                             ((20, 8), [1, 2, 3, 4, 5, 6]), ((8, 20), [0, 19])])
def test_zero_columns_complete_an_orthonormal_basis(shape, zero_cols):
    a = make_rng(7).normal(size=shape)
    a[:, zero_cols] = 0.0
    u, s, v = jacobi_svd(a)
    k = min(shape)
    assert np.abs(u.T @ u - np.eye(k)).max() < 1e-12
    assert np.abs(v.T @ v - np.eye(k)).max() < 1e-12
    assert np.abs(u @ np.diag(s) @ v.T - a).max() < 1e-12


def test_complete_basis_from_a_spread_direction():
    # the missing direction is (1, ..., 1) / sqrt(m): every e_i has residual 1/sqrt(m)
    m = 40
    q, _ = np.linalg.qr(np.hstack([np.ones((m, 1)), make_rng(8).normal(size=(m, m - 1))]))
    u = np.hstack([q[:, 1:], np.zeros((m, 1))])
    _complete_basis(u, m - 1)
    assert np.abs(u.T @ u - np.eye(m)).max() < 1e-14
    assert np.isclose(abs(u[:, -1] @ q[:, 0]), 1.0, atol=1e-14)


@pytest.mark.parametrize("shape", [(40, 30), (30, 40)])
def test_sweep_cap_raises_instead_of_returning_unconverged_values(shape):
    a = make_rng(11).normal(size=shape)
    with pytest.raises(ConvergenceError, match="in 1 sweeps") as exc:
        jacobi_svd(a, max_sweeps=1)
    assert exc.value.sweeps == 1
    assert exc.value.worst > 1e-13
    np.testing.assert_allclose(jacobi_svd(a)[1], np.linalg.svd(a, compute_uv=False),
                               rtol=1e-12)
