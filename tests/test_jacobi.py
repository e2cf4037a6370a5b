"""The in-house SVD kernel, checked against numpy's LAPACK-backed routines.

The library never uses numpy's SVD internally, so LAPACK stays available
here as a fully independent oracle.
"""

import numpy as np
import pytest

from deft._jacobi import ConvergenceError, _round_robin_rounds, jacobi_svd
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
        s = jacobi_svd(a, want_uv=False)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.abs(s - ref).max() < 1e-11 * max(1.0, ref[0])


def test_want_uv_false_matches_full():
    a = make_rng(2).normal(size=(9, 6))
    s_only = jacobi_svd(a, want_uv=False)
    _, s_full, _ = jacobi_svd(a)
    assert np.abs(s_only - s_full).max() < 1e-13


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
    # norm ratios around 1e150 stress the rotation formulas
    a = np.diag([1e150, 1.0, 1e-150]) @ make_rng(5).normal(size=(3, 3))
    u, s, v = jacobi_svd(a)
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.abs(s - ref).max() < 1e-11 * ref[0]
    assert np.isfinite(u).all() and np.isfinite(v).all()


@pytest.mark.parametrize("shape", [(40, 30), (30, 40)])
def test_sweep_cap_raises_instead_of_returning_unconverged_values(shape):
    a = make_rng(11).normal(size=shape)
    with pytest.raises(ConvergenceError, match="in 1 sweeps") as exc:
        jacobi_svd(a, max_sweeps=1)
    assert exc.value.sweeps == 1
    assert exc.value.worst > 1e-13
    with pytest.raises(ConvergenceError):
        jacobi_svd(a, max_sweeps=1, want_uv=False)
    np.testing.assert_allclose(jacobi_svd(a, want_uv=False), np.linalg.svd(a, compute_uv=False),
                               rtol=1e-12)
