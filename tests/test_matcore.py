import numpy as np
import pytest

from deft.matcore import (
    ShapeError,
    as_matrix,
    frobenius_norm,
    gaussian,
    make_rng,
    numerical_rank,
)


def elimination_rank(a, tol=1e-9):
    """Row-reduction rank, independent of any SVD."""
    a = np.array(a, dtype=float)
    m, n = a.shape
    rank = 0
    row = 0
    for col in range(n):
        pivot = row + np.argmax(np.abs(a[row:, col])) if row < m else None
        if pivot is None or abs(a[pivot, col]) <= tol:
            continue
        a[[row, pivot]] = a[[pivot, row]]
        a[row] /= a[row, col]
        for i in range(m):
            if i != row:
                a[i] -= a[i, col] * a[row]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((4, 4))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_against_entrywise_sum(self):
        m = make_rng(5).normal(size=(9, 7))
        total = 0.0
        for row in m:
            for v in row:
                total += v * v
        assert abs(frobenius_norm(m) ** 2 - total) < 1e-12


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(4)) == 4

    def test_outer_product(self):
        rng = make_rng(6)
        u = rng.normal(size=5)
        v = rng.normal(size=7)
        assert numerical_rank(np.outer(u, v)) == 1

    def test_against_elimination(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        assert numerical_rank(m) == elimination_rank(m) == 1

    def test_random_against_elimination(self):
        rng = make_rng(7)
        for trial in range(10):
            r = int(rng.integers(1, 5))
            left = rng.normal(size=(8, r))
            right = rng.normal(size=(r, 6))
            m = left @ right
            assert numerical_rank(m) == elimination_rank(m) == r

    def test_permutation_invariance(self):
        rng = make_rng(8)
        m = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 5))
        base = numerical_rank(m)
        for _ in range(5):
            rp = rng.permutation(6)
            cp = rng.permutation(5)
            assert numerical_rank(m[rp][:, cp]) == base

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), tol=0.0)


class TestGaussian:
    def test_zero_stddev(self):
        out = gaussian(make_rng(0), 3, 4, 0.0)
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_determinism(self):
        a = gaussian(make_rng(42), 5, 5, 1.0)
        b = gaussian(make_rng(42), 5, 5, 1.0)
        assert np.array_equal(a, b)

    def test_sample_statistics(self):
        n = 10_000
        target = 0.7
        draws = gaussian(make_rng(9), n, 1, target)
        assert abs(draws.mean()) < 5 * target / np.sqrt(n)
        assert abs(draws.std() - target) / target < 0.05

    def test_rejects_negative_stddev(self):
        with pytest.raises(ValueError):
            gaussian(make_rng(0), 2, 2, -1.0)


class TestAsMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            as_matrix(np.ones(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(np.array([[1.0, np.nan]]))
