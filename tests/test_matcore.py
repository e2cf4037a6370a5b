import math
import os
import subprocess
import sys

import numpy as np
import pytest

import deft
from deft import matcore
from deft.adapters import AdapterConfig, init_adapter
from deft.matcore import (
    NonFiniteError,
    ShapeError,
    as_matrix,
    frobenius_norm,
    gaussian,
    make_rng,
    numerical_rank,
    sum_of_squares,
)
from deft.train import ToyTask, loss_mse


def mse_of(a):
    """loss_mse of a lora adapter whose output is exactly zero, against targets -a: mean(a**2).

    An all-zero m x 1 base weight and lora's zero-initialized b_lo make
    every output entry zero, so the residual is 0.0 - (-a) = a, bit for bit.
    """
    m, k = a.shape
    w0 = np.zeros((m, 1))
    task = ToyTask(teacher=w0, inputs=np.ones((1, k)), targets=-a)
    return loss_mse(init_adapter(w0, AdapterConfig("lora", 1)), task)


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

    @pytest.mark.parametrize("a", [np.zeros((4, 32)), np.zeros((1024, 8)), np.array([[-0.0]])],
                             ids=["4x32", "1024x8", "negative_zero"])
    def test_all_zero_skips_the_rescale(self, a, monkeypatch):
        # c08's dead deft/nmf steps take this norm of an exactly zero gradient
        def no_rescale(_):
            raise AssertionError("an all-zero array was rescaled")

        monkeypatch.setattr(matcore, "unit_exponent", no_rescale)
        norm = frobenius_norm(a)
        assert type(norm) is float and norm == 0.0 and math.copysign(1.0, norm) == 1.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_against_entrywise_sum(self):
        m = make_rng(5).normal(size=(9, 7))
        total = 0.0
        for row in m:
            for v in row:
                total += v * v
        assert abs(frobenius_norm(m) ** 2 - total) < 1e-12

    def test_bits_of_numpy_sqrt(self):
        # math.sqrt and np.sqrt are both correctly rounded, so either gives these bits
        rng = make_rng(6)
        for _ in range(200):
            m = rng.normal(size=(5, 3)) * 10.0 ** rng.uniform(-100.0, 100.0)
            norm = frobenius_norm(m)
            assert type(norm) is float
            assert norm == float(np.sqrt(np.vdot(m, m)))

    def test_extreme_scale(self):
        # the plain sum of squares would overflow to inf or underflow to 0
        assert frobenius_norm(np.array([[3e300, 4e300]])) == pytest.approx(5e300, rel=1e-15)
        assert frobenius_norm(np.array([[3e-300, 4e-300]])) == pytest.approx(5e-300, rel=1e-15)
        assert frobenius_norm(np.array([[1e-170, 0.0]])) == 1e-170


class TestSumOfSquares:
    CUTOFF = matcore._VDOT_MAX_SIZE

    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (32, 4), (4, 32), (32, 32), (64, 48),
                                       (64, 64)])
    def test_vdot_up_to_the_cutoff(self, shape):
        assert shape[0] * shape[1] <= self.CUTOFF
        a = make_rng(30).normal(size=shape)
        assert sum_of_squares(a) == float(np.vdot(a, a))
        assert frobenius_norm(a) == math.sqrt(np.vdot(a, a))
        assert mse_of(a) == float(np.vdot(a, a)) / a.size

    @pytest.mark.parametrize("shape", [(1, 4097), (17, 241), (1024, 8), (1024, 1024)])
    def test_einsum_above_the_cutoff(self, shape):
        # finetune-1k's 1024 x 1024 residual and its 1024 x 8 gradients keep einsum's bits
        assert shape[0] * shape[1] > self.CUTOFF
        a = make_rng(31).normal(size=shape)
        total = np.einsum("ij,ij->", a, a)
        assert sum_of_squares(a) == float(total)
        assert frobenius_norm(a) == float(np.sqrt(total))
        assert mse_of(a) == float(total) / a.size

    def test_overflow_is_silent(self):
        # ndarray.dot and np.inner would warn "overflow encountered in dot" here
        a = np.full((2, 2), 1e300)
        assert sum_of_squares(a) == math.inf
        assert frobenius_norm(a) == 2e300

    def test_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # at the cutoff, and at 12000 entries, where a threaded ddot changes the last bit
        # of some of these sums
        script = (
            "import numpy as np\n"
            "from deft.matcore import frobenius_norm, make_rng, sum_of_squares\n"
            "for seed in range(4):\n"
            "    for shape in ((64, 64), (120, 100)):\n"
            "        a = make_rng(seed).normal(size=shape)\n"
            "        print(sum_of_squares(a).hex(), frobenius_norm(a).hex())\n"
        )
        src = os.path.dirname(os.path.dirname(deft.__file__))
        outputs = []
        for threads in ("1", "2"):  # each count in a fresh process: OpenBLAS reads it at load
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert len(outputs[0].splitlines()) == 8
        assert outputs[0] == outputs[1]


# Each rank case must hold at any overall scale: the cutoff is relative to sigma_max.
SCALES = (1.0, 1e-300, 1e-160, 1e160, 1e300)


class TestNumericalRank:
    def test_identity(self):
        for scale in SCALES:
            assert numerical_rank(scale * np.eye(4)) == 4, scale

    def test_outer_product(self):
        rng = make_rng(6)
        u = rng.normal(size=5)
        v = rng.normal(size=7)
        for scale in SCALES:
            assert numerical_rank(scale * np.outer(u, v)) == 1, scale

    def test_against_elimination(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        assert elimination_rank(m) == 1
        for scale in SCALES:
            assert numerical_rank(scale * m) == 1, scale

    def test_random_against_elimination(self):
        rng = make_rng(7)
        for trial in range(10):
            r = int(rng.integers(1, 5))
            left = rng.normal(size=(8, r))
            right = rng.normal(size=(r, 6))
            m = left @ right
            wide = rng.normal(size=(5, r)) @ rng.normal(size=(r, 12))
            for a in (m, m.T, wide):  # a wide input is factored transposed
                assert elimination_rank(a) == r
                for scale in SCALES:
                    assert numerical_rank(scale * a) == r, (trial, a.shape, scale)

    def test_permutation_invariance(self):
        rng = make_rng(8)
        m = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 5))
        wide = rng.normal(size=(4, 3)) @ rng.normal(size=(3, 9))
        for a in (m, m.T, wide):  # a wide input is factored transposed
            perms = [(rng.permutation(a.shape[0]), rng.permutation(a.shape[1])) for _ in range(5)]
            for scale in SCALES:
                assert numerical_rank(scale * a) == 3, (a.shape, scale)
                for rp, cp in perms:
                    assert numerical_rank(scale * a[rp][:, cp]) == 3, (a.shape, scale)

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 5))) == 0


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

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0)])
    def test_rejects_an_empty_shape_without_drawing(self, rows, cols):
        rng = make_rng(0)
        before = repr(rng.bit_generator.state)  # the Philox counter and key are arrays
        with pytest.raises(ShapeError, match=f"^matrix dims must be positive, got {rows}x{cols}$"):
            gaussian(rng, rows, cols, 1.0)
        assert repr(rng.bit_generator.state) == before


class TestAsMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            as_matrix(np.ones(3))

    def test_names_a_missing_matrix(self):
        with pytest.raises(ShapeError, match="^r is missing$"):
            as_matrix(None, "r")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("index", [0, -1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_first_or_last_entry(self, value, index):
        # (65, 65) lies above matcore._VDOT_MAX_SIZE: its sum of squares takes einsum
        for shape in [(3, 4), (65, 65)]:
            a = make_rng(5).normal(size=shape)
            a.flat[index] = value
            with pytest.raises(NonFiniteError, match="x contains non-finite entries"):
                as_matrix(a, "x")

    @pytest.mark.parametrize("shape", [(3, 4), (65, 65)])
    def test_accepts_finite_entries_whose_squares_overflow(self, shape):
        # the sum of squares is inf, so the elementwise scan is what accepts the matrix
        a = np.full(shape, 1e200)
        assert sum_of_squares(a) == math.inf
        assert as_matrix(a).tobytes() == a.tobytes()

    def test_accepts_every_finite_extreme(self):
        a = np.array([[-0.0, 5e-324], [1.7e308, -1.7e308]])
        out = as_matrix(a)
        assert out.tobytes() == a.tobytes()
