import importlib
import warnings

import numpy as np
import pytest

from deft._jacobi import jacobi_svd
from deft.decompose import Backend, KINDS, decompose, reconstruct
from deft.matcore import ShapeError, frobenius_norm, make_rng, rel_error


def mgs_qr(b):
    """Modified Gram-Schmidt, the textbook reference factorization."""
    b = np.array(b, dtype=float)
    m, r = b.shape
    q = np.zeros((m, r))
    rt = np.zeros((r, r))
    for j in range(r):
        v = b[:, j].copy()
        for i in range(j):
            rt[i, j] = q[:, i] @ v
            v -= rt[i, j] * q[:, i]
        rt[j, j] = np.linalg.norm(v)
        q[:, j] = v / rt[j, j]
    return q, rt


class TestQr:
    def test_orthonormal_input_gives_signed_identity_r(self):
        basis, _ = np.linalg.qr(make_rng(0).normal(size=(8, 3)))
        res = decompose(basis, Backend("qr"))
        assert np.abs(np.abs(res.aux["r_tri"]) - np.eye(3)).max() < 1e-12
        assert np.abs(np.abs(res.p_factor) - np.abs(basis)).max() < 1e-12

    def test_axis_aligned(self):
        res = decompose(np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]]), Backend("qr"))
        assert np.abs(res.p_factor - np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])).max() < 1e-15
        assert np.abs(res.aux["r_tri"] - np.diag([2.0, 3.0])).max() < 1e-15

    def test_against_gram_schmidt(self):
        b = make_rng(1).normal(size=(16, 4))
        res = decompose(b, Backend("qr"))
        assert rel_error(res.p_factor @ res.aux["r_tri"], b) < 1e-12
        q_ref, _ = mgs_qr(b)
        # same column space: the two projectors agree
        assert np.abs(res.p_factor @ res.p_factor.T - q_ref @ q_ref.T).max() < 1e-10

    def test_orthonormal_columns(self):
        rng = make_rng(2)
        for _ in range(10):
            res = decompose(rng.normal(size=(9, 4)), Backend("qr"))
            assert frobenius_norm(res.p_factor.T @ res.p_factor - np.eye(4)) < 1e-10
            assert np.abs(np.tril(res.aux["r_tri"], -1)).max() == 0.0

    def test_degenerate_columns_flagged_not_fatal(self):
        rng = make_rng(3)
        col = rng.normal(size=(7, 1))
        b = np.hstack([col, 2.0 * col, rng.normal(size=(7, 1))])
        res = decompose(b, Backend("qr"))
        assert "degenerate_columns" in res.notes
        assert frobenius_norm(res.p_factor.T @ res.p_factor - np.eye(3)) < 1e-10
        assert rel_error(res.p_factor @ res.aux["r_tri"], b) < 1e-12

    def test_zero_latent(self):
        res = decompose(np.zeros((5, 2)), Backend("qr"))
        assert "degenerate_columns" in res.notes
        assert frobenius_norm(res.p_factor.T @ res.p_factor - np.eye(2)) < 1e-12

    @pytest.mark.parametrize("case", ["zero_column", "repeated_column", "all_zero", "all_neg_zero",
                                      "full_rank"])
    def test_degenerate_note_on_exact_cases(self, case):
        b = make_rng(4).normal(size=(8, 4))
        if case == "zero_column":
            b[:, 2] = 0.0
        elif case == "repeated_column":
            b[:, 3] = b[:, 1]
        elif case != "full_rank":
            b[...] = 0.0 if case == "all_zero" else -0.0
        notes = decompose(b, Backend("qr")).notes
        assert notes == (() if case == "full_rank" else ("degenerate_columns",))

    def test_wide_rejected(self):
        with pytest.raises(ShapeError):
            decompose(np.ones((2, 5)), Backend("qr"))


class TestFullSvdOracle:
    def test_identity(self):
        _, s, _ = jacobi_svd(np.eye(5))
        assert np.abs(s - 1.0).max() < 1e-14

    def test_rank_one(self):
        rng = make_rng(4)
        u = rng.normal(size=6)
        v = rng.normal(size=4)
        _, s, _ = jacobi_svd(np.outer(u, v))
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(s[0] - expected) < 1e-12 * expected
        assert (s[1:] < 1e-12 * expected).all()

    def test_against_symmetric_eigen_oracle(self):
        a = make_rng(5).normal(size=(6, 6))
        _, s, _ = jacobi_svd(a)
        lam = np.linalg.eigvalsh(a.T @ a)[::-1]
        assert np.abs(s - np.sqrt(np.maximum(lam, 0.0))).max() < 1e-9

    def test_reconstruction(self):
        rng = make_rng(6)
        for shape in ((7, 4), (4, 7), (5, 5)):
            a = rng.normal(size=shape)
            u, s, v = jacobi_svd(a)
            assert rel_error(u @ np.diag(s) @ v.T, a) < 1e-10


class TestTruncatedSvd:
    def test_diagonal_case(self):
        res = decompose(np.diag([5.0, 3.0, 1.0]), Backend("tsvd"), 2)
        err = frobenius_norm(np.diag([5.0, 3.0, 1.0]) - reconstruct(res, np.diag([5.0, 3.0, 1.0])))
        assert abs(err - 1.0) < 1e-12

    def test_full_rank_exact(self):
        a = make_rng(7).normal(size=(6, 4))
        res = decompose(a, Backend("tsvd"), 4)
        assert rel_error(reconstruct(res, a), a) < 1e-10

    def test_against_lapack_truncation(self):
        a = make_rng(8).normal(size=(12, 8))
        res = decompose(a, Backend("tsvd"), 3)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        ref = u[:, :3] @ np.diag(s[:3]) @ vt[:3]
        err = frobenius_norm(a - reconstruct(res, a))
        ref_err = frobenius_norm(a - ref)
        assert abs(err - ref_err) < 1e-9

    def test_aux_singular_values_sorted(self):
        res = decompose(make_rng(9).normal(size=(10, 6)), Backend("tsvd"), 4)
        s = res.aux["s"]
        assert (np.diff(s) <= 0).all() and (s >= 0).all()

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_whole_matrix_scale(self, scale):
        b = scale * make_rng(9).normal(size=(10, 6))
        res = decompose(b, Backend("tsvd"), 4)
        ref = np.linalg.svd(b, compute_uv=False)
        assert np.abs(res.aux["s"] - ref[:4]).max() <= 1e-13 * ref[0]
        assert np.abs(res.p_factor.T @ res.p_factor - np.eye(4)).max() < 1e-13


class TestLrmf:
    def test_scalar_case(self):
        res = decompose(np.array([[4.0]]), Backend("lrmf"), 1)
        assert abs(np.linalg.norm(res.p_factor[:, 0]) - 2.0) < 1e-12

    def test_orthonormal_input_unit_columns(self):
        basis, _ = np.linalg.qr(make_rng(10).normal(size=(7, 3)))
        res = decompose(basis, Backend("lrmf"), 3)
        norms = np.linalg.norm(res.p_factor, axis=0)
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_gram_matches_oracle(self):
        a = make_rng(11).normal(size=(10, 6))
        res = decompose(a, Backend("lrmf"), 2)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        ref = u[:, :2] @ np.diag(s[:2]) @ u[:, :2].T
        assert np.abs(res.p_factor @ res.p_factor.T - ref).max() < 1e-10

    def test_zero_singular_flagged(self):
        a = np.outer(make_rng(12).normal(size=6), make_rng(13).normal(size=6))
        res = decompose(a, Backend("lrmf"), 3)  # ranks 2 and 3 of a rank-1 matrix are zero
        assert "zero_singular_columns" in res.notes
        assert np.abs(res.p_factor[:, 1:]).max() < 1e-6

    @pytest.mark.parametrize("portable", [True, False])
    def test_zero_singular_note_on_exact_cases(self, portable):
        a = make_rng(12).normal(size=(6, 4))
        assert decompose(a, Backend("lrmf"), 4, portable=portable).notes == ()
        a[:, 1] = 0.0  # exactly rank 3: the fourth singular value is zero
        notes = decompose(a, Backend("lrmf"), 4, portable=portable).notes
        assert notes == ("zero_singular_columns",)
        assert decompose(a, Backend("lrmf"), 3, portable=portable).notes == ()
        notes = decompose(np.zeros((6, 4)), Backend("lrmf"), 2, portable=portable).notes
        assert notes == ("zero_singular_columns",)

    @pytest.mark.parametrize("portable", [True, False])
    @pytest.mark.parametrize("shape", [(32, 4), (24, 18), (4, 9), (3072, 8)])
    def test_factor_is_tsvds_scaled_by_root_singular_values(self, shape, portable):
        b = make_rng(14).normal(size=shape)
        for rank in (1, min(shape)):
            tsvd, lrmf = (decompose(b, Backend(k), rank, portable=portable) for k in ("tsvd", "lrmf"))
            assert lrmf.p_factor.tobytes() == (tsvd.p_factor * np.sqrt(tsvd.aux["s"])).tobytes()
            assert lrmf.aux.keys() == tsvd.aux.keys()
            assert all(lrmf.aux[k].tobytes() == tsvd.aux[k].tobytes() for k in tsvd.aux)
            assert lrmf.stats == tsvd.stats


class TestNmf:
    def test_rank_one_recovery(self):
        rng = make_rng(14)
        b = np.outer(rng.uniform(0.5, 2.0, size=6), rng.uniform(0.5, 2.0, size=5))
        res = decompose(b, Backend("nmf", nmf_iters=20_000, nmf_tol=0.0), 1)
        assert frobenius_norm(b - res.p_factor @ res.aux["h"]) < 1e-6

    def test_all_zero(self):
        res = decompose(np.zeros((4, 4)), Backend("nmf", nmf_iters=200), 2)
        assert np.array_equal(res.p_factor, np.zeros((4, 2)))
        assert np.array_equal(res.aux["h"], np.zeros((2, 4)))
        assert res.aux["err_trace"][-1] == 0.0

    @pytest.mark.parametrize("sign", [-1.0, 0.0, -0.0])
    def test_nothing_positive_factors_exactly_as_zero(self, sign):
        # an all-negative latent clamps to zero (with the note), an all-zero one is zero as is
        b = sign * np.abs(make_rng(23).normal(size=(32, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = decompose(b, Backend("nmf"), 4)
        assert res.p_factor.tobytes() == np.zeros((32, 4)).tobytes()
        assert res.aux["h"].tobytes() == np.zeros((4, 4)).tobytes()
        assert res.aux["err_trace"].tolist() == [0.0]
        assert res.notes == (("clamped_negative_input",) if sign else ())

    def test_subnormal_positive_part_is_factored_at_unit_scale(self):
        b = make_rng(24).normal(size=(32, 4))
        b[b > 0.0] = np.ldexp(b[b > 0.0], -1070)  # every positive entry subnormal
        with pytest.warns(UserWarning, match="clamping"):
            res = decompose(b, Backend("nmf"), 4)
        assert res.notes == ("clamped_negative_input",)
        assert res.p_factor.any() and res.aux["err_trace"][0] > 0.0

    def test_monotone_error(self):
        b = make_rng(15).uniform(0.0, 1.0, size=(8, 8))
        res = decompose(b, Backend("nmf", nmf_iters=200, nmf_tol=0.0), 8)
        trace = res.aux["err_trace"]
        assert len(trace) >= 2
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev * (1.0 + 1e-12) + 1e-15

    def test_factors_nonnegative(self):
        b = make_rng(16).uniform(0.0, 2.0, size=(6, 7))
        res = decompose(b, Backend("nmf", nmf_iters=50), 3)
        assert (res.p_factor >= 0).all() and (res.aux["h"] >= 0).all()

    def test_clamp_warning_on_signed_input(self):
        b = make_rng(17).normal(size=(5, 5))
        with pytest.warns(UserWarning, match="clamping"):
            res = decompose(b, Backend("nmf", nmf_iters=10), 2)
        assert "clamped_negative_input" in res.notes
        # factorizes the clamped matrix, not the signed one
        clamped = np.maximum(b, 0.0)
        err = res.aux["err_trace"][-1]
        assert abs(err - frobenius_norm(clamped - res.p_factor @ res.aux["h"])) < 1e-9

    @pytest.mark.parametrize("scale", [1e-150, 1e-9, 1e9, 1e150, 1e154, 1e200, 1e300])
    def test_result_does_not_depend_on_scale(self, scale):
        # an absolute guard in the updates used to swamp inputs below ~1e-8,
        # and the input's squared norm overflowed from ~1e154 on
        b = np.abs(make_rng(19).normal(size=(12, 8)))
        ref = decompose(b, Backend("nmf", nmf_iters=200), 3)
        res = decompose(scale * b, Backend("nmf", nmf_iters=200), 3)
        assert len(res.aux["err_trace"]) == len(ref.aux["err_trace"])
        np.testing.assert_allclose(res.aux["err_trace"] / scale, ref.aux["err_trace"], rtol=1e-8)
        np.testing.assert_allclose(res.p_factor @ res.aux["h"] / scale,
                                   ref.p_factor @ ref.aux["h"], rtol=1e-8)

    def test_determinism(self):
        b = make_rng(18).uniform(0.0, 1.0, size=(7, 6))
        r1 = decompose(b, Backend("nmf", nmf_iters=40), 3, seed=5)
        r2 = decompose(b, Backend("nmf", nmf_iters=40), 3, seed=5)
        assert np.array_equal(r1.p_factor, r2.p_factor)
        assert np.array_equal(r1.aux["h"], r2.aux["h"])


class TestEig:
    def test_orthogonal_columns_align(self):
        cols = np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        res = decompose(cols, Backend("eig"), 2)
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.abs(res.p_factor - expected).max() < 1e-12

    def test_eigenvalues_are_squared_singular_values(self):
        b = make_rng(19).normal(size=(8, 5))
        res = decompose(b, Backend("eig"), 5)
        s = np.linalg.svd(b, compute_uv=False)
        assert np.abs(res.aux["lambda"] - s**2).max() < 1e-9

    def test_full_rank_complete_basis(self):
        b = make_rng(20).normal(size=(5, 5))
        res = decompose(b, Backend("eig"), 5)
        v = res.p_factor
        assert np.abs(v @ v.T - np.eye(5)).max() < 1e-9

    def test_orthonormal_columns(self):
        res = decompose(make_rng(21).normal(size=(9, 4)), Backend("eig"), 3)
        assert frobenius_norm(res.p_factor.T @ res.p_factor - np.eye(3)) < 1e-10

    def test_matches_eigh_of_gram(self):
        for seed in range(20):
            b = make_rng(seed).normal(size=(12, 4))
            res = decompose(b, Backend("eig"), 4)
            lam, vec = np.linalg.eigh(b @ b.T)
            p = vec[:, ::-1][:, :4]
            assert np.abs(res.p_factor @ res.p_factor.T - p @ p.T).max() < 1e-12
            assert np.abs(res.aux["lambda"] / lam[::-1][:4] - 1.0).max() < 1e-12

    def test_rank_bounded_by_columns(self):
        with pytest.raises(ShapeError):
            decompose(make_rng(22).normal(size=(9, 4)), Backend("eig"), 5)

    @pytest.mark.parametrize("shape", [(12, 5), (6, 6), (5, 12)])
    def test_is_tsvds_lapack_factor(self, shape):
        # one SVD call site: a wide input too is factored transposed and signed by its v
        b = make_rng(23).normal(size=shape)
        eig = decompose(b, Backend("eig"), 3)
        tsvd = decompose(b, Backend("tsvd"), 3, portable=False)
        assert eig.p_factor.tobytes() == tsvd.p_factor.tobytes()
        assert eig.aux["lambda"].tobytes() == (tsvd.aux["s"] ** 2).tobytes()


class TestRelax:
    def test_identity_on_nonneg(self):
        b = make_rng(22).uniform(0.0, 1.0, size=(4, 3))
        assert np.array_equal(decompose(b, Backend("relax_nmf")).p_factor, b)

    def test_all_negative_becomes_zero(self):
        b = -make_rng(23).uniform(0.1, 1.0, size=(4, 3))
        assert np.array_equal(decompose(b, Backend("relax_nmf")).p_factor, np.zeros((4, 3)))

    def test_mixed_signs_elementwise(self):
        b = make_rng(24).normal(size=(6, 2))
        out = decompose(b, Backend("relax_nmf")).p_factor
        assert np.array_equal(out, np.maximum(b, 0.0))

    def test_plain_relax_is_a_copy(self):
        b = make_rng(25).normal(size=(3, 2))
        out = decompose(b, Backend("relax")).p_factor
        assert np.array_equal(out, b) and out is not b


def backend_error(b, kind, rank, seed=0):
    """Frobenius error of a backend's rank-`rank` approximation of b."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # nmf clamps signed latents, expected here
        res = decompose(b, Backend(kind), rank, seed=seed)
    return frobenius_norm(b - reconstruct(res, b))


class TestDispatcherAndProperties:
    def test_p_factor_shape_for_every_kind(self):
        b = make_rng(26).normal(size=(9, 4))
        for kind in KINDS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = decompose(b, Backend(kind), 4, seed=1)
            assert res.p_factor.shape == (9, 4), kind

    def test_determinism_bit_identical(self):
        b = make_rng(27).normal(size=(8, 3))
        for kind in KINDS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                r1 = decompose(b, Backend(kind), 3, seed=9)
                r2 = decompose(b.copy(), Backend(kind), 3, seed=9)
            assert np.array_equal(r1.p_factor, r2.p_factor), kind
            for key in r1.aux:
                assert np.array_equal(r1.aux[key], r2.aux[key]), (kind, key)

    def test_orthonormal_trio(self):
        b = make_rng(28).normal(size=(10, 4))
        for kind in ("qr", "tsvd", "eig"):
            res = decompose(b, Backend(kind), 4)
            gram = res.p_factor.T @ res.p_factor
            assert frobenius_norm(gram - np.eye(4)) < 1e-10, kind

    def test_rank_mismatch_rejected_for_intrinsic_kinds(self):
        b = np.ones((6, 3))
        for kind in ("qr", "relax", "relax_nmf"):
            with pytest.raises(ShapeError):
                decompose(b, Backend(kind), 2)

    def test_truncated_svd_is_optimal_on_latents(self):
        rng = make_rng(29)
        for trial in range(10):
            b = rng.normal(size=(8, 4))
            best = backend_error(b, "tsvd", 4, seed=trial)
            for kind in KINDS:
                assert best <= backend_error(b, kind, 4, seed=trial) + 1e-8, kind

    def test_truncated_svd_is_optimal_at_reduced_rank(self):
        rng = make_rng(30)
        for trial in range(10):
            b = rng.uniform(0.0, 1.0, size=(10, 7))
            best = backend_error(b, "tsvd", 3, seed=trial)
            for kind in ("lrmf", "nmf", "eig"):
                assert best <= backend_error(b, kind, 3, seed=trial) + 1e-8, kind
            # projection onto the span of the first 3 columns, a valid rank-3 competitor
            q, _ = np.linalg.qr(b[:, :3])
            assert best <= frobenius_norm(b - q @ (q.T @ b)) + 1e-8

    def test_reconstruct_needs_matrix_only_for_eig(self):
        b = make_rng(31).uniform(0.5, 1.0, size=(5, 3))
        zeros = np.zeros_like(b)
        for kind in KINDS:
            res = decompose(b, Backend(kind), None if kind in ("qr", "relax", "relax_nmf") else 2)
            if kind == "eig":  # P (P^T b): it projects the matrix it is given
                p = res.p_factor
                assert np.array_equal(reconstruct(res, b), p @ (p.T @ b))
                assert reconstruct(res, b).any() and not reconstruct(res, zeros).any()
            else:  # rebuilt from its own factors, the same bits whatever b is
                assert np.array_equal(reconstruct(res, b), reconstruct(res, zeros)), kind

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            Backend("cholesky")
        with pytest.raises(ValueError):
            decompose(np.ones((3, 2)), Backend("tsvd"), 0)

    def test_backend_knobs_are_keyword_only(self):
        # a positional second argument once meant the rank; it must not become nmf_iters
        with pytest.raises(TypeError):
            Backend("tsvd", 4)

    def test_rank_defaults_to_the_largest_the_kind_allows(self):
        for shape in ((9, 4), (4, 9)):
            b = make_rng(32).uniform(0.0, 1.0, size=shape)
            for kind in KINDS:
                if kind == "qr" and shape[0] < shape[1]:
                    continue  # qr rejects a wide latent
                res = decompose(b, Backend(kind))
                full = shape[1] if kind in ("qr", "relax", "relax_nmf") else min(shape)
                assert res.p_factor.shape == (shape[0], full), (kind, shape)

    def test_one_matrix_check_per_call(self, monkeypatch):
        module = importlib.import_module("deft.decompose")  # deft.decompose is the function
        calls = []
        real = module.as_matrix

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "as_matrix", counting)
        b = make_rng(33).uniform(0.0, 1.0, size=(8, 3))
        for kind in KINDS:
            calls.clear()
            decompose(b, Backend(kind), 3)
            assert len(calls) == 1, kind


def _same_bits(r1, r2):
    return (r1.p_factor.tobytes() == r2.p_factor.tobytes() and r1.aux.keys() == r2.aux.keys()
            and all(r1.aux[k].tobytes() == r2.aux[k].tobytes() for k in r1.aux))


class TestPortable:
    """decompose's `portable`: False puts tsvd and lrmf on LAPACK's thin SVD.

    That path is the one every adapter's refresh takes; the default, True,
    is the Jacobi SVD.
    """

    def latent(self):
        return make_rng(34).normal(size=(24, 4)) + 1e-3 * make_rng(35).normal(size=(24, 4))

    def test_stats_report_the_jacobi_sweeps(self):
        b = make_rng(36).uniform(0.0, 1.0, size=(9, 3))
        for kind in KINDS:
            for portable in (True, False):
                res = decompose(b, Backend(kind), 3, portable=portable)
                if kind in ("tsvd", "lrmf") and portable:
                    assert set(res.stats) == {"sweeps"} and res.stats["sweeps"] >= 1, kind
                else:
                    assert res.stats == {}, (kind, portable)

    @pytest.mark.parametrize("kind", ["tsvd", "lrmf"])
    def test_lapack_factor_matches_the_jacobi_one(self, kind):
        for b in (self.latent(), self.latent()[:9].T):  # a wide one signs its v, not its u
            jac = decompose(b, Backend(kind))
            fast = decompose(b, Backend(kind), portable=False)
            assert not _same_bits(fast, jac)  # LAPACK ran ...
            assert np.abs(fast.p_factor - jac.p_factor).max() <= 1e-12  # ... equal to rounding
            for key in jac.aux:
                assert np.abs(fast.aux[key] - jac.aux[key]).max() <= 1e-12, key
            assert fast.notes == jac.notes

    def test_other_kinds_ignore_portable(self):
        # only tsvd and lrmf read portable; eig is always on LAPACK, the rest take no SVD
        b = self.latent()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # nmf's clamp of the signed latent
            for kind in set(KINDS) - {"tsvd", "lrmf"}:
                assert _same_bits(decompose(b, Backend(kind), 4, seed=2, portable=False),
                                  decompose(b, Backend(kind), 4, seed=2)), kind

    @pytest.mark.parametrize("name", ["zero column", "equal columns", "graded"])
    @pytest.mark.parametrize("kind", ["tsvd", "lrmf"])
    def test_fast_factor_of_a_degenerate_latent(self, kind, name):
        # only the span is defined where singular values (nearly) coincide, so the fast factor
        # is checked for orthonormal bases and the reconstruction, not against the Jacobi one
        b = _degenerate_latents()[name]
        jac = decompose(b, Backend(kind))
        fast = decompose(b, Backend(kind), portable=False)
        s0 = jac.aux["s"][0]
        assert np.abs(fast.aux["s"] - jac.aux["s"]).max() <= 1e-12 * s0
        assert np.abs(reconstruct(fast, b) - b).max() <= 1e-12 * s0
        k = min(b.shape)
        v = fast.aux["v"]
        assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-12
        if kind == "tsvd":  # the dependent directions are filled: u is a whole orthonormal basis
            u = fast.p_factor
            assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12
        assert fast.notes == jac.notes  # lrmf's zero_singular_columns, on the two rank-deficient ones


def _degenerate_latents():
    """Latents with (nearly) coinciding singular values, by name."""
    rng = make_rng(19)
    zero = rng.normal(size=(12, 5))
    zero[:, 2] = 0.0
    equal = rng.normal(size=(12, 5))
    equal[:, 3] = equal[:, 1]
    q1 = np.linalg.qr(rng.normal(size=(12, 5)))[0]
    q2 = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    # down to 1e-11: at lrmf's note threshold, s = 1e-12 s_0, the two SVDs may set the note
    # differently
    graded = (q1 * np.logspace(0.0, -11.0, 5)) @ q2.T
    return {"zero column": zero, "equal columns": equal, "graded": graded}
