import numpy as np
import pytest

from deft import subspace
from deft.adapters import AdapterConfig, init_adapter, merge
from deft.decompose import Backend
from deft.matcore import make_rng, numerical_rank
from deft.subspace import (
    check_containment,
    displacement_field,
    extension_ranks,
    field_summary,
    field_to_csv,
    make_grid,
    verify_decomposition_identity,
)


def orthonormal(seed, m, r):
    q, _ = np.linalg.qr(make_rng(seed).normal(size=(m, r)))
    return q


class TestSplitIdentity:
    def test_random_pairs(self):
        rng = make_rng(0)
        for trial in range(20):
            w = rng.normal(size=(12, 9))
            q = orthonormal(100 + trial, 12, 4)
            assert verify_decomposition_identity(w, q) < 1e-12

    def test_zero_w(self):
        assert verify_decomposition_identity(np.zeros((6, 3)), orthonormal(1, 6, 2)) == 0.0

    def test_non_orthonormal_q_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            verify_decomposition_identity(np.ones((4, 4)), np.full((4, 2), 0.9))

    def test_differs_from_projection_residual(self):
        # the split is an identity even when q q^T w is far from w
        w = make_rng(2).normal(size=(10, 6))
        q = orthonormal(3, 10, 1)
        proj_resid = np.linalg.norm(w - q @ (q.T @ w))
        assert proj_resid > 1.0  # q captures almost nothing of w
        assert verify_decomposition_identity(w, q) < 1e-12


def independent_rank(a, tol=1e-8):
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > tol * s[0]).sum())


class TestContainment:
    def test_reduced_weight_stays_inside(self):
        # q built from w0's own columns: reduce cannot add directions
        rng = make_rng(4)
        for trial in range(10):
            w0 = rng.normal(size=(10, 6))
            q, _ = np.linalg.qr(w0[:, :2])
            w_reduce = w0 - q @ (q.T @ w0)
            stacked = independent_rank(np.hstack([w0, w_reduce]))
            assert stacked == independent_rank(w0)

    def test_adapter_output_contained(self):
        rng = make_rng(5)
        for kind in ("qr", "tsvd", "relax"):
            w0 = rng.normal(size=(12, 8))
            state = init_adapter(
                w0, AdapterConfig("deft", 3, backend=Backend(kind), init_stddev=0.4, seed=6)
            )
            state.r = rng.normal(size=(3, 8))
            from deft.adapters import refresh

            rep = check_containment(w0, refresh(state), merge(state))
            assert rep.containment_holds, kind
            assert rep.rank_union_total == rep.rank_union

    def test_extension_witness(self):
        # w0 spans only the first two axes; q points along the third
        w0 = np.zeros((4, 4))
        w0[0, 0] = 2.0
        w0[1, 1] = 3.0
        q = np.zeros((4, 1))
        q[2, 0] = 1.0
        w_total = w0 - q @ (q.T @ w0) + q @ np.ones((1, 4))
        rep = check_containment(w0, q, w_total)
        assert rep.containment_holds
        assert rep.rank_w0 == 2
        rank_w0, rank_w0_with_total = extension_ranks(w0, w_total)
        assert rank_w0_with_total > rank_w0
        assert rank_w0_with_total == 3

    def test_no_extension_when_q_inside_base_span(self):
        # removal along directions already in col(w0) cannot add new ones
        w0 = make_rng(7).normal(size=(8, 5))
        q, _ = np.linalg.qr(w0[:, :2])
        w_total = w0 - q @ (q.T @ w0)
        rep = check_containment(w0, q, w_total)
        assert rep.containment_holds
        rank_w0, rank_w0_with_total = extension_ranks(w0, w_total)
        assert not rank_w0_with_total > rank_w0

    @pytest.mark.parametrize("scale", [1e-300, 1e-8, 1e8, 1e300])
    def test_report_does_not_depend_on_w0_scale(self, scale):
        # w0 is tall, so q reaches outside col(w0) and the update extends it
        w0 = make_rng(12).normal(size=(20, 8))
        q = orthonormal(13, 20, 3)
        r = make_rng(14).normal(size=(3, 8))
        want = check_containment(w0, q, w0 - q @ (q.T @ w0) + q @ r)
        want_ranks = extension_ranks(w0, w0 - q @ (q.T @ w0) + q @ r)
        assert want.containment_holds and want_ranks[1] > want_ranks[0]
        w0 = scale * w0
        w_total = w0 - q @ (q.T @ w0) + q @ (scale * r)
        assert check_containment(w0, q, w_total) == want
        assert extension_ranks(w0, w_total) == want_ranks

    def test_containment_takes_five_rank_svds(self, monkeypatch):
        # rank(w0), rank(reduce), rank(total), rank([w0|q]), rank([w0|q|total]); the
        # extension rank of [w0|total] is extension_ranks's alone
        calls = []
        real = subspace.numerical_rank

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(subspace, "numerical_rank", counted)
        w0 = make_rng(9).normal(size=(9, 5))
        q = orthonormal(10, 9, 2)
        check_containment(w0, q, w0 - q @ (q.T @ w0) + q @ make_rng(11).normal(size=(2, 5)))
        assert calls == [(9, 5), (9, 5), (9, 5), (9, 7), (9, 12)]
        calls.clear()
        extension_ranks(w0, w0)
        assert calls == [(9, 5), (9, 10)]

    def test_every_rank_count_uses_one_cutoff(self):
        # a singular value 1e-9 of the largest is below the package's one cutoff, 1e-8
        w0 = np.diag([1.0, 1e-9])
        rep = check_containment(w0, np.array([[1.0], [0.0]]), w0)
        assert numerical_rank(w0) == rep.rank_w0 == rep.rank_total == 1
        assert extension_ranks(w0, w0) == (1, 1)

    def test_ranks_match_lapack(self):
        w0 = make_rng(9).normal(size=(9, 5))
        q = orthonormal(10, 9, 2)
        w_total = w0 - q @ (q.T @ w0) + q @ make_rng(11).normal(size=(2, 5))
        rep = check_containment(w0, q, w_total)
        assert rep.rank_w0 == independent_rank(w0)
        assert rep.rank_total == independent_rank(w_total)
        assert rep.rank_union == independent_rank(np.hstack([w0, q]))


class TestGridAndField:
    def test_grid_shape_and_corners(self):
        g = make_grid(-1.0, 1.0, 5)
        assert g.shape == (25, 2)
        assert (g[0] == [-1.0, -1.0]).all()
        assert (g[-1] == [1.0, 1.0]).all()
        assert (g.min(), g.max()) == (-1.0, 1.0)

    def test_grid_n1(self):
        g = make_grid(0.0, 2.0, 1)
        assert g.shape == (1, 2) and (g[0] == [0.0, 0.0]).all()

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            make_grid(n=0)

    def test_field_shapes(self):
        state = init_adapter(
            make_rng(12).normal(size=(6, 4)), AdapterConfig("deft", 2, init_stddev=0.3)
        )
        field = displacement_field(state, n=7)
        assert field.grid_points.shape == (49, 2)
        assert field.displacements_full.shape == (49, 6)
        assert field.displacements_nonneg.shape == (49, 6)

    def test_field_matches_direct_computation(self):
        state = init_adapter(
            make_rng(13).normal(size=(5, 3)), AdapterConfig("para", 2, init_stddev=0.5, seed=14)
        )
        field = displacement_field(state, n=3)
        delta = merge(state) - state.w0
        for g, row in zip(field.grid_points, field.displacements_full):
            x = np.array([g[0], g[1], 0.0])
            assert np.abs(delta @ x - row).max() < 1e-12

    def test_lora_fields_coincide(self):
        state = init_adapter(
            make_rng(15).normal(size=(4, 3)), AdapterConfig("lora", 2, init_stddev=0.2)
        )
        state.b_lo = make_rng(16).normal(size=(4, 2))
        field = displacement_field(state, n=4)
        assert np.array_equal(field.displacements_full, field.displacements_nonneg)

    def test_nonneg_uses_clipped_projector(self):
        w0 = make_rng(17).normal(size=(5, 4))
        state = init_adapter(w0, AdapterConfig("para", 2, init_stddev=0.6, seed=18))
        from deft.adapters import refresh

        p_nn = np.maximum(refresh(state), 0.0)
        delta_nn = -p_nn @ (p_nn.T @ w0)
        field = displacement_field(state, n=3)
        for g, row in zip(field.grid_points, field.displacements_nonneg):
            x = np.array([g[0], g[1], 0.0, 0.0])
            assert np.abs(delta_nn @ x - row).max() < 1e-12

    def test_summary_keys(self):
        state = init_adapter(
            make_rng(19).normal(size=(3, 2)), AdapterConfig("deft", 1, init_stddev=0.4)
        )
        summary = field_summary(displacement_field(state, n=5))
        assert set(summary) == {"mean_full", "max_full", "mean_nonneg", "max_nonneg"}
        assert summary["max_full"] >= summary["mean_full"] >= 0.0

    @staticmethod
    def _scaled_probe_summary(k):
        """field_summary of a seeded 2 x 2 deft/relax state whose W0 and R are scaled by 2**k."""
        rng = make_rng(21)
        cfg = AdapterConfig("deft", 1, backend=Backend("relax"), init_stddev=0.5, seed=21)
        state = init_adapter(np.ldexp(rng.normal(size=(2, 2)), k), cfg)
        state.r = np.ldexp(rng.normal(size=(1, 2)), k)
        return field_summary(displacement_field(state))

    @pytest.mark.parametrize("k", [-540, 520])
    def test_summary_scales_with_the_field(self, k):
        # squared entries underflow to 0 at 2**-540 and overflow at 2**520
        unit = self._scaled_probe_summary(0)
        scaled = self._scaled_probe_summary(k)
        for key, value in unit.items():
            expected = np.ldexp(value, k)
            assert value > 0.0 and abs(scaled[key] - expected) <= 1e-12 * expected, key


class TestCsv:
    def test_field_csv_layout(self, tmp_path):
        state = init_adapter(
            make_rng(20).normal(size=(3, 2)), AdapterConfig("para", 1, init_stddev=0.3)
        )
        field_to_csv(displacement_field(state, n=2), tmp_path / "field.csv")
        lines = (tmp_path / "field.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == "x0,x1,full_0,full_1,full_2,nonneg_0,nonneg_1,nonneg_2"
        assert len(lines) == 6 and lines[-1] == ""  # header + 4 points + trailing newline
        # values survive a parse round trip exactly
        first = [float(v) for v in lines[1].split(",")]
        assert first[:2] == [-1.0, -1.0]
