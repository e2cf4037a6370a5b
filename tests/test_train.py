import tracemalloc
import warnings

import numpy as np
import pytest

from deft import adapters, store, train
from deft.adapters import (
    AdapterConfig, forward, init_adapter, merge, refresh, trainables,
)
from deft.decompose import KINDS, Backend, decompose
from deft.matcore import ShapeError, make_rng
from deft.train import (
    DivergenceError,
    ToyTask,
    _batch,
    _pass,
    grad,
    loss_mse,
    make_teacher_noise_task,
    make_teacher_shift_task,
    report_to_csv,
    run_finetune,
    sgd_step,
    summary_line,
)


def fd_grad(state, task, name, h=1e-6):
    """Central-difference gradient of loss_mse w.r.t. one trainable."""
    arr = trainables(state)[name]
    out = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + h
        hi = loss_mse(state, task)
        arr[idx] = orig - h
        lo = loss_mse(state, task)
        arr[idx] = orig
        out[idx] = (hi - lo) / (2.0 * h)
    return out


def rel_dev(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


def small_task(seed, m=6, n=4):
    rng = make_rng(seed)
    w0 = rng.normal(size=(m, n))
    teacher = w0 + rng.normal(size=(m, n))
    inputs = rng.normal(size=(n, 5))
    return w0, ToyTask(teacher=teacher, inputs=inputs, targets=teacher @ inputs)


class TestGradients:
    def test_deft_relax_matches_finite_differences(self):
        w0, task = small_task(0)
        state = init_adapter(
            w0, AdapterConfig("deft", 2, backend=Backend("relax"), init_stddev=0.5, seed=1)
        )
        state.r = make_rng(2).normal(size=(2, 4))
        g = grad(state, task)
        assert rel_dev(g["p_latent"], fd_grad(state, task, "p_latent")) < 1e-5
        assert rel_dev(g["r"], fd_grad(state, task, "r")) < 1e-5

    def test_para_relax_matches_finite_differences(self):
        w0, task = small_task(3)
        state = init_adapter(
            w0, AdapterConfig("para", 2, backend=Backend("relax"), init_stddev=0.5, seed=4)
        )
        g = grad(state, task)
        assert rel_dev(g["q_latent"], fd_grad(state, task, "q_latent")) < 1e-5

    def test_lora_matches_finite_differences(self):
        w0, task = small_task(5)
        state = init_adapter(w0, AdapterConfig("lora", 2, alpha=4.0, init_stddev=0.5, seed=6))
        state.b_lo = make_rng(7).normal(size=(6, 2))
        g = grad(state, task)
        assert rel_dev(g["a"], fd_grad(state, task, "a")) < 1e-5
        assert rel_dev(g["b_lo"], fd_grad(state, task, "b_lo")) < 1e-5

    def test_relax_nmf_masks_clipped_entries(self):
        w0, task = small_task(8)
        state = init_adapter(
            w0, AdapterConfig("deft", 2, backend=Backend("relax_nmf"), init_stddev=0.5, seed=9)
        )
        # keep every entry well away from the max(., 0) kink
        latent = state.p_latent
        latent[np.abs(latent) < 0.2] = 0.25
        g = grad(state, task)
        assert (g["p_latent"][latent <= 0.0] == 0.0).all()
        assert rel_dev(g["p_latent"], fd_grad(state, task, "p_latent")) < 1e-5

    def test_lora_zero_b_means_zero_a_gradient(self):
        w0, task = small_task(10)
        state = init_adapter(w0, AdapterConfig("lora", 3, init_stddev=0.4, seed=11))
        g = grad(state, task)
        assert not g["a"].any()
        assert g["b_lo"].any()

    def test_grad_keys_match_trainables(self):
        w0, task = small_task(12)
        for method in ("lora", "para", "deft"):
            backend = None if method == "lora" else Backend("relax")
            state = init_adapter(w0, AdapterConfig(method, 2, backend=backend, init_stddev=0.3))
            assert list(grad(state, task)) == list(trainables(state)), method

    def test_descent_direction(self):
        w0, task = small_task(13)
        cfg = AdapterConfig(
            "deft", 2, backend=Backend("relax"), lr_p=1e-3, lr_r=1e-3, init_stddev=0.5, seed=14
        )
        state = init_adapter(w0, cfg)
        before = loss_mse(state, task)
        sgd_step(state, grad(state, task))
        assert loss_mse(state, task) < before


def dense_reference_grads(state, task):
    """The gradients by the first, dense association of the products.

    Builds the m x m products g y^T, y g^T and the m x n product g x^T that
    the trainer avoids; the trainer must agree with it to float rounding.
    """
    x = task.inputs
    diff = forward(state, x) - task.targets
    m, k = diff.shape
    g = (2.0 / (m * k)) * diff
    cfg = state.cfg
    if cfg.method == "lora":
        scale = cfg.alpha / cfg.rank
        gxt = g @ x.T
        return {"a": scale * (state.b_lo.T @ gxt), "b_lo": scale * (gxt @ state.a.T)}
    (name, latent), *_ = trainables(state).items()
    p = refresh(state)
    y = state.w0 @ x
    dp = -(g @ y.T) @ p - (y @ g.T) @ p
    dr = {}
    if state.r is not None:
        gxt = g @ x.T
        dp = dp + gxt @ state.r.T
        dr = {"r": p.T @ gxt}
    if cfg.backend.kind == "relax_nmf":
        dp = dp * (latent > 0.0)
    return {name: dp, **dr}


def rect_state(method, kind, seed, m=40, n=24, k=16, rank=3):
    """An adapter with every trainable non-zero on an m x n layer, and a batch of k < n."""
    rng = make_rng(seed)
    w0 = rng.normal(size=(m, n))
    teacher = w0 + rng.normal(size=(m, n))
    inputs = rng.normal(size=(n, k))
    backend = None if method == "lora" else Backend(kind)
    state = init_adapter(w0, AdapterConfig(method, rank, backend=backend, init_stddev=0.5, seed=seed))
    for name, mat in list(trainables(state).items())[1:]:
        mat[...] = rng.normal(size=mat.shape)
    return state, ToyTask(teacher=teacher, inputs=inputs, targets=teacher @ inputs)


PARITY_CASES = [("lora", None)] + [
    (method, kind) for method in ("para", "deft") for kind in KINDS
]


def matmul_step(state, x, y, targets):
    """The forward output, z and the gradients by the step's formulas written inline with `@`.

    The state's factor is the one its last forward pass cached.
    """
    cfg = state.cfg
    if cfg.method == "lora":
        out = state.b_lo @ (state.a @ x)
        out *= cfg.alpha / cfg.rank
        out += y
        z = None
    else:
        p = state.cache[1].p_factor
        z = p.T @ y
        if state.r is not None:
            z -= state.r @ x
        out = y - p @ z
    diff = out - targets
    m, k = diff.shape
    scale = 2.0 / (m * k)
    if cfg.method == "lora":
        scale *= cfg.alpha / cfg.rank
        return out, z, {"a": scale * ((state.b_lo.T @ diff) @ x.T),
                        "b_lo": scale * (diff @ (x.T @ state.a.T))}
    (name, latent), *_ = trainables(state).items()
    pg = scale * (p.T @ diff)
    dp = -scale * (diff @ z.T) - y @ pg.T
    if cfg.backend.kind == "relax_nmf":
        dp = dp * (latent > 0.0)
    return out, z, {name: dp, **({} if state.r is None else {"r": pg @ x.T})}


def step_and_reference(state, task):
    """(forward output, state.z, gradients) of the step and of matmul_step on the same state."""
    x, y = _batch(state, task)
    out = forward(state, x, y)
    z = state.z
    _, grads = _pass(state, x, y, task.targets, True)
    return (out, z, grads), matmul_step(state, x, y, task.targets)


# lora, and para/deft on a factor that is the latent (relax), masked (relax_nmf) or
# orthonormal (qr, tsvd)
PRODUCT_CASES = [("lora", None)] + [
    (method, kind) for method in ("para", "deft") for kind in ("qr", "tsvd", "relax", "relax_nmf")
]


class TestLowRankStep:
    @pytest.mark.filterwarnings("ignore:nmf input has negative entries")
    @pytest.mark.parametrize("method,kind", PARITY_CASES)
    def test_grad_matches_dense_reference(self, method, kind):
        state, task = rect_state(method, kind, seed=50)
        got = grad(state, task)
        want = dense_reference_grads(state, task)
        assert list(got) == list(want)
        for name in want:
            assert got[name].shape == want[name].shape, name
            assert rel_dev(got[name], want[name]) <= 1e-12, (method, kind, name)

    @pytest.mark.parametrize("kind", ["qr", "tsvd", "relax", "relax_nmf"])
    @pytest.mark.parametrize("method", ["para", "deft"])
    def test_grad_reuses_the_forward_coefficient_bit_for_bit(self, method, kind):
        state, task = rect_state(method, kind, seed=61)
        x, y = _batch(state, task)
        _, got = _pass(state, x, y, task.targets, True)
        _, z, want = matmul_step(state, x, y, task.targets)  # z recomputed from y
        assert state.z.tobytes() == z.tobytes()
        assert list(got) == list(want)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), (method, kind, key)

    # (m, n, batch, rank): rank 1, a 1-row and a 1-column w0, and batch 1, where numpy's
    # `dot` may take a vector path (gemv or a dot product) instead of gemm
    @pytest.mark.parametrize("shape", [(40, 24, 16, 1), (1, 24, 16, 1), (40, 1, 16, 1),
                                       (40, 24, 1, 1), (40, 24, 1, 3)],
                             ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("method,kind", PRODUCT_CASES)
    def test_step_products_match_matmul_bit_for_bit(self, method, kind, shape):
        m, n, k, rank = shape
        for zero_r_side in (False, True):
            state, task = rect_state(method, kind, seed=62, m=m, n=n, k=k, rank=rank)
            if zero_r_side:  # as at init: lora's b_lo and deft's r are zero
                for mat in list(trainables(state).values())[1:]:
                    mat[...] = 0.0
            (out, z, got), (want_out, want_z, want) = step_and_reference(state, task)
            assert out.tobytes() == want_out.tobytes()
            assert (z is None) == (want_z is None)  # lora keeps no z
            assert want_z is None or z.tobytes() == want_z.tobytes()
            assert list(got) == list(want)
            for key in want:
                assert got[key].tobytes() == want[key].tobytes(), (zero_r_side, key)

    @pytest.mark.parametrize("shape", [(1, 24, 1, 1), (40, 1, 1, 1), (1, 1, 1, 1)],
                             ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("method,kind", PRODUCT_CASES)
    def test_one_by_one_products_match_matmul_up_to_the_sign_of_zero(self, method, kind, shape):
        # batch 1 on a 1-row or 1-column w0 multiplies 1 x 1 by 1 x 1 matrices; there `dot`
        # returns the product itself and `@` adds it to 0.0, so an exact zero may differ
        # in sign, and nothing else may
        m, n, k, rank = shape
        state, task = rect_state(method, kind, seed=63, m=m, n=n, k=k, rank=rank)
        (out, z, got), (want_out, want_z, want) = step_and_reference(state, task)
        assert np.array_equal(out, want_out)
        assert (z is None) == (want_z is None)
        assert want_z is None or np.array_equal(z, want_z)
        assert list(got) == list(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    @pytest.mark.parametrize("method,kind", [("lora", None), ("para", "qr"), ("deft", "relax")])
    def test_step_leaves_the_batch_unchanged(self, method, kind):
        state, task = rect_state(method, kind, seed=57)
        x, y = _batch(state, task)
        before = [a.copy() for a in (x, y, task.targets)]
        _pass(state, x, y, task.targets, True)
        for was, now in zip(before, (x, y, task.targets)):
            assert was.tobytes() == now.tobytes()

    @pytest.mark.parametrize("method", ["lora", "para", "deft"])
    def test_forward_with_base_is_bit_identical(self, method):
        state, task = rect_state(method, "relax", seed=51)
        x = task.inputs
        assert np.array_equal(forward(state, x, state.w0 @ x), forward(state, x))

    @pytest.mark.parametrize("shape", [(40, 15), (39, 16), (16, 40), (40,)])
    def test_forward_rejects_wrong_base_shape(self, shape):
        state, task = rect_state("deft", "relax", seed=52)
        with pytest.raises(ShapeError, match="base"):
            forward(state, task.inputs, np.zeros(shape))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [grad, loss_mse])
    def test_non_finite_inputs_rejected(self, fn, entry):
        state, task = rect_state("deft", "relax", seed=53)
        task.inputs[2, 3] = entry
        with pytest.raises(ValueError, match="x contains non-finite"):
            fn(state, task)

    @pytest.mark.parametrize("rows", [23, 25])
    @pytest.mark.parametrize("fn", [grad, loss_mse])
    def test_wrong_row_inputs_rejected(self, fn, rows):
        state, task = rect_state("lora", None, seed=54)
        task.inputs = make_rng(55).normal(size=(rows, 16))
        with pytest.raises(ShapeError, match="x has"):
            fn(state, task)

    def test_run_finetune_rejects_bad_inputs_before_training(self):
        state, task = rect_state("para", "qr", seed=56)
        task.inputs = task.inputs[:-1]
        with pytest.raises(ShapeError, match="x has 23 rows"):
            run_finetune(state.w0, state.cfg, task, steps=3)

    @pytest.mark.parametrize("shape", [(40, 1), (1, 16), (40, 15)])
    @pytest.mark.parametrize("fn", [grad, loss_mse, lambda s, t: run_finetune(s.w0, s.cfg, t, 3)],
                             ids=["grad", "loss_mse", "run_finetune"])
    def test_wrong_shape_targets_rejected(self, fn, shape):
        # the first two would broadcast against the 40 x 16 output and train to a number
        state, task = rect_state("deft", "relax", seed=57)
        task.targets = make_rng(58).normal(size=shape)
        with pytest.raises(ShapeError) as info:
            fn(state, task)
        assert str(info.value) == f"targets have shape {shape}, expected (40, 16)"


@pytest.mark.parametrize("method,kind", [("lora", None), ("para", "qr"), ("deft", "relax")])
def test_run_finetune_peak_memory(method, kind):
    """A step holds few m x k arrays at once: the traced peak stays at 3.5 of them."""
    m = n = k = 256
    w0 = make_rng(58).normal(size=(m, n))
    task = make_teacher_shift_task(w0, seed=59)
    backend = None if kind is None else Backend(kind)
    cfg = AdapterConfig(method, 8, backend=backend, seed=60)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        run_finetune(w0, cfg, task, steps=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffers = (peak - start) / (m * k * 8)
    assert buffers <= 3.5, f"{method}/{kind}: peak of {buffers:.2f} m x k buffers"


class TestSgdStep:
    def test_rate_mapping(self):
        w0, task = small_task(15)
        cfg = AdapterConfig(
            "deft", 2, backend=Backend("relax"), lr_p=0.5, lr_r=2.0, init_stddev=0.3, seed=16
        )
        state = init_adapter(w0, cfg)
        state.r = make_rng(17).normal(size=(2, 4))
        g = grad(state, task)
        p_before = state.p_latent.copy()
        r_before = state.r.copy()
        sgd_step(state, g)
        assert np.allclose(state.p_latent, p_before - 0.5 * g["p_latent"])
        assert np.allclose(state.r, r_before - 2.0 * g["r"])
        assert np.array_equal(refresh(state), state.p_latent)  # relax: P is the latent

    def test_lora_rates(self):
        w0, task = small_task(18)
        cfg = AdapterConfig("lora", 2, lr_p=0.1, lr_r=0.3, init_stddev=0.4, seed=19)
        state = init_adapter(w0, cfg)
        state.b_lo = make_rng(20).normal(size=(6, 2))
        g = grad(state, task)
        a_before = state.a.copy()
        b_before = state.b_lo.copy()
        sgd_step(state, g)
        assert np.allclose(state.a, a_before - 0.1 * g["a"])
        assert np.allclose(state.b_lo, b_before - 0.3 * g["b_lo"])


class TestTasks:
    def test_shift_task_geometry(self):
        w0 = make_rng(21).normal(size=(8, 6))
        task = make_teacher_shift_task(w0, seed=22, shift_scale=1.5, input_scale=4.0)
        shift = task.teacher - w0
        s = np.linalg.svd(shift, compute_uv=False)
        assert abs(s[0] - 1.5) < 1e-12  # rank-1 with the requested magnitude
        assert s[1:].max() < 1e-12
        gram = task.inputs.T @ task.inputs
        assert np.abs(gram - 16.0 * np.eye(6)).max() < 1e-10
        assert np.array_equal(task.targets, task.teacher @ task.inputs)

    def test_noise_task_floor(self):
        w0 = make_rng(25).normal(size=(6, 5))
        clean = make_teacher_noise_task(w0, seed=26, noise_stddev=0.0)
        assert np.array_equal(clean.targets, w0 @ clean.inputs)
        noisy = make_teacher_noise_task(w0, seed=26, noise_stddev=0.1)
        assert not np.array_equal(noisy.targets, w0 @ noisy.inputs)
        assert noisy.teacher is not w0

    @pytest.mark.parametrize("stddev", [float("nan"), float("inf"), -1.0])
    def test_noise_task_rejects_bad_stddev(self, stddev):
        with pytest.raises(ValueError, match="noise_stddev must be finite and >= 0"):
            make_teacher_noise_task(make_rng(25).normal(size=(6, 5)), seed=26, noise_stddev=stddev)

    @pytest.mark.parametrize("n", [1, 2, 33, 257])
    def test_shift_task_matches_its_reference_construction(self, n):
        # the construction written out plainly: w0 plus the shift first, and the QR
        # of the row-ordered draw; the task must give the same bits and C order
        w0 = make_rng(n).normal(size=(n + 3, n))
        for seed in range(3):
            rng = make_rng(seed)
            u, v = rng.normal(size=n + 3), rng.normal(size=n)
            u *= 0.75 / np.linalg.norm(u)
            v /= np.linalg.norm(v)
            teacher = w0 + np.outer(u, v)
            basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
            inputs = np.ascontiguousarray(5.0 * basis)
            task = make_teacher_shift_task(w0, seed, shift_scale=0.75, input_scale=5.0)
            assert task.teacher.tobytes() == teacher.tobytes()
            assert task.inputs.tobytes() == inputs.tobytes()
            assert task.targets.tobytes() == (teacher @ inputs).tobytes()
            assert task.inputs.flags.c_contiguous and task.teacher.flags.c_contiguous

    def test_determinism(self):
        w0 = make_rng(27).normal(size=(6, 5))
        t1 = make_teacher_shift_task(w0, seed=28)
        t2 = make_teacher_shift_task(w0, seed=28)
        assert np.array_equal(t1.inputs, t2.inputs)
        assert np.array_equal(t1.targets, t2.targets)


class TestRunFinetune:
    def test_loss_drops_and_w0_frozen(self):
        w0 = make_rng(29).normal(size=(8, 8))
        cfg = AdapterConfig(
            "deft", 2, backend=Backend("relax"),
            lr_p=1e-3, lr_r=1e-2, init_stddev=0.1, seed=30,
        )
        task = make_teacher_shift_task(w0, seed=31, input_scale=32.0)
        report, state = run_finetune(w0, cfg, task, steps=400)
        assert len(report.losses) == 401
        assert report.losses[-1] < 1e-2 * report.losses[0]
        assert report.w0_hash_before == report.w0_hash_after
        assert loss_mse(state, task) == report.losses[-1]

    def test_deterministic_runs(self):
        w0 = make_rng(32).normal(size=(6, 6))
        cfg = AdapterConfig(
            "deft", 2, backend=Backend("relax"),
            lr_p=1e-3, lr_r=1e-2, init_stddev=0.1, seed=33,
        )
        task = make_teacher_shift_task(w0, seed=34, input_scale=16.0)
        r1, s1 = run_finetune(w0, cfg, task, steps=50)
        r2, s2 = run_finetune(w0, cfg, task, steps=50)
        assert r1.losses == r2.losses
        assert r1.final_state_hash == r2.final_state_hash
        assert np.array_equal(merge(s1), merge(s2))

    def test_divergence_raises(self):
        w0 = make_rng(35).normal(size=(6, 6))
        cfg = AdapterConfig(
            "deft", 2, backend=Backend("relax"),
            lr_p=1e6, lr_r=1e6, init_stddev=0.5, seed=36,
        )
        task = make_teacher_shift_task(w0, seed=37, input_scale=64.0)
        with pytest.raises(DivergenceError) as exc, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow on the way to inf
            run_finetune(w0, cfg, task, steps=200)
        assert exc.value.step >= 1
        assert np.isfinite(exc.value.last_loss)

    def test_a_failed_svd_inside_a_pass_is_not_divergence(self, monkeypatch):
        # only as_matrix's refusal of an overflowed latent reads as divergence: an SVD that
        # fails from its 4th call on, at step 3 of a finite run, reaches the caller as itself
        svd, calls = np.linalg.svd, []

        def failing_from_the_4th_call(*args, **kwargs):
            calls.append(None)
            if len(calls) >= 4:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        w0 = np.random.default_rng(0).normal(size=(8, 8))
        task = make_teacher_shift_task(w0, seed=1)
        monkeypatch.setattr(np.linalg, "svd", failing_from_the_4th_call)
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            run_finetune(w0, AdapterConfig("deft", 2, backend=Backend("tsvd")), task, steps=10)
        assert len(calls) == 4

    def test_bad_steps(self):
        w0 = make_rng(38).normal(size=(4, 4))
        cfg = AdapterConfig("deft", 1, backend=Backend("relax"))
        task = make_teacher_shift_task(w0, seed=39)
        with pytest.raises(ValueError):
            run_finetune(w0, cfg, task, steps=0)

    def test_lora_trains_too(self):
        w0 = make_rng(40).normal(size=(8, 8))
        cfg = AdapterConfig("lora", 4, lr_p=3e-3, lr_r=3e-3, init_stddev=0.05, seed=41)
        task = make_teacher_shift_task(w0, seed=42, input_scale=16.0)
        report, _ = run_finetune(w0, cfg, task, steps=300)
        assert report.losses[-1] < 1e-2 * report.losses[0]


class TestReporting:
    def make_report(self):
        w0 = make_rng(43).normal(size=(5, 5))
        cfg = AdapterConfig(
            "deft", 1, backend=Backend("relax"),
            lr_p=1e-3, lr_r=1e-2, init_stddev=0.1, seed=44,
        )
        task = make_teacher_shift_task(w0, seed=45, input_scale=8.0)
        return run_finetune(w0, cfg, task, steps=3)[0]

    def test_csv_layout(self, tmp_path):
        report_to_csv(self.make_report(), tmp_path / "report.csv")
        lines = (tmp_path / "report.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == "step,loss,grad_norm_p,grad_norm_r"
        assert len(lines) == 6  # header + 4 loss rows + trailing newline
        assert lines[-1] == ""
        final = lines[4].split(",")
        assert final[0] == "3" and final[2] == "" and final[3] == ""
        assert float(final[1]) >= 0.0

    def test_summary_line(self):
        line = summary_line(self.make_report())
        assert "steps=3" in line
        assert "w0_frozen=true" in line
        assert "final_loss=" in line


class TestReportRows:
    """report.rows holds one row per pass, and report.csv, losses and DivergenceError read it."""

    @pytest.mark.parametrize("method,kind", [("lora", None), ("para", "qr"), ("deft", "relax")])
    def test_one_row_per_pass(self, method, kind, tmp_path):
        state, task = rect_state(method, kind, seed=65)
        steps = 3
        report, trained = run_finetune(state.w0, state.cfg, task, steps)
        rows = report.rows
        assert len(rows) == steps + 1
        assert [row[0] for row in rows] == list(range(steps + 1))
        assert rows[-1] == (steps, loss_mse(trained, task), None, None)
        assert all(isinstance(norm, float) for row in rows[:-1] for norm in row[2:])
        assert report.losses == tuple(row[1] for row in rows)
        report_to_csv(report, tmp_path / "report.csv")
        store.save_csv(tmp_path / "rows.csv", ("rows",), rows)
        data = [(tmp_path / name).read_bytes().split(b"\r\n", 1)[1]
                for name in ("report.csv", "rows.csv")]
        assert data[0] == data[1]

    def test_csv_bytes_are_save_csvs_on_edge_floats(self, tmp_path):
        floats = [-0.0, 5e-324, 1e-05, 0.0001, 9.999999999999998e15, 1e16,
                  1.7976931348623157e308]
        rows = [(i, floats[i], floats[(i + 1) % 7], floats[(i + 2) % 7]) for i in range(7)]
        rows += [(7, 0.5, 2.5, 0.0), (8, 1e-05, None, None)]  # para's 0.0, then the final row
        report_to_csv(train.TrainReport(rows=rows), tmp_path / "report.csv")
        store.save_csv(tmp_path / "rows.csv", ("step", "loss", "grad_norm_p", "grad_norm_r"), rows)
        data = (tmp_path / "report.csv").read_bytes()
        assert data == (tmp_path / "rows.csv").read_bytes()
        assert data.split(b"\r\n")[1] == b"0,-0.0,5e-324,1e-05"
        assert data.endswith(b"\r\n7,0.5,2.5,0.0\r\n8,1e-05,,\r\n")

    def test_divergence_names_the_last_rows_loss(self):
        # c08's deft/lrmf run: its loss is last finite before step 12
        w0 = make_rng(6000).normal(size=(32, 32))
        task = make_teacher_shift_task(w0, seed=1)
        cfg = AdapterConfig("deft", 4, backend=Backend("lrmf"), lr_p=1e-3, lr_r=1e-2,
                            init_stddev=0.1, seed=0)
        with pytest.raises(DivergenceError) as info:
            run_finetune(w0, cfg, task, steps=2000)
        assert info.value.step == 12
        report, _ = run_finetune(w0, cfg, task, steps=11)
        assert info.value.last_loss == report.rows[-1][1]


class TestAdapterFactor:
    """run_finetune, and every later reader of its latent, factor tsvd/lrmf with LAPACK."""

    def job(self, kind):
        """w0, config and task of a small deft run with backend `kind`."""
        w0 = make_rng(61).normal(size=(12, 8))
        cfg = AdapterConfig("deft", 3, backend=Backend(kind), lr_p=1e-4, init_stddev=0.1, seed=62)
        task = make_teacher_shift_task(w0, seed=63, input_scale=4.0)  # lrmf converges here
        return w0, cfg, task

    @pytest.mark.parametrize("kind", ["tsvd", "lrmf"])
    def test_refresh_after_an_sgd_step_takes_lapacks_svd(self, kind):
        w0, cfg, task = self.job(kind)
        state = init_adapter(w0, cfg)
        refresh(state)
        sgd_step(state, grad(state, task))
        jac = decompose(state.p_latent, cfg.backend, cfg.rank)
        refresh(state)
        fast = state.cache[1]
        assert jac.stats["sweeps"] >= 1 and fast.stats == {}  # no Jacobi SVD ran
        refresh(state)
        assert state.cache[1] is fast  # a second reader of the same bytes reuses it
        assert np.abs(fast.p_factor - jac.p_factor).max() <= 1e-12
        for key in jac.aux:
            assert np.abs(fast.aux[key] - jac.aux[key]).max() <= 1e-12, key

    def test_every_factor_of_a_run_is_lapacks(self, monkeypatch):
        calls = []
        real = adapters.decompose

        def recording(b, backend, rank=None, seed=0, portable=True):
            calls.append(portable)
            return real(b, backend, rank, seed=seed, portable=portable)

        monkeypatch.setattr(adapters, "decompose", recording)
        w0, cfg, task = self.job("tsvd")
        run_finetune(w0, cfg, task, steps=5)
        assert calls == [False] * 6  # one LAPACK factor per step, and the final loss's

    @pytest.mark.parametrize("kind", ["tsvd", "lrmf"])
    def test_trained_state_and_its_reload_agree_bit_for_bit(self, kind, tmp_path):
        w0, cfg, task = self.job(kind)
        report, state = run_finetune(w0, cfg, task, steps=60)
        assert report.losses[-1] < report.losses[0]
        store.save_adapter(state, tmp_path / "a.adpt")
        loaded = store.load_adapter(tmp_path / "a.adpt", w0)
        assert loaded.cache is None
        assert forward(loaded, task.inputs).tobytes() == forward(state, task.inputs).tobytes()
        assert loss_mse(loaded, task) == loss_mse(state, task) == report.losses[-1]

    def test_final_factor_is_the_loops_when_the_last_step_moves_nothing(self, monkeypatch):
        steps = []

        def all_but_the_last(state, grads):
            steps.append(state.cache[1])
            return state if len(steps) == 3 else sgd_step(state, grads)

        monkeypatch.setattr(train, "sgd_step", all_but_the_last)
        w0, cfg, task = self.job("tsvd")
        _, state = run_finetune(w0, cfg, task, steps=3)  # step 3 is void
        assert state.cache[1] is steps[-1]  # the final loss reused step 3's factor
        lapack = decompose(state.p_latent, cfg.backend, cfg.rank, portable=False)
        assert refresh(state).tobytes() == lapack.p_factor.tobytes()

    @pytest.mark.parametrize("kind", ["tsvd", "lrmf"])
    def test_final_loss_is_the_trained_models_at_a_repeated_singular_value(
            self, kind, monkeypatch, tmp_path):
        # only the span of the top two singular vectors is defined, and R is trained in the
        # factor's coordinates, so a final loss on another SVD's basis is another model's
        w0, cfg, task = self.job(kind)
        rng = make_rng(64)
        q = np.linalg.qr(rng.normal(size=(12, 3)))[0]
        rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        latent = (q * [1.0, 1.0, 0.5]) @ rot
        r = rng.normal(size=(3, 8))
        real_init = train.init_adapter

        def degenerate(w0, cfg):
            state = real_init(w0, cfg)
            state.p_latent, state.r = latent.copy(), r.copy()
            return state

        monkeypatch.setattr(train, "init_adapter", degenerate)
        monkeypatch.setattr(train, "sgd_step", lambda state, grads: state)  # moves nothing
        report, state = run_finetune(w0, cfg, task, steps=1)
        assert report.losses[-1] == report.losses[-2]
        store.save_adapter(state, tmp_path / "a.adpt")
        assert loss_mse(store.load_adapter(tmp_path / "a.adpt", w0), task) == report.losses[-1]

    @pytest.mark.parametrize("kind", ["tsvd", "lrmf"])
    def test_fixed_seed_reproduces_its_bytes(self, kind):
        w0, cfg, task = self.job(kind)
        (r1, s1), (r2, s2) = (run_finetune(w0, cfg, task, steps=40) for _ in range(2))
        assert r1.rows == r2.rows
        assert r1.final_state_hash == r2.final_state_hash
        assert merge(s1).tobytes() == merge(s2).tobytes()
