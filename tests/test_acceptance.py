"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line with its measured numbers when it
succeeds; a failure carries the same numbers in the assertion message.
Tolerances and sizes here are the shipped contract, not suggestions;
loosening them is an API change.
"""

import statistics
import time
import warnings

import numpy as np
import pytest

from deft.adapters import (
    AdapterConfig,
    forward,
    init_adapter,
    merge,
    param_count,
    refresh,
    trainables,
)
from deft.decompose import KINDS, Backend, decompose, reconstruct
from deft.matcore import (DEFAULT_RANK_TOL, frobenius_norm, gaussian, make_rng, numerical_rank,
                          rel_error)
from deft.store import (
    PairingError,
    load_adapter,
    load_matrix,
    matrix_hash,
    save_adapter,
    save_matrix,
)
from deft.subspace import check_containment, verify_decomposition_identity
from deft.train import ToyTask, grad, loss_mse, make_teacher_shift_task, run_finetune


def _passed(cid, **kv):
    detail = " ".join(f"{k}={v}" for k, v in kv.items())
    print(f"[{cid}] PASS {detail}")


def test_c01_projection_split_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = make_rng(trial)
        w = gaussian(rng, 64, 48, 1.0)
        q, _ = np.linalg.qr(gaussian(rng, 64, 8, 1.0))
        worst = max(worst, verify_decomposition_identity(w, q))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12, f"max relative residual {worst:.3e} over 100 pairs"
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _passed("c01", pairs=100, max_residual=f"{worst:.3e}", seconds=f"{elapsed:.2f}")


def test_c02_reduction_stays_in_base_span():
    assert DEFAULT_RANK_TOL == 1e-8  # the rank cutoff every count below uses
    held = 0
    for trial in range(100):
        rng = make_rng(1000 + trial)
        w0 = gaussian(rng, 24, 18, 1.0)
        r = 1 + trial % 6
        q, _ = np.linalg.qr(w0[:, :r])  # directions drawn from w0 itself
        w_reduce = w0 - q @ (q.T @ w0)
        if numerical_rank(np.hstack([w0, w_reduce])) == numerical_rank(w0):
            held += 1
    assert held == 100, f"rank containment held in {held}/100 trials"
    _passed("c02", trials=100, held=held)


def test_c03_total_weight_containment():
    assert DEFAULT_RANK_TOL == 1e-8  # the rank cutoff every count below uses
    rank = 4
    checked = 0
    for kind in KINDS:
        for seed in range(20):
            rng = make_rng(2000 + seed)
            w0 = gaussian(rng, 24, 18, 1.0)
            cfg = AdapterConfig("deft", rank, backend=Backend(kind),
                                init_stddev=0.5, seed=seed)
            state = init_adapter(w0, cfg)
            state.r = gaussian(rng, rank, 18, 1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # nmf clamps signed latents here
                q = refresh(state)
                w_total = merge(state)
            rep = check_containment(w0, q, w_total)
            assert rep.containment_holds, (
                f"union rank grew for backend {kind}, seed {seed}: "
                f"{rep.rank_union_total} vs {rep.rank_union}"
            )
            checked += 1

    # integer witness: one update direction outside col(w0) adds exactly one rank
    w0 = np.zeros((4, 4))
    w0[0, 0], w0[1, 1] = 2.0, 3.0
    q = np.zeros((4, 1))
    q[2, 0] = 1.0
    w_total = w0 - q @ (q.T @ w0) + q @ np.ones((1, 4))
    rank_before = numerical_rank(w0)
    rank_after = numerical_rank(np.hstack([w0, w_total]))
    assert rank_before == 2 and rank_after == 3, (rank_before, rank_after)
    _passed("c03", combos=checked, witness_rank=f"{rank_before}->{rank_after}")


def test_c04_forward_matches_merge():
    combos = [("lora", None)]
    combos += [(method, kind) for method in ("para", "deft") for kind in KINDS]
    worst = 0.0
    for seed in range(50):
        rng = make_rng(3000 + seed)
        w0 = gaussian(rng, 10, 8, 1.0)
        x = gaussian(rng, 8, 4, 1.0)
        for method, kind in combos:
            backend = None if kind is None else Backend(kind)
            cfg = AdapterConfig(method, 3, backend=backend, init_stddev=0.4, seed=seed)
            state = init_adapter(w0, cfg)
            if method == "lora":
                state.b_lo = gaussian(rng, 10, 3, 1.0)
            elif method == "deft":
                state.r = gaussian(rng, 3, 8, 1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dev = rel_error(forward(state, x), merge(state) @ x)
            assert dev < 1e-10, f"{method}/{kind} seed {seed}: rel deviation {dev:.3e}"
            worst = max(worst, dev)
    _passed("c04", combos=len(combos), seeds=50, max_deviation=f"{worst:.3e}")


def test_c05_special_cases_reduce_exactly():
    for kind in KINDS:
        for seed in range(5):
            rng = make_rng(4000 + seed)
            w0 = gaussian(rng, 9, 7, 1.0)
            x = gaussian(rng, 7, 3, 1.0)
            deft = init_adapter(w0, AdapterConfig("deft", 2, backend=Backend(kind),
                                                  init_stddev=0.5, seed=seed))
            para = init_adapter(w0, AdapterConfig("para", 2, backend=Backend(kind),
                                                  init_stddev=0.5, seed=seed))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                same = np.array_equal(forward(deft, x), forward(para, x))
            assert same, f"deft with zero R differs from para for {kind}, seed {seed}"

    for seed in range(5):
        rng = make_rng(4100 + seed)
        w0 = gaussian(rng, 9, 7, 1.0)
        x = gaussian(rng, 7, 3, 1.0)
        lora = init_adapter(w0, AdapterConfig("lora", 2, init_stddev=0.5, seed=seed))
        assert np.array_equal(forward(lora, x), w0 @ x), f"lora init not the base map, seed {seed}"
        assert np.array_equal(merge(lora), w0), f"lora init merge differs from w0, seed {seed}"
    _passed("c05", deft_eq_para_backends=len(KINDS), lora_identity_seeds=5)


def test_c06_gradients_match_finite_differences():
    t0 = time.perf_counter()
    h = 1e-5
    rtol = 1e-4

    def fd(state, task, arr):
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

    def check(state, task, label):
        g = grad(state, task)
        worst = 0.0
        for name, arr in trainables(state).items():
            ref = fd(state, task, arr)
            scale = max(np.abs(ref).max(), np.abs(g[name]).max(), 1e-12)
            dev = np.abs(g[name] - ref).max() / scale
            assert dev < rtol, f"{label}.{name}: rel deviation {dev:.3e} at rtol {rtol}"
            worst = max(worst, dev)
        return worst

    rng = make_rng(5000)
    w0 = gaussian(rng, 6, 4, 1.0)
    teacher = w0 + gaussian(rng, 6, 4, 1.0)
    inputs = gaussian(rng, 4, 5, 1.0)
    task = ToyTask(inputs=inputs, targets=teacher @ inputs)
    worst = 0.0

    deft = init_adapter(w0, AdapterConfig("deft", 2, backend=Backend("relax"),
                                          init_stddev=0.5, seed=1))
    deft.r = gaussian(rng, 2, 4, 1.0)
    worst = max(worst, check(deft, task, "deft-relax"))

    deft_nn = init_adapter(w0, AdapterConfig("deft", 2, backend=Backend("relax_nmf"),
                                             init_stddev=0.5, seed=2))
    latent = deft_nn.p_latent
    latent[np.abs(latent) < 1e-3] = 0.25  # keep entries off the max(., 0) kink
    deft_nn.r = gaussian(rng, 2, 4, 1.0)
    worst = max(worst, check(deft_nn, task, "deft-relax_nmf"))

    lora = init_adapter(w0, AdapterConfig("lora", 2, alpha=4.0, init_stddev=0.5, seed=3))
    lora.b_lo = gaussian(rng, 6, 2, 1.0)
    worst = max(worst, check(lora, task, "lora"))

    para = init_adapter(w0, AdapterConfig("para", 2, backend=Backend("relax"),
                                          init_stddev=0.5, seed=4))
    worst = max(worst, check(para, task, "para-relax"))

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    _passed("c06", configs=4, max_rel_deviation=f"{worst:.3e}", seconds=f"{elapsed:.2f}")


def test_c07_parameter_count_formulas():
    cases = [(4, 32, 16), (8, 64, 64), (1, 7, 3), (16, 4096, 1024)]
    for r, m, n in cases:
        lora = param_count(AdapterConfig("lora", r), m, n)
        deft = param_count(AdapterConfig("deft", r), m, n)
        para = param_count(AdapterConfig("para", r), m, n)
        assert lora == r * (m + n), (r, m, n, lora)
        assert deft == r * (m + n), (r, m, n, deft)
        assert para == r * m, (r, m, n, para)
        # deft / para == (m + n) / m, checked exactly in integers
        assert deft * m == para * (m + n), (r, m, n)
    _passed("c07", cases=len(cases))


def test_c08_toy_finetune_reaches_threshold():
    t0 = time.perf_counter()
    rng = make_rng(6000)
    w0 = gaussian(rng, 32, 32, 1.0)
    task = make_teacher_shift_task(w0, seed=1)
    cfg = AdapterConfig("deft", 4, backend=Backend("relax"),
                        lr_p=1e-3, lr_r=1e-2, init_stddev=0.1, seed=0)

    # reachability oracle: a rank-4 state that lands exactly on the teacher, which the
    # targets imply since the inputs are 64 times an orthonormal basis
    shift = task.targets @ task.inputs.T / 64.0**2 - w0
    u, s, vt = np.linalg.svd(shift)
    p_star, _ = np.linalg.qr(np.hstack([u[:, :1], gaussian(make_rng(1), 32, 3, 1.0)]))
    r_star = p_star.T @ w0 + p_star.T @ shift
    w_star = w0 - p_star @ (p_star.T @ w0) + p_star @ r_star
    coords = np.linalg.lstsq(p_star, shift, rcond=None)[0]
    assert float(np.abs(shift - p_star @ coords).max()) < 1e-10  # shift lies in span(p_star)
    star_mse = frobenius_norm(w_star @ task.inputs - task.targets) ** 2 / task.targets.size
    assert star_mse < 1e-12, f"oracle state misses the teacher: mse {star_mse:.3e}"

    report, state = run_finetune(w0, cfg, task, steps=2000)
    elapsed = time.perf_counter() - t0
    final = report.losses[-1]
    assert final <= 1e-3, f"final mse {final:.3e} above 1e-3 after 2000 steps"
    assert report.w0_hash_before == report.w0_hash_after, "base weight changed during training"
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    crossing = next(i for i, v in enumerate(report.losses) if v <= 1e-3)
    _passed("c08", final_mse=f"{final:.3e}", crossed_at_step=crossing,
            seconds=f"{elapsed:.2f}")


def test_c09_truncated_svd_is_optimal():
    def error(b, kind, rank, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = decompose(b, Backend(kind), rank, seed=seed)
            return frobenius_norm(b - reconstruct(res, b))

    instances = 0
    for trial in range(25):  # latent-shaped: every backend competes at full width
        rng = make_rng(7000 + trial)
        b = gaussian(rng, 12, 4, 1.0)
        best = error(b, "tsvd", 4, trial)
        for kind in KINDS:
            other = error(b, kind, 4, trial)
            assert best <= other + 1e-8, f"trial {trial}: tsvd {best:.6e} > {kind} {other:.6e}"
        instances += 1

    for trial in range(25):  # wide, reduced rank: fixed-rank backends compete
        rng = make_rng(7100 + trial)
        b = rng.uniform(0.0, 1.0, size=(14, 10))
        best = error(b, "tsvd", 3, trial)
        for kind in ("lrmf", "nmf", "eig"):
            other = error(b, kind, 3, trial)
            assert best <= other + 1e-8, f"trial {trial}: tsvd {best:.6e} > {kind} {other:.6e}"
        q, _ = np.linalg.qr(b[:, :3])  # column-subset projector, another rank-3 competitor
        proj = frobenius_norm(b - q @ (q.T @ b))
        assert best <= proj + 1e-8, f"trial {trial}: tsvd {best:.6e} > projection {proj:.6e}"
        instances += 1

    assert instances == 50
    _passed("c09", instances=instances)


def test_c10_decomposition_speed_ordering():
    dim, rank, iters = 3072, 8, 20
    latent = gaussian(make_rng(8000), dim, rank, 1.0)

    def median_ms(kind):
        backend = Backend(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            decompose(latent, backend, rank, seed=0)  # warm-up
            times = []
            for _ in range(iters):
                t0 = time.perf_counter()
                decompose(latent, backend, rank, seed=0)
                times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    fast = {k: median_ms(k) for k in ("qr", "nmf", "relax")}
    slow = {k: median_ms(k) for k in ("tsvd", "lrmf")}
    for fk, fv in fast.items():
        for sk, sv in slow.items():
            assert fv < sv, f"{fk} ({fv:.3f} ms) not faster than {sk} ({sv:.3f} ms)"
    _passed("c10", dim=dim, rank=rank,
            **{f"{k}_ms": f"{v:.3f}" for k, v in {**fast, **slow}.items()})


def test_c11_persistence_round_trips(tmp_path):
    rng = make_rng(9000)
    trips = 0

    for i in range(120):  # raw matrices, odd shapes and magnitudes included
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        mat = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-6, 7)
        path = tmp_path / f"m{i}.mat"
        save_matrix(mat, path)
        back = load_matrix(path)
        assert back.tobytes() == mat.tobytes(), f"matrix trip {i} not bit-exact"
        trips += 1

    methods = ("lora", "para", "deft")
    kinds = ("qr", "tsvd", "lrmf", "nmf", "eig", "relax", "relax_nmf")
    rejected = 0
    for i in range(80):  # adapter checkpoints across every method and backend
        m = int(rng.integers(4, 10))
        n = int(rng.integers(3, 9))
        r = int(rng.integers(1, min(m, n) + 1))
        method = methods[i % 3]
        backend = None if method == "lora" else Backend(kinds[i % 7])
        w0 = rng.normal(size=(m, n))
        cfg = AdapterConfig(method, r, backend=backend, init_stddev=0.3, seed=i)
        state = init_adapter(w0, cfg)
        if method == "lora":
            state.b_lo = rng.normal(size=(m, r))
        elif method == "deft":
            state.r = rng.normal(size=(r, n))
        path = tmp_path / f"a{i}.adpt"
        save_adapter(state, path)
        back = load_adapter(path, w0)
        for name, mat in trainables(state).items():
            assert trainables(back)[name].tobytes() == mat.tobytes(), (
                f"adapter trip {i}, section {name} not bit-exact"
            )
        assert back.cfg == state.cfg, f"adapter trip {i} config drifted"
        trips += 1

        if i % 4 == 0:  # every mismatch attempt must be rejected
            wrong = w0.copy()
            wrong[0, 0] = np.nextafter(wrong[0, 0], np.inf)
            with pytest.raises(PairingError):
                load_adapter(path, wrong)
            rejected += 1

    assert trips == 200
    assert rejected == 20
    assert matrix_hash(np.zeros((2, 2))) != matrix_hash(np.zeros((4, 1)))
    _passed("c11", round_trips=trips, mismatches_rejected=rejected)
