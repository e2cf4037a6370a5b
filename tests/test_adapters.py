import numpy as np
import pytest

from deft.adapters import (
    AdapterConfig,
    ConfigError,
    forward,
    init_adapter,
    merge,
    param_count,
    refresh,
    trainables,
)
from deft.decompose import Backend
from deft.matcore import ShapeError, make_rng, rel_error
from deft.train import sgd_step


def random_w0(seed, m=10, n=7):
    return make_rng(seed).normal(size=(m, n))


class TestConfig:
    def test_alpha_defaults_to_rank(self):
        cfg = AdapterConfig("lora", 6)
        assert cfg.alpha == 6.0 and isinstance(cfg.alpha, float)

    def test_lora_rejects_backend(self):
        assert AdapterConfig("lora", 2).backend is None
        with pytest.raises(ConfigError, match="lora takes no backend"):
            AdapterConfig("lora", 2, backend=Backend("qr"))

    def test_para_deft_default_backend(self):
        for method in ("para", "deft"):
            cfg = AdapterConfig(method, 3)
            assert cfg.backend == Backend("qr")

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            AdapterConfig("prefix", 2)

    def test_rate_ordering_enforced(self):
        with pytest.raises(ConfigError):
            AdapterConfig("deft", 2, lr_p=1e-2, lr_r=1e-3)
        with pytest.raises(ConfigError):
            AdapterConfig("deft", 2, lr_p=0.0)

    def test_para_rate_is_not_capped_by_the_unread_lr_r(self):
        assert AdapterConfig("para", 2, lr_p=0.05).lr_p == 0.05
        with pytest.raises(ConfigError, match=r"lr_r \(0.01\) must be >= lr_p \(0.05\)"):
            AdapterConfig("deft", 2, lr_p=0.05)

    @pytest.mark.parametrize("method, field, value, default", [
        ("para", "alpha", 9.0, 2.0), ("deft", "alpha", 9.0, 2.0), ("para", "lr_r", 5.0, 0.01),
    ])
    def test_unread_fields_must_hold_their_defaults(self, method, field, value, default):
        with pytest.raises(ConfigError) as info:
            AdapterConfig(method, 2, **{field: value})
        assert str(info.value) == (f"{method} does not read {field}: it must hold its default "
                                   f"{default}, got {value}")
        assert getattr(AdapterConfig(method, 2, **{field: default}), field) == default
        assert getattr(AdapterConfig("lora", 2, **{field: value}), field) == value

    def test_positivity_is_checked_before_the_unread_rule(self):
        with pytest.raises(ConfigError, match="alpha must be positive, got -1.0"):
            AdapterConfig("deft", 2, alpha=-1.0)
        with pytest.raises(ConfigError, match="lr_p must be positive, got 0.0"):
            AdapterConfig("para", 2, lr_p=0.0, lr_r=5.0)

    def test_negative_stddev_rejected(self):
        with pytest.raises(ConfigError):
            AdapterConfig("deft", 2, init_stddev=-0.1)

    def test_rank_bounds(self):
        with pytest.raises(ConfigError):
            AdapterConfig("deft", 0)
        with pytest.raises(ConfigError):
            init_adapter(random_w0(0, 5, 4), AdapterConfig("deft", 5))


NONFINITE = pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                                    ids=["nan", "inf", "-inf"])


class TestNonFiniteConfig:
    @NONFINITE
    @pytest.mark.parametrize("field", ["alpha", "lr_p", "lr_r", "init_stddev"])
    def test_adapter_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            AdapterConfig("deft", 2, **{field: value})

    @NONFINITE
    def test_backend_nmf_tol_rejected(self, value):
        with pytest.raises(ValueError, match="nmf_tol must be finite"):
            Backend("nmf", nmf_tol=value)


class TestInit:
    def test_shapes(self):
        w0 = random_w0(1, 9, 6)
        lora = init_adapter(w0, AdapterConfig("lora", 3))
        assert lora.a.shape == (3, 6) and lora.b_lo.shape == (9, 3)
        para = init_adapter(w0, AdapterConfig("para", 3))
        assert para.q_latent.shape == (9, 3)
        deft = init_adapter(w0, AdapterConfig("deft", 3))
        assert deft.p_latent.shape == (9, 3) and deft.r.shape == (3, 6)

    def test_zero_initialized_parts_exact(self):
        w0 = random_w0(2)
        assert not init_adapter(w0, AdapterConfig("lora", 2)).b_lo.any()
        assert not init_adapter(w0, AdapterConfig("deft", 2)).r.any()

    def test_zero_stddev_gives_an_exact_positive_zero_latent(self):
        state = init_adapter(random_w0(5), AdapterConfig("deft", 2, init_stddev=0.0))
        assert state.p_latent.tobytes() == np.zeros((10, 2)).tobytes()

    def test_w0_is_frozen(self):
        state = init_adapter(random_w0(3), AdapterConfig("deft", 2))
        with pytest.raises(ValueError):
            state.w0[0, 0] = 99.0

    def test_same_seed_same_state(self):
        w0 = random_w0(4)
        s1 = init_adapter(w0, AdapterConfig("deft", 2, seed=7))
        s2 = init_adapter(w0, AdapterConfig("deft", 2, seed=7))
        assert np.array_equal(s1.p_latent, s2.p_latent)

    def test_trainables_alias_state_fields(self):
        state = init_adapter(random_w0(5), AdapterConfig("deft", 2))
        t = trainables(state)
        assert list(t) == ["p_latent", "r"]
        assert t["p_latent"] is state.p_latent and t["r"] is state.r
        lora = init_adapter(random_w0(5), AdapterConfig("lora", 2))
        assert list(trainables(lora)) == ["a", "b_lo"]
        para = init_adapter(random_w0(5), AdapterConfig("para", 2))
        assert list(trainables(para)) == ["q_latent"]


class TestForwardAndMerge:
    def test_lora_starts_at_base(self):
        w0 = random_w0(6)
        state = init_adapter(w0, AdapterConfig("lora", 3, init_stddev=0.2))
        x = make_rng(7).normal(size=(7, 5))
        assert np.array_equal(forward(state, x), w0 @ x)
        assert np.array_equal(merge(state), w0)

    def test_deft_zero_r_equals_para(self):
        w0 = random_w0(8)
        x = make_rng(9).normal(size=(7, 4))
        for kind in ("qr", "tsvd", "relax"):
            deft = init_adapter(w0, AdapterConfig("deft", 3, backend=Backend(kind), seed=11))
            para = init_adapter(w0, AdapterConfig("para", 3, backend=Backend(kind), seed=11))
            assert np.array_equal(forward(deft, x), forward(para, x)), kind

    def test_forward_matches_merge(self):
        w0 = random_w0(10)
        x = make_rng(11).normal(size=(7, 6))
        for method in ("lora", "para", "deft"):
            state = init_adapter(w0, AdapterConfig(method, 3, init_stddev=0.3, seed=13))
            if method == "deft":
                state.r = make_rng(14).normal(size=(3, 7))
            assert rel_error(forward(state, x), merge(state) @ x) < 1e-10, method

    def test_projection_removes_component(self):
        # para output has no component along the projector columns
        w0 = random_w0(12)
        state = init_adapter(w0, AdapterConfig("para", 3, init_stddev=0.5, seed=15))
        x = make_rng(16).normal(size=(7, 5))
        p = refresh(state)
        out = forward(state, x)
        assert np.abs(p.T @ out).max() < 1e-10

    def test_deft_merge_formula(self):
        w0 = random_w0(13)
        state = init_adapter(w0, AdapterConfig("deft", 2, init_stddev=0.4, seed=17))
        state.r = make_rng(18).normal(size=(2, 7))
        p = refresh(state)
        expected = w0 - p @ (p.T @ w0) + p @ state.r
        assert rel_error(merge(state), expected) < 1e-14

    def test_lora_scale(self):
        w0 = random_w0(14)
        state = init_adapter(w0, AdapterConfig("lora", 4, alpha=8.0, init_stddev=0.2, seed=19))
        state.b_lo = make_rng(20).normal(size=(10, 4))
        expected = w0 + 2.0 * (state.b_lo @ state.a)
        assert rel_error(merge(state), expected) < 1e-14

    def test_input_width_checked(self):
        state = init_adapter(random_w0(15), AdapterConfig("deft", 2))
        with pytest.raises(ShapeError):
            forward(state, np.ones((6, 3)))

    def test_empty_batch_refused(self):
        state = init_adapter(random_w0(15), AdapterConfig("deft", 2))
        with pytest.raises(ShapeError, match=r"^x must be non-empty, got shape \(7, 0\)$"):
            forward(state, np.zeros((7, 0)))

    def test_refresh_refused_for_lora(self):
        state = init_adapter(random_w0(16), AdapterConfig("lora", 2))
        with pytest.raises(ConfigError, match="^lora has no projection factor$"):
            refresh(state)


class TestRefresh:
    def check_edit_reaches_every_reader(self, edit):
        """After edit(state), with no other call, forward, merge and P read the new latent.

        The state's cache is built before the edit; the reference is a
        cache-free state with the same trainables.
        """
        for kind in ("qr", "tsvd", "relax"):
            state = init_adapter(random_w0(18), AdapterConfig(
                "deft", 3, backend=Backend(kind), init_stddev=0.5, seed=2))
            state.r = make_rng(19).normal(size=(3, 7))
            x = make_rng(20).normal(size=(7, 4))
            before = forward(state, x)
            edit(state)
            fresh = init_adapter(state.w0, state.cfg)
            fresh.p_latent, fresh.r = state.p_latent.copy(), state.r
            assert np.array_equal(refresh(state), refresh(fresh)), kind
            assert np.array_equal(forward(state, x), forward(fresh, x)), kind
            assert np.array_equal(merge(state), merge(fresh)), kind
            assert np.abs(forward(state, x) - before).max() > 1e-6, kind

    def test_cache_reused_until_latent_changes(self):
        state = init_adapter(random_w0(17), AdapterConfig("deft", 3, init_stddev=0.3))
        assert refresh(state) is state.cache[1].p_factor
        first = state.cache
        refresh(state)
        assert state.cache is first
        state.r += 1.0  # R is not an input of the factorization
        refresh(state)
        assert state.cache is first
        state.p_latent[0, 0] += 1.0
        assert refresh(state) is state.cache[1].p_factor
        assert state.cache is not first

    def test_in_place_edit_reaches_every_reader(self):
        def edit(state):
            state.p_latent += make_rng(21).normal(size=state.p_latent.shape)
        self.check_edit_reaches_every_reader(edit)

    def test_reassigned_latent_reaches_every_reader(self):
        def edit(state):
            state.p_latent = make_rng(22).normal(size=state.p_latent.shape)
        self.check_edit_reaches_every_reader(edit)

    def test_sign_of_zero_is_a_change(self):
        state = init_adapter(random_w0(23), AdapterConfig(
            "deft", 2, backend=Backend("relax"), init_stddev=0.5))
        state.p_latent[0, 0] = 0.0
        assert not np.signbit(refresh(state)[0, 0])
        state.p_latent[0, 0] = -0.0
        assert np.signbit(refresh(state)[0, 0])

    def test_orthonormal_projector_for_qr(self):
        state = init_adapter(random_w0(19), AdapterConfig("deft", 4, init_stddev=0.2))
        p = refresh(state)
        assert np.abs(p.T @ p - np.eye(4)).max() < 1e-12


class TestParamCount:
    def test_formulas(self):
        assert param_count(AdapterConfig("lora", 4), 32, 16) == 4 * (32 + 16)
        assert param_count(AdapterConfig("deft", 4), 32, 16) == 4 * (32 + 16)
        assert param_count(AdapterConfig("para", 4), 32, 16) == 4 * 32

    def test_hand_count_matches_trainables(self):
        w0 = random_w0(21, 8, 5)
        for method in ("lora", "para", "deft"):
            cfg = AdapterConfig(method, 2)
            state = init_adapter(w0, cfg)
            total = sum(v.size for v in trainables(state).values())
            assert param_count(cfg, 8, 5) == total, method

    def test_bad_dims(self):
        with pytest.raises(ShapeError):
            param_count(AdapterConfig("deft", 1), 0, 4)

    @pytest.mark.parametrize("method", ["lora", "para", "deft"])
    def test_rank_above_min_dim_rejected(self, method):
        with pytest.raises(ConfigError, match="rank 4 exceeds min"):
            param_count(AdapterConfig(method, 4), 3, 5)
        assert param_count(AdapterConfig(method, 3), 3, 5) > 0


class TestUpdateRulesExact:
    """forward, merge and sgd_step bit for bit against the rules written out.

    The relax backend makes the projection factor the latent itself, so P
    and Q below are the trainables as stored.
    """

    def setup_method(self):
        rng = make_rng(40)
        self.w0 = rng.normal(size=(10, 7))
        self.x = rng.normal(size=(7, 5))
        self.rng = rng

    def cfg(self, method):
        backend = None if method == "lora" else Backend("relax")
        # alpha and lr_r only where the method reads them (see AdapterConfig)
        read = {"lora": {"alpha": 6.0, "lr_r": 0.4}, "deft": {"lr_r": 0.4}}.get(method, {})
        return AdapterConfig(method, 3, backend=backend, lr_p=0.1, init_stddev=0.3, seed=41,
                             **read)

    def test_lora(self):
        w0, x, cfg = self.w0, self.x, self.cfg("lora")
        state = init_adapter(w0, cfg)
        state.b_lo = self.rng.normal(size=(10, 3))
        a, b = state.a.copy(), state.b_lo.copy()
        assert np.array_equal(forward(state, x), w0 @ x + 2.0 * (b @ (a @ x)))
        assert np.array_equal(merge(state), w0 + 2.0 * (b @ a))
        g = {"a": self.rng.normal(size=(3, 7)), "b_lo": self.rng.normal(size=(10, 3))}
        sgd_step(state, g)
        assert np.array_equal(state.a, a - 0.1 * g["a"])
        assert np.array_equal(state.b_lo, b - 0.4 * g["b_lo"])

    def test_para(self):
        w0, x, cfg = self.w0, self.x, self.cfg("para")
        state = init_adapter(w0, cfg)
        q = state.q_latent.copy()
        y = w0 @ x
        assert np.array_equal(forward(state, x), y - q @ (q.T @ y))
        assert np.array_equal(merge(state), w0 - q @ (q.T @ w0))
        g = {"q_latent": self.rng.normal(size=(10, 3))}
        sgd_step(state, g)
        assert np.array_equal(state.q_latent, q - 0.1 * g["q_latent"])
        q = state.q_latent  # the forward pass after a step reads the moved latent
        assert np.array_equal(forward(state, x), y - q @ (q.T @ y))

    def test_deft(self):
        w0, x, cfg = self.w0, self.x, self.cfg("deft")
        state = init_adapter(w0, cfg)
        state.r = self.rng.normal(size=(3, 7))
        p, r = state.p_latent.copy(), state.r.copy()
        y = w0 @ x
        assert np.array_equal(forward(state, x), y - p @ (p.T @ y - r @ x))
        assert np.array_equal(merge(state), w0 - p @ (p.T @ w0 - r))
        g = {"p_latent": self.rng.normal(size=(10, 3)), "r": self.rng.normal(size=(3, 7))}
        sgd_step(state, g)
        assert np.array_equal(state.p_latent, p - 0.1 * g["p_latent"])
        assert np.array_equal(state.r, r - 0.4 * g["r"])
