"""The three adapter mechanisms over a frozen base weight.

All three leave the m x n base matrix w0 untouched and train a small set
of extra matrices, differing in how the effective weight is assembled:

* lora:  W = w0 + (alpha / rank) * b_lo @ a, with b_lo zero-initialized so
  the adapter starts as an exact no-op.
* para:  W = w0 - Q Q^T w0, pure removal of the Q subspace from w0.
* deft:  W = w0 - P P^T w0 + P R, subspace removal plus a trainable
  low-rank replacement inside that subspace. R starts at zero, so a fresh
  deft adapter acts exactly like a para adapter with the same latent.
  It is computed as W = w0 - P (P^T w0 - R); see _adapted.

For para and deft, the projection factor (Q or P) is produced from a
trainable latent matrix by a decomposition backend; refresh returns it,
factoring the latent as it is at the call, so no change to the latent
(an optimizer step, an in-place edit or a reassignment) can leave a
reader with a stale factor. Each forward or merge pass factors once and
keeps that factor on the state for the pass's other readers. lora takes
no backend and has no factor.

Which matrices train is stated once, in ``_TRAINABLES``: per method, its
trainables in storage order with their shapes. The first is the p-side
factor (lora's a, para's q_latent, deft's p_latent): gaussian at init and
trained at lr_p. The second, if any, is the r-side factor (lora's b_lo,
deft's r): zero at init and trained at lr_r. para is deft without R.
Initialization, parameter counts, the SGD step and the checkpoint layout
all derive from this table.

The training step's algebra lives here too: _adapted is the forward pass,
_gradients its gradient, and both use the factor P and the rank x k
coefficient z = P^T base - R x, which _adapted computes and keeps on the
state for _gradients to read. The gradients are exact for the relax
backends, where the factor is the latent. For factorizing backends the
same formulas apply straight-through: the factorization is frozen within
the step, and the factor's gradient is applied to the latent.
Differentiating through the factorizations is out of scope.

A step over an m x n layer with rank r and batch k costs O(r (m + n) k)
plus a fixed number of passes over m x k arrays (eight for para and deft,
seven for lora), and it writes one m x k array, the residual. Four things
make it so. The frozen base output y = w0 @ x is computed once per run,
because the batch is fixed and w0 never changes; every step's forward pass
and gradient reuse it. The forward pass applies both P terms through z: it
forms P z in a fresh buffer and subtracts it from y there in place (lora
scales and adds in its product's buffer), and the gradient reuses that z
rather than reading y for it again. The residual is that output with
the targets subtracted in place, and the loss scale 2 / (m k) is applied to
rank-sized products, never to the residual. And the gradient products are
associated so that each has a rank-sized operand: dP = -g z^T - y (P^T g)^T
rather than (g y^T) P, so no m x m or m x n matrix is ever formed.

At small sizes numpy's per-call dispatch, not the flops, sets a step's
speed, so every product with a rank-sized output (P^T base, R x, lora's
a x and every gradient product) is taken with ndarray.dot: the same BLAS
gemm as `@` through a cheaper call. The one product with an m x k output,
P z (lora's b_lo (a x)), keeps `@`, because dot takes a slower gemm path
for a large output; CHANGES.md gives the timings. The two give the same
bits, except that a 1 x 1 by 1 x 1 product (batch 1 on a 1-row or
1-column layer) may differ in the sign of an exact zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from deft.decompose import _KINDS, Backend, ConfigError, decompose
from deft.matcore import ShapeError, as_matrix, freeze, gaussian, make_rng

# method -> (name, rows, cols) per trainable in storage order, over an m x n
# base weight. First the p-side factor, then the r-side one if any.
_TRAINABLES = {
    "lora": (("a", "rank", "n"), ("b_lo", "m", "rank")),
    "para": (("q_latent", "m", "rank"),),
    "deft": (("p_latent", "m", "rank"), ("r", "rank", "n")),
}
# The order is the ADPT1 method tag (see deft.store): append, never reorder.
METHODS = tuple(_TRAINABLES)


@dataclass(frozen=True)
class AdapterConfig:
    """Method selection plus every knob training and persistence need.

    alpha defaults to rank, making the lora scale factor alpha/rank equal
    to 1. backend defaults to qr for para/deft; lora takes none. For a
    method with an r-side trainable (lora, deft), lr_r must be at least
    lr_p: the replacement term trains at a higher rate than the projection
    factor. A field the method never reads must hold its default, so that
    no config or checkpoint carries a setting that changes nothing: alpha
    is read by lora alone, and lr_r by lora and deft, not by para.
    """

    method: str
    rank: int
    alpha: float | None = None
    backend: Backend | None = None
    lr_p: float = 1e-3
    lr_r: float = 1e-2
    init_stddev: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", float(self.rank))
        for name in ("alpha", "lr_p", "lr_r", "init_stddev"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.method == "lora":
            if self.backend is not None:
                raise ConfigError("lora takes no backend")
        elif self.backend is None:
            object.__setattr__(self, "backend", Backend("qr"))
        if not self.lr_p > 0:
            raise ConfigError(f"lr_p must be positive, got {self.lr_p}")
        r_side = len(_TRAINABLES[self.method]) > 1
        if r_side and self.lr_r < self.lr_p:
            raise ConfigError(f"lr_r ({self.lr_r}) must be >= lr_p ({self.lr_p})")
        if self.init_stddev < 0:
            raise ConfigError(f"init_stddev must be >= 0, got {self.init_stddev}")
        if not 0 <= self.seed < 2**64:  # an ADPT1 header stores it as a u64
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        unread = {} if self.method == "lora" else {"alpha": float(self.rank)}
        if not r_side:
            unread["lr_r"] = AdapterConfig.lr_r
        for name, default in unread.items():
            if getattr(self, name) != default:
                raise ConfigError(f"{self.method} does not read {name}: it must hold its "
                                  f"default {default}, got {getattr(self, name)}")


def config_from_fields(method, rank, backend=None, nmf_iters=None, nmf_tol=None, **rest):
    """AdapterConfig from the flat fields of a config file, ADPT1 header or adapt-init.

    backend is a kind name; rest holds alpha, lr_p, lr_r, init_stddev and seed.
    A None field takes its default, the nmf knobs need a backend, and every
    rejection is a ConfigError.
    """
    knobs = {k: v for k, v in (("nmf_iters", nmf_iters), ("nmf_tol", nmf_tol)) if v is not None}
    if backend is not None:
        backend = Backend(backend, **knobs)
    elif knobs:
        raise ConfigError("nmf_iters/nmf_tol given without a backend")
    return AdapterConfig(method, rank, backend=backend,
                         **{k: v for k, v in rest.items() if v is not None})


@dataclass
class AdapterState:
    """Trainable state for one adapted layer.

    Only the method's own trainables (see _TRAINABLES) are set; the rest
    stay None. w0 is a read-only array; writes raise. p and z are the
    para/deft factor and coefficient of the last forward or merge pass (see
    _adapted), which _gradients and the pass's caller read; they are None
    before the first pass, and no checkpoint holds them.
    """

    cfg: AdapterConfig
    w0: np.ndarray
    a: np.ndarray | None = None
    b_lo: np.ndarray | None = None
    q_latent: np.ndarray | None = None
    p_latent: np.ndarray | None = None
    r: np.ndarray | None = None
    p: np.ndarray | None = None
    z: np.ndarray | None = None


def trainable_shapes(cfg, m, n):
    """Name -> (rows, cols) of cfg's trainables over an m x n layer, in storage order.

    The one rule for whether cfg fits a layer: a dim below 1 is a
    ShapeError, a rank above min(m, n) a ConfigError.
    """
    if m < 1 or n < 1:
        raise ShapeError(f"matrix dims must be positive, got {m}x{n}")
    if cfg.rank > min(m, n):
        raise ConfigError(f"rank {cfg.rank} exceeds min(m, n) = {min(m, n)} for shape ({m}, {n})")
    dims = {"m": m, "n": n, "rank": cfg.rank}
    return {name: (dims[rows], dims[cols]) for name, rows, cols in _TRAINABLES[cfg.method]}


def init_adapter(w0, cfg):
    """Fresh adapter state over frozen `w0`, which cfg must fit (see trainable_shapes).

    The p-side trainable is gaussian-initialized from cfg.init_stddev and
    cfg.seed; the r-side one, if any, starts at zero, making the adapter
    start as the identity update. A draw that overflows float64 is a
    ConfigError naming init_stddev: no checkpoint could hold it.
    """
    w0 = freeze(as_matrix(w0, "w0"))
    (p_name, p_shape), *r_side = trainable_shapes(cfg, *w0.shape).items()
    draw = gaussian(make_rng(cfg.seed), *p_shape, cfg.init_stddev)
    if not np.isfinite(draw).all():
        raise ConfigError(f"init_stddev {cfg.init_stddev} overflows float64 in the initial "
                          f"{p_name} draw")
    return AdapterState(cfg, w0, **{p_name: draw},
                        **{name: np.zeros(shape) for name, shape in r_side})


def trainables(state):
    """Name -> array map of the trainable matrices, in storage order."""
    return {name: getattr(state, name) for name, _, _ in _TRAINABLES[state.cfg.method]}


def refresh(state):
    """The P (deft) or Q (para) of the state's current latent; the state is not written.

    Every call factors the latent anew, so any change to it, in place or
    by reassignment, is seen here. lora has no factor: ConfigError.

    tsvd and lrmf always factor with LAPACK's thin SVD (decompose's
    portable=False), so every reader of a latent, in training or after a
    reload, gets the same basis: deft's update depends on the basis, not
    only on its span, because R is trained in P's coordinates. No adapter
    output was portable across BLAS libraries anyway, since forward, merge
    and the loss go through BLAS gemm.
    """
    cfg = state.cfg
    if cfg.backend is None:
        raise ConfigError("lora has no projection factor")
    latent = getattr(state, _TRAINABLES[cfg.method][0][0])  # the p-side factor
    return decompose(latent, cfg.backend, cfg.rank, seed=cfg.seed, portable=False).p_factor


def _adapted(state, base, x=None):
    """`base` (w0 or w0 @ x) plus the adapter's update, applied to x if given.

    para/deft: base - P z with z = P^T base - R x (R itself when x is None,
    no R term for para), P = refresh(state); P and z are kept as state.p
    and state.z for _gradients and the caller. lora: base +
    (alpha / rank) * b_lo (a x). The result is always a fresh array, never
    `base`; the module docstring gives the pass counts this association buys.
    """
    cfg = state.cfg
    if cfg.method == "lora":
        out = state.b_lo @ (state.a if x is None else state.a.dot(x))  # m x k: `@`, as P z
        out *= cfg.alpha / cfg.rank
        out += base
        return out
    p = state.p = refresh(state)
    z = state.z = p.T.dot(base)
    if state.r is not None:
        z -= state.r if x is None else state.r.dot(x)
    out = p @ z  # m x k: `@`, see the module docstring
    return np.subtract(base, out, out=out)


def _gradients(state, x, y, diff):
    """Gradients of the mean of diff**2, where diff is the adapted output on x minus targets.

    y = w0 @ x is the base output the forward pass read, and the factor and
    the coefficient z are the ones it kept: the caller runs forward on the
    same (x, y) just before. Keys and order match trainables(state).
    """
    m, k = diff.shape
    scale = 2.0 / (m * k)  # dL/dh = scale * diff
    cfg = state.cfg
    if cfg.method == "lora":
        scale *= cfg.alpha / cfg.rank
        return {"a": scale * state.b_lo.T.dot(diff).dot(x.T),
                "b_lo": scale * diff.dot(x.T.dot(state.a.T))}
    p_name = _TRAINABLES[cfg.method][0][0]
    p = state.p
    pg = scale * p.T.dot(diff)
    dr = {} if state.r is None else {"r": pg.dot(x.T)}
    # dP = -g z^T - y g^T P with g = dL/dh
    dp = -scale * diff.dot(state.z.T) - y.dot(pg.T)
    mask = _KINDS[cfg.backend.kind].ste_mask
    if mask is not None:  # e.g. relax_nmf: the subgradient of max(latent, 0)
        dp = dp * mask(getattr(state, p_name))
    return {p_name: dp, **dr}


def check_inputs(state, x):
    """`x` as a validated batch for the layer: a finite n x k matrix."""
    x = as_matrix(x, "x")
    n = state.w0.shape[1]
    if x.shape[0] != n:
        raise ShapeError(f"x has {x.shape[0]} rows, expected the layer width {n}")
    return x


def forward(state, x, base=None):
    """Apply the adapted layer to a batch x (n x k, one column per input).

    `base` is the frozen output w0 @ x when the caller already has it (a
    training loop over a fixed batch computes it once); forward then skips
    the m x n x k product and returns the same bits. The result is a new
    array; neither x nor base is written.

    x is validated (shape and finiteness) on every call, even in a training
    loop whose batch was checked once: forward is a public entry point,
    and the scan is a small part of a step.
    """
    x = check_inputs(state, x)
    if base is None:
        base = state.w0 @ x
    elif np.shape(base) != (state.w0.shape[0], x.shape[1]):
        raise ShapeError(
            f"base has shape {np.shape(base)}, expected w0 @ x of shape "
            f"{(state.w0.shape[0], x.shape[1])}"
        )
    return _adapted(state, base, x)


def merge(state):
    """Collapse the adapter into one explicit m x n weight matrix.

    forward(state, x) equals merge(state) @ x up to float rounding; the
    merged matrix is what would be shipped after adaptation.
    """
    return _adapted(state, state.w0)


def param_count(cfg, m, n):
    """Trainable-parameter count for a cfg applied to an m x n layer.

    lora and deft both spend rank * (m + n); para spends rank * m. The
    deft/para ratio is therefore (m + n) / m regardless of rank. A cfg that
    does not fit the layer is refused as in trainable_shapes.
    """
    return sum(rows * cols for rows, cols in trainable_shapes(cfg, m, n).values())
