"""The three adapter mechanisms over a frozen base weight.

All three leave the m x n base matrix w0 untouched and train a small set
of extra matrices, differing in how the effective weight is assembled:

* lora:  W = w0 + (alpha / rank) * b_lo @ a, with b_lo zero-initialized so
  the adapter starts as an exact no-op.
* para:  W = w0 - Q Q^T w0, pure removal of the Q subspace from w0.
* deft:  W = w0 - P P^T w0 + P R, subspace removal plus a trainable
  low-rank replacement inside that subspace. R starts at zero, so a fresh
  deft adapter acts exactly like a para adapter with the same latent.
  Both P terms go through one rank-sized coefficient, and that is how it
  is computed: W = w0 - P (P^T w0 - R), and W x = y - P (P^T y - R x)
  with y = w0 x.

For para and deft, the projection factor (Q or P) is produced from a
trainable latent matrix by a decomposition backend. The factorization is
cached together with the bytes of the latent it was built from, and it is
recomputed whenever the latent's bits differ from those, however the
latent was changed: an optimizer step, an in-place edit or a reassignment.
lora ignores the backend entirely.

Which matrices train is stated once, in ``_TRAINABLES``: per method, its
trainables in storage order with their shapes. The first is the p-side
factor (lora's a, para's q_latent, deft's p_latent): gaussian at init and
trained at lr_p. The second, if any, is the r-side factor (lora's b_lo,
deft's r): zero at init and trained at lr_r. para is deft without R.
Initialization, parameter counts, the SGD step and the checkpoint layout
all derive from this table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from deft.decompose import Backend, ConfigError, DecompositionResult, decompose
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
    to 1. backend defaults to qr for para/deft and is forced to None for
    lora. lr_r must be at least lr_p: the in-subspace replacement term
    trains at a higher rate than the projection factor.
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
            object.__setattr__(self, "backend", None)
        else:
            if self.backend is None:
                object.__setattr__(self, "backend", Backend("qr", self.rank))
            if self.backend.rank != self.rank:
                raise ConfigError(
                    f"backend rank {self.backend.rank} does not match adapter rank {self.rank}"
                )
        if not self.lr_p > 0:
            raise ConfigError(f"lr_p must be positive, got {self.lr_p}")
        if self.lr_r < self.lr_p:
            raise ConfigError(f"lr_r ({self.lr_r}) must be >= lr_p ({self.lr_p})")
        if self.init_stddev < 0:
            raise ConfigError(f"init_stddev must be >= 0, got {self.init_stddev}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def config_from_fields(method, rank, backend=None, nmf_iters=None, nmf_tol=None, **rest):
    """AdapterConfig from the flat fields of a config file, ADPT1 header or adapt-init.

    backend is a kind name; rest holds alpha, lr_p, lr_r, init_stddev and seed.
    A None field takes its default, the nmf knobs need a backend, and every
    rejection is a ConfigError.
    """
    knobs = {k: v for k, v in (("nmf_iters", nmf_iters), ("nmf_tol", nmf_tol)) if v is not None}
    if backend is not None:
        backend = Backend(backend, rank, **knobs)
    elif knobs:
        raise ConfigError("nmf_iters/nmf_tol given without a backend")
    return AdapterConfig(method, rank, backend=backend,
                         **{k: v for k, v in rest.items() if v is not None})


@dataclass
class AdapterState:
    """Trainable state for one adapted layer.

    Only the method's own trainables (see _TRAINABLES) are set; the rest
    stay None. w0 is a read-only array; writes raise. cache is None or a
    (latent bytes, factorization) pair; see refresh.
    """

    cfg: AdapterConfig
    w0: np.ndarray
    a: np.ndarray | None = None
    b_lo: np.ndarray | None = None
    q_latent: np.ndarray | None = None
    p_latent: np.ndarray | None = None
    r: np.ndarray | None = None
    cache: tuple[bytes, DecompositionResult] | None = None

    @property
    def shape(self):
        return self.w0.shape


def trainable_shapes(cfg, m, n):
    """Name -> (rows, cols) of cfg's trainables over an m x n layer, in storage order."""
    dims = {"m": m, "n": n, "rank": cfg.rank}
    return {name: (dims[rows], dims[cols]) for name, rows, cols in _TRAINABLES[cfg.method]}


def _check_rank(cfg, m, n):
    if cfg.rank > min(m, n):
        raise ConfigError(f"rank {cfg.rank} exceeds min(m, n) = {min(m, n)} for shape ({m}, {n})")


def init_adapter(w0, cfg):
    """Fresh adapter state over frozen `w0`.

    The p-side trainable is gaussian-initialized from cfg.init_stddev and
    cfg.seed; the r-side one, if any, starts at zero, making the adapter
    start as the identity update.
    """
    w0 = freeze(as_matrix(w0, "w0"))
    m, n = w0.shape
    _check_rank(cfg, m, n)
    rng = make_rng(cfg.seed)
    state = AdapterState(cfg=cfg, w0=w0)
    (p_name, p_shape), *r_side = trainable_shapes(cfg, m, n).items()
    setattr(state, p_name, gaussian(rng, *p_shape, cfg.init_stddev))
    for name, shape in r_side:
        setattr(state, name, np.zeros(shape))
    return state


def trainables(state):
    """Name -> array map of the trainable matrices, in storage order."""
    return {name: getattr(state, name) for name, _, _ in _TRAINABLES[state.cfg.method]}


def refresh(state):
    """Factorize the p-side latent unless the cache was built from the same bytes.

    The key is the latent's bytes, so -0.0 and 0.0 differ, as they may in
    a factor. Any change to the latent, in place or by reassignment, is
    seen here; nothing has to mark the cache out of date.
    """
    cfg = state.cfg
    if cfg.backend is None:  # lora: nothing to factorize
        return state
    latent = getattr(state, _TRAINABLES[cfg.method][0][0])  # the p-side factor
    key = latent.tobytes()
    if state.cache is None or state.cache[0] != key:
        state.cache = (key, decompose(latent, cfg.backend, seed=cfg.seed))
    return state


def projection_factor(state):
    """Current P (deft) or Q (para) from the cached factorization."""
    if state.cfg.backend is None:
        raise ConfigError("lora has no projection factor")
    return refresh(state).cache[1].p_factor


def _adapted(state, base, x=None):
    """`base` (w0 or w0 @ x) plus the adapter's update, applied to x if given.

    para/deft: base - P (P^T base - R x), with R x read as R when x is None
    and the R term absent for para. Both P terms share one rank x k
    coefficient, so the only m x k array written is the result: the P
    product is formed in its own buffer and base is subtracted from it in
    place. lora: base + (alpha / rank) * b_lo (a x), scaled and added in the
    product's buffer. The result is always a fresh array, never `base`.
    """
    cfg = state.cfg
    if cfg.method == "lora":
        out = state.b_lo @ (state.a if x is None else state.a @ x)
        out *= cfg.alpha / cfg.rank
        out += base
        return out
    p = projection_factor(state)
    z = p.T @ base
    if state.r is not None:
        z -= state.r if x is None else state.r @ x
    out = p @ z
    return np.subtract(base, out, out=out)


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
    and the scan costs about half a millisecond on a 1024 x 1024 batch, a
    small part of a step there.
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
    deft/para ratio is therefore (m + n) / m regardless of rank. A rank
    above min(m, n) raises ConfigError, as in init_adapter.
    """
    if m < 1 or n < 1:
        raise ShapeError(f"matrix dims must be positive, got {m}x{n}")
    _check_rank(cfg, m, n)
    return sum(rows * cols for rows, cols in trainable_shapes(cfg, m, n).values())
