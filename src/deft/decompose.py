"""Factorization backends that turn a trainable latent matrix into a
projection factor.

``decompose(b, backend, rank)`` is the one entry point. It maps a matrix
(an m x r latent, or any matrix plus a target rank) to a
``DecompositionResult`` whose ``p_factor`` has ``rank`` columns. Backends
differ in what they promise about that factor:

============  =======================================  ==================
kind          p_factor                                 aux
============  =======================================  ==================
qr            orthonormal Q with b = Q @ r_tri         r_tri (upper tri)
tsvd          top-r left singular vectors              s (1-D), v
lrmf          scaled basis U_r * sqrt(s_r)             s (1-D), v
nmf           non-negative W with b ~ W @ H            h, err_trace (1-D)
eig           top-r eigenvectors of b @ b.T via SVD    lambda = s**2 (1-D)
relax         b itself, no factorization               (none)
relax_nmf     max(b, 0) elementwise                    (none)
============  =======================================  ==================

qr, tsvd and eig yield orthonormal columns; lrmf, nmf and the relax pair
deliberately do not, and nothing downstream may assume it for them.

``_KINDS`` is the single source of each kind's rules (see ``_Kind``); the
dispatch, reconstruction, CLI output files and training gradient read it.
``decompose`` validates the matrix and the rank once, so a kind's factor
rule receives a checked float64 matrix and a rank in range.

By default the SVD behind tsvd and lrmf is the one-sided Jacobi routine
in ``deft._jacobi``, which acceptance check c10 times: a LAPACK thin SVD
of a 3072 x 8 latent would beat nmf and invert that speed ordering. Only
a direct call takes that portable default; an adapter always factors
with LAPACK (see deft.adapters.refresh), and so does eig, through tsvd's
``_svd`` call. What ``portable`` changes is said once, in ``decompose``'s
docstring.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from deft._jacobi import _fix_signs, jacobi_svd
from deft.matcore import ShapeError, as_matrix, make_rng, unit_exponent


class ConfigError(ValueError):
    """Invalid adapter or backend configuration."""


@dataclass(frozen=True)
class Backend:
    """Selects a factorization kind and its nmf knobs.

    kind may use ``-`` for ``_``; the ``_`` form is stored. The knobs are
    keyword-only, and only the nmf kind reads them: every other kind holds
    their defaults. The rank of the factor is not a backend field:
    ``decompose`` takes it.
    """

    kind: str
    # The nmf multiplicative-update budget. Deliberately small: a training run
    # refactorizes the latent on every step, so the per-step cost must sit in the
    # same cheap tier as qr/relax, and a warm-ish approximate factor is all the
    # adapter math needs.
    nmf_iters: int = field(default=15, kw_only=True)
    nmf_tol: float = field(default=1e-6, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "kind", self.kind.replace("-", "_"))
        if self.kind not in KINDS:
            raise ConfigError(f"unknown backend kind {self.kind!r}, expected one of {KINDS}")
        if not 1 <= self.nmf_iters < 2**64:  # an ADPT1 header stores it as a u64
            raise ConfigError(f"nmf_iters must be in [1, 2**64), got {self.nmf_iters}")
        if not 0 <= self.nmf_tol < math.inf:
            raise ConfigError(f"nmf_tol must be finite and >= 0, got {self.nmf_tol}")
        knobs = (self.nmf_iters, self.nmf_tol)
        if self.kind != "nmf" and knobs != (Backend.nmf_iters, Backend.nmf_tol):
            raise ConfigError(f"{self.kind} takes the default nmf_iters, nmf_tol; got {knobs}")


@dataclass
class DecompositionResult:
    """A kind's factor, the aux factors that rebuild the input, notes and stats.

    notes name conditions the factor met (e.g. ``"degenerate_columns"``).
    stats holds counts of how it was reached, not factors, so neither
    ``reconstruct`` nor ``deft decompose`` reads them. ``"sweeps"``, the
    sweeps of the converged Jacobi run, is present exactly when a Jacobi
    SVD ran: for tsvd and lrmf unless ``portable=False``.

    The record is not frozen. Freezing would guard nothing: the factor
    arrays are writable and aux and stats are dicts, and no code assigns
    to a field. A frozen __init__ costs about four times a plain one, and
    a training run builds one record per step.
    """

    kind: str
    p_factor: np.ndarray
    aux: dict = field(default_factory=dict)
    notes: tuple = ()
    stats: dict = field(default_factory=dict)


def _qr(b, r, backend, seed, portable):
    """Thin QR of an m x r latent, b = Q @ r_tri.

    Q always comes back with r orthonormal columns. When b is (numerically)
    rank deficient the Householder process still fills the dependent
    directions with valid orthonormal vectors; those columns carry a
    near-zero diagonal in r_tri and the result is flagged with a
    ``"degenerate_columns"`` note instead of failing, since latents start
    near zero and training has to proceed through that regime.

    Signs follow the package convention: the largest-magnitude entry of
    each Q column is non-negative.
    """
    if b.shape[0] < r:
        raise ShapeError(f"qr latent must be tall or square, got {b.shape}")
    q, r_tri = np.linalg.qr(b)
    _fix_signs(q, r_tri.T)  # flips the rows of r_tri with the columns of q
    diag = abs(r_tri.diagonal()).tolist()  # an all-zero diagonal flags every column
    notes = ("degenerate_columns",) if min(diag) <= 1e-12 * max(diag) else ()
    return DecompositionResult("qr", q, {"r_tri": r_tri}, notes)


def _svd(b, portable):
    """Thin SVD of b and its stats: the Jacobi SVD, or LAPACK's when not `portable`.

    LAPACK factors a wide b transposed, as the Jacobi SVD does, so that both
    sign the singular vectors of b's longer side.
    """
    if portable:
        stats = {}
        u, s, v = jacobi_svd(b, stats=stats)
        return u, s, v, stats
    wide = b.shape[0] < b.shape[1]
    u, s, vt = np.linalg.svd(b.T if wide else b, full_matrices=False)
    v = vt.T
    _fix_signs(u, v)
    return (v, s, u, {}) if wide else (u, s, v, {})


def _tsvd(b, r, backend, seed, portable):
    """Best rank-r approximation factors of `b` via the thin SVD."""
    u, s, v, stats = _svd(b, portable)
    aux = {"s": s[:r].copy(), "v": v[:, :r].copy()}
    return DecompositionResult("tsvd", np.ascontiguousarray(u[:, :r]), aux, stats=stats)


def _lrmf(b, r, backend, seed, portable):
    """Scaled-basis factorization: tsvd's factor U_r times sqrt(s_r), with tsvd's aux.

    A zero singular value among the top r produces a zero column; that is
    allowed and flagged with a ``"zero_singular_columns"`` note.
    """
    res = _tsvd(b, r, backend, seed, portable)
    s_r = res.aux["s"]
    s_list = s_r.tolist()  # non-increasing
    notes = ("zero_singular_columns",) if min(s_list) <= 1e-12 * s_list[0] else ()
    return DecompositionResult("lrmf", res.p_factor * np.sqrt(s_r), res.aux, notes, res.stats)


def _nmf(b, r, backend, seed, portable):
    """Non-negative factorization b ~ W @ H by multiplicative updates.

    Negative entries of `b` are clamped to zero first (with a warning);
    the factorization is defined on the non-negative part only. A part
    with no positive entry factors exactly as zero, with err_trace [0.0],
    before any scaling or draw. Otherwise the factors are initialized from
    a seeded uniform(0, 1) draw scaled by sqrt(mean(b) / r). The
    reconstruction error is non-increasing across iterations; iteration
    stops after backend.nmf_iters rounds, or early once the relative
    improvement drops below backend.nmf_tol.

    aux carries the H factor and ``err_trace``, the Frobenius error
    measured before each update round plus once after the last.

    The updates guard each denominator with an absolute 1e-12, which would
    swamp small data, and the squared norm of an input with entries near
    1e154 overflows. The input is factored times 4**-k, W and H are scaled
    back by 2**k each and err_trace by 4**k. k is 0 while the largest
    entry lies in [2**-10, 2**500), and otherwise brings it to unit scale.
    """
    m, n = b.shape
    notes = ()
    if np.count_nonzero(b < 0.0):
        warnings.warn("nmf input has negative entries; clamping to zero", stacklevel=2)
        b = np.maximum(b, 0.0)
        notes = ("clamped_negative_input",)
    if not np.count_nonzero(b > 0.0):
        zero_aux = {"h": np.zeros((r, n)), "err_trace": np.zeros(1)}
        return DecompositionResult("nmf", np.zeros((m, r)), zero_aux, notes)
    top = b.max()
    half = 0 if 2.0**-10 <= top < 2.0**500 else unit_exponent(b) // 2
    b = np.ldexp(b, -2 * half)

    rng = make_rng(seed)
    scale = np.sqrt(float(b.mean()) / r)
    w = rng.uniform(0.0, 1.0, size=(m, r)) * scale
    h = rng.uniform(0.0, 1.0, size=(r, n)) * scale

    bnorm2 = float(np.einsum("ij,ij->", b, b))
    eps = 1e-12
    trace = []
    prev = None
    for _ in range(backend.nmf_iters):
        wtb = w.T @ b
        wtw = w.T @ w
        # error of the current (w, h) from already-needed products:
        # |b - wh|^2 = |b|^2 - 2<wtb, h> + <wtw @ h, h>
        err2 = bnorm2 - 2.0 * np.einsum("ij,ij->", wtb, h) + np.einsum("ij,ij->", wtw @ h, h)
        err = float(np.sqrt(max(err2, 0.0)))
        trace.append(err)
        if prev is not None and prev - err < backend.nmf_tol * max(prev, eps):
            break
        prev = err
        h *= wtb / (wtw @ h + eps)
        bht = b @ h.T
        hht = h @ h.T
        w *= bht / (w @ hht + eps)
    else:
        diff = b - w @ h
        trace.append(float(np.sqrt(np.einsum("ij,ij->", diff, diff))))

    aux = {"h": np.ldexp(h, half), "err_trace": np.ldexp(trace, 2 * half)}  # input's scale
    return DecompositionResult("nmf", np.ldexp(w, half), aux, notes)


def _eig(b, r, backend, seed, portable):
    """Top-r eigenvectors of b @ b.T as the projection factor.

    They are b's top-r left singular vectors, tsvd's factor with
    portable=False, so b @ b.T is never formed. aux carries ``lambda``, the
    matching eigenvalues: the squared singular values, sorted non-increasing.
    """
    u, s, _, _ = _svd(b, False)
    return DecompositionResult("eig", np.ascontiguousarray(u[:, :r]), {"lambda": s[:r] ** 2})


@dataclass(frozen=True)
class _Kind:
    """The rules of one backend kind; see ``_KINDS``."""

    factor: Callable  # (b, r, backend, seed, portable) -> DecompositionResult
    rebuild: Callable  # (result, b) -> the rank-r approximation of b
    aux_stems: dict  # aux key -> file stem in `deft decompose` output
    intrinsic_rank: bool = False  # rank is b's column count, not a truncation
    ste_mask: Callable | None = None  # straight-through gradient mask of a clipped latent


# The key order is the ADPT1 backend tag (see deft.store): append, never reorder.
# relax and relax_nmf do not factorize: the latent, or its non-negative part,
# is the factor.
_KINDS = {
    "qr": _Kind(_qr, lambda res, b: res.p_factor @ res.aux["r_tri"],
                {"r_tri": "rtri"}, intrinsic_rank=True),
    "tsvd": _Kind(_tsvd, lambda res, b: res.p_factor @ (res.aux["s"][:, None] * res.aux["v"].T),
                  {"s": "s", "v": "v"}),
    "lrmf": _Kind(_lrmf,
                  lambda res, b: res.p_factor @ (np.sqrt(res.aux["s"])[:, None] * res.aux["v"].T),
                  {"s": "s", "v": "v"}),
    "nmf": _Kind(_nmf, lambda res, b: res.p_factor @ res.aux["h"],
                 {"h": "h", "err_trace": "errtrace"}),
    "eig": _Kind(_eig,
                 lambda res, b: res.p_factor @ (res.p_factor.T @ np.asarray(b, dtype=np.float64)),
                 {"lambda": "lam"}),
    "relax": _Kind(lambda b, r, bk, seed, portable: DecompositionResult("relax", b.copy()),
                   lambda res, b: res.p_factor.copy(), {}, intrinsic_rank=True),
    "relax_nmf": _Kind(lambda b, r, bk, seed, portable:
                       DecompositionResult("relax_nmf", np.maximum(b, 0.0)),
                       lambda res, b: res.p_factor.copy(), {},
                       intrinsic_rank=True, ste_mask=lambda latent: latent > 0.0),
}
KINDS = tuple(_KINDS)


def decompose(b, backend, rank=None, seed=0, portable=True):
    """Factor `b` with `backend` into a rank-`rank` factor. Deterministic in its arguments.

    A kind with an intrinsic rank (qr, relax, relax_nmf) takes b's column
    count as its rank and rejects any other; the others truncate to
    `rank`, which must lie in [1, min(b.shape)]. rank=None takes the
    largest rank the kind allows: the column count for an intrinsic kind,
    min(b.shape) otherwise. `seed` draws nmf's initial factors.

    `portable` selects the SVD behind tsvd and lrmf; every other kind
    ignores it. With `portable` (the default) they take the Jacobi SVD of
    deft._jacobi, whose rotations call no BLAS or LAPACK routine, so its
    bits do not depend on those libraries, except where a zero singular
    value leaves columns to fill (_complete_basis uses BLAS ``@`` and
    ``np.linalg.norm``). portable=False, which every adapter's factor
    takes, puts them on LAPACK's thin SVD, faster on small inputs, in the
    same order and sign convention, with no ``"sweeps"`` in stats. The
    singular values agree to rounding, and so do the vectors where the
    singular values are well apart; where they (nearly) coincide, only the
    span is defined and the two may pick different bases of it. Either way
    the bits of qr (``np.linalg.qr``), eig (always LAPACK's SVD, as tsvd
    with portable=False) and nmf (BLAS ``@``) depend on the BLAS and
    LAPACK libraries; relax and relax_nmf are exact.
    """
    b = as_matrix(b, "b")
    kind = _KINDS[backend.kind]
    if kind.intrinsic_rank:
        rank = b.shape[1] if rank is None else rank
        if rank != b.shape[1]:
            raise ShapeError(
                f"{backend.kind} backend rank {rank} must equal latent column count {b.shape[1]}")
    else:
        rank = min(b.shape) if rank is None else rank
        if not 1 <= rank <= min(b.shape):
            raise ShapeError(f"rank {rank} out of range for shape {b.shape}")
    return kind.factor(b, rank, backend, seed, portable)


def reconstruct(result, b):
    """Rank-r approximation of `b`, the matrix `result` factored.

    eig reconstructs by projecting `b`; every other kind reconstructs
    from its own factors and ignores it.
    """
    return _KINDS[result.kind].rebuild(result, b)
