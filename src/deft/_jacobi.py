"""One-sided Jacobi SVD, behind a portable tsvd or lrmf decompose call.

Rotates column pairs of a working copy until all pairs are numerically
orthogonal; column norms are then the singular values, normalized columns
the left singular vectors, and the accumulated rotations the right ones.
Slower than bidiagonalization-based routines but accurate to a few ulps on
the small and strongly rank-deficient inputs this package cares about; what
that buys across platforms is said in ``deft.decompose.decompose``. Rank
counting does not need factors or that accuracy and uses LAPACK's singular
values instead (see ``deft.matcore.numerical_rank``).

The working copy is the input times a power of two that brings its largest
entry into [0.5, 1). The scaling is exact, and it keeps the sums of squares
below from overflowing or underflowing at any input scale; the singular
values are scaled back at the end.

Pairs are visited in round-robin rounds (the all-play-all tournament
schedule). Every pair still appears exactly once per sweep, but each round's
pairs are disjoint, so the rotations of a round vectorize across columns.

On small inputs the cost is per round, not per flop, so a round does as few
numpy calls as it can:

- Each round of the schedule is one index array of its i columns followed
  by its j columns in mirrored order, so the partner of position p is at
  position -1 - p. The schedule is rebuilt per call, at a few percent of
  the call's cost.
- The working copy g sits on top of the accumulated rotations v in one
  (m + n) x n array. A round gathers its columns from it once: the first m
  rows give all the dot products (two einsums), and the whole block is
  rotated and written back in one step, g and v together.
- The per-pair scalars are Python floats. Python's + - * / and sqrt round
  exactly as numpy's do, but ``math.hypot`` differs from ``np.hypot`` in the
  last bit on some inputs, so hypot stays one numpy call per round.
- The rotation is ``blk * [c, c mirrored] + blk[:, ::-1] * [-s, s mirrored]``,
  which is ``c*gi - s*gj`` and ``s*gi + c*gj`` exactly, because x - y is
  x + (-y) and addition commutes. It runs in place in the gathered block
  with one temporary: two more block-sized temporaries per round made a
  3072 x 8 call about twice as slow in a fresh process.
- A pair at or below `_TOL` is never rotated, not even by the identity: that
  would turn a -0.0 into 0.0. A round where only some pairs rotate gathers
  just their columns for the rotation.

A golden digest in the tests pins these bits.
"""

from __future__ import annotations

import math

import numpy as np

from deft.matcore import unit_exponent

_TOL = 1e-13  # convergence threshold on max |<g_i, g_j>| / (|g_i| |g_j|)
# Hard cap on full sweeps: convergence is quadratic in the tail, so finite input never reaches it
_MAX_SWEEPS = 60


class ConvergenceError(RuntimeError):
    """The Jacobi SVD used up its sweeps with column pairs still not orthogonal."""

    def __init__(self, sweeps, worst):
        super().__init__(
            f"Jacobi SVD did not converge in {sweeps} sweeps: "
            f"worst pair residual {worst:.3e} > tol {_TOL:.1e}"
        )
        self.sweeps = sweeps
        self.worst = worst


def _schedule(n):
    """Tournament schedule for n columns: one integer index array per round.

    Each round pairs disjoint columns; across rounds every unordered pair
    occurs once. A round's array holds its i columns, then its j columns
    mirrored (i < j), so the partner of position p is at position -1 - p.
    """
    players = list(range(n))
    if n % 2 == 1:
        players.append(-1)  # bye slot
    k = len(players)
    rounds = []
    for _ in range(k - 1):
        ia, ja = [], []
        for i in range(k // 2):
            a, b = players[i], players[k - 1 - i]
            if a != -1 and b != -1:
                ia.append(min(a, b))
                ja.append(max(a, b))
        rounds.append(np.array(ia + ja[::-1]))
        # rotate all but the first slot
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def _complete_basis(u, start):
    """Fill u[:, start:] with orthonormal columns via Gram-Schmidt.

    Deterministic: each new column comes from the standard basis vector
    e_i with the largest residual against the columns so far (lowest i on
    ties). With col orthonormal columns the squared residuals
    1 - |u[i, :col]|^2 sum to m - col, so the pick's residual is at least
    sqrt((m - col) / m) and never degenerate. Assumes u[:, :start] already
    has orthonormal columns.
    """
    for col in range(start, u.shape[1]):
        basis = u[:, :col]
        i = int(np.argmin(np.einsum("ij,ij->i", basis, basis)))
        cand = -(basis @ basis[i])
        cand[i] += 1.0
        cand -= basis @ (basis.T @ cand)  # second pass restores orthogonality lost to rounding
        u[:, col] = cand / np.linalg.norm(cand)
    return u


def _fix_signs(u, v):
    """Force the largest-magnitude entry of each u column non-negative.

    A column whose entry is negative is negated in u and in v, which may be
    a view (qr passes r_tri.T). The entries are read with one gather; on a
    magnitude tie the first row counts. u and v are multiplied by one row
    of +1.0 and -1.0. That is exact: x * 1.0 is x and x * -1.0 is -x, -0.0
    and 0.0 included, so the bits are those of negating the flipped
    columns alone, without a boolean gather and scatter of them.
    """
    peaks = u[abs(u).argmax(0), np.arange(u.shape[1])]
    signs = np.where(peaks < 0.0, -1.0, 1.0)
    u *= signs
    v *= signs


def jacobi_svd(a, stats=None):
    """Thin SVD of an m x n `a` by one-sided Jacobi rotations.

    Returns (u, s, v) with ``a = u @ diag(s) @ v.T``, s non-increasing, u
    and v having orthonormal columns. `stats`, if given, receives
    ``"sweeps"``: the sweeps the converged run took, the one that found
    every pair within `_TOL` included. A run whose last allowed sweep,
    number `_MAX_SWEEPS`, still finds a pair above `_TOL` raises
    ConvergenceError.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        # rotate over the smaller column count; swap roles on the way out
        u, s, v = jacobi_svd(a.T, stats=stats)
        return v, s, u

    shift = unit_exponent(a)
    # g (the scaled input) on top of v, so one gather and one write per round serve both.
    # w and the blocks gathered from it are C-ordered even for a transposed input; the
    # order fixes einsum's rounding.
    w = np.empty((m + n, n))
    np.ldexp(a, -shift, out=w[:m])
    w[m:] = np.eye(n)
    sweeps = 0
    if n > 1:
        rounds = _schedule(n)
        for sweeps in range(1, _MAX_SWEEPS + 1):
            worst = 0.0
            for cols in rounds:
                k = len(cols) // 2
                blk = w[:, cols]
                top = blk[:m]
                norms2 = np.einsum("ij,ij->j", top, top).tolist()
                betas = np.einsum("ij,ij->j", top[:, :k], top[:, ::-1][:, :k]).tolist()
                rot, taus = [], []
                for p in range(k):
                    alpha, gamma, beta = norms2[p], norms2[-1 - p], betas[p]
                    # sqrt before multiplying: alpha * gamma overflows near 1e308
                    denom = math.sqrt(alpha) * math.sqrt(gamma)
                    if denom > 0.0:  # a pair with a zero column is never rotated
                        rel = abs(beta) / denom
                        worst = max(worst, rel)
                        if rel > _TOL:
                            rot.append(p)
                            # a huge tau overflows to inf, giving t = 0, which is correct
                            taus.append((gamma - alpha) / (2.0 * beta))
                if not rot:
                    continue
                cs, ss = [], []
                for tau, h in zip(taus, np.hypot(1.0, taus).tolist()):
                    if tau == 0.0:
                        t = 1.0  # equal norms: rotate by 45 degrees
                    else:
                        t = (1.0 if tau > 0.0 else -1.0) / (abs(tau) + h)
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    cs.append(c)
                    ss.append(c * t)
                if len(rot) < k:
                    sel = rot + [2 * k - 1 - p for p in reversed(rot)]
                    blk, cols = blk[:, sel], cols[sel]
                # each column's partner sits at the mirrored position: c*gi - s*gj, s*gi + c*gj
                rest = blk[:, ::-1] * ([-s for s in ss] + ss[::-1])
                blk *= cs + cs[::-1]
                blk += rest
                w[:, cols] = blk
            if worst <= _TOL:
                break
        else:
            raise ConvergenceError(_MAX_SWEEPS, worst)
    if stats is not None:
        stats["sweeps"] = sweeps

    g = w[:m]
    norms = np.sqrt(np.einsum("ij,ij->j", g, g))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    g = g[:, order]
    v = w[m:, order]
    u = np.empty((m, n))
    nz = int(np.count_nonzero(norms > 0.0))
    u[:, :nz] = g[:, :nz] / norms[:nz]
    if nz < n:
        u[:, nz:] = 0.0
        _complete_basis(u, nz)
    _fix_signs(u, v)
    return u, np.ldexp(norms, shift), v
